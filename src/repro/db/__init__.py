"""Relational database substrate: relations, databases, queries and generators.

Relations store their tuples in pluggable backends (``"set"`` — the
reference frozenset-of-tuples — and ``"columnar"`` — dictionary-encoded
NumPy columns with lazy hash indexes); see :mod:`repro.db.backends` and the
:class:`Relation` facade in :mod:`repro.db.relation`.  Queries are
answered by :class:`repro.api.QueryEngine`, whose strategies lower to the
execution layer (:mod:`repro.exec`).
"""

from .backends import (
    BACKENDS,
    ColumnarBackend,
    RelationBackend,
    RelationStats,
    SetBackend,
    available_backends,
)
from .database import Database
from .generators import (
    bipartite_clique_pairs,
    clique_instance,
    four_cycle_instance,
    pyramid_instance,
    random_database,
    random_pairs,
    skewed_pairs,
    triangle_instance,
)
from .loader import (
    infer_column,
    load_table,
    sniff_delimiter,
)
from .query import (
    Atom,
    ConjunctiveQuery,
    QueryParseError,
    parse_query,
    query_from_hypergraph,
)
from .relation import Relation

__all__ = [
    "Atom",
    "BACKENDS",
    "ColumnarBackend",
    "ConjunctiveQuery",
    "Database",
    "QueryParseError",
    "Relation",
    "RelationBackend",
    "RelationStats",
    "SetBackend",
    "available_backends",
    "bipartite_clique_pairs",
    "clique_instance",
    "four_cycle_instance",
    "infer_column",
    "load_table",
    "parse_query",
    "pyramid_instance",
    "query_from_hypergraph",
    "random_database",
    "random_pairs",
    "skewed_pairs",
    "sniff_delimiter",
    "triangle_instance",
]
