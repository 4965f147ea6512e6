"""Relational database substrate: relations, databases, queries and generators.

Relations store their tuples as dictionary-encoded NumPy columns with lazy
hash indexes (:class:`ColumnarBackend` in :mod:`repro.db.backends`) behind
the :class:`Relation` facade in :mod:`repro.db.relation`.  Queries are
answered by :class:`repro.api.QueryEngine`, whose strategies lower to the
execution layer (:mod:`repro.exec`).
"""

from .backends import ColumnarBackend, RelationStats
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
    "ColumnarBackend",
    "ConjunctiveQuery",
    "Database",
    "QueryParseError",
    "Relation",
    "RelationStats",
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
