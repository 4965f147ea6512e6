"""Synthetic workload generators.

The paper has no empirical section, so the benchmark workloads are built
here: random and skewed graphs (the degree skew is what decides whether
combinatorial or MM-based strategies win), instances with planted patterns
(so that Boolean answers are known), and generic random databases for an
arbitrary query hypergraph.

Every generator loads the database through the bulk fast paths
(:meth:`Database.bulk_load`, :meth:`Relation.from_columns`) instead of
per-row inserts, so building a 10^5-row instance costs a handful of
vectorized encodes rather than a Python loop per tuple.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .database import Database
from .query import ConjunctiveQuery, query_from_hypergraph
from .relation import Relation


def _rng(seed: Optional[int]) -> random.Random:
    return random.Random(seed)


def _relation_from_rows(
    schema: Sequence[str],
    rows: Iterable[Tuple],
    name: Optional[str] = None,
) -> Relation:
    """Build a relation through the columnar bulk path (rows → columns).

    Sorting makes the dictionary code assignment deterministic for a given
    seed regardless of set iteration order.
    """
    rows = sorted(rows)
    width = len(tuple(schema))
    columns = list(zip(*rows)) if rows else [()] * width
    return Relation.from_columns(schema, columns, name)


# ----------------------------------------------------------------------
# Graph-shaped binary relations
# ----------------------------------------------------------------------
def random_pairs(
    num_pairs: int, domain_size: int, seed: Optional[int] = None
) -> List[Tuple[int, int]]:
    """``num_pairs`` uniform random pairs over ``[0, domain_size)``."""
    rng = _rng(seed)
    pairs = set()
    attempts = 0
    limit = 20 * max(1, num_pairs)
    while len(pairs) < num_pairs and attempts < limit:
        pairs.add((rng.randrange(domain_size), rng.randrange(domain_size)))
        attempts += 1
    return sorted(pairs)


def skewed_pairs(
    num_pairs: int,
    domain_size: int,
    num_hubs: int = 8,
    hub_fraction: float = 0.5,
    seed: Optional[int] = None,
) -> List[Tuple[int, int]]:
    """Pairs with a heavy-hub skew: a few left values carry most of the edges.

    This is the degree configuration where matrix-multiplication strategies
    shine: the heavy part is small but dense.
    """
    rng = _rng(seed)
    hubs = list(range(min(num_hubs, domain_size)))
    pairs = set()
    target_hub_pairs = int(num_pairs * hub_fraction)
    attempts = 0
    limit = 30 * max(1, num_pairs)
    while len(pairs) < target_hub_pairs and attempts < limit:
        pairs.add((rng.choice(hubs), rng.randrange(domain_size)))
        attempts += 1
    while len(pairs) < num_pairs and attempts < limit:
        pairs.add((rng.randrange(domain_size), rng.randrange(domain_size)))
        attempts += 1
    return sorted(pairs)


def bipartite_clique_pairs(
    left: Sequence[int], right: Sequence[int]
) -> List[Tuple[int, int]]:
    """All pairs between two vertex sets (a dense block)."""
    return [(a, b) for a in left for b in right]


# ----------------------------------------------------------------------
# Instances for the named query classes
# ----------------------------------------------------------------------
def triangle_instance(
    num_edges: int,
    domain_size: Optional[int] = None,
    skew: str = "uniform",
    plant_triangle: bool = False,
    seed: Optional[int] = None,
) -> Database:
    """A database for the triangle query ``R(X,Y), S(Y,Z), T(X,Z)``.

    ``skew`` is ``"uniform"`` (Erdős–Rényi-style pairs) or ``"heavy"``
    (hub-skewed pairs).  ``plant_triangle`` forces at least one triangle so
    the Boolean answer is True by construction.
    """
    domain_size = domain_size or max(4, int(num_edges ** 0.5) * 2)
    generator = random_pairs if skew == "uniform" else skewed_pairs
    base_seed = seed if seed is not None else 0
    r_pairs = set(generator(num_edges, domain_size, seed=base_seed))
    s_pairs = set(generator(num_edges, domain_size, seed=base_seed + 1))
    t_pairs = set(generator(num_edges, domain_size, seed=base_seed + 2))
    if plant_triangle:
        r_pairs.add((0, 1))
        s_pairs.add((1, 2))
        t_pairs.add((0, 2))
    return Database().bulk_load(
        {
            "R": _relation_from_rows(("X", "Y"), r_pairs),
            "S": _relation_from_rows(("Y", "Z"), s_pairs),
            "T": _relation_from_rows(("X", "Z"), t_pairs),
        }
    )


def four_cycle_instance(
    num_edges: int,
    domain_size: Optional[int] = None,
    plant_cycle: bool = False,
    skew: str = "uniform",
    seed: Optional[int] = None,
) -> Database:
    """A database for the 4-cycle query ``R(X,Y), S(Y,Z), T(Z,W), U(W,X)``."""
    domain_size = domain_size or max(4, int(num_edges ** 0.5) * 2)
    generator = random_pairs if skew == "uniform" else skewed_pairs
    base_seed = seed if seed is not None else 0
    schemas = [("X", "Y"), ("Y", "Z"), ("Z", "W"), ("W", "X")]
    names = ["R", "S", "T", "U"]
    relations = {}
    planted = [(0, 1), (1, 2), (2, 3), (3, 0)]
    for position, (name, schema) in enumerate(zip(names, schemas)):
        pairs = set(generator(num_edges, domain_size, seed=base_seed + position))
        if plant_cycle:
            pairs.add(planted[position])
        relations[name] = _relation_from_rows(schema, pairs)
    return Database().bulk_load(relations)


def clique_instance(
    k: int,
    num_edges: int,
    domain_size: Optional[int] = None,
    plant_clique: bool = False,
    seed: Optional[int] = None,
) -> Tuple[ConjunctiveQuery, Database]:
    """A query + database pair for the k-clique query on a single random graph.

    All ``k·(k-1)/2`` atoms share the same underlying symmetric edge set
    (clique detection in one graph), realized as separate relations that
    share one encoded copy of the edges (renames reuse the storage).
    """
    from ..hypergraph.queries import clique as clique_hypergraph

    hypergraph = clique_hypergraph(k)
    query = query_from_hypergraph(hypergraph, prefix="E", name=f"clique{k}")
    domain_size = domain_size or max(4, int(num_edges ** 0.5) * 2)
    rng = _rng(seed)
    edges = set()
    attempts = 0
    while len(edges) < num_edges and attempts < 20 * num_edges:
        a, b = rng.randrange(domain_size), rng.randrange(domain_size)
        if a != b:
            edges.add((min(a, b), max(a, b)))
        attempts += 1
    if plant_clique:
        planted = list(range(domain_size, domain_size + k))
        for i in range(k):
            for j in range(i + 1, k):
                edges.add((planted[i], planted[j]))
    symmetric = edges | {(b, a) for a, b in edges}
    base = _relation_from_rows(("__a__", "__b__"), symmetric)
    return query, Database().bulk_load(
        {
            atom.relation: base.rename(
                dict(zip(("__a__", "__b__"), atom.variables))
            )
            for atom in query.atoms
        }
    )


def pyramid_instance(
    k: int,
    num_edges: int,
    domain_size: Optional[int] = None,
    plant: bool = False,
    seed: Optional[int] = None,
) -> Tuple[ConjunctiveQuery, Database]:
    """A query + database pair for the k-pyramid query (Eq. (31))."""
    from ..hypergraph.queries import pyramid as pyramid_hypergraph

    hypergraph = pyramid_hypergraph(k)
    query = query_from_hypergraph(hypergraph, prefix="P", name=f"pyramid{k}")
    domain_size = domain_size or max(4, int(num_edges ** 0.5) * 2)
    rng = _rng(seed)
    relations: Dict[str, Relation] = {}
    for atom in query.atoms:
        if len(atom.variables) == 2:
            pairs = set(random_pairs(num_edges, domain_size, seed=rng.randrange(1 << 30)))
            if plant:
                pairs.add((0,) * 2)
            relations[atom.relation] = _relation_from_rows(atom.variables, pairs)
        else:
            rows = set()
            while len(rows) < num_edges:
                rows.add(tuple(rng.randrange(domain_size) for _ in atom.variables))
            if plant:
                rows.add((0,) * len(atom.variables))
            relations[atom.relation] = _relation_from_rows(atom.variables, rows)
    return query, Database().bulk_load(relations)


def random_database(
    query: ConjunctiveQuery,
    tuples_per_relation: int,
    domain_size: Optional[int] = None,
    seed: Optional[int] = None,
    plant_witness: bool = False,
) -> Database:
    """A random database for an arbitrary query (independent random relations).

    ``plant_witness`` adds the all-zeros tuple to every relation so that the
    Boolean answer is guaranteed to be True.
    """
    rng = _rng(seed)
    domain_size = domain_size or max(4, int(tuples_per_relation ** 0.5) * 2)
    relations: Dict[str, Relation] = {}
    for atom in query.atoms:
        rows = set()
        attempts = 0
        while len(rows) < tuples_per_relation and attempts < 20 * tuples_per_relation:
            rows.add(tuple(rng.randrange(domain_size) for _ in atom.variables))
            attempts += 1
        if plant_witness:
            rows.add((0,) * len(atom.variables))
        relations[atom.relation] = _relation_from_rows(atom.variables, rows)
    return Database().bulk_load(relations)
