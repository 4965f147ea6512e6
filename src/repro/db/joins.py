"""Join algorithms: naive, worst-case optimal, and Yannakakis.

These are the *combinatorial* baselines the paper's framework subsumes:

* :func:`naive_join` — fold the atoms with pairwise hash joins (no
  worst-case guarantee; the classical baseline);
* :func:`generic_join` — the worst-case optimal GenericJoin of Ngo, Ré and
  Rudra: one nested loop per variable, intersecting the candidate values of
  every covering atom (runtime ``O(N^{ρ*})``);
* :func:`yannakakis_boolean` — semijoin reduction along a join tree for
  acyclic queries (linear time).

Since the unified execution layer landed, these functions are *lowerings*:
each builds a physical-operator program (:mod:`repro.exec.lower`) and runs
it on the shared virtual machine (:mod:`repro.exec.vm`), which owns the
row-loop kernels that used to live here.  The public signatures and
semantics are unchanged.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .database import Database
from .query import ConjunctiveQuery
from .relation import Relation


# ----------------------------------------------------------------------
# Naive pairwise-join baseline
# ----------------------------------------------------------------------
def naive_join(query: ConjunctiveQuery, database: Database) -> Relation:
    """Fold all atoms left-to-right with binary hash joins (full result)."""
    from ..exec import lower_naive_join, run_program

    database.validate_against(query)
    result = run_program(lower_naive_join(query), database)
    assert result.relation is not None
    return result.relation


def naive_boolean(query: ConjunctiveQuery, database: Database) -> bool:
    """Boolean answer via the naive pairwise join."""
    from ..exec import lower_naive, run_program

    database.validate_against(query)
    return run_program(lower_naive(query), database).answer


# ----------------------------------------------------------------------
# GenericJoin (worst-case optimal)
# ----------------------------------------------------------------------
def generic_join(
    query: ConjunctiveQuery,
    database: Database,
    variable_order: Optional[Sequence[str]] = None,
    find_all: bool = True,
) -> Relation:
    """Worst-case optimal join by per-variable intersection.

    Variables are bound one at a time (in ``variable_order`` or a
    degree-based default); at each step the candidate values are obtained
    by intersecting, over every atom containing the variable, the values
    compatible with the current partial assignment.  With ``find_all=False``
    the search stops at the first satisfying assignment (the Boolean case).
    """
    from ..exec import lower_generic_join, run_program

    database.validate_against(query)
    if variable_order is None:
        variable_order = default_variable_order(query, database)
    else:
        variable_order = list(variable_order)
        if set(variable_order) != set(query.variables):
            raise ValueError("variable_order must cover exactly the query variables")
    program = lower_generic_join(query, variable_order, find_all=find_all, boolean=False)
    result = run_program(program, database)
    assert result.relation is not None
    return result.relation


def generic_join_boolean(
    query: ConjunctiveQuery,
    database: Database,
    variable_order: Optional[Sequence[str]] = None,
) -> bool:
    """Boolean answer via GenericJoin with early termination."""
    result = generic_join(query, database, variable_order, find_all=False)
    return not result.is_empty()


def default_variable_order(query: ConjunctiveQuery, database: Database) -> List[str]:
    """A degree-driven heuristic order: most constrained variables first.

    Reads the cached per-relation statistics (``V(A, r)``) straight off the
    stored relations — no per-atom renamed relation objects, no domain
    materialization — so ordering costs a handful of dictionary lookups
    once the backends' stat caches are warm.  Ties break by variable name:
    ``query.variables`` is a frozenset, and its iteration order follows
    ``PYTHONHASHSEED``.
    """
    scores = {}
    for variable in query.variables:
        covering = [a for a in query.atoms if variable in a.variable_set]
        domain_sizes = []
        for atom in covering:
            relation = database[atom.relation]
            column = relation.schema[atom.variables.index(variable)]
            domain_sizes.append(max(1, relation.stats.distinct(column)))
        scores[variable] = (-len(covering), min(domain_sizes))
    return sorted(query.variables, key=lambda v: (scores[v], v))


# ----------------------------------------------------------------------
# Yannakakis (acyclic queries)
# ----------------------------------------------------------------------
def _gyo_join_tree(query: ConjunctiveQuery) -> List[Tuple[str, Optional[str]]]:
    """A join tree as (atom, parent) pairs via GYO ear removal.

    Raises ``ValueError`` when the query is cyclic.
    """
    remaining: Dict[str, FrozenSet[str]] = {
        atom.relation: atom.variable_set for atom in query.atoms
    }
    exclusive_owner: List[Tuple[str, Optional[str]]] = []
    while remaining:
        progressed = False
        names = list(remaining)
        for name in names:
            variables = remaining[name]
            others = [v for other, v in remaining.items() if other != name]
            shared = set()
            for variable in variables:
                if any(variable in other for other in others):
                    shared.add(variable)
            parent = None
            for other, other_vars in remaining.items():
                if other != name and shared <= other_vars:
                    parent = other
                    break
            if parent is not None or len(remaining) == 1:
                exclusive_owner.append((name, parent))
                del remaining[name]
                progressed = True
                break
        if not progressed:
            raise ValueError("query is cyclic; Yannakakis requires an acyclic query")
    return exclusive_owner


def yannakakis_boolean(query: ConjunctiveQuery, database: Database) -> bool:
    """Boolean evaluation of an acyclic query by full semijoin reduction."""
    from ..exec import lower_yannakakis, optimize_program, run_program

    database.validate_against(query)
    program, _ = optimize_program(lower_yannakakis(query))
    return run_program(program, database).answer
