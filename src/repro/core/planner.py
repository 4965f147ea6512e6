"""A cost-based planner producing ω-query plans from data statistics.

The width machinery decides *what is possible in the worst case*; the
planner decides *what to do on the actual data*.  Mirroring the paper's
meta-algorithm (an ω-query plan, Definition E.12, is an elimination order
plus a method per step), every elimination step is costed both ways —

* for-loops: the AGM bound of the incident relations over the step's ``U``
  set (the worst-case optimal join cost),
* matrix multiplication: for every realizable MM term, the blocked
  rectangular-multiplication cost on the actual matrix dimensions —

and takes the cheaper method (MM only when strictly cheaper); a plan costs
the sum of its steps and the cheapest order wins.  The estimates consume
the relations' cached :class:`~repro.db.backends.RelationStats` (sizes,
distinct counts ``V(A, r)`` and conditional degrees ``deg(Y | X)``) but are
heuristic for intermediate results (AGM-style upper bounds), which is the
standard optimizer trade-off.

**The search.**  Up to :data:`EXHAUSTIVE_ORDER_LIMIT` variables every
order is a candidate.  :func:`plan_query` does not cost the ``n!`` orders
one by one; it runs one depth-first search over elimination *prefixes*.
A prefix's state — the pseudo-relations left after it and the cost so far
— is built once and shared by every order extending it, and one step's
result is memoized per call on the only things it depends on, the variable
and its incident pseudo-relations (two prefixes that eliminate different
far-away variables first meet the same step).  Nothing outlives the call.

**Why the result is exactly the exhaustive loop's.**  The reference
definition is: follow every permutation of the sorted variables with
:func:`plan_for_order`, keep the first one whose cost is strictly below
the incumbent's.

* *Same steps.*  The search and :func:`plan_for_order` call the one
  :func:`_eliminate_step`, and a prefix accumulates ``0.0 + c₁ + c₂ + …``
  in order, so a complete order gets the bit-identical float sum.
* *Admissible bound.*  Every step costs ``>= 1``, and float addition of
  non-negative terms never decreases a sum: an order's total is ``>=`` the
  accumulated cost of each of its prefixes.
* *Strict incumbent.*  The loop replaces its incumbent only on strict
  ``<``, so an order whose prefix already costs ``>=`` the incumbent can
  never be chosen; cutting that prefix loses nothing, ties included.
* *Sorted children.*  Children are visited in sorted variable order, so
  complete orders are reached in ``itertools.permutations`` order and the
  incumbent at any moment is the loop's incumbent at that same order:
  the same winner, the same tie-break.

Above the limit a single greedy min-degree order (ties by variable name) is
followed; explicit ``orders=`` are followed one by one as before.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..constants import DEFAULT_OMEGA
from ..db.backends import RelationStats
from ..db.database import Database
from ..db.query import ConjunctiveQuery
from ..db.relation import Relation
from ..hypergraph.hypergraph import Hypergraph
from ..matmul.rectangular import rectangular_cost
from ..hypergraph.mm_terms import MMTerm, mm_terms_over_edges
from .plan import OmegaQueryPlan, PlanStep, StepMethod

#: Orders are searched exhaustively up to this many variables; beyond it a
#: single greedy (min-degree) order is used.
EXHAUSTIVE_ORDER_LIMIT = 6


@dataclass(eq=False)
class _Estimate:
    """A pseudo-relation used during planning: a scope and a size estimate.

    Estimates built from base relations carry the backend's cached
    :class:`~repro.db.backends.RelationStats`, which the join-size bound
    uses for degree-based (``deg(Y | X)``) chaining; estimates for
    intermediate results have ``stats=None`` and fall back to AGM-style
    size products.  Estimates compare and hash by identity: one object is
    one pseudo-relation of one planning call.
    """

    variables: FrozenSet[str]
    size: float
    distinct: Dict[str, float]
    stats: Optional["RelationStats"] = None
    #: ``log2(size + 1)``, the greedy cover's weight of this estimate.
    log_size: float = field(init=False)

    def __post_init__(self) -> None:
        self.log_size = max(math.log2(self.size + 1.0), 1e-9)

    @classmethod
    def from_relation(cls, relation: Relation) -> "_Estimate":
        stats = relation.stats
        distinct = {
            variable: float(max(1, stats.distinct(variable)))
            for variable in relation.schema
        }
        return cls(
            variables=relation.variables,
            size=float(max(1, stats.n_rows)),
            distinct=distinct,
            stats=stats,
        )


@dataclass
class PlannedStep:
    """A plan step annotated with the planner's cost estimates."""

    step: PlanStep
    for_loop_cost: float
    mm_cost: Optional[float]


@dataclass
class PlannedQuery:
    """The plan chosen by the planner together with its estimated cost."""

    plan: OmegaQueryPlan
    estimated_cost: float
    annotated_steps: List[PlannedStep]
    #: Wall-clock planning time; set by :func:`plan_query`, zero for plans
    #: built directly through :func:`plan_for_order`.
    seconds: float = 0.0
    #: What finding the plan took, set by :func:`plan_query`; zero counters
    #: are left out.  ``orders`` — orders in the candidate space;
    #: ``steps_evaluated`` — elimination steps actually costed;
    #: ``memo_hits`` — steps answered from the call's memo instead;
    #: ``prefixes_pruned`` — order prefixes cut at the incumbent's cost.
    search: Dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        header = f"estimated cost: {self.estimated_cost:.3g}"
        if self.seconds:
            header += f" (planned in {self.seconds * 1000:.2f} ms)"
        lines = [header]
        if self.search:
            lines.append(
                "search: "
                + ", ".join(
                    f"{count} {name.replace('_', ' ')}"
                    for name, count in self.search.items()
                )
            )
        for annotated in self.annotated_steps:
            mm = (
                f"{annotated.mm_cost:.3g}" if annotated.mm_cost is not None else "n/a"
            )
            lines.append(
                f"  {annotated.step.describe()}  "
                f"[for-loops≈{annotated.for_loop_cost:.3g}, mm≈{mm}]"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Cost estimation helpers
# ----------------------------------------------------------------------
def _min_distinct(estimates: Sequence[_Estimate]) -> Dict[str, float]:
    """Per variable, the smallest distinct-count any of the estimates reports."""
    mins: Dict[str, float] = {}
    for estimate in estimates:
        for variable in estimate.variables:
            count = estimate.distinct.get(variable, estimate.size)
            if count < mins.get(variable, math.inf):
                mins[variable] = count
    return mins


def _distinct_estimate(mins: Dict[str, float], variables: Iterable[str]) -> float:
    """Estimated number of distinct bindings of a variable set (product of mins).

    Multiplied in sorted variable order so the float product does not
    depend on set iteration order (that is, on the process's hash seed).
    """
    total = 1.0
    for variable in sorted(variables):
        total *= mins[variable]
    return max(total, 1.0)


def _join_size_bound(estimates: Sequence[_Estimate], scope: FrozenSet[str]) -> float:
    """A degree-refined AGM-style bound: greedy cover of the scope.

    The greedy cover repeatedly takes the estimate covering the most
    uncovered variables per log-size unit (the first such one on ties).  An
    estimate that carries real backend statistics and overlaps the
    already-covered variables contributes its *conditional* degree
    ``deg(new | shared)`` — the worst-case fan-out of the bound variables
    into the new ones — instead of its full cardinality, which is the
    classical chain bound ``|R_1| · Π deg_{R_i}(new_i | shared_i)`` and is
    never larger than the pure size product.
    """
    remaining = set(scope)
    covered: set = set()
    bound = 1.0
    pool = list(estimates)
    while remaining and pool:
        best_index = -1
        best_score = -math.inf
        for index, estimate in enumerate(pool):
            gained = len(estimate.variables & remaining)
            if gained and gained / estimate.log_size > best_score:
                best_index, best_score = index, gained / estimate.log_size
        if best_index < 0:
            break
        best = pool.pop(best_index)
        contribution = best.size
        anchor = best.variables & covered
        if best.stats is not None and anchor:
            degree = float(
                best.stats.max_degree(
                    sorted(best.variables & remaining), sorted(anchor)
                )
            )
            if degree > 0.0:
                contribution = degree
        bound *= max(contribution, 1.0)
        covered |= best.variables
        remaining -= best.variables
    # Scope variables no estimate mentions are left unbound (a factor of 1).
    return max(bound, 1.0)


def _mm_cost(
    mins: Dict[str, float], term: MMTerm, omega: float, build_cost: float
) -> float:
    groups = _distinct_estimate(mins, term.group_by)
    rows = _distinct_estimate(mins, term.first)
    inner = _distinct_estimate(mins, term.eliminated)
    cols = _distinct_estimate(mins, term.second)
    per_group_rows = max(1, int(math.ceil(rows / groups)))
    per_group_inner = max(1, int(math.ceil(inner / max(groups ** 0.5, 1.0))))
    per_group_cols = max(1, int(math.ceil(cols / groups)))
    return groups * rectangular_cost(
        per_group_rows, per_group_inner, per_group_cols, omega
    ) + build_cost


# ----------------------------------------------------------------------
# One elimination step
# ----------------------------------------------------------------------
class _StepResult:
    """What eliminating one variable from a given set of incident estimates costs."""

    __slots__ = ("for_loop_cost", "mm_term", "mm_cost", "produced", "uses_mm", "cost")

    def __init__(
        self,
        for_loop_cost: float,
        mm_term: Optional[MMTerm],
        mm_cost: Optional[float],
        produced: Optional[_Estimate],
    ) -> None:
        self.for_loop_cost = for_loop_cost
        #: The cheapest MM term and its cost (``None``: no term is realizable).
        self.mm_term = mm_term
        self.mm_cost = mm_cost
        #: The pseudo-relation over the variable's neighbourhood the step
        #: leaves behind (``None`` when the variable had no neighbours).
        self.produced = produced
        #: Matrix multiplication is taken only when strictly cheaper.
        self.uses_mm = mm_cost is not None and mm_cost < for_loop_cost
        self.cost = mm_cost if self.uses_mm else for_loop_cost

    def annotated(self, variable: str) -> PlannedStep:
        block = frozenset([variable])
        if self.uses_mm:
            step = PlanStep(
                block=block,
                method=StepMethod.MATRIX_MULTIPLICATION,
                mm_term=self.mm_term,
            )
        else:
            step = PlanStep(block=block, method=StepMethod.FOR_LOOPS)
        return PlannedStep(
            step=step, for_loop_cost=self.for_loop_cost, mm_cost=self.mm_cost
        )


class _StepMemo:
    """The step results of one planning call.

    Keyed on ``(variable, *incident)``, the incident estimates by identity
    and in list order.
    """

    __slots__ = ("results", "hits")

    def __init__(self) -> None:
        self.results: Dict[tuple, _StepResult] = {}
        self.hits = 0


def _evaluate_step(
    variable: str, incident: Sequence[_Estimate], omega: float
) -> _StepResult:
    """Cost both ways of eliminating ``variable`` from its incident estimates.

    The hypergraph at this point of the elimination has exactly the
    estimates' scopes as its edges, so ``∂(variable)`` — all the MM terms
    depend on — is the incident scopes.
    """
    if not incident:
        return _StepResult(1.0, None, None, None)
    block = frozenset([variable])
    scopes = [e.variables for e in incident]
    union_scope = block.union(*scopes)
    for_cost = _join_size_bound(incident, union_scope)
    mins = _min_distinct(incident)
    build_cost = sum(e.size for e in incident)
    best_term: Optional[MMTerm] = None
    best_mm_cost: Optional[float] = None
    for term in mm_terms_over_edges(block, scopes):
        cost = _mm_cost(mins, term, omega, build_cost)
        if best_mm_cost is None or cost < best_mm_cost:
            best_mm_cost = cost
            best_term = term
    # The elimination produces one new estimate over the neighbourhood.
    new_scope = union_scope - block
    produced = None
    if new_scope:
        produced_size = min(
            _join_size_bound(incident, new_scope),
            _distinct_estimate(mins, new_scope),
        )
        produced = _Estimate(
            variables=new_scope,
            size=max(produced_size, 1.0),
            distinct={v: max(mins[v], 1.0) for v in new_scope},
        )
    return _StepResult(for_cost, best_term, best_mm_cost, produced)


def _eliminate_step(
    variable: str, estimates: Sequence[_Estimate], omega: float, memo: _StepMemo
) -> Tuple[_StepResult, List[_Estimate]]:
    """Eliminate ``variable``: the step's result and the estimates left after it.

    The one step function behind both the search and :func:`plan_for_order`.
    A result depends only on the variable and its incident estimates (their
    order included: it fixes tie-breaks and float summation order), so it
    is computed once per ``memo`` — that is, per planning call.
    """
    incident: List[_Estimate] = []
    rest: List[_Estimate] = []
    for estimate in estimates:
        (incident if variable in estimate.variables else rest).append(estimate)
    key = (variable, *incident)
    result = memo.results.get(key)
    if result is None:
        result = memo.results[key] = _evaluate_step(variable, incident, omega)
    else:
        memo.hits += 1
    if result.produced is not None:
        rest.append(result.produced)
    return result, rest


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def base_estimates(query: ConjunctiveQuery, database: Database) -> List[_Estimate]:
    """Per-atom planning estimates backed by the relations' cached statistics."""
    return [
        _Estimate.from_relation(relation)
        for relation in database.instance_for(query).values()
    ]


def _planned(
    hypergraph: Hypergraph,
    order: Sequence[str],
    results: Sequence[_StepResult],
    cost: float,
) -> PlannedQuery:
    annotated = [result.annotated(v) for v, result in zip(order, results)]
    plan = OmegaQueryPlan(
        hypergraph=hypergraph, steps=tuple(a.step for a in annotated)
    )
    return PlannedQuery(plan=plan, estimated_cost=cost, annotated_steps=annotated)


def _follow_order(
    hypergraph: Hypergraph,
    estimates: Sequence[_Estimate],
    order: Sequence[str],
    omega: float,
    memo: _StepMemo,
) -> PlannedQuery:
    results = []
    total_cost = 0.0
    for variable in order:
        result, estimates = _eliminate_step(variable, estimates, omega, memo)
        results.append(result)
        total_cost += result.cost
    return _planned(hypergraph, order, results, total_cost)


def plan_for_order(
    query: ConjunctiveQuery,
    database: Database,
    order: Sequence[str],
    omega: float = DEFAULT_OMEGA,
) -> PlannedQuery:
    """Build the cheapest plan that follows a specific elimination order."""
    return _follow_order(
        query.hypergraph(), base_estimates(query, database), order, omega, _StepMemo()
    )


def _search_orders(
    hypergraph: Hypergraph,
    variables: Sequence[str],
    estimates: Sequence[_Estimate],
    omega: float,
    memo: _StepMemo,
) -> Tuple[PlannedQuery, int]:
    """The cheapest plan over all orders of ``variables``, and prefixes pruned.

    Depth-first over elimination prefixes, children in the given (sorted)
    order, so complete orders are reached in ``itertools.permutations``
    order; see the module docstring for why the winner is the one the
    exhaustive loop would pick.
    """
    best_cost = math.inf
    best_order: Optional[Tuple[str, ...]] = None
    best_results: Tuple[_StepResult, ...] = ()
    pruned = 0
    order: List[str] = []
    results: List[_StepResult] = []

    def extend(
        remaining: Sequence[str], estimates: Sequence[_Estimate], cost: float
    ) -> None:
        nonlocal best_cost, best_order, best_results, pruned
        for position, variable in enumerate(remaining):
            result, rest = _eliminate_step(variable, estimates, omega, memo)
            total = cost + result.cost
            order.append(variable)
            results.append(result)
            if len(remaining) == 1:
                if best_order is None or total < best_cost:
                    best_cost = total
                    best_order = tuple(order)
                    best_results = tuple(results)
            elif best_order is not None and total >= best_cost:
                pruned += 1
            else:
                extend(
                    [*remaining[:position], *remaining[position + 1:]], rest, total
                )
            order.pop()
            results.pop()

    extend(list(variables), estimates, 0.0)
    assert best_order is not None
    return _planned(hypergraph, best_order, best_results, best_cost), pruned


def candidate_orders(
    query: ConjunctiveQuery, database: Database, limit: int = EXHAUSTIVE_ORDER_LIMIT
) -> List[Tuple[str, ...]]:
    """Candidate elimination orders: exhaustive for small queries, greedy otherwise."""
    variables = sorted(query.variables)
    if len(variables) <= limit:
        return [tuple(p) for p in itertools.permutations(variables)]
    # Greedy min-degree order on the hypergraph, ties broken by variable
    # name (``min`` over a set would follow the process's hash seed).
    order: List[str] = []
    current = query.hypergraph()
    while variables:
        best = min(variables, key=lambda v: len(current.neighbours(v)))
        order.append(best)
        current = current.eliminate(best)
        variables.remove(best)
    return [tuple(order)]


def plan_query(
    query: ConjunctiveQuery,
    database: Database,
    omega: float = DEFAULT_OMEGA,
    orders: Optional[Iterable[Sequence[str]]] = None,
) -> PlannedQuery:
    """Pick the cheapest plan over the candidate elimination orders.

    Without ``orders`` that is every order of the query's variables (one
    search, up to :data:`EXHAUSTIVE_ORDER_LIMIT` variables) or the single
    greedy order beyond it; explicit ``orders`` are followed one by one, the
    first strictly cheapest winning.
    """
    start = time.perf_counter()
    hypergraph = query.hypergraph()
    estimates = base_estimates(query, database)
    variables = sorted(query.variables)
    memo = _StepMemo()
    pruned = 0
    if orders is None and len(variables) <= EXHAUSTIVE_ORDER_LIMIT:
        space = math.factorial(len(variables))
        best, pruned = _search_orders(hypergraph, variables, estimates, omega, memo)
    else:
        if orders is None:
            orders = candidate_orders(query, database)
        best = None
        space = 0
        for order in orders:
            space += 1
            planned = _follow_order(hypergraph, estimates, order, omega, memo)
            if best is None or planned.estimated_cost < best.estimated_cost:
                best = planned
        assert best is not None
    counters = {
        "orders": space,
        "steps_evaluated": len(memo.results),
        "memo_hits": memo.hits,
        "prefixes_pruned": pruned,
    }
    best.search = {name: count for name, count in counters.items() if count}
    best.seconds = time.perf_counter() - start
    return best
