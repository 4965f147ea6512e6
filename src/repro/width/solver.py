"""A branch-and-bound solver for max–min problems over the Shannon cone.

Both width notions of the paper have the shape

``max_{h ∈ Γ ∩ ED}  min_{choice c}  max_{option o ∈ c}  (min of linear terms)``

(Eq. (19)/(20) for the submodular width, Eq. (25)/(27) for the
ω-submodular width).  Section 6 computes this by distributing every ``min``
over every ``max``, producing one LP per combination of selections — e.g.
3¹⁰ = 59049 LPs already for the 4-clique (Example D.1).  This module
implements the same computation as an exact branch-and-bound search instead
of an exhaustive enumeration:

* the problem is modelled as a conjunction of :class:`Choice` objects
  ("for every tree decomposition / GVEO signature ..."), each offering
  several :class:`Alternative` branches ("... some bag / elimination step
  must be expensive"), whose feasibility may itself require nested choices
  (the three branches of an ``MM`` maximum);
* at every node an LP over the Shannon cone (plus the constraints selected
  so far, plus valid linear relaxations of the still-pending choices) gives
  an upper bound; the LP's optimal polymatroid is checked against the
  pending choices and the search only branches on a *violated* choice;
* explicit witness polymatroids seed the incumbent so that provably
  suboptimal branches are pruned immediately.

The result is exact: the returned value equals the max–min optimum, and a
witness polymatroid attaining it (up to LP tolerance) is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..hypergraph.hypergraph import Hypergraph
from ..polymatroid.setfunction import SetFunction
from ..polymatroid.shannon import LinearExpression, evaluate
from .lp import LPSolution, PolymatroidLP

_EPS = 1e-6


def _coefficientwise_max(expressions: Sequence[LinearExpression]) -> LinearExpression:
    """A single expression upper-bounding the max of several expressions.

    Valid because polymatroids are non-negative: taking the larger
    coefficient on every subset can only increase the value.
    """
    result: LinearExpression = {}
    for expr in expressions:
        for subset, coefficient in expr.items():
            result[subset] = max(result.get(subset, coefficient), coefficient)
    return result


@dataclass(frozen=True)
class Choice:
    """A disjunction: at least one alternative must reach the target value."""

    alternatives: Tuple["Alternative", ...]
    label: str = ""

    def value_at(self, h: SetFunction, omega_unused: float | None = None) -> float:
        """``max`` over alternatives of their value on ``h``."""
        return max(alt.value_at(h) for alt in self.alternatives)

    def relaxation(self) -> LinearExpression:
        """A single row ``t <= expr`` implied by this choice (used for pruning)."""
        return _coefficientwise_max([alt.relaxation() for alt in self.alternatives])


@dataclass(frozen=True)
class Alternative:
    """A conjunction of linear rows and nested choices."""

    rows: Tuple[LinearExpression, ...] = ()
    nested: Tuple[Choice, ...] = ()

    def value_at(self, h: SetFunction) -> float:
        values = [evaluate(row, h) for row in self.rows]
        values.extend(choice.value_at(h) for choice in self.nested)
        if not values:
            return float("inf")
        return min(values)

    def relaxation(self) -> LinearExpression:
        if self.rows:
            return self.rows[0]
        if self.nested:
            return self.nested[0].relaxation()
        return {}


def simple_choice(expressions: Sequence[LinearExpression], label: str = "") -> Choice:
    """A choice whose alternatives are single linear rows (e.g. an MM maximum)."""
    return Choice(
        alternatives=tuple(Alternative(rows=(expr,)) for expr in expressions),
        label=label,
    )


def conjunction_choice(expr: LinearExpression, label: str = "") -> Choice:
    """A degenerate choice with a single mandatory row (a hard constraint)."""
    return Choice(alternatives=(Alternative(rows=(expr,)),), label=label)


@dataclass
class MaxMinResult:
    """The outcome of a max–min solve."""

    value: float
    witness: Optional[SetFunction]
    nodes_explored: int
    lp_solves: int
    seeds_used: int

    def __float__(self) -> float:  # pragma: no cover - convenience
        return self.value


class MaxMinSolver:
    """Exact solver for ``max_h min_choice max_alt min(rows, nested)``.

    Parameters
    ----------
    hypergraph:
        Supplies the ground set and the edge-domination constraints.
    choices:
        The conjunction of top-level choices.
    tolerance:
        Numerical slack for LP comparisons.
    node_limit:
        Hard cap on branch-and-bound nodes; exceeded limits raise
        ``RuntimeError`` (the default is generous for the query sizes the
        paper considers).
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        choices: Sequence[Choice],
        tolerance: float = _EPS,
        node_limit: int = 200_000,
    ) -> None:
        self.hypergraph = hypergraph
        self.choices = list(choices)
        self.tolerance = tolerance
        self.node_limit = node_limit
        self._lp = PolymatroidLP(hypergraph)
        self._nodes = 0
        self._lp_solves = 0
        self._best_value = float("-inf")
        self._best_witness: Optional[SetFunction] = None

    # ------------------------------------------------------------------
    def objective(self, h: SetFunction) -> float:
        """Evaluate ``min_choice max_alt min(...)`` directly on a polymatroid."""
        if not self.choices:
            return float("inf")
        return min(choice.value_at(h) for choice in self.choices)

    def solve(self, seeds: Iterable[SetFunction] = ()) -> MaxMinResult:
        """Run the branch-and-bound search, optionally seeded with witnesses."""
        self._nodes = 0
        self._lp_solves = 0
        self._best_value = float("-inf")
        self._best_witness = None
        seeds = list(seeds)
        for h in seeds:
            if not self._is_admissible_seed(h):
                continue
            value = self.objective(h)
            if value > self._best_value:
                self._best_value = value
                self._best_witness = h
        self._search(hard_rows=[], pending=list(self.choices))
        return MaxMinResult(
            value=self._best_value,
            witness=self._best_witness,
            nodes_explored=self._nodes,
            lp_solves=self._lp_solves,
            seeds_used=len(seeds),
        )

    def _is_admissible_seed(self, h: SetFunction) -> bool:
        """Seeds must live on the right ground set and be edge-dominated.

        Seeds are *lower-bound certificates*, so admitting a non-ED or
        wrongly-keyed set function would make the search unsound; such
        seeds are silently skipped.
        """
        if h.ground_set != frozenset(self.hypergraph.vertices):
            return False
        if not h.is_fully_defined():
            return False
        try:
            return all(
                h(edge) <= self._lp.edge_bound + self.tolerance
                for edge in self.hypergraph.edges
            )
        except KeyError:  # pragma: no cover - defensive
            return False

    # ------------------------------------------------------------------
    def _solve_lp(
        self, hard_rows: List[LinearExpression], pending: List[Choice]
    ) -> LPSolution:
        self._lp_solves += 1
        relaxations = [choice.relaxation() for choice in pending]
        relaxations = [row for row in relaxations if row]
        return self._lp.maximize_t(hard_rows, relaxations)

    def _search(self, hard_rows: List[LinearExpression], pending: List[Choice]) -> None:
        self._nodes += 1
        if self._nodes > self.node_limit:
            raise RuntimeError(
                f"branch-and-bound exceeded {self.node_limit} nodes; "
                "the query is too large for exact width computation"
            )
        solution = self._solve_lp(hard_rows, pending)
        if not solution.feasible:
            return
        if solution.value <= self._best_value + self.tolerance:
            return
        h = solution.polymatroid
        assert h is not None
        target = solution.value
        violated = self._pick_violated(pending, h, target)
        if violated is None:
            # The LP optimum satisfies every pending choice: it is feasible
            # for the original (non-convex) problem, so its value is attained.
            self._best_value = target
            self._best_witness = h
            return
        remaining = [choice for choice in pending if choice is not violated]
        for alternative in violated.alternatives:
            child_rows = hard_rows + list(alternative.rows)
            child_pending = remaining + list(alternative.nested)
            self._search(child_rows, child_pending)

    def _pick_violated(
        self, pending: List[Choice], h: SetFunction, target: float
    ) -> Optional[Choice]:
        """The most promising violated choice to branch on (or None)."""
        violated: List[Tuple[int, float, Choice]] = []
        for choice in pending:
            value = choice.value_at(h)
            if value < target - self.tolerance:
                violated.append((len(choice.alternatives), target - value, choice))
        if not violated:
            return None
        # Branch on the choice with the fewest alternatives; break ties by
        # how badly it is violated (most violated first prunes faster).
        violated.sort(key=lambda item: (item[0], -item[1]))
        return violated[0][2]
