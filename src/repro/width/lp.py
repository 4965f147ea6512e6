"""Linear programs over the polymatroid (Shannon) cone.

Every width computation in the paper boils down to linear programs of the
form (34)/(39): maximize an auxiliary variable ``t`` subject to

* ``h`` lying in the Shannon cone (elemental monotonicity + submodularity),
* ``h`` being edge-dominated (``h(e) <= 1`` for query hyperedges), and
* ``t <= (linear expression in h)`` for a chosen collection of expressions.

:class:`PolymatroidLP` pre-builds the constant part of these LPs for a
given hypergraph so that the branch-and-bound searches in
:mod:`repro.width.subw` and :mod:`repro.width.omega_subw` can solve many
closely-related LPs cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

from ..hypergraph.hypergraph import Hypergraph
from ..polymatroid.setfunction import SetFunction, VertexSet, powerset
from ..polymatroid.shannon import LinearExpression, elemental_inequalities


@dataclass
class LPSolution:
    """Result of one cone LP: the optimum and the optimizing polymatroid."""

    value: float
    polymatroid: Optional[SetFunction]
    status: str = "optimal"

    @property
    def feasible(self) -> bool:
        return self.status == "optimal"


class PolymatroidLP:
    """Reusable LP scaffolding for a fixed hypergraph.

    Parameters
    ----------
    hypergraph:
        The query hypergraph; its vertices define the ground set and its
        hyperedges contribute the edge-domination rows ``h(e) <= bound``.
    edge_bound:
        The edge-domination bound (1.0 throughout the paper, i.e. relations
        of size ``N`` on a log_N scale).
    """

    def __init__(self, hypergraph: Hypergraph, edge_bound: float = 1.0) -> None:
        self.hypergraph = hypergraph
        self.edge_bound = float(edge_bound)
        ground = hypergraph.sorted_vertices()
        self._subsets: List[VertexSet] = [s for s in powerset(ground) if s]
        self._index: Dict[VertexSet, int] = {s: i for i, s in enumerate(self._subsets)}
        self._num_h = len(self._subsets)
        # Variable layout: x = [t, h(S_1), ..., h(S_m)].
        self._num_vars = self._num_h + 1
        self._base_a, self._base_b = self._build_base_constraints()

    # ------------------------------------------------------------------
    @property
    def subsets(self) -> Sequence[VertexSet]:
        return self._subsets

    def _row_of(self, expr: LinearExpression, t_coefficient: float = 0.0) -> np.ndarray:
        row = np.zeros(self._num_vars)
        row[0] = t_coefficient
        for subset, coefficient in expr.items():
            if not subset:
                continue
            row[self._index[subset] + 1] = coefficient
        return row

    def _build_base_constraints(self) -> Tuple[np.ndarray, np.ndarray]:
        rows: List[np.ndarray] = []
        bounds: List[float] = []
        # Shannon cone: every elemental inequality expr >= 0, i.e. -expr <= 0.
        for expr in elemental_inequalities(self.hypergraph.vertices):
            rows.append(-self._row_of(expr))
            bounds.append(0.0)
        # Edge domination: h(e) <= edge_bound.
        for edge in self.hypergraph.edges:
            expr = {frozenset(edge): 1.0}
            rows.append(self._row_of(expr))
            bounds.append(self.edge_bound)
        return np.array(rows), np.array(bounds)

    # ------------------------------------------------------------------
    def maximize_t(
        self,
        hard_expressions: Iterable[LinearExpression],
        relaxation_expressions: Iterable[LinearExpression] = (),
    ) -> LPSolution:
        """Maximize ``t`` subject to ``t <= expr(h)`` for every expression.

        ``relaxation_expressions`` contribute the same kind of rows; they
        are kept separate only for readability at call sites (they encode
        valid-but-loose upper bounds used for pruning).
        """
        rows = [self._base_a]
        bounds = [self._base_b]
        extra_rows: List[np.ndarray] = []
        extra_bounds: List[float] = []
        for expr in list(hard_expressions) + list(relaxation_expressions):
            # t - expr(h) <= 0
            extra_rows.append(self._row_of(expr, t_coefficient=0.0) * -1.0 + self._t_row())
            extra_bounds.append(0.0)
        if extra_rows:
            rows.append(np.array(extra_rows))
            bounds.append(np.array(extra_bounds))
        a_ub = np.vstack(rows)
        b_ub = np.concatenate(bounds)

        c = np.zeros(self._num_vars)
        c[0] = -1.0  # maximize t
        upper = float(self.hypergraph.num_vertices) * max(self.edge_bound, 1.0)
        variable_bounds = [(0.0, upper)] + [
            (0.0, len(subset) * self.edge_bound + upper) for subset in self._subsets
        ]
        result = linprog(
            c, A_ub=a_ub, b_ub=b_ub, bounds=variable_bounds, method="highs"
        )
        if not result.success:
            return LPSolution(value=float("nan"), polymatroid=None, status=result.message)
        h = SetFunction(self.hypergraph.vertices)
        for subset, position in self._index.items():
            h[subset] = float(result.x[position + 1])
        return LPSolution(value=float(result.x[0]), polymatroid=h)

    def _t_row(self) -> np.ndarray:
        row = np.zeros(self._num_vars)
        row[0] = 1.0
        return row
