"""Shannon inequalities: linear inequalities valid over all polymatroids.

The paper's algorithms are driven by *ω-Shannon inequalities*
(Definition E.3): linear inequalities over entropy terms that hold for
every polymatroid and whose left-hand side groups terms into for-loop costs
``h(U)`` and matrix-multiplication costs
``α·h(X|G) + β·h(Y|G) + ζ·h(Z|G) + κ·h(G)`` with ω-dominant coefficient
triples.  This module provides:

* a sparse representation of linear expressions over ``h``-terms,
* the elemental Shannon inequalities of a ground set (the constraint rows
  used by every LP in :mod:`repro.width`),
* an LP-based validity check ("does this inequality hold for *all*
  polymatroids?"),
* ω-dominant triples (Definition E.1) and the ω-Shannon inequality
  container, including the concrete triangle inequality (13).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

from ..constants import gamma as gamma_of
from .setfunction import SetFunction, Vertex, VertexSet, as_set, powerset

#: A linear expression ``Σ coeff * h(subset)`` represented sparsely.
LinearExpression = Dict[VertexSet, float]


def expression(*terms: Tuple[float, Iterable[Vertex] | Vertex | None]) -> LinearExpression:
    """Build a linear expression from ``(coefficient, subset)`` pairs."""
    result: LinearExpression = {}
    for coefficient, subset in terms:
        key = as_set(subset)
        if not key:
            continue  # h(∅) = 0 never contributes
        result[key] = result.get(key, 0.0) + float(coefficient)
    return {k: v for k, v in result.items() if abs(v) > 0}


def conditional_expression(
    target: Iterable[Vertex] | Vertex,
    given: Iterable[Vertex] | Vertex | None = None,
    coefficient: float = 1.0,
) -> LinearExpression:
    """The expression ``coefficient * h(target | given)``."""
    y = as_set(target)
    x = as_set(given)
    return expression((coefficient, x | y), (-coefficient, x))


def add_expressions(*expressions: LinearExpression) -> LinearExpression:
    """Sum several linear expressions."""
    result: LinearExpression = {}
    for expr in expressions:
        for subset, coefficient in expr.items():
            result[subset] = result.get(subset, 0.0) + coefficient
    return {k: v for k, v in result.items() if abs(v) > 1e-15}


def scale_expression(expr: LinearExpression, factor: float) -> LinearExpression:
    return {k: factor * v for k, v in expr.items() if abs(factor * v) > 1e-15}


def negate(expr: LinearExpression) -> LinearExpression:
    return scale_expression(expr, -1.0)


def evaluate(expr: LinearExpression, h: SetFunction) -> float:
    """Evaluate a linear expression on a concrete set function."""
    return sum(coefficient * h(subset) for subset, coefficient in expr.items())


# ----------------------------------------------------------------------
# Elemental Shannon inequalities
# ----------------------------------------------------------------------
def elemental_inequalities(ground_set: Iterable[Vertex]) -> List[LinearExpression]:
    """The elemental Shannon inequalities, each as an expression ``>= 0``.

    These are: elemental monotonicity ``h(V) - h(V \\ {x}) >= 0`` for every
    vertex ``x`` and elemental submodularity
    ``h(A ∪ {i}) + h(A ∪ {j}) - h(A ∪ {i,j}) - h(A) >= 0`` for every pair
    ``i ≠ j`` and ``A ⊆ V \\ {i, j}``.  Their conic hull is exactly the
    polymatroid (Shannon) cone, so LPs constrained by these rows optimize
    over all polymatroids.
    """
    ground = frozenset(ground_set)
    rows: List[LinearExpression] = []
    full = frozenset(ground)
    for vertex in sorted(ground):
        rows.append(expression((1.0, full), (-1.0, full - {vertex})))
    for i, j in itertools.combinations(sorted(ground), 2):
        rest = sorted(ground - {i, j})
        for size in range(len(rest) + 1):
            for base in itertools.combinations(rest, size):
                a = frozenset(base)
                rows.append(
                    expression(
                        (1.0, a | {i}),
                        (1.0, a | {j}),
                        (-1.0, a | {i, j}),
                        (-1.0, a),
                    )
                )
    return rows


def satisfies(h: SetFunction, expr: LinearExpression, tolerance: float = 1e-9) -> bool:
    """Whether ``expr(h) >= -tolerance``."""
    return evaluate(expr, h) >= -tolerance


def is_shannon_inequality(
    ground_set: Iterable[Vertex],
    expr: LinearExpression,
    tolerance: float = 1e-7,
) -> bool:
    """Whether ``expr >= 0`` holds for *every* polymatroid on the ground set.

    Decided by linear programming: minimize ``expr(h)`` over the Shannon
    cone intersected with the unit box (the cone is scale-invariant, so any
    violating ray produces a violating point inside the box).
    """
    ground = sorted(frozenset(ground_set))
    subsets = [s for s in powerset(ground) if s]
    index = {subset: i for i, subset in enumerate(subsets)}
    num_vars = len(subsets)

    def row_of(e: LinearExpression) -> np.ndarray:
        row = np.zeros(num_vars)
        for subset, coefficient in e.items():
            row[index[subset]] = coefficient
        return row

    # linprog minimizes c @ x subject to A_ub @ x <= b_ub; our constraints
    # are "elemental >= 0", i.e. -elemental <= 0.
    a_ub = np.array([-row_of(e) for e in elemental_inequalities(ground)])
    b_ub = np.zeros(a_ub.shape[0])
    c = row_of(expr)
    bounds = [(0.0, 1.0)] * num_vars
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not result.success:  # pragma: no cover - defensive
        raise RuntimeError(f"LP solver failed: {result.message}")
    return result.fun >= -tolerance


# ----------------------------------------------------------------------
# ω-dominant triples and ω-Shannon inequalities (Definitions E.1 and E.3)
# ----------------------------------------------------------------------
def is_omega_dominant(triple: Sequence[float], omega: float) -> bool:
    """Definition E.1: ``α, β >= 1``, ``ζ >= 0`` and ``α + β + ζ >= ω``."""
    alpha, beta, zeta = triple
    return alpha >= 1.0 and beta >= 1.0 and zeta >= 0.0 and alpha + beta + zeta >= omega


@dataclass(frozen=True)
class MMGroup:
    """One LHS group ``α·h(X|G) + β·h(Y|G) + ζ·h(Z|G) + κ·h(G)`` of Eq. (54)."""

    x: VertexSet
    y: VertexSet
    z: VertexSet
    g: VertexSet
    alpha: float
    beta: float
    zeta: float
    kappa: float

    def expression(self) -> LinearExpression:
        return add_expressions(
            conditional_expression(self.x, self.g, self.alpha),
            conditional_expression(self.y, self.g, self.beta),
            conditional_expression(self.z, self.g, self.zeta),
            expression((self.kappa, self.g)),
        )

    def dominant_triple(self) -> Tuple[float, float, float]:
        if self.kappa <= 0:
            raise ValueError("kappa must be positive in an ω-Shannon inequality")
        return (self.alpha / self.kappa, self.beta / self.kappa, self.zeta / self.kappa)


@dataclass(frozen=True)
class ConditionalTerm:
    """A RHS term ``w · h(Y | X)`` of Eq. (54)."""

    y: VertexSet
    x: VertexSet
    weight: float

    def expression(self) -> LinearExpression:
        return conditional_expression(self.y, self.x, self.weight)


@dataclass
class OmegaShannonInequality:
    """An ω-Shannon inequality (Definition E.3).

    ``Σ_ℓ λ_ℓ h(U_ℓ)  +  Σ_j [α_j h(X_j|G_j) + β_j h(Y_j|G_j) + ζ_j h(Z_j|G_j)
    + κ_j h(G_j)]  <=  Σ_i w_i h(Y_i | X_i)``.
    """

    ground_set: Tuple[Vertex, ...]
    omega: float
    plain_terms: List[Tuple[float, VertexSet]] = field(default_factory=list)
    mm_groups: List[MMGroup] = field(default_factory=list)
    rhs_terms: List[ConditionalTerm] = field(default_factory=list)

    def lhs_expression(self) -> LinearExpression:
        parts = [expression((coeff, subset)) for coeff, subset in self.plain_terms]
        parts.extend(group.expression() for group in self.mm_groups)
        return add_expressions(*parts) if parts else {}

    def rhs_expression(self) -> LinearExpression:
        parts = [term.expression() for term in self.rhs_terms]
        return add_expressions(*parts) if parts else {}

    def slack_expression(self) -> LinearExpression:
        """``RHS - LHS`` as a single expression (valid iff ``>= 0`` on the cone)."""
        return add_expressions(self.rhs_expression(), negate(self.lhs_expression()))


def triangle_inequality(omega: float) -> OmegaShannonInequality:
    """The concrete ω-Shannon inequality (13) for the triangle query.

    ``ω·h(XYZ) + h(X) + h(Y) + γ·h(Z)
    <= 2·h(XY) + (ω-1)·h(YZ) + (ω-1)·h(XZ)``.
    """
    g = gamma_of(omega)
    xyz = frozenset("XYZ")
    return OmegaShannonInequality(
        ground_set=("X", "Y", "Z"),
        omega=omega,
        plain_terms=[(omega, xyz)],
        mm_groups=[
            MMGroup(
                x=frozenset(["X"]),
                y=frozenset(["Y"]),
                z=frozenset(["Z"]),
                g=frozenset(),
                alpha=1.0,
                beta=1.0,
                zeta=g,
                kappa=1.0,
            )
        ],
        rhs_terms=[
            ConditionalTerm(frozenset(["X", "Y"]), frozenset(), 2.0),
            ConditionalTerm(frozenset(["Y", "Z"]), frozenset(), omega - 1.0),
            ConditionalTerm(frozenset(["X", "Z"]), frozenset(), omega - 1.0),
        ],
    )
