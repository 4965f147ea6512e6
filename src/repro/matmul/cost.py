"""Cost model shared by the planner and the width machinery.

All costs are *exponents on a log_N scale* (matching the paper) or raw
operation counts, parameterised by the matrix multiplication exponent ω.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..constants import DEFAULT_OMEGA, gamma as gamma_of
from .rectangular import omega_rectangular, rectangular_cost


@dataclass(frozen=True)
class MatrixShape:
    """A rectangular multiplication instance ``rows × inner`` by ``inner × cols``."""

    rows: int
    inner: int
    cols: int

    def cost(self, omega: float = DEFAULT_OMEGA) -> float:
        """Modelled operation count of the square-blocked algorithm."""
        return rectangular_cost(self.rows, self.inner, self.cols, omega)

    def naive_cost(self) -> float:
        """Operation count of the cubic algorithm (``rows·inner·cols``)."""
        return float(self.rows) * self.inner * self.cols

    def exponents(self, base: int) -> tuple[float, float, float]:
        """The dimensions expressed as exponents of ``base`` (``n^a`` style)."""
        if base <= 1:
            raise ValueError("base must exceed 1")
        log = math.log(base)
        return (
            math.log(max(self.rows, 1)) / log,
            math.log(max(self.inner, 1)) / log,
            math.log(max(self.cols, 1)) / log,
        )


def mm_exponent(a: float, b: float, c: float, omega: float = DEFAULT_OMEGA) -> float:
    """``ω□(a, b, c)``, re-exported here for planner convenience."""
    return omega_rectangular(a, b, c, omega)


#: The exponent the *shipped* sub-cubic kernel actually achieves
#: (Strassen, ``log2 7``).  Kernel choice must be costed against this, not
#: against a configured theoretical ω the implementation cannot realize.
STRASSEN_OMEGA = math.log2(7.0)

#: Constant-factor handicap of the numpy-level Strassen recursion against
#: the BLAS cubic product.  BLAS runs each scalar operation one to two
#: orders of magnitude cheaper than the Python-orchestrated recursion, so
#: the fast path must win by at least this modelled factor before the
#: dispatcher picks it.  Calibrated conservatively; override per engine via
#: ``KernelDispatcher(strassen_overhead=...)``.
STRASSEN_OVERHEAD_FACTOR = 48.0


def mm_kernel_advantage(
    rows: int, inner: int, cols: int, omega: float = DEFAULT_OMEGA
) -> float:
    """Modelled op-count ratio cubic / square-blocked for one MM instance.

    ``> 1`` means the sub-cubic path saves scalar operations on this
    shape; how *much* larger it must be to beat BLAS in wall clock is the
    overhead factor applied by :func:`preferred_mm_kernel`.  The exponent
    used is ``max(ω, log2 7)``: a configured ω below Strassen's is a
    planning-model assumption, not something the shipped kernel delivers,
    so dispatch never credits the kernel with savings it cannot produce.
    """
    modelled = rectangular_cost(rows, inner, cols, max(omega, STRASSEN_OMEGA))
    if modelled <= 0.0:
        return 0.0
    return float(rows) * inner * cols / modelled


def preferred_mm_kernel(
    rows: int,
    inner: int,
    cols: int,
    omega: float = DEFAULT_OMEGA,
    overhead_factor: float = STRASSEN_OVERHEAD_FACTOR,
) -> str:
    """``"strassen"`` or ``"blas"`` for one concrete product shape.

    Replaces the old fixed size cutoff: the choice follows the cost model
    (:class:`MatrixShape`) at the implemented kernel's exponent,
    discounted by the measured constant-factor overhead of the recursion.
    The matrix dimensions of a relational MM step are distinct-value
    counts, so this is where the statistics reach the kernel choice.
    With the default calibration BLAS wins at every realistic shape —
    honest, given BLAS's per-operation advantage; the dispatch mechanism
    (and a lowered ``overhead_factor``) is how a genuinely faster
    sub-cubic kernel would be wired in.
    """
    advantage = mm_kernel_advantage(rows, inner, cols, omega)
    return "strassen" if advantage >= overhead_factor else "blas"


def triangle_threshold(n: int, omega: float = DEFAULT_OMEGA) -> int:
    """The heavy/light degree threshold ``Δ = N^{(ω-1)/(ω+1)}`` of Section 2.5."""
    gamma_of(omega)
    if n <= 0:
        return 1
    return max(1, int(round(n ** ((omega - 1.0) / (omega + 1.0)))))


def heavy_vertex_bound(n: int, omega: float = DEFAULT_OMEGA) -> int:
    """``N / Δ = N^{2/(ω+1)}``: how many heavy vertices a relation can have."""
    gamma_of(omega)
    if n <= 0:
        return 0
    return max(1, int(math.ceil(n ** (2.0 / (omega + 1.0)))))


def predicted_triangle_exponent(omega: float = DEFAULT_OMEGA) -> float:
    """The paper's triangle runtime exponent ``2ω/(ω+1)``."""
    gamma_of(omega)
    return 2.0 * omega / (omega + 1.0)
