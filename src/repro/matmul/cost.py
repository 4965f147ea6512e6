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
