"""Cost model shared by the planner and the width machinery.

All costs are *exponents on a log_N scale* (matching the paper) or raw
operation counts, parameterised by the matrix multiplication exponent ω.
"""

from __future__ import annotations

from ..constants import DEFAULT_OMEGA, gamma as gamma_of
from .rectangular import omega_rectangular


def mm_exponent(a: float, b: float, c: float, omega: float = DEFAULT_OMEGA) -> float:
    """``ω□(a, b, c)``, re-exported here for planner convenience."""
    return omega_rectangular(a, b, c, omega)


def triangle_threshold(n: int, omega: float = DEFAULT_OMEGA) -> int:
    """The heavy/light degree threshold ``Δ = N^{(ω-1)/(ω+1)}`` of Section 2.5."""
    gamma_of(omega)
    if n <= 0:
        return 1
    return max(1, int(round(n ** ((omega - 1.0) / (omega + 1.0)))))


def predicted_triangle_exponent(omega: float = DEFAULT_OMEGA) -> float:
    """The paper's triangle runtime exponent ``2ω/(ω+1)``."""
    gamma_of(omega)
    return 2.0 * omega / (omega + 1.0)
