"""Rectangular matrix multiplication via square blocking (Section 3).

The paper reduces rectangular matrix multiplication (``n^a × n^b`` times
``n^b × n^c``) to square multiplications of side ``n^d`` with
``d = min(a, b, c)``, yielding the exponent

``ω□(a, b, c) = a + b + c - (3 - ω)·min(a, b, c)
             = max{a + b + γc, a + γb + c, γa + b + c}``.

This module holds the exponent and the blocked operation count, which
the planner's cost model uses.
"""

from __future__ import annotations

import math

from ..constants import gamma as gamma_of


def omega_rectangular(a: float, b: float, c: float, omega: float) -> float:
    """``ω□(a, b, c)`` of Eq. (6): the square-blocking rectangular exponent."""
    g = gamma_of(omega)
    if min(a, b, c) < 0:
        raise ValueError("matrix dimension exponents must be non-negative")
    return max(a + b + g * c, a + g * b + c, g * a + b + c)


def rectangular_cost(
    rows: int, inner: int, cols: int, omega: float
) -> float:
    """Model cost (number of scalar operations) of a blocked rectangular product.

    The blocking uses square blocks of side ``d = min(rows, inner, cols)``
    and charges ``d^ω`` per block product, matching the proof of Eq. (6).
    """
    if min(rows, inner, cols) <= 0:
        return 0.0
    d = min(rows, inner, cols)
    blocks = math.ceil(rows / d) * math.ceil(inner / d) * math.ceil(cols / d)
    return blocks * float(d) ** omega
