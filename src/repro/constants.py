"""Named constants used throughout the library.

The matrix multiplication exponent ``omega`` is treated as a *parameter*
everywhere in the library (every width computation and cost model takes an
``omega`` argument), but a few well-known values are provided here for
convenience.
"""

from __future__ import annotations

#: Best known upper bound on the matrix multiplication exponent
#: (Vassilevska Williams, Xu, Xu, Zhou, SODA 2024), quoted in the paper.
OMEGA_BEST_KNOWN = 2.371552

#: Strassen's exponent, log2(7): the first sub-cubic multiplication
#: algorithm.  The engine multiplies with BLAS, which is cubic.
OMEGA_STRASSEN = 2.8073549220576042

#: The exponent of the classical cubic algorithm.  With ``omega = 3`` the
#: omega-submodular width collapses to the submodular width
#: (Proposition 4.10).
OMEGA_NAIVE = 3.0

#: The conjectured optimal exponent.  With ``omega = 2`` several of the
#: paper's bounds collapse to their information-theoretic limits.
OMEGA_OPTIMAL = 2.0

#: Default exponent used when none is supplied.
DEFAULT_OMEGA = OMEGA_BEST_KNOWN

#: Numerical tolerance used when comparing width values produced by LPs.
WIDTH_TOLERANCE = 1e-6


def gamma(omega: float) -> float:
    """Return ``gamma = omega - 2``, the coefficient used by ``MM`` terms.

    Raises ``ValueError`` if ``omega`` lies outside the admissible range
    ``[2, 3]`` assumed throughout the paper.
    """
    if not 2.0 <= omega <= 3.0:
        raise ValueError(f"omega must lie in [2, 3], got {omega}")
    return omega - 2.0
