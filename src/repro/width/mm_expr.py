"""Matrix-multiplication expressions ``MM(X;Y;Z|G)`` and ``EMM_H(X)``.

Definition 4.2 introduces the information measure

``MM(X;Y;Z|G) = max( h(X|G)+h(Y|G)+γ·h(Z|G)+h(G),
                     h(X|G)+γ·h(Y|G)+h(Z|G)+h(G),
                     γ·h(X|G)+h(Y|G)+h(Z|G)+h(G) )``

which captures (on a log scale) the cost of multiplying two matrices of
dimensions ``n^{h(X|G)} × n^{h(Z|G)}`` and ``n^{h(Z|G)} × n^{h(Y|G)}`` for
each of the ``n^{h(G)}`` group-by values.  Definition 4.5 then defines
``EMM_H(X)`` — the cheapest way to eliminate the vertex block ``X`` with a
single (grouped) matrix multiplication — as a minimum of such terms.  The
terms and their enumeration are combinatorial and live, re-exported here,
in :mod:`repro.hypergraph.mm_terms`; this module evaluates them.
"""

from __future__ import annotations

from typing import Iterable, List

from ..constants import gamma as gamma_of
from ..hypergraph.hypergraph import Hypergraph
from ..hypergraph.mm_terms import MMTerm, enumerate_mm_terms
from ..polymatroid.setfunction import SetFunction
from ..polymatroid.shannon import (
    LinearExpression,
    add_expressions,
    conditional_expression,
    expression,
)

__all__ = ["MMTerm", "emm_value", "enumerate_mm_terms", "mm_expressions", "mm_value"]


def mm_expressions(term: MMTerm, omega: float) -> List[LinearExpression]:
    """The three linear expressions whose maximum is the MM cost (Eq. 21)."""
    g = gamma_of(omega)
    dims = (term.first, term.second, term.eliminated)
    result = []
    for discounted in range(3):
        parts = [expression((1.0, term.group_by))] if term.group_by else []
        for position, dim in enumerate(dims):
            coefficient = g if position == discounted else 1.0
            parts.append(conditional_expression(dim, term.group_by, coefficient))
        result.append(add_expressions(*parts))
    return result


def mm_value(term: MMTerm, h: SetFunction, omega: float) -> float:
    """The value ``MM(first; second; eliminated | group_by)`` on ``h``."""
    g = gamma_of(omega)
    first = h.conditional(term.first, term.group_by)
    second = h.conditional(term.second, term.group_by)
    eliminated = h.conditional(term.eliminated, term.group_by)
    base = h(term.group_by)
    return max(
        first + second + g * eliminated,
        first + g * second + eliminated,
        g * first + second + eliminated,
    ) + base


def emm_value(
    hypergraph: Hypergraph,
    block: Iterable[str] | str,
    h: SetFunction,
    omega: float,
) -> float:
    """``EMM_H(block)`` evaluated on a concrete polymatroid.

    Returns ``inf`` when no MM elimination of the block exists (e.g. the
    block touches no hyperedge).
    """
    terms = enumerate_mm_terms(hypergraph, block)
    if not terms:
        return float("inf")
    return min(mm_value(term, h, omega) for term in terms)
