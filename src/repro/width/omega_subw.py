"""The ω-submodular width (Definition 4.7) and its exact computation.

``ω-subw(H) = max_{h ∈ Γ ∩ ED} min_{GVEO σ} max_i min(h(U_i^σ), EMM_i^σ)``.

Two computation paths are provided:

* **clustered** — for clustered hypergraphs (Definition C.11; cliques,
  pyramids, the Lemma C.15 query, ...), every generalized elimination order
  has ``U_1 = V`` and only the first elimination step matters
  (Lemma C.12).  The max–min objective collapses to
  ``max_h min(h(V), min over first blocks of EMM)`` which the solver
  handles as one conjunctive system plus a three-way choice per MM term.
* **general** — for arbitrary hypergraphs (needed for the cycle queries),
  all generalized elimination orders are enumerated, their
  (``U_i``, ``EMM_i``) signatures deduplicated and pruned, and the max–min
  problem is solved by branch and bound.  Exact up to 6 vertices; beyond
  that the combinatorics of GVEOs explode and a structure-specific path or
  an explicit bound should be used instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..constants import DEFAULT_OMEGA
from ..hypergraph.elimination import all_gveos, elimination_sequence, relevant_steps
from ..hypergraph.hypergraph import Hypergraph, VertexSet, subsets
from ..polymatroid.constructions import modular
from ..polymatroid.setfunction import SetFunction
from .mm_expr import MMTerm, enumerate_mm_terms, mm_expressions, mm_value
from .solver import Alternative, Choice, MaxMinResult, MaxMinSolver, simple_choice
from .subw import _default_seeds

#: A signature entry: the union U_i of one elimination step plus its MM terms.
StepSignature = Tuple[VertexSet, FrozenSet[MMTerm]]
#: A GVEO signature: the set of step signatures of its relevant steps.
Signature = FrozenSet[StepSignature]


@dataclass
class OmegaSubwResult:
    """The ω-submodular width with diagnostics."""

    value: float
    omega: float
    witness: Optional[SetFunction]
    method: str
    num_signatures: int
    num_mm_terms: int
    nodes_explored: int
    lp_solves: int

    def __float__(self) -> float:  # pragma: no cover - convenience
        return self.value


@lru_cache(maxsize=100_000)
def _terms_for(hypergraph: Hypergraph, block: VertexSet) -> FrozenSet[MMTerm]:
    return frozenset(enumerate_mm_terms(hypergraph, block))


# ----------------------------------------------------------------------
# Signature enumeration (general path)
# ----------------------------------------------------------------------
def gveo_signatures(hypergraph: Hypergraph) -> List[Signature]:
    """Deduplicated, minimal (U_i, EMM_i) signatures of all GVEOs.

    Signatures that are supersets of another signature are dropped: the
    inner ``max`` over a superset is pointwise at least the ``max`` over the
    subset, so the superset can never realize the ``min`` over GVEOs.
    """
    signatures: set = set()
    for order in all_gveos(hypergraph):
        steps = relevant_steps(elimination_sequence(hypergraph, order))
        signature: Signature = frozenset(
            (step.union, _terms_for(step.hypergraph, step.block)) for step in steps
        )
        signatures.add(signature)
    minimal = [
        signature
        for signature in signatures
        if not any(other < signature for other in signatures)
    ]
    minimal.sort(key=lambda s: (len(s), sorted(tuple(sorted(u)) for u, _ in s)))
    return minimal


def clustered_first_step_terms(hypergraph: Hypergraph) -> FrozenSet[MMTerm]:
    """All MM terms available at the first elimination step of a clustered query."""
    terms: set = set()
    for block in subsets(hypergraph.vertices, min_size=1):
        if len(block) == hypergraph.num_vertices:
            continue  # eliminating everything at once leaves no matrix dims
        terms |= set(enumerate_mm_terms(hypergraph, block))
    return frozenset(terms)


# ----------------------------------------------------------------------
# Objective evaluation on a concrete polymatroid
# ----------------------------------------------------------------------
def omega_subw_objective(
    hypergraph: Hypergraph,
    h: SetFunction,
    omega: float,
    signatures: Optional[Sequence[Signature]] = None,
) -> float:
    """``min_σ max_i min(h(U_i), EMM_i)`` for a concrete polymatroid ``h``.

    Evaluating the objective directly is how lower-bound witnesses are
    verified; it uses the same signature enumeration as the solver.
    """
    if signatures is None:
        if hypergraph.is_clustered():
            terms = clustered_first_step_terms(hypergraph)
            emm = min(
                (mm_value(term, h, omega) for term in terms), default=float("inf")
            )
            return min(h(hypergraph.vertices), emm)
        signatures = gveo_signatures(hypergraph)
    best = float("inf")
    for signature in signatures:
        worst_step = 0.0
        for union, terms in signature:
            emm = min((mm_value(t, h, omega) for t in terms), default=float("inf"))
            worst_step = max(worst_step, min(h(union), emm))
        best = min(best, worst_step)
    return best


# ----------------------------------------------------------------------
# Choice construction for the solver
# ----------------------------------------------------------------------
def _mm_choice(term: MMTerm, omega: float) -> Choice:
    return simple_choice(mm_expressions(term, omega), label=term.label())


def _clustered_choices(hypergraph: Hypergraph, omega: float) -> Tuple[List[Choice], int]:
    terms = clustered_first_step_terms(hypergraph)
    choices: List[Choice] = [
        Choice(
            alternatives=(Alternative(rows=({frozenset(hypergraph.vertices): 1.0},)),),
            label="h(V)",
        )
    ]
    choices.extend(_mm_choice(term, omega) for term in sorted(terms, key=lambda t: t.label()))
    return choices, len(terms)


def _general_choices(
    hypergraph: Hypergraph, omega: float
) -> Tuple[List[Choice], int, int]:
    signatures = gveo_signatures(hypergraph)
    num_terms = 0
    choices: List[Choice] = []
    for signature in signatures:
        alternatives = []
        for union, terms in sorted(
            signature, key=lambda entry: (len(entry[0]), tuple(sorted(entry[0])))
        ):
            nested = tuple(
                _mm_choice(term, omega)
                for term in sorted(terms, key=lambda t: t.label())
            )
            num_terms += len(terms)
            alternatives.append(
                Alternative(rows=({frozenset(union): 1.0},), nested=nested)
            )
        label = " / ".join("".join(sorted(u)) for u, _ in signature)
        choices.append(Choice(alternatives=tuple(alternatives), label=label))
    return choices, len(signatures), num_terms


# ----------------------------------------------------------------------
# Main entry point
# ----------------------------------------------------------------------
def omega_submodular_width(
    hypergraph: Hypergraph,
    omega: float = DEFAULT_OMEGA,
    method: str = "auto",
    seeds: Iterable[SetFunction] = (),
    node_limit: int = 500_000,
    max_general_vertices: int = 6,
) -> OmegaSubwResult:
    """Compute ``ω-subw(H)`` exactly.

    Parameters
    ----------
    hypergraph:
        The query hypergraph.
    omega:
        The matrix multiplication exponent (any value in ``[2, 3]``).
    method:
        ``"auto"`` (default) picks ``"clustered"`` when the hypergraph is
        clustered and ``"general"`` otherwise; both can be forced.
    seeds:
        Extra witness polymatroids for the incumbent (the paper's explicit
        witnesses make the search near-instant for the known queries).
    node_limit:
        Safety cap on branch-and-bound nodes.
    max_general_vertices:
        The general path enumerates all GVEOs, which is only practical for
        small vertex counts; larger non-clustered hypergraphs raise
        ``ValueError`` so callers can fall back to bounds.
    """
    if method == "auto":
        method = "clustered" if hypergraph.is_clustered() else "general"
    if method == "clustered":
        if not hypergraph.is_clustered():
            raise ValueError("the clustered method requires a clustered hypergraph")
        choices, num_terms = _clustered_choices(hypergraph, omega)
        num_signatures = 1
    elif method == "general":
        if hypergraph.num_vertices > max_general_vertices:
            raise ValueError(
                f"general ω-subw computation supports at most {max_general_vertices} "
                f"vertices (got {hypergraph.num_vertices}); use a structure-specific "
                "method or closed forms instead"
            )
        choices, num_signatures, num_terms = _general_choices(hypergraph, omega)
    else:
        raise ValueError(f"unknown method {method!r}")

    solver = MaxMinSolver(hypergraph, choices, node_limit=node_limit)
    all_seeds = _default_seeds(hypergraph) + _omega_seeds(hypergraph, omega) + list(seeds)
    result: MaxMinResult = solver.solve(all_seeds)
    return OmegaSubwResult(
        value=result.value,
        omega=omega,
        witness=result.witness,
        method=method,
        num_signatures=num_signatures,
        num_mm_terms=num_terms,
        nodes_explored=result.nodes_explored,
        lp_solves=result.lp_solves,
    )


def _omega_seeds(hypergraph: Hypergraph, omega: float) -> List[SetFunction]:
    """ω-dependent modular seeds (cheap candidate worst-case distributions)."""
    vertices = hypergraph.sorted_vertices()
    weights = {
        1.0 / omega,
        (omega - 1.0) / (omega + 1.0),
        2.0 / (omega + 1.0),
        (omega - 1.0) / (2.0 * omega + 1.0),
    }
    return [modular({v: w for v in vertices}) for w in sorted(weights)]
