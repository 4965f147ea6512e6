"""k-clique detection via matrix multiplication (Table 1 / Lemma C.8).

The classical Nešetřil–Poljak construction detects a ``k``-clique by
splitting the ``k`` pattern vertices into three groups of sizes
``⌈k/3⌉, ⌈(k-1)/3⌉, ⌊k/3⌋``, enumerating the cliques of each group size,
and multiplying two Boolean "compatible-cliques" matrices.  This is exactly
the GVEO ``σ = (X, Y, Z)`` with the MM term ``MM(Y; Z; X)`` that the
ω-submodular-width framework recovers for cliques (Lemma C.8), so the
module doubles as the executable counterpart of that analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from ..constants import DEFAULT_OMEGA

Edge = Tuple[int, int]


def _normalize_edges(edges: Iterable[Sequence[int]]) -> Set[Edge]:
    normalized: Set[Edge] = set()
    for a, b in edges:
        if a == b:
            continue
        normalized.add((min(a, b), max(a, b)))
    return normalized


def _adjacency(edges: Set[Edge]) -> Dict[int, Set[int]]:
    adjacency: Dict[int, Set[int]] = {}
    for a, b in edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    return adjacency


def enumerate_cliques(edges: Iterable[Sequence[int]], size: int) -> List[Tuple[int, ...]]:
    """All cliques of exactly ``size`` vertices in the graph (sorted tuples)."""
    edge_set = _normalize_edges(edges)
    adjacency = _adjacency(edge_set)
    vertices = sorted(adjacency)
    if size == 0:
        return [()]
    if size == 1:
        return [(v,) for v in vertices]
    cliques: List[Tuple[int, ...]] = []

    def extend(current: Tuple[int, ...], candidates: List[int]) -> None:
        if len(current) == size:
            cliques.append(current)
            return
        for position, vertex in enumerate(candidates):
            new_candidates = [
                u for u in candidates[position + 1 :] if u in adjacency[vertex]
            ]
            extend(current + (vertex,), new_candidates)

    extend((), vertices)
    return cliques


def clique_detect_bruteforce(edges: Iterable[Sequence[int]], k: int) -> bool:
    """Whether the graph contains a k-clique (backtracking enumeration)."""
    return bool(enumerate_cliques(edges, k))


@dataclass
class CliqueReport:
    """Diagnostics for the MM-based clique detection."""

    answer: bool
    group_sizes: Tuple[int, int, int]
    matrix_shape: Tuple[int, int, int]
    seconds: float = 0.0


def clique_detect_mm(
    edges: Iterable[Sequence[int]],
    k: int,
    omega: float = DEFAULT_OMEGA,
) -> CliqueReport:
    """Detect a k-clique with the three-way split + Boolean MM strategy.

    The detection is a *lowering*: the pairwise compatible-cliques
    relations over the three vertex groups form a triangle query whose
    middle group is eliminated by one Boolean matrix product
    (``AC ⋉ MM(AB; B; BC)``, the GVEO of Lemma C.8), executed on the shared
    virtual machine.  A middle clique certified by the product is
    automatically vertex-disjoint from *both* endpoints at once: ``b∩a = ∅``
    and ``b∩c = ∅`` (baked into the compatibility relations) already give
    ``b ∩ (a∪c) = ∅``.
    """
    import time

    del omega  # the detection itself is exponent-agnostic; ω only changes costs
    from ..exec.lower import lower_clique
    from ..exec.vm import VirtualMachine

    start = time.perf_counter()
    if k < 3:
        raise ValueError("clique detection needs k >= 3")
    edge_set = _normalize_edges(edges)
    size_a = (k + 2) // 3          # ⌈k/3⌉
    size_b = (k + 1) // 3          # ⌈(k-1)/3⌉
    size_c = k // 3                # ⌊k/3⌋
    groups = [enumerate_cliques(edge_set, size) for size in (size_a, size_b, size_c)]
    vertices = sorted({v for edge in edge_set for v in edge})
    index = {vertex: i for i, vertex in enumerate(vertices)}
    ends = np.array([(index[a], index[b]) for a, b in edge_set], dtype=np.int64).reshape(-1, 2)
    adjacency = np.zeros((len(vertices), len(vertices)), dtype=bool)
    adjacency[ends[:, 0], ends[:, 1]] = adjacency[ends[:, 1], ends[:, 0]] = True
    program, compat_db = lower_clique(
        *([tuple(index[v] for v in clique) for clique in group] for group in groups),
        adjacency,
    )
    result = VirtualMachine(compat_db).run(program)
    return CliqueReport(
        answer=result.answer,
        group_sizes=(size_a, size_b, size_c),
        matrix_shape=tuple(len(group) for group in groups),
        seconds=time.perf_counter() - start,
    )
