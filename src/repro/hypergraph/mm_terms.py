"""The matrix-multiplication terms ``MM(X;Y;Z|G)`` of ``EMM_H(X)`` (Def. 4.5).

A block ``X`` is eliminated by one (grouped) matrix multiplication per way
of splitting its incident hyperedges into two matrices.  The split matters
only through the vertex sets it induces, so the terms are enumerated over
partitions of ``N_H(X)`` into the outer parts and a group-by rest, with a
feasibility test (see :func:`mm_terms_over_edges`).  This is all the
ω-query planner needs; a term's value on a polymatroid (Def. 4.2) is
:func:`repro.width.mm_expr.mm_value`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Optional

from .hypergraph import Hypergraph, VertexSet


@dataclass(frozen=True)
class MMTerm:
    """One term ``MM(first; second; eliminated | group_by)`` of an EMM minimum.

    ``eliminated`` is the vertex block being eliminated (the shared matrix
    dimension); ``first`` and ``second`` are the two outer dimensions;
    ``group_by`` holds the variables iterated over outside the
    multiplication.
    """

    first: VertexSet
    second: VertexSet
    eliminated: VertexSet
    group_by: VertexSet

    def __post_init__(self) -> None:
        parts = [self.first, self.second, self.eliminated, self.group_by]
        for a, b in itertools.combinations(parts, 2):
            if a & b:
                raise ValueError("MM term parts must be pairwise disjoint")
        if not self.first or not self.second or not self.eliminated:
            raise ValueError("MM terms need non-empty first/second/eliminated parts")

    def label(self) -> str:
        def fmt(subset: VertexSet) -> str:
            return "".join(sorted(subset)) or "∅"

        text = f"MM({fmt(self.first)};{fmt(self.second)};{fmt(self.eliminated)}"
        if self.group_by:
            text += f"|{fmt(self.group_by)}"
        return text + ")"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.label()


def enumerate_mm_terms(
    hypergraph: Hypergraph,
    block: Iterable[str] | str,
    max_neighbourhood: Optional[int] = None,
) -> List[MMTerm]:
    """All (non-trivial, deduplicated) MM terms usable to eliminate ``block``.

    The terms returned are exactly those of Definition 4.5 written in the
    vertex-partition form: for every split of the neighbourhood ``N(block)``
    into disjoint non-empty ``first``/``second`` parts and a group-by rest,
    provided a hyperedge cover realizing the split exists.  Unordered
    duplicates (``first`` and ``second`` swapped) are removed since the MM
    measure is symmetric.

    ``max_neighbourhood`` optionally skips blocks whose neighbourhood is too
    large for exhaustive enumeration (returning an empty list, i.e. "no MM
    elimination considered"), which keeps planning tractable on large
    hypergraphs; widths computed with such a cap are upper bounds.
    """
    block_set = frozenset([block]) if isinstance(block, str) else frozenset(block)
    return mm_terms_over_edges(
        block_set, hypergraph.incident_edges(block_set), max_neighbourhood
    )


def mm_terms_over_edges(
    block: VertexSet,
    incident: Iterable[VertexSet],
    max_neighbourhood: Optional[int] = None,
) -> List[MMTerm]:
    """:func:`enumerate_mm_terms` given only ``∂(block)``, the incident edges.

    The terms depend on nothing else of the hypergraph, which lets the
    planner enumerate them from the scopes of its pseudo-relations.

    Per Definition 4.5 a split needs hyperedge families ``A ∪ B = ∂(block)``
    with ``∪A ⊇ block ∪ first``, ``∪A ∩ second = ∅`` and symmetrically for
    ``B``.  This holds iff (i) no incident hyperedge meets both ``first``
    and ``second`` and (ii) every vertex of ``block`` lies in some incident
    edge avoiding ``second`` and in some incident edge avoiding ``first``.
    Neighbour sets are bitmasks over the sorted neighbourhood: for a given
    ``first``, (i) confines ``second`` to the neighbours no edge shares with
    ``first``, so only submasks of that set are visited.  Of each unordered
    pair the orientation with the smaller least neighbour in ``first`` is
    kept — for disjoint sets that is ``sorted(first) < sorted(second)``.
    """
    edges = list(incident)
    neighbourhood = frozenset().union(*edges) - block
    if max_neighbourhood is not None and len(neighbourhood) > max_neighbourhood:
        return []
    neighbours = sorted(neighbourhood)
    bit = {vertex: 1 << index for index, vertex in enumerate(neighbours)}
    masks = [sum(bit[v] for v in edge if v in bit) for edge in edges]
    # Per block vertex, the neighbour masks of the incident edges holding it.
    covers = [
        [mask for edge, mask in zip(edges, masks) if vertex in edge]
        for vertex in block
    ]
    full = (1 << len(neighbours)) - 1

    def members(mask: int) -> VertexSet:
        return frozenset(v for v in neighbours if bit[v] & mask)

    terms: List[MMTerm] = []
    for first in range(1, full):
        if not all(any(not mask & first for mask in cover) for cover in covers):
            continue
        allowed = full & ~first
        for mask in masks:
            if mask & first:
                allowed &= ~mask
        # Keep only neighbours above the least one of ``first``.
        allowed &= ~((first & -first) - 1)
        second = allowed
        while second:
            if all(any(not mask & second for mask in cover) for cover in covers):
                terms.append(
                    MMTerm(
                        first=members(first),
                        second=members(second),
                        eliminated=block,
                        group_by=members(full & ~first & ~second),
                    )
                )
            second = (second - 1) & allowed
    return sorted(terms, key=lambda t: t.label())
