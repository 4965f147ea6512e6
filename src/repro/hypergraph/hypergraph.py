"""Hypergraphs: the combinatorial skeleton of a conjunctive query.

A Boolean conjunctive query ``Q() :- R1(Z1), ..., Rm(Zm)`` is represented by
its *hypergraph* ``H = (V, E)`` where ``V = vars(Q)`` and ``E`` contains one
hyperedge per atom (Section 3 of the paper).  This module implements the
hypergraph operations the paper relies on:

* incident edges ``∂_H(X)``, the union ``U_H(X)`` and the neighbourhood
  ``N_H(X)`` of a vertex set (Section 3 and Section 4.1),
* elimination of a vertex set (the building block of generalized variable
  elimination orders, Definition 4.1),
* structural predicates (acyclicity, clustered-ness Definition C.11).
"""

from __future__ import annotations

import itertools
from typing import Collection, FrozenSet, Iterable, Iterator, Sequence, Tuple

Vertex = str
Edge = FrozenSet[Vertex]
VertexSet = FrozenSet[Vertex]


def _as_vertex_set(vertices: Iterable[Vertex] | Vertex) -> VertexSet:
    """Normalize a vertex or an iterable of vertices into a frozenset."""
    if isinstance(vertices, str):
        return frozenset([vertices])
    return frozenset(vertices)


class Hypergraph:
    """An immutable hypergraph ``H = (V, E)``.

    Parameters
    ----------
    vertices:
        The vertex set.  Vertices are arbitrary strings (query variables).
    edges:
        The hyperedges; every hyperedge must be a non-empty subset of the
        vertex set.  Duplicate hyperedges are collapsed.

    Examples
    --------
    >>> H = Hypergraph("XYZ", [("X", "Y"), ("Y", "Z"), ("X", "Z")])
    >>> sorted(H.vertices)
    ['X', 'Y', 'Z']
    >>> H.num_edges
    3
    """

    __slots__ = ("_vertices", "_edges", "_hash")

    def __init__(
        self,
        vertices: Iterable[Vertex],
        edges: Iterable[Iterable[Vertex]],
    ) -> None:
        vertex_set = frozenset(vertices)
        edge_set = frozenset(frozenset(edge) for edge in edges)
        for edge in edge_set:
            if not edge:
                raise ValueError("hyperedges must be non-empty")
            if not edge <= vertex_set:
                extra = set(edge) - vertex_set
                raise ValueError(f"edge {set(edge)} uses unknown vertices {extra}")
        self._vertices: VertexSet = vertex_set
        self._edges: FrozenSet[Edge] = edge_set
        self._hash = hash((self._vertices, self._edges))

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> VertexSet:
        """The vertex set ``V``."""
        return self._vertices

    @property
    def edges(self) -> FrozenSet[Edge]:
        """The set of hyperedges ``E``."""
        return self._edges

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def sorted_vertices(self) -> Tuple[Vertex, ...]:
        """The vertices in a deterministic (sorted) order."""
        return tuple(sorted(self._vertices))

    def sorted_edges(self) -> Tuple[Tuple[Vertex, ...], ...]:
        """The edges, each sorted, in a deterministic order."""
        return tuple(sorted(tuple(sorted(edge)) for edge in self._edges))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        edges = ", ".join("{" + ",".join(sorted(e)) + "}" for e in self.sorted_edges())
        return f"Hypergraph(V={{{','.join(self.sorted_vertices())}}}, E=[{edges}])"

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._vertices

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.sorted_vertices())

    # ------------------------------------------------------------------
    # Neighbourhood operators (Section 3 / Section 4.1)
    # ------------------------------------------------------------------
    def incident_edges(self, vertices: Iterable[Vertex] | Vertex) -> FrozenSet[Edge]:
        """``∂_H(X)``: the hyperedges that intersect the vertex set ``X``."""
        target = _as_vertex_set(vertices)
        self._require_vertices(target)
        return frozenset(edge for edge in self._edges if edge & target)

    def union_of_incident(self, vertices: Iterable[Vertex] | Vertex) -> VertexSet:
        """``U_H(X)``: the union of all hyperedges intersecting ``X``, plus ``X``.

        For vertices that appear in no hyperedge ``U_H(X)`` still contains
        ``X`` itself (such isolated vertices occur in elimination
        hypergraph sequences).
        """
        target = _as_vertex_set(vertices)
        result = set(target)
        for edge in self.incident_edges(target):
            result |= edge
        return frozenset(result)

    def neighbours(self, vertices: Iterable[Vertex] | Vertex) -> VertexSet:
        """``N_H(X) = U_H(X) \\ X``: the neighbours of ``X``."""
        target = _as_vertex_set(vertices)
        return self.union_of_incident(target) - target

    def _require_vertices(self, vertices: VertexSet) -> None:
        if not vertices <= self._vertices:
            extra = set(vertices) - set(self._vertices)
            raise ValueError(f"unknown vertices {extra}")

    # ------------------------------------------------------------------
    # Elimination (Definition 4.1)
    # ------------------------------------------------------------------
    def eliminate(self, vertices: Iterable[Vertex] | Vertex) -> "Hypergraph":
        """Eliminate the vertex set ``X`` and return the resulting hypergraph.

        All hyperedges intersecting ``X`` are removed and replaced by the
        single hyperedge ``N_H(X)`` (their union minus ``X``); if that
        neighbourhood is empty no replacement edge is added.
        """
        target = _as_vertex_set(vertices)
        self._require_vertices(target)
        if not target:
            raise ValueError("cannot eliminate the empty vertex set")
        incident = self.incident_edges(target)
        new_edge = self.neighbours(target)
        remaining_edges = [edge for edge in self._edges if edge not in incident]
        if new_edge:
            remaining_edges.append(new_edge)
        new_vertices = self._vertices - target
        return Hypergraph(new_vertices, remaining_edges)

    # ------------------------------------------------------------------
    # Structural predicates
    # ------------------------------------------------------------------
    def is_clustered(self) -> bool:
        """Definition C.11: every pair of vertices co-occurs in some edge."""
        for u, v in itertools.combinations(self._vertices, 2):
            if not any(u in edge and v in edge for edge in self._edges):
                return False
        return True

    def is_acyclic(self) -> bool:
        """Whether the hypergraph is α-acyclic (GYO reduction succeeds)."""
        edges = [set(edge) for edge in self._edges]
        changed = True
        while changed and edges:
            changed = False
            # Remove vertices occurring in a single edge (ears).
            occurrence: dict[Vertex, int] = {}
            for edge in edges:
                for vertex in edge:
                    occurrence[vertex] = occurrence.get(vertex, 0) + 1
            for edge in edges:
                lonely = {v for v in edge if occurrence[v] == 1}
                if lonely:
                    edge -= lonely
                    changed = True
            # Remove empty edges and edges contained in another edge.
            edges = [edge for edge in edges if edge]
            pruned: list[set] = []
            for i, edge in enumerate(edges):
                contained = any(
                    i != j and edge <= other and (edge < other or i > j)
                    for j, other in enumerate(edges)
                )
                if contained:
                    changed = True
                else:
                    pruned.append(edge)
            edges = pruned
        return not edges

    # ------------------------------------------------------------------
    # Derived hypergraphs
    # ------------------------------------------------------------------
    def induced(self, vertices: Iterable[Vertex]) -> "Hypergraph":
        """The sub-hypergraph induced by a vertex subset.

        Every hyperedge is intersected with the subset; empty intersections
        are dropped.
        """
        keep = _as_vertex_set(vertices)
        self._require_vertices(keep)
        edges = [edge & keep for edge in self._edges if edge & keep]
        return Hypergraph(keep, edges)

    def rename(self, mapping: dict[Vertex, Vertex]) -> "Hypergraph":
        """Rename vertices according to ``mapping`` (missing keys unchanged)."""
        def rename_one(v: Vertex) -> Vertex:
            return mapping.get(v, v)

        vertices = [rename_one(v) for v in self._vertices]
        if len(set(vertices)) != len(self._vertices):
            raise ValueError("renaming must be injective on the vertex set")
        edges = [[rename_one(v) for v in edge] for edge in self._edges]
        return Hypergraph(vertices, edges)


def subsets(collection: Collection[Vertex], min_size: int = 0) -> Iterator[VertexSet]:
    """All subsets of ``collection`` of size at least ``min_size`` (sorted order)."""
    items: Sequence[Vertex] = sorted(collection)
    for size in range(min_size, len(items) + 1):
        for combo in itertools.combinations(items, size):
            yield frozenset(combo)
