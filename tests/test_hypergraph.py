"""Unit tests for the hypergraph substrate."""

from __future__ import annotations

import pytest

from repro.hypergraph import (
    Hypergraph,
    clique,
    cycle,
    four_clique,
    four_cycle,
    lemma_c15_query,
    loomis_whitney,
    matrix_product_query,
    named_query,
    path,
    pyramid,
    star,
    subsets,
    three_pyramid,
    triangle,
    two_triangles,
)


class TestHypergraphBasics:
    def test_vertices_and_edges(self):
        h = Hypergraph("XYZ", [("X", "Y"), ("Y", "Z")])
        assert h.num_vertices == 3
        assert h.num_edges == 2
        assert frozenset({"X", "Y"}) in h.edges

    def test_duplicate_edges_collapse(self):
        h = Hypergraph("XY", [("X", "Y"), ("Y", "X")])
        assert h.num_edges == 1

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph("XY", [("X", "Z")])

    def test_empty_edge_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph("XY", [()])

    def test_equality_and_hash(self):
        a = Hypergraph("XYZ", [("X", "Y"), ("Y", "Z")])
        b = Hypergraph(["Z", "Y", "X"], [("Y", "Z"), ("X", "Y")])
        assert a == b
        assert hash(a) == hash(b)

    def test_sorted_accessors_are_deterministic(self):
        h = four_cycle()
        assert h.sorted_vertices() == ("X1", "X2", "X3", "X4")
        assert h.sorted_edges()[0] == ("X1", "X2")


class TestNeighbourhoodOperators:
    def test_incident_edges_of_vertex(self):
        h = triangle()
        incident = h.incident_edges("X")
        assert incident == frozenset({frozenset("XY"), frozenset("XZ")})

    def test_union_and_neighbours(self):
        # Example A.1 from the paper.
        h = Hypergraph("ABCDE", [("A", "B", "C"), ("A", "B", "D"), ("C", "D", "E")])
        assert h.union_of_incident("A") == frozenset("ABCD")
        assert h.neighbours("A") == frozenset("BCD")
        assert h.incident_edges("A") == frozenset(
            {frozenset("ABC"), frozenset("ABD")}
        )

    def test_block_neighbourhood(self):
        h = four_cycle()
        block = {"X1", "X2"}
        assert h.union_of_incident(block) == frozenset({"X1", "X2", "X3", "X4"})
        assert h.neighbours(block) == frozenset({"X3", "X4"})

    def test_isolated_vertex_neighbourhood(self):
        h = Hypergraph("XYZ", [("X", "Y")])
        assert h.incident_edges("Z") == frozenset()
        assert h.union_of_incident("Z") == frozenset({"Z"})
        assert h.neighbours("Z") == frozenset()

    def test_unknown_vertex_raises(self):
        with pytest.raises(ValueError):
            triangle().neighbours("W")


class TestElimination:
    def test_eliminate_vertex_from_cycle(self):
        # Example A.3: eliminating B from the 4-cycle ABCD yields a triangle.
        h = Hypergraph("ABCD", [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")])
        reduced = h.eliminate("B")
        assert reduced.vertices == frozenset("ACD")
        assert frozenset("AC") in reduced.edges
        assert frozenset("CD") in reduced.edges
        assert frozenset("AD") in reduced.edges

    def test_eliminate_block(self):
        h = four_clique()
        reduced = h.eliminate({"X", "Y"})
        assert reduced.vertices == frozenset({"Z", "W"})
        assert frozenset({"Z", "W"}) in reduced.edges

    def test_eliminate_everything(self):
        h = triangle()
        reduced = h.eliminate({"X", "Y", "Z"})
        assert reduced.num_vertices == 0
        assert reduced.num_edges == 0

    def test_eliminate_empty_rejected(self):
        with pytest.raises(ValueError):
            triangle().eliminate(frozenset())


class TestStructuralPredicates:
    def test_clustered(self):
        assert triangle().is_clustered()
        assert four_clique().is_clustered()
        assert three_pyramid().is_clustered()
        assert lemma_c15_query().is_clustered()
        assert not four_cycle().is_clustered()
        assert not path(4).is_clustered()

    def test_acyclicity(self):
        assert path(4).is_acyclic()
        assert star(3).is_acyclic()
        assert matrix_product_query().is_acyclic()
        assert not triangle().is_acyclic()
        assert not four_cycle().is_acyclic()

    def test_is_graph(self):
        """The triangle is a graph; the 3-pyramid's base is one ternary edge."""
        assert all(len(edge) == 2 for edge in triangle().edges)
        assert sorted(len(edge) for edge in three_pyramid().edges) == [2, 2, 2, 3]


class TestDerivedHypergraphs:
    def test_induced(self):
        h = four_clique()
        induced = h.induced({"X", "Y", "Z"})
        assert induced.vertices == frozenset("XYZ")
        # Edges clipped to the subset may become singletons contained in the
        # binary edges: the triangle plus one singleton per clipped W-edge.
        singletons = {frozenset(v) for v in "XYZ"}
        assert induced.edges == triangle().edges | singletons

    def test_rename(self):
        renamed = triangle().rename({"X": "A", "Y": "B", "Z": "C"})
        assert renamed.vertices == frozenset("ABC")
        with pytest.raises(ValueError):
            triangle().rename({"X": "Y"})

    def test_subsets_helper(self):
        all_subsets = list(subsets("XY"))
        assert len(all_subsets) == 4
        assert frozenset() in all_subsets
        assert len(list(subsets("XYZ", min_size=2))) == 4


class TestQueryGenerators:
    def test_triangle_matches_eq2(self):
        h = triangle()
        assert h.num_vertices == 3 and h.num_edges == 3

    def test_two_triangles_matches_eq3(self):
        h = two_triangles()
        assert h.num_vertices == 4 and h.num_edges == 5

    def test_clique_counts(self):
        for k in range(3, 7):
            h = clique(k)
            assert h.num_vertices == k
            assert h.num_edges == k * (k - 1) // 2
            assert h.is_clustered()

    def test_cycle_counts(self):
        for k in range(3, 8):
            h = cycle(k)
            assert h.num_vertices == k and h.num_edges == k
            assert all(len(edge) == 2 for edge in h.edges)
        assert cycle(3) == triangle().rename({"X": "X1", "Y": "X2", "Z": "X3"})

    def test_pyramid_structure(self):
        h = pyramid(4)
        assert h.num_vertices == 5
        assert h.num_edges == 5
        wide = frozenset({"X1", "X2", "X3", "X4"})
        assert wide in h.edges

    def test_loomis_whitney(self):
        h = loomis_whitney(3)
        assert h.num_edges == 3
        assert all(len(e) == 2 for e in h.edges)

    def test_named_queries(self):
        assert named_query("triangle") == triangle()
        with pytest.raises(KeyError):
            named_query("not-a-query")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            cycle(2)
        with pytest.raises(ValueError):
            clique(1)
        with pytest.raises(ValueError):
            pyramid(1)
