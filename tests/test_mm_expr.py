"""Tests for MM expressions and the EMM enumeration (Definitions 4.2 and 4.5)."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import OMEGA_BEST_KNOWN
from repro.hypergraph import (
    Hypergraph,
    four_clique,
    four_cycle,
    matrix_product_query,
    three_pyramid,
    triangle,
)
from repro.polymatroid import evaluate, modular
from repro.width import MMTerm, emm_value, enumerate_mm_terms, mm_expressions, mm_value
from tests.conftest import random_entropic_polymatroid


def _labels(terms):
    return {t.label() for t in terms}


class TestMMTerm:
    def test_parts_must_be_disjoint(self):
        with pytest.raises(ValueError):
            MMTerm(
                first=frozenset("X"),
                second=frozenset("X"),
                eliminated=frozenset("Y"),
                group_by=frozenset(),
            )
        with pytest.raises(ValueError):
            MMTerm(
                first=frozenset(),
                second=frozenset("X"),
                eliminated=frozenset("Y"),
                group_by=frozenset(),
            )

    def test_three_expressions_and_symmetry(self, omega):
        term = MMTerm(
            first=frozenset("X"),
            second=frozenset("Y"),
            eliminated=frozenset("Z"),
            group_by=frozenset(),
        )
        assert len(mm_expressions(term, omega)) == 3
        h = modular({"X": 0.7, "Y": 0.3, "Z": 0.9})
        swapped = MMTerm(
            first=frozenset("Y"),
            second=frozenset("Z"),
            eliminated=frozenset("X"),
            group_by=frozenset(),
        )
        assert mm_value(term, h, omega) == pytest.approx(mm_value(swapped, h, omega))

    def test_evaluate_matches_eq7(self, omega):
        """Against the explicit formula (7) for MM(X;Y;Z) on a modular h."""
        gamma = omega - 2.0
        h = modular({"X": 0.4, "Y": 0.8, "Z": 0.2})
        term = MMTerm(
            first=frozenset("X"),
            second=frozenset("Y"),
            eliminated=frozenset("Z"),
            group_by=frozenset(),
        )
        expected = max(
            0.4 + 0.8 + gamma * 0.2,
            0.4 + gamma * 0.8 + 0.2,
            gamma * 0.4 + 0.8 + 0.2,
        )
        assert mm_value(term, h, omega) == pytest.approx(expected)

    def test_expressions_agree_with_evaluate(self, omega):
        term = MMTerm(
            first=frozenset("X"),
            second=frozenset("Y"),
            eliminated=frozenset("Z"),
            group_by=frozenset("W"),
        )
        h = random_entropic_polymatroid(["X", "Y", "Z", "W"], 9)
        via_expressions = max(evaluate(e, h) for e in mm_expressions(term, omega))
        assert via_expressions == pytest.approx(mm_value(term, h, omega))

    @given(st.integers(min_value=0, max_value=2_000))
    def test_proposition_4_3(self, seed):
        """MM(X;Y;Z|G) >= max(h(XYG), h(YZG), h(XZG)) on entropic polymatroids."""
        omega = OMEGA_BEST_KNOWN
        h = random_entropic_polymatroid(["X", "Y", "Z", "W"], seed)
        term = MMTerm(
            first=frozenset("X"),
            second=frozenset("Y"),
            eliminated=frozenset("Z"),
            group_by=frozenset("W"),
        )
        value = mm_value(term, h, omega)
        assert value >= h(["X", "Y", "W"]) - 1e-9
        assert value >= h(["Y", "Z", "W"]) - 1e-9
        assert value >= h(["X", "Z", "W"]) - 1e-9

    @given(st.integers(min_value=0, max_value=2_000))
    def test_proposition_4_4(self, seed):
        """At ω = 3, MM(X;Y;Z|G) >= h(XYZG)."""
        h = random_entropic_polymatroid(["X", "Y", "Z", "W"], seed)
        term = MMTerm(
            first=frozenset("X"),
            second=frozenset("Y"),
            eliminated=frozenset("Z"),
            group_by=frozenset("W"),
        )
        assert mm_value(term, h, 3.0) >= h(["X", "Y", "Z", "W"]) - 1e-9


def _reference_terms(hypergraph, block):
    """Definition 4.5 by brute force: every 3-way assignment of ``N(block)``."""
    block = frozenset(block)
    incident = hypergraph.incident_edges(block)
    neighbourhood = hypergraph.neighbours(block)
    neighbours = sorted(neighbourhood)
    terms = {}
    for assignment in itertools.product((0, 1, 2), repeat=len(neighbours)):
        first = frozenset(v for v, a in zip(neighbours, assignment) if a == 0)
        second = frozenset(v for v, a in zip(neighbours, assignment) if a == 1)
        if not first or not second:
            continue
        if any(edge & first and edge & second for edge in incident):
            continue
        if not all(
            any(v in e and not e & second for e in incident)
            and any(v in e and not e & first for e in incident)
            for v in block
        ):
            continue
        key = (first, second) if sorted(first) <= sorted(second) else (second, first)
        terms[key] = MMTerm(
            first=key[0], second=key[1], eliminated=block,
            group_by=neighbourhood - first - second,
        )
    return sorted(terms.values(), key=lambda t: t.label())


@st.composite
def _hypergraph_and_block(draw):
    vertices = [f"V{i}" for i in range(draw(st.integers(2, 7)))]
    edges = draw(
        st.lists(
            st.lists(st.sampled_from(vertices), min_size=1, max_size=4, unique=True),
            min_size=1,
            max_size=8,
        )
    )
    block = draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=2, unique=True))
    return Hypergraph(vertices, edges), block


class TestEMMEnumeration:
    @settings(max_examples=300)
    @given(_hypergraph_and_block())
    def test_enumeration_matches_brute_force_definition(self, drawn):
        hypergraph, block = drawn
        assert enumerate_mm_terms(hypergraph, block) == _reference_terms(
            hypergraph, block
        )

    def test_triangle_single_term(self):
        terms = enumerate_mm_terms(triangle(), "Y")
        assert _labels(terms) == {"MM(X;Z;Y)"}

    def test_four_clique_matches_example_4_6(self):
        """Example 4.6 lists six ways to eliminate X from the 4-clique."""
        terms = enumerate_mm_terms(four_clique(), "X")
        structure = {
            (frozenset({t.first, t.second}), t.group_by) for t in terms
        }
        expected = {
            (frozenset({frozenset("Y"), frozenset("Z")}), frozenset("W")),
            (frozenset({frozenset("Y"), frozenset("W")}), frozenset("Z")),
            (frozenset({frozenset("Z"), frozenset("W")}), frozenset("Y")),
            (frozenset({frozenset("Y"), frozenset({"Z", "W"})}), frozenset()),
            (frozenset({frozenset("Z"), frozenset({"Y", "W"})}), frozenset()),
            (frozenset({frozenset("W"), frozenset({"Y", "Z"})}), frozenset()),
        }
        assert structure == expected
        assert all(t.eliminated == frozenset("X") for t in terms)

    def test_four_cycle_elimination(self):
        terms = enumerate_mm_terms(four_cycle(), "X2")
        # N(X2) = {X1, X3}; the only split is first={X1}, second={X3}.
        assert _labels(terms) == {"MM(X1;X3;X2)"}

    def test_block_elimination_of_matrix_product_query(self):
        """Section 4.1: eliminating {Y1, Y2} at once allows the combined MM."""
        h = matrix_product_query()
        terms = enumerate_mm_terms(h, {"Y1", "Y2"})
        assert "MM(X;Z;Y1Y2)" in _labels(terms)
        # Eliminating only Y2 keeps Y1 as a group-by variable.
        terms_single = enumerate_mm_terms(h, "Y2")
        assert "MM(X;Z;Y2|Y1)" in _labels(terms_single)

    def test_unrealizable_partitions_are_excluded(self):
        """A hyperedge spanning both outer dimensions kills the split."""
        h = three_pyramid()
        terms = enumerate_mm_terms(h, "Y")
        labels = _labels(terms)
        # The wide edge {X1,X2,X3} never needs to be split (it does not
        # contain Y), so all pairings of the Xi remain available...
        assert "MM(X1;X2;Y|X3)" in labels
        # ... but eliminating a base vertex cannot place the other two base
        # vertices on different sides, because the wide edge joins them.
        terms_x1 = enumerate_mm_terms(h, "X1")
        assert "MM(X2;X3;X1|Y)" not in _labels(terms_x1)
        assert "MM(X2X3;Y;X1)" in _labels(terms_x1)

    def test_isolated_block_has_no_terms(self):
        h = Hypergraph("XYZ", [("X", "Y")])
        assert enumerate_mm_terms(h, "Z") == []

    def test_neighbourhood_cap(self):
        assert enumerate_mm_terms(four_clique(), "X", max_neighbourhood=2) == []

    def test_emm_value(self, omega):
        h = modular({"X": 0.5, "Y": 0.5, "Z": 0.5})
        value = emm_value(triangle(), "Y", h, omega)
        assert value == pytest.approx(1.0 + (omega - 2.0) * 0.5)
        assert emm_value(Hypergraph("XYZ", [("X", "Y")]), "Z", h, omega) == float("inf")
