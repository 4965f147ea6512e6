"""Tests for Shannon inequalities, ω-dominant triples and proof sequences."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.constants import OMEGA_BEST_KNOWN
from repro.polymatroid import (
    add_expressions,
    conditional_expression,
    elemental_inequalities,
    evaluate,
    evaluate_bag,
    expression,
    is_omega_dominant,
    is_shannon_inequality,
    make_bag,
    modular,
    negate,
    satisfies,
    scale_expression,
    term,
    triangle_inequality,
    triangle_proof_sequence,
)
from repro.polymatroid.proof_sequence import (
    Composition,
    Decomposition,
    Monotonicity,
    Submodularity,
)
from tests.conftest import random_entropic_polymatroid


class TestExpressions:
    def test_expression_construction(self):
        expr = expression((1.0, ["X", "Y"]), (-1.0, ["X"]), (0.0, ["Y"]))
        assert expr[frozenset({"X", "Y"})] == 1.0
        assert expr[frozenset({"X"})] == -1.0
        assert frozenset({"Y"}) not in expr

    def test_conditional_expression_matches_definition(self):
        h = modular({"X": 1.0, "Y": 2.0})
        expr = conditional_expression(["Y"], ["X"])
        assert evaluate(expr, h) == pytest.approx(h.conditional(["Y"], ["X"]))

    def test_add_scale_negate(self):
        a = expression((1.0, ["X"]))
        b = expression((2.0, ["X"]), (1.0, ["Y"]))
        total = add_expressions(a, b)
        assert total[frozenset({"X"})] == 3.0
        assert negate(total)[frozenset({"X"})] == -3.0
        assert scale_expression(total, 0.5)[frozenset({"Y"})] == 0.5

    def test_empty_set_term_dropped(self):
        assert expression((5.0, None)) == {}


class TestElementalInequalities:
    def test_count_for_three_variables(self):
        # 3 monotonicity rows + C(3,2) * 2^1 = 6 submodularity rows.
        rows = elemental_inequalities("XYZ")
        assert len(rows) == 3 + 6

    @given(st.integers(min_value=0, max_value=5_000))
    def test_entropic_polymatroids_satisfy_all(self, seed):
        h = random_entropic_polymatroid(["X", "Y", "Z"], seed)
        for row in elemental_inequalities(["X", "Y", "Z"]):
            assert satisfies(h, row, tolerance=1e-7)

    def test_validity_check_accepts_submodularity(self):
        expr = expression(
            (1.0, ["X", "Y"]), (1.0, ["Y", "Z"]), (-1.0, ["Y"]), (-1.0, ["X", "Y", "Z"])
        )
        assert is_shannon_inequality("XYZ", expr)

    def test_validity_check_rejects_false_inequality(self):
        # h(X) >= h(XY) is false for polymatroids in general.
        expr = expression((1.0, ["X"]), (-1.0, ["X", "Y"]))
        assert not is_shannon_inequality("XY", expr)


class TestOmegaShannon:
    def test_omega_dominance(self):
        assert is_omega_dominant((1.0, 1.0, 0.371552), OMEGA_BEST_KNOWN)
        assert not is_omega_dominant((0.9, 1.0, 2.0), OMEGA_BEST_KNOWN)
        assert not is_omega_dominant((1.0, 1.0, -0.1), 2.0)
        assert not is_omega_dominant((1.0, 1.0, 0.0), 2.5)

    @pytest.mark.parametrize("omega", [2.0, 2.2, OMEGA_BEST_KNOWN, 2.75, 3.0])
    def test_triangle_inequality_is_valid(self, omega):
        """Inequality (13) is a genuine ω-Shannon inequality."""
        inequality = triangle_inequality(omega)
        # Definition E.3's side conditions: non-negative coefficients and an
        # ω-dominant triple per MM group.
        assert all(coeff >= 0 for coeff, _ in inequality.plain_terms)
        assert all(term.weight >= 0 for term in inequality.rhs_terms)
        for group in inequality.mm_groups:
            assert is_omega_dominant(group.dominant_triple(), omega)
        assert is_shannon_inequality(inequality.ground_set, inequality.slack_expression())
        # ‖λ‖₁ + ‖κ‖₁, the denominator of Theorem E.10's objective.
        norm = sum(coeff for coeff, _ in inequality.plain_terms) + sum(
            group.kappa for group in inequality.mm_groups
        )
        assert norm == pytest.approx(omega + 1.0)

    @pytest.mark.parametrize("omega", [2.0, OMEGA_BEST_KNOWN, 3.0])
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_triangle_inequality_on_random_polymatroids(self, omega, seed):
        h = random_entropic_polymatroid(["X", "Y", "Z"], seed)
        assert evaluate(triangle_inequality(omega).slack_expression(), h) >= -1e-7

    def test_tightness_on_triangle_witness(self):
        """The witness of Lemma C.5 makes (13) tight (both sides equal 2ω)."""
        from repro.polymatroid import triangle_witness

        omega = OMEGA_BEST_KNOWN
        inequality = triangle_inequality(omega)
        h = triangle_witness(omega)
        lhs = evaluate(inequality.lhs_expression(), h)
        rhs = evaluate(inequality.rhs_expression(), h)
        assert lhs == pytest.approx(rhs)
        assert rhs == pytest.approx(2.0 * omega)


class TestProofSequences:
    def test_term_normalization(self):
        y, x = term(["X", "Y"], ["X"])
        assert y == frozenset({"Y"}) and x == frozenset({"X"})
        with pytest.raises(ValueError):
            term([], ["X"])

    def test_make_bag_merges_coefficients(self):
        bag = make_bag([(term(["X"]), 1.0), (term(["X"]), 2.0)])
        assert bag[term(["X"])] == 3.0
        with pytest.raises(ValueError):
            make_bag({term(["X"]): -1.0})

    def test_individual_steps_are_sound(self):
        h = random_entropic_polymatroid(["X", "Y", "Z"], 3)
        x, y, z = frozenset("X"), frozenset("Y"), frozenset("Z")
        steps = [
            Decomposition(x=x, y=y),
            Composition(x=x, y=y),
            Monotonicity(x=x, y=y),
            Submodularity(y=y, x=x, z=z),
        ]
        for step in steps:
            assert step.is_sound_for(h, tolerance=1e-7)

    def test_step_application_bookkeeping(self):
        bag = make_bag({term(["X", "Y"]): 1.0})
        step = Decomposition(x=frozenset("X"), y=frozenset("Y"))
        after = step.apply(bag)
        assert after[term(["X"])] == 1.0
        assert after[term(["Y"], ["X"])] == 1.0
        with pytest.raises(ValueError):
            step.apply(after)  # the h(XY) term was consumed

    @pytest.mark.parametrize("omega", [2.0, 2.5, OMEGA_BEST_KNOWN, 3.0])
    def test_figure1_sequence_proves_inequality_13(self, omega):
        sequence, initial, target = triangle_proof_sequence(omega)
        final = sequence.apply(initial)
        for key, needed in target.items():
            assert final.get(key, 0.0) == pytest.approx(needed)
        for seed in (0, 5, 11):
            h = random_entropic_polymatroid(["X", "Y", "Z"], seed)
            assert sequence.proves(initial, target, h, tolerance=1e-7)

    def test_sequence_trace_length(self):
        sequence, initial, _ = triangle_proof_sequence(2.5)
        trace = sequence.trace(initial)
        assert len(trace) == len(sequence.steps) + 1

    def test_evaluate_bag(self):
        h = modular({"X": 1.0, "Y": 2.0})
        bag = make_bag({term(["X"]): 2.0, term(["Y"], ["X"]): 1.0})
        assert evaluate_bag(bag, h) == pytest.approx(2.0 + 2.0)
