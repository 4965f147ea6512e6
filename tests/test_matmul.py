"""Tests for the matrix multiplication substrate: products and cost model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.constants import OMEGA_BEST_KNOWN, OMEGA_STRASSEN
from repro.matmul import (
    boolean_multiply,
    counting_multiply,
    mm_exponent,
    omega_rectangular,
    predicted_triangle_exponent,
    rectangular_cost,
    triangle_threshold,
)


class TestRectangular:
    def test_omega_rectangular_square(self):
        assert omega_rectangular(1, 1, 1, OMEGA_BEST_KNOWN) == pytest.approx(
            OMEGA_BEST_KNOWN
        )
        assert mm_exponent(1, 1, 1, 3.0) == pytest.approx(3.0)

    def test_omega_rectangular_is_linear_at_two(self):
        # At ω = 2 the cost is a+b+c - min(a,b,c): linear in the two larger
        # dimensions (the sizes of the inputs and the output).
        assert omega_rectangular(0.2, 0.9, 0.5, 2.0) == pytest.approx(1.4)

    def test_rectangular_cost_matches_blocking(self):
        # 100 x 10 times 10 x 100: blocks of side 10, 10*1*10 = 100 products.
        cost = rectangular_cost(100, 10, 100, 3.0)
        assert cost == pytest.approx(100 * 10 ** 3)
        # Ragged edges round the block count up: 40 x 12 times 12 x 28.
        blocks = math.ceil(40 / 12) * 1 * math.ceil(28 / 12)
        assert rectangular_cost(40, 12, 28, OMEGA_BEST_KNOWN) == pytest.approx(
            blocks * 12 ** OMEGA_BEST_KNOWN
        )
        assert rectangular_cost(0, 3, 2, 2.5) == 0.0

    def test_matrix_shape_costs(self):
        side = 64
        fast, cubic = (rectangular_cost(side, side, side, omega) for omega in (2.0, 3.0))
        assert fast < cubic <= side**3 + 1e-9


class TestBooleanMM:
    def test_boolean_product(self):
        a = np.array([[1, 0], [0, 1]])
        b = np.array([[0, 1], [1, 0]])
        assert np.array_equal(boolean_multiply(a, b), b.astype(bool))

    def test_counting_product(self):
        a = np.ones((3, 4), dtype=int)
        b = np.ones((4, 2), dtype=int)
        assert np.array_equal(counting_multiply(a, b), 4 * np.ones((3, 2)))

    def test_shape_validation(self):
        for multiply in (boolean_multiply, counting_multiply):
            with pytest.raises(ValueError):
                multiply(np.ones((2, 3)), np.ones((2, 3)))
            with pytest.raises(ValueError):
                multiply(np.ones(3), np.ones((3, 1)))


class TestCostModel:
    def test_triangle_threshold_formula(self):
        n = 10_000
        omega = OMEGA_BEST_KNOWN
        expected = round(n ** ((omega - 1) / (omega + 1)))
        assert triangle_threshold(n, omega) == expected
        assert triangle_threshold(0, omega) == 1

    def test_predicted_triangle_exponent(self):
        assert predicted_triangle_exponent(3.0) == pytest.approx(1.5)
        assert predicted_triangle_exponent(2.0) == pytest.approx(4.0 / 3.0)
        assert predicted_triangle_exponent(OMEGA_STRASSEN) < 1.5
