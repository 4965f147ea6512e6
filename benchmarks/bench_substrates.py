"""Substrate micro-benchmarks: the building blocks behind every experiment.

Not tied to a specific table, these benchmarks document the raw performance
of the substrates the paper's algorithms are assembled from: square matrix
multiplication (BLAS), the Boolean product, and the join strategies (hash
join vs. worst-case optimal join), run as engine calls.
"""

from __future__ import annotations

import numpy as np

from repro.api import QueryEngine
from repro.db import parse_query, triangle_instance
from repro.matmul import boolean_multiply

TRIANGLE = parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z)")


def _exists(database, strategy: str) -> bool:
    """One ask on a fresh engine, so no cached intermediate is shared."""
    return QueryEngine(database).exists(TRIANGLE, strategy).answer


def _square_matrices(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


class TestMatrixKernels:
    def test_blas_multiply(self, benchmark):
        a, b = _square_matrices(128)
        result = benchmark.pedantic(lambda: a @ b, rounds=3, iterations=1)
        assert result.shape == (128, 128)

    def test_boolean_product(self, benchmark):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 2, size=(256, 256))
        b = rng.integers(0, 2, size=(256, 256))
        result = benchmark.pedantic(lambda: boolean_multiply(a, b), rounds=3, iterations=1)
        assert result.dtype == bool


class TestJoinKernels:
    def test_hash_join_chain(self, benchmark):
        database = triangle_instance(2_000, domain_size=120, seed=11)
        answer = benchmark.pedantic(
            lambda: _exists(database, "naive"), rounds=3, iterations=1
        )
        assert isinstance(answer, bool)

    def test_generic_join(self, benchmark):
        database = triangle_instance(2_000, domain_size=120, seed=11)
        expected = _exists(database, "naive")
        answer = benchmark.pedantic(
            lambda: _exists(database, "generic_join"), rounds=3, iterations=1
        )
        assert answer == expected
