"""Ablation: the heavy/light threshold Δ of the Figure-1 triangle algorithm.

The analysis picks ``Δ = N^{(ω-1)/(ω+1)}`` to balance the light-join cost
``N·Δ`` against the heavy-MM cost ``(N/Δ)^ω``.  The ablation sweeps Δ across
two orders of magnitude around the analytical choice on a skewed instance;
correctness is invariant and the timing curve shows the balance point.
Results land in ``benchmarks/results/ablation_threshold.txt``.
"""

from __future__ import annotations

import time

import pytest

from repro.api import QueryEngine
from repro.constants import OMEGA_BEST_KNOWN
from repro.core import TRIANGLE_QUERY, triangle_figure1
from repro.db import triangle_instance
from repro.matmul import triangle_threshold

from benchmarks._reporting import write_table

OMEGA = OMEGA_BEST_KNOWN
ROWS = []

NUM_EDGES = 3_000
DATABASE = triangle_instance(
    NUM_EDGES, domain_size=150, skew="heavy", plant_triangle=False, seed=99
)
EXPECTED = QueryEngine(DATABASE).exists(TRIANGLE_QUERY, "naive").answer
ANALYTICAL = triangle_threshold(NUM_EDGES, OMEGA)
FACTORS = (0.1, 0.3, 1.0, 3.0, 10.0)


@pytest.mark.parametrize("factor", FACTORS)
def test_threshold_sweep(benchmark, factor):
    threshold = max(1, int(ANALYTICAL * factor))
    # Timed here too, so the table also fills under --benchmark-disable.
    start = time.perf_counter()
    report = benchmark.pedantic(
        lambda: triangle_figure1(DATABASE, OMEGA, threshold=threshold),
        rounds=1,
        iterations=1,
    )
    seconds = time.perf_counter() - start
    assert report.answer == EXPECTED
    ROWS.append((factor, threshold, ANALYTICAL, seconds))
    write_table(
        "ablation_threshold",
        ("factor", "threshold Δ", "analytical Δ", "seconds"),
        sorted(ROWS),
    )
