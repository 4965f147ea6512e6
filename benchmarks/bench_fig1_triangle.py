"""Figure 1: the proof-sequence-driven triangle algorithm in action.

The paper's Figure 1 turns the Shannon inequality (13) into an algorithm:
partition by degree, join the light parts, multiply the heavy parts.  The
benchmark runs that algorithm against the naive join, the worst-case
optimal join and the un-partitioned matrix multiplication on uniform and
hub-skewed instances of growing size; the timing series (the "shape" the
paper predicts: the partitioned algorithm tracks the best strategy on every
skew) is written to ``benchmarks/results/figure1_triangle.txt``.  The
three baselines are engine calls on the shared virtual machine; the
un-partitioned product is the explicit ω-plan ``MM({X}; {Z}; {Y} | ∅)``
followed by for-loops over X and Z.
"""

from __future__ import annotations

import time

import pytest

from repro.api import QueryEngine
from repro.constants import OMEGA_BEST_KNOWN
from repro.core import (
    TRIANGLE_QUERY,
    OmegaQueryPlan,
    PlanStep,
    StepMethod,
    triangle_figure1,
)
from repro.db import triangle_instance
from repro.width import MMTerm

from benchmarks._reporting import write_table

OMEGA = OMEGA_BEST_KNOWN
ROWS = []

SIZES = (1_000, 4_000)
SKEWS = ("uniform", "heavy")
MATRIX_ONLY_PLAN = OmegaQueryPlan(
    TRIANGLE_QUERY.hypergraph(),
    (
        PlanStep(
            frozenset({"Y"}),
            StepMethod.MATRIX_MULTIPLICATION,
            MMTerm(frozenset({"X"}), frozenset({"Z"}), frozenset({"Y"}), frozenset()),
        ),
        PlanStep(frozenset({"X"}), StepMethod.FOR_LOOPS),
        PlanStep(frozenset({"Z"}), StepMethod.FOR_LOOPS),
    ),
)


def _exists(database, strategy, plan=None) -> bool:
    """One ask on a fresh engine, so no cached intermediate is shared."""
    engine = QueryEngine(database, omega=OMEGA)
    return engine.exists(TRIANGLE_QUERY, strategy, plan=plan).answer


STRATEGIES = {
    "naive": lambda db: _exists(db, "naive"),
    "generic_join": lambda db: _exists(db, "generic_join"),
    "matrix_only": lambda db: _exists(db, "omega", MATRIX_ONLY_PLAN),
    "figure1": lambda db: triangle_figure1(db, OMEGA).answer,
}


def _instance(num_edges: int, skew: str):
    return triangle_instance(
        num_edges=num_edges,
        domain_size=max(50, num_edges // 20),
        skew=skew,
        plant_triangle=False,
        seed=num_edges,
    )


@pytest.mark.parametrize("num_edges", SIZES)
@pytest.mark.parametrize("skew", SKEWS)
@pytest.mark.parametrize("strategy", sorted(STRATEGIES), ids=sorted(STRATEGIES))
def test_figure1_strategies(benchmark, num_edges, skew, strategy):
    database = _instance(num_edges, skew)
    expected = _exists(database, "naive")
    # Timed here too, so the table also fills under --benchmark-disable.
    start = time.perf_counter()
    answer = benchmark.pedantic(
        lambda: STRATEGIES[strategy](database), rounds=1, iterations=1
    )
    seconds = time.perf_counter() - start
    assert answer == expected
    ROWS.append((skew, num_edges, strategy, seconds))
    write_table(
        "figure1_triangle",
        ("skew", "N", "strategy", "seconds"),
        sorted(ROWS),
    )


def test_figure1_report_details():
    """The heavy part of a skewed instance really goes through the MM path."""
    database = _instance(4_000, "heavy")
    report = triangle_figure1(database, OMEGA)
    assert report.threshold > 1
    rows, inner, cols = report.heavy_matrix_shape
    if report.answer and report.found_in == "heavy":
        assert rows > 0 and cols > 0
