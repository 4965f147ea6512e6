"""Scenario: triangle detection in a skewed "social network" graph.

Social graphs have hubs: a few accounts with very high degree.  This is the
degree configuration where the paper's Figure-1 algorithm shines — the
heavy part is small but dense, so a Boolean matrix multiplication over the
hubs beats enumerating their neighbour pairs.

The script sweeps the input size, runs four strategies on each instance and
prints a table of running times, so the crossover behaviour is visible
directly.  The three baselines are engine calls on the same virtual
machine: the ``naive`` and ``generic_join`` strategies, and ``matrix_only``
— an explicit ω-plan eliminating ``Y`` by one un-partitioned product.

Run with::

    python examples/social_triangles.py
"""

from __future__ import annotations

import time

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


def matrix_only_plan() -> OmegaQueryPlan:
    """``MM({X}; {Z}; {Y} | ∅)`` over the whole of R and S, then X, Z by for-loops."""
    product = MMTerm(frozenset({"X"}), frozenset({"Z"}), frozenset({"Y"}), frozenset())
    return OmegaQueryPlan(
        TRIANGLE_QUERY.hypergraph(),
        (
            PlanStep(frozenset({"Y"}), StepMethod.MATRIX_MULTIPLICATION, product),
            PlanStep(frozenset({"X"}), StepMethod.FOR_LOOPS),
            PlanStep(frozenset({"Z"}), StepMethod.FOR_LOOPS),
        ),
    )


def run_once(num_edges: int, seed: int) -> dict:
    """Time each triangle strategy on one hub-skewed instance."""
    database = triangle_instance(
        num_edges=num_edges,
        domain_size=max(50, num_edges // 20),
        skew="heavy",
        plant_triangle=False,
        seed=seed,
    )
    timings = {}
    answers = {}
    baselines = {
        "naive": {"strategy": "naive"},
        "generic_join": {"strategy": "generic_join"},
        "matrix_only": {"strategy": "omega", "plan": matrix_only_plan()},
    }
    for name, arguments in baselines.items():
        # A fresh engine per strategy: no cached intermediate is shared.
        engine = QueryEngine(database, omega=OMEGA_BEST_KNOWN)
        start = time.perf_counter()
        answers[name] = engine.exists(TRIANGLE_QUERY, **arguments).answer
        timings[name] = time.perf_counter() - start

    report = triangle_figure1(database, OMEGA_BEST_KNOWN)
    answers["figure1"] = report.answer
    timings["figure1"] = report.seconds

    if len(set(answers.values())) != 1:
        raise AssertionError(f"strategies disagree: {answers}")
    timings["answer"] = answers["figure1"]
    timings["N"] = database.size
    return timings


def main() -> None:
    sizes = [500, 1_000, 2_000, 4_000, 8_000]
    strategies = ["naive", "generic_join", "matrix_only", "figure1"]
    header = f"{'N':>8s} {'answer':>7s} " + " ".join(f"{s:>14s}" for s in strategies)
    print("Triangle detection on hub-skewed graphs (times in ms)")
    print(header)
    print("-" * len(header))
    for size in sizes:
        result = run_once(size, seed=size)
        row = f"{result['N']:>8d} {str(result['answer']):>7s} "
        row += " ".join(f"{result[s] * 1e3:>14.2f}" for s in strategies)
        print(row)
    print()
    print(
        "The Figure-1 algorithm tracks the best of the combinatorial and\n"
        "matrix-multiplication strategies because it partitions the data by\n"
        "degree and uses MM only on the heavy part."
    )


if __name__ == "__main__":
    main()
