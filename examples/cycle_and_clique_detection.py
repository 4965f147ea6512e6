"""Scenario: pattern detection — 4-cycles and k-cliques in one graph.

Fraud-detection and recommender pipelines routinely look for small dense
patterns (reciprocal 4-cycles, tightly-knit cliques).  This example runs
the library's adaptive 4-cycle detector and the MM-based k-clique detector
on synthetic graphs and compares them against their combinatorial
baselines.

Run with::

    python examples/cycle_and_clique_detection.py
"""

from __future__ import annotations

import time

from repro.api import QueryEngine
from repro.constants import OMEGA_BEST_KNOWN
from repro.core import (
    FOUR_CYCLE_QUERY,
    clique_detect_bruteforce,
    clique_detect_mm,
    four_cycle_adaptive,
)
from repro.db import clique_instance, four_cycle_instance


def four_cycle_section() -> None:
    """Engine strategies vs the adaptive detector on skewed 4-cycle data.

    The general-purpose strategies go through :class:`repro.api.QueryEngine`
    (one engine per instance: plans are cached, every ask runs on the
    unified operator VM); the adaptive degree-split detector is the
    specialized lowering of the same execution layer.
    """
    print("=== 4-cycle detection (heavily skewed bipartite-ish data) ===")
    print(f"{'N':>8s} {'answer':>7s} {'generic_join':>13s} {'omega':>10s} {'adaptive':>10s}")
    for num_edges in (500, 1_000, 2_000, 4_000):
        database = four_cycle_instance(
            num_edges, domain_size=max(40, num_edges // 25), skew="heavy", seed=num_edges
        )
        engine = QueryEngine(database, omega=OMEGA_BEST_KNOWN)
        generic = engine.exists(FOUR_CYCLE_QUERY, strategy="generic_join")
        omega_result = engine.exists(FOUR_CYCLE_QUERY, strategy="omega")
        report = four_cycle_adaptive(database, OMEGA_BEST_KNOWN)
        if len({generic.answer, omega_result.answer, report.answer}) != 1:
            raise AssertionError("4-cycle strategies disagree")
        print(
            f"{database.size:>8d} {str(report.answer):>7s} "
            f"{generic.seconds * 1e3:>13.2f} {omega_result.execute_seconds * 1e3:>10.2f} "
            f"{report.seconds * 1e3:>10.2f}"
        )
    print()


def clique_section() -> None:
    print("=== k-clique detection (random graph with a planted clique) ===")
    print(f"{'k':>3s} {'edges':>7s} {'answer':>7s} {'bruteforce':>12s} {'mm-based':>10s}")
    for k in (4, 5, 6):
        _, database = clique_instance(
            k, num_edges=600, domain_size=60, plant_clique=True, seed=k
        )
        edges = list(database["E0"].rows)

        start = time.perf_counter()
        expected = clique_detect_bruteforce(edges, k)
        brute_time = time.perf_counter() - start

        report = clique_detect_mm(edges, k, OMEGA_BEST_KNOWN)
        if report.answer != expected:
            raise AssertionError("clique strategies disagree")
        print(
            f"{k:>3d} {len(edges):>7d} {str(report.answer):>7s} "
            f"{brute_time * 1e3:>12.2f} {report.seconds * 1e3:>10.2f}"
        )
    print()
    print(
        "The MM-based detector follows the three-way split of Lemma C.8: the\n"
        "pattern vertices are divided into groups of sizes ⌈k/3⌉, ⌈(k-1)/3⌉,\n"
        "⌊k/3⌋ and the middle group is eliminated by one Boolean product."
    )


def main() -> None:
    four_cycle_section()
    clique_section()


if __name__ == "__main__":
    main()
