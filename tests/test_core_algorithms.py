"""Tests for the per-query-class algorithms (triangle, clique, 4-cycle).

The baselines they are checked against are engine calls: the ``naive`` and
``generic_join`` strategies, and explicit ω-plans — one un-partitioned MM
step per eliminated middle variable (``matrix_only``), or for-loops only
(the 4-cycle's combinatorial two-bag plan).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.analysis.verify import verify_program
from repro.api import QueryEngine
from repro.constants import OMEGA_BEST_KNOWN
from repro.core import (
    FOUR_CYCLE_QUERY,
    TRIANGLE_QUERY,
    OmegaQueryPlan,
    PlanStep,
    StepMethod,
    all_for_loop_plan,
    clique_detect_bruteforce,
    clique_detect_mm,
    enumerate_cliques,
    four_cycle_adaptive,
    triangle_figure1,
)
from repro.db import Database, Relation, clique_instance, four_cycle_instance, triangle_instance
from repro.exec.lower import lower_clique, lower_four_cycle, lower_triangle
from repro.matmul import triangle_threshold
from repro.width import MMTerm

OMEGA = OMEGA_BEST_KNOWN


def _product(first: str, second: str, middle: str) -> PlanStep:
    """Eliminate ``middle`` by one un-partitioned product ``MM({first}; {second}; {middle} | ∅)``."""
    term = MMTerm(frozenset({first}), frozenset({second}), frozenset({middle}), frozenset())
    return PlanStep(frozenset({middle}), StepMethod.MATRIX_MULTIPLICATION, term)


def _loops(variable: str) -> PlanStep:
    return PlanStep(frozenset({variable}), StepMethod.FOR_LOOPS)


TRIANGLE_MATRIX_ONLY = OmegaQueryPlan(
    TRIANGLE_QUERY.hypergraph(), (_product("X", "Z", "Y"), _loops("X"), _loops("Z"))
)
FOUR_CYCLE_MATRIX_ONLY = OmegaQueryPlan(
    FOUR_CYCLE_QUERY.hypergraph(),
    (_product("X", "Z", "Y"), _product("X", "Z", "W"), _loops("X"), _loops("Z")),
)
FOUR_CYCLE_COMBINATORIAL = all_for_loop_plan(
    FOUR_CYCLE_QUERY.hypergraph(), ["Y", "W", "X", "Z"]
)


#: Δ = 0 makes every middle value heavy, ∞ every one light; 1 and the
#: default N^((ω-1)/(ω+1)) mix the two.
THRESHOLDS = [0, 1, None, 10**9]
THRESHOLD_IDS = ["0", "1", "default", "inf"]


def _exists(db, query, strategy, plan=None) -> bool:
    return QueryEngine(db, omega=OMEGA).exists(query, strategy, plan=plan).answer


def triangle_naive(db) -> bool:
    return _exists(db, TRIANGLE_QUERY, "naive")


def triangle_matrix_only(db) -> bool:
    return _exists(db, TRIANGLE_QUERY, "omega", TRIANGLE_MATRIX_ONLY)


class TestTriangleFigure1:
    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_naive(self, seed):
        db = triangle_instance(
            120,
            domain_size=24,
            skew="heavy" if seed % 2 else "uniform",
            plant_triangle=(seed % 3 == 0),
            seed=seed,
        )
        expected = triangle_naive(db)
        report = triangle_figure1(db, OMEGA)
        assert report.answer == expected
        assert report.threshold == triangle_threshold(
            max(len(db["R"]), len(db["S"]), len(db["T"])), OMEGA
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_matrix_only_agrees(self, seed):
        db = triangle_instance(80, domain_size=20, seed=seed, plant_triangle=(seed == 2))
        assert triangle_matrix_only(db) == triangle_naive(db)

    @pytest.mark.parametrize("threshold", [0, 1, 3, 10, 10_000])
    def test_answer_invariant_under_threshold(self, threshold):
        """The heavy/light split only affects cost, never correctness."""
        db = triangle_instance(100, domain_size=20, skew="heavy", seed=7, plant_triangle=True)
        assert triangle_figure1(db, OMEGA, threshold=threshold).answer

    def test_empty_instance(self):
        db = Database(
            {
                "R": Relation(("X", "Y"), []),
                "S": Relation(("Y", "Z"), []),
                "T": Relation(("X", "Z"), []),
            }
        )
        assert not triangle_figure1(db, OMEGA).answer
        assert not triangle_matrix_only(db)

    def test_strategy_dispatch(self):
        db = triangle_instance(50, seed=1, plant_triangle=True)
        assert triangle_figure1(db, OMEGA).answer
        for strategy in ("naive", "generic_join"):
            assert _exists(db, TRIANGLE_QUERY, strategy)
        assert triangle_matrix_only(db)
        with pytest.raises(ValueError):
            _exists(db, TRIANGLE_QUERY, "quantum")

    def test_heavy_instance_exercises_mm_path(self):
        """On a hub-skewed instance the heavy matrix is non-trivial."""
        db = triangle_instance(400, domain_size=40, skew="heavy", seed=3)
        report = triangle_figure1(db, OMEGA)
        expected = triangle_naive(db)
        assert report.answer == expected


class TestFourCycle:
    @pytest.mark.parametrize("seed", range(8))
    def test_all_strategies_agree(self, seed):
        db = four_cycle_instance(
            90,
            domain_size=20,
            plant_cycle=(seed % 3 == 0),
            skew="heavy" if seed % 2 else "uniform",
            seed=seed,
        )
        expected = _exists(db, FOUR_CYCLE_QUERY, "omega", FOUR_CYCLE_COMBINATORIAL)
        assert _exists(db, FOUR_CYCLE_QUERY, "omega", FOUR_CYCLE_MATRIX_ONLY) == expected
        assert four_cycle_adaptive(db, OMEGA).answer == expected
        assert _exists(db, FOUR_CYCLE_QUERY, "generic_join") == expected

    def test_adaptive_reports_threshold(self):
        db = four_cycle_instance(100, seed=0, plant_cycle=True)
        report = four_cycle_adaptive(db, OMEGA)
        assert report.answer
        assert report.threshold >= 1

    def test_strategy_dispatch_error(self):
        db = four_cycle_instance(20, seed=0)
        with pytest.raises(ValueError):
            _exists(db, FOUR_CYCLE_QUERY, "unknown")

    @pytest.mark.parametrize("threshold", THRESHOLDS, ids=THRESHOLD_IDS)
    @pytest.mark.parametrize("skew", ["uniform", "heavy"])
    @pytest.mark.parametrize("seed", range(4))
    def test_threshold_sweep_matches_oracle(self, oracle, seed, skew, threshold):
        """The split decides only which of the four checks finds a cycle."""
        db = four_cycle_instance(
            90, domain_size=20, plant_cycle=(seed % 2 == 0), skew=skew, seed=seed
        )
        expected = bool(oracle(FOUR_CYCLE_QUERY, db))
        assert four_cycle_adaptive(db, OMEGA, threshold=threshold).answer == expected

    @pytest.mark.parametrize("heavy_w", [False, True], ids=["light_w", "heavy_w"])
    @pytest.mark.parametrize("heavy_y", [False, True], ids=["light_y", "heavy_y"])
    def test_each_part_pair_finds_its_cycle(self, oracle, heavy_y, heavy_w):
        """One cycle 0-1-2-3 whose middles Y = 1 and W = 3 are light or heavy at Δ = 1.

        Only the (Y-part, W-part) check of that pair holds the cycle, so
        each of the four branches must be evaluated to find it.  Two extra
        R rows (or U rows) over fresh X values give the middle degree 3
        without closing a second cycle.
        """
        rows = {"R": {(0, 1)}, "S": {(1, 2)}, "T": {(2, 3)}, "U": {(3, 0)}}
        if heavy_y:
            rows["R"] |= {(10, 1), (11, 1)}
        if heavy_w:
            rows["U"] |= {(3, 20), (3, 21)}
        schemas = {"R": ("X", "Y"), "S": ("Y", "Z"), "T": ("Z", "W"), "U": ("W", "X")}
        db = Database({name: Relation(schemas[name], rows[name]) for name in rows})
        assert oracle(FOUR_CYCLE_QUERY, db) == {()}
        report = four_cycle_adaptive(db, OMEGA, threshold=1)
        assert report.answer
        assert (report.heavy_matrix_shape != (0, 0, 0)) == (heavy_y or heavy_w)
        without_t = Database({**{n: db[n] for n in "RSU"}, "T": Relation(("Z", "W"), [])})
        assert not four_cycle_adaptive(without_t, OMEGA, threshold=1).answer


class TestCliqueDetection:
    def test_enumerate_cliques_counts(self):
        edges = [(0, 1), (0, 2), (1, 2), (2, 3)]
        assert len(enumerate_cliques(edges, 3)) == 1
        assert enumerate_cliques(edges, 3) == [(0, 1, 2)]
        assert len(enumerate_cliques(edges, 2)) == 4

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mm_detection_matches_bruteforce(self, k, seed):
        _, db = clique_instance(k, 60, domain_size=16, plant_clique=(seed == 1), seed=seed)
        edges = list(db["E0"].rows)
        expected = clique_detect_bruteforce(edges, k)
        report = clique_detect_mm(edges, k, OMEGA)
        assert report.answer == expected
        assert report.group_sizes[0] >= report.group_sizes[1] >= report.group_sizes[2]

    def test_planted_clique_is_found(self):
        _, db = clique_instance(5, 80, domain_size=20, plant_clique=True, seed=4)
        edges = list(db["E0"].rows)
        assert clique_detect_mm(edges, 5, OMEGA).answer

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            clique_detect_mm([(0, 1)], 2, OMEGA)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_compatibility_relations_match_the_pairwise_predicate(self, k, seed):
        rng = random.Random(seed)
        n = 14
        edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(55)}
        adjacency = np.zeros((n, n), dtype=bool)
        for a, b in edges:
            adjacency[a, b] = adjacency[b, a] = True
        sizes = ((k + 2) // 3, (k + 1) // 3, k // 3)
        groups = [enumerate_cliques(edges, size) for size in sizes]

        def compatible(left, right):  # disjoint, and every cross pair an edge
            return not set(left) & set(right) and all(
                (min(a, b), max(a, b)) in edges for a in left for b in right
            )

        _, compat_db = lower_clique(*groups, adjacency)
        for name, (x, y) in {"AB": (0, 1), "BC": (1, 2), "AC": (0, 2)}.items():
            expected = {
                (i, j)
                for i, left in enumerate(groups[x])
                for j, right in enumerate(groups[y])
                if compatible(left, right)
            }
            assert compat_db[name].rows == expected

    def test_a_zero_width_group_is_compatible_with_everything(self):
        adjacency = ~np.eye(3, dtype=bool)
        _, compat_db = lower_clique([(0,), (1,)], [(1, 2)], [()], adjacency)
        assert compat_db["AB"].rows == {(0, 0)}
        assert compat_db["BC"].rows == {(0, 0)}
        assert compat_db["AC"].rows == {(0, 0), (1, 0)}


class TestHandWrittenLoweringsVerify:
    """The three lowerings run outside the engine, so its plan checks never see them."""

    @pytest.mark.parametrize("threshold", THRESHOLDS, ids=THRESHOLD_IDS)
    def test_triangle_and_four_cycle_programs_verify(self, threshold):
        triangle_db = triangle_instance(120, domain_size=24, skew="heavy", seed=1)
        program, _ = lower_triangle(triangle_db, OMEGA, threshold)
        assert verify_program(program, verb="exists", database=triangle_db) == []
        cycle_db = four_cycle_instance(90, domain_size=20, skew="heavy", seed=1)
        program, _ = lower_four_cycle(cycle_db, OMEGA, threshold)
        assert verify_program(program, verb="exists", database=cycle_db) == []

    def test_clique_program_verifies(self):
        groups = [(0,), (1,), (2,)]
        # K3 as a dense adjacency matrix: each vertex is its own group.
        program, compat_db = lower_clique(groups, groups, groups, ~np.eye(3, dtype=bool))
        assert verify_program(program, verb="exists", database=compat_db) == []
