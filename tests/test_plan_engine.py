"""Tests for ω-query plans, their execution, the planner and the engine."""

from __future__ import annotations

import pytest

from repro.api import QueryEngine, UnknownStrategyError
from repro.constants import OMEGA_BEST_KNOWN
from repro.core import (
    OmegaQueryPlan,
    PlanStep,
    StepMethod,
    all_for_loop_plan,
    candidate_orders,
    plan_for_order,
    plan_query,
)
from repro.db import (
    Database,
    Relation,
    four_cycle_instance,
    parse_query,
    random_database,
    triangle_instance,
)
from repro.exec.ir import GroupedMatMul, Join, Scan
from repro.hypergraph import triangle
from repro.width import enumerate_mm_terms

OMEGA = OMEGA_BEST_KNOWN
TRIANGLE = parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z)")
FOUR_CYCLE = parse_query("Q() :- R(X, Y), S(Y, Z), T(Z, W), U(W, X)")


def run_plan(query, db, plan):
    """Execute an explicit ω-query plan: the engine's ``exists`` with ``plan=``."""
    return QueryEngine(db, omega=OMEGA).exists(
        query, "omega", plan=plan
    )


def mm_step(hypergraph, block) -> PlanStep:
    term = enumerate_mm_terms(hypergraph, block)[0]
    return PlanStep(
        block=frozenset(block) if not isinstance(block, str) else frozenset([block]),
        method=StepMethod.MATRIX_MULTIPLICATION,
        mm_term=term,
    )


class TestPlanConstruction:
    def test_all_for_loop_plan(self):
        plan = all_for_loop_plan(triangle(), ["X", "Y", "Z"])
        assert not plan.uses_matrix_multiplication()
        assert len(plan.steps) == 3
        plan.validate()

    def test_plan_must_cover_all_variables(self):
        with pytest.raises(ValueError):
            all_for_loop_plan(triangle(), ["X", "Y"])

    def test_mm_step_validation(self):
        with pytest.raises(ValueError):
            PlanStep(block=frozenset("X"), method=StepMethod.MATRIX_MULTIPLICATION)
        term = enumerate_mm_terms(triangle(), "Y")[0]
        with pytest.raises(ValueError):
            PlanStep(block=frozenset("X"), method=StepMethod.MATRIX_MULTIPLICATION, mm_term=term)
        with pytest.raises(ValueError):
            PlanStep(block=frozenset("Y"), method=StepMethod.FOR_LOOPS, mm_term=term)

    def test_plan_validate_rejects_unrealizable_term(self):
        # Use the triangle's MM term for Y, but order Y last: after
        # eliminating X and Z the hypergraph no longer offers that term.
        term = enumerate_mm_terms(triangle(), "Y")[0]
        steps = (
            PlanStep(block=frozenset("X"), method=StepMethod.FOR_LOOPS),
            PlanStep(block=frozenset("Z"), method=StepMethod.FOR_LOOPS),
            PlanStep(
                block=frozenset("Y"),
                method=StepMethod.MATRIX_MULTIPLICATION,
                mm_term=term,
            ),
        )
        plan = OmegaQueryPlan(hypergraph=triangle(), steps=steps)
        with pytest.raises(ValueError):
            plan.validate()

    def test_describe(self):
        plan = all_for_loop_plan(triangle(), ["X", "Y", "Z"])
        text = plan.describe()
        assert "for-loops" in text and "1." in text


class TestExecutor:
    @pytest.mark.parametrize("seed", range(6))
    def test_for_loop_plan_matches_naive(self, seed, oracle):
        db = triangle_instance(70, domain_size=16, seed=seed, plant_triangle=(seed % 2 == 0))
        plan = all_for_loop_plan(triangle(), ["Y", "X", "Z"])
        result = run_plan(TRIANGLE, db, plan)
        assert result.answer == bool(oracle(TRIANGLE, db))
        assert result.execution.operators  # a trace was recorded

    @pytest.mark.parametrize("seed", range(6))
    def test_mm_plan_matches_naive(self, seed, oracle):
        db = triangle_instance(70, domain_size=16, seed=seed, plant_triangle=(seed % 3 == 0))
        steps = (
            mm_step(triangle(), "Y"),
            PlanStep(block=frozenset("X"), method=StepMethod.FOR_LOOPS),
            PlanStep(block=frozenset("Z"), method=StepMethod.FOR_LOOPS),
        )
        plan = OmegaQueryPlan(hypergraph=triangle(), steps=steps)
        plan.validate()
        result = run_plan(TRIANGLE, db, plan)
        assert result.answer == bool(oracle(TRIANGLE, db))
        mm_traces = [t for t in result.execution.operators if t.kind == "groupedmatmul"]
        assert mm_traces and mm_traces[0].matrix_shape is not None
        assert mm_traces[0].group_count >= 0

    def test_triangle_product_is_masked_by_the_closing_scan(self):
        """Figure 1's last step: T's pairs are looked up in R·S, not joined with it."""
        db = triangle_instance(70, domain_size=16, seed=1)
        steps = (
            mm_step(triangle(), "Y"),
            PlanStep(block=frozenset("X"), method=StepMethod.FOR_LOOPS),
            PlanStep(block=frozenset("Z"), method=StepMethod.FOR_LOOPS),
        )
        result = run_plan(TRIANGLE, db, OmegaQueryPlan(hypergraph=triangle(), steps=steps))
        nodes = result.program.nodes()
        assert not any(isinstance(node, Join) for node in nodes)
        (product,) = [node for node in nodes if isinstance(node, GroupedMatMul)]
        assert product.mask == Scan("T", ("X", "Z"))
        assert {product.left.relation, product.right.relation} == {"R", "S"}

    @pytest.mark.parametrize("seed", range(4))
    def test_block_elimination_with_group_by(self, seed, oracle):
        """Eliminate the middle of the 4-cycle by MM with a group-by variable."""
        db = four_cycle_instance(60, domain_size=14, seed=seed, plant_cycle=(seed == 0))
        hypergraph = FOUR_CYCLE.hypergraph()
        terms = enumerate_mm_terms(hypergraph, "Y")
        assert terms
        steps = (
            PlanStep(
                block=frozenset(["Y"]),
                method=StepMethod.MATRIX_MULTIPLICATION,
                mm_term=terms[0],
            ),
            PlanStep(block=frozenset(["W"]), method=StepMethod.FOR_LOOPS),
            PlanStep(block=frozenset(["X"]), method=StepMethod.FOR_LOOPS),
            PlanStep(block=frozenset(["Z"]), method=StepMethod.FOR_LOOPS),
        )
        plan = OmegaQueryPlan(hypergraph=hypergraph, steps=steps)
        result = run_plan(FOUR_CYCLE, db, plan)
        assert result.answer == bool(oracle(FOUR_CYCLE, db))

    def test_empty_relation_gives_false(self):
        db = Database(
            {
                "R": Relation(("X", "Y"), []),
                "S": Relation(("Y", "Z"), [(1, 2)]),
                "T": Relation(("X", "Z"), [(1, 2)]),
            }
        )
        plan = all_for_loop_plan(triangle(), ["X", "Y", "Z"])
        assert not run_plan(TRIANGLE, db, plan).answer


class TestPlannerAndEngine:
    def test_planner_produces_valid_plan(self):
        db = triangle_instance(100, domain_size=20, skew="heavy", seed=2)
        planned = plan_query(TRIANGLE, db, OMEGA)
        planned.plan.validate()
        assert planned.estimated_cost > 0
        assert "eliminate" in planned.describe()

    def test_plan_for_specific_order(self):
        db = triangle_instance(60, domain_size=14, seed=1)
        planned = plan_for_order(TRIANGLE, db, ["X", "Y", "Z"], OMEGA)
        assert [sorted(s.block) for s in planned.plan.steps] == [["X"], ["Y"], ["Z"]]

    def test_candidate_orders_exhaustive_and_greedy(self):
        db = triangle_instance(20, seed=0)
        assert len(candidate_orders(TRIANGLE, db)) == 6
        query6 = parse_query(
            "Q() :- A(X1, X2), B(X2, X3), C(X3, X4), D(X4, X5), E(X5, X6), F(X6, X1)"
        )
        db6 = random_database(query6, 15, seed=0)
        assert len(candidate_orders(query6, db6, limit=4)) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_engine_strategies_agree_on_triangle(self, seed):
        db = triangle_instance(
            80, domain_size=18, seed=seed, plant_triangle=(seed % 2 == 0),
            skew="heavy" if seed % 2 else "uniform",
        )
        reports = QueryEngine(db, omega=OMEGA).compare(TRIANGLE)
        assert len({r.answer for r in reports.values()}) == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_engine_strategies_agree_on_four_cycle(self, seed):
        db = four_cycle_instance(60, domain_size=14, seed=seed, plant_cycle=(seed == 1))
        reports = QueryEngine(db, omega=OMEGA).compare(FOUR_CYCLE)
        assert len({r.answer for r in reports.values()}) == 1

    def test_engine_auto_uses_yannakakis_for_acyclic(self):
        q = parse_query("Q() :- R(X, Y), S(Y, Z)")
        db = random_database(q, 30, seed=3, plant_witness=True)
        report = QueryEngine(db).exists(q, "auto")
        assert report.strategy == "yannakakis"
        assert report.answer

    def test_engine_explicit_plan(self):
        db = triangle_instance(50, seed=4, plant_triangle=True)
        plan = all_for_loop_plan(triangle(), ["Z", "Y", "X"])
        report = run_plan(TRIANGLE, db, plan)
        assert report.strategy == "omega"
        assert report.answer
        assert report.execution is not None

    def test_engine_rejects_unknown_strategy(self):
        db = triangle_instance(10, seed=0)
        with pytest.raises(UnknownStrategyError):
            QueryEngine(db).exists(TRIANGLE, "magic")

    def test_engine_report_describe(self):
        db = triangle_instance(40, seed=6, plant_triangle=True)
        report = QueryEngine(db, omega=OMEGA).exists(TRIANGLE, "omega")
        text = report.describe()
        assert "strategy" in text and "answer" in text
