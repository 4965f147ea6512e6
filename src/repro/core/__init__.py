"""Core: ω-query plans, the planner and the per-class algorithms."""

from .clique import (
    CliqueReport,
    clique_detect_bruteforce,
    clique_detect_mm,
    enumerate_cliques,
)
from .cycle import (
    FOUR_CYCLE_QUERY,
    FourCycleReport,
    four_cycle_adaptive,
)
from .plan import OmegaQueryPlan, PlanStep, StepMethod, all_for_loop_plan
from .planner import (
    PlannedQuery,
    PlannedStep,
    candidate_orders,
    plan_for_order,
    plan_query,
)
from .triangle import (
    TRIANGLE_QUERY,
    TriangleReport,
    triangle_figure1,
)

__all__ = [
    "CliqueReport",
    "FOUR_CYCLE_QUERY",
    "FourCycleReport",
    "OmegaQueryPlan",
    "PlanStep",
    "PlannedQuery",
    "PlannedStep",
    "StepMethod",
    "TRIANGLE_QUERY",
    "TriangleReport",
    "all_for_loop_plan",
    "candidate_orders",
    "clique_detect_bruteforce",
    "clique_detect_mm",
    "enumerate_cliques",
    "four_cycle_adaptive",
    "plan_for_order",
    "plan_query",
    "triangle_figure1",
]
