"""The unified physical execution layer: IR → optimize → VM.

Every strategy — naive, GenericJoin, Yannakakis, ω-query plans, and the
triangle/4-cycle/clique specializations — lowers to one physical-operator
DAG (:mod:`repro.exec.ir`), is rewritten by the optimizer
(:mod:`repro.exec.optimize`: dead-operator pruning) and executes on one
instrumented virtual machine (:mod:`repro.exec.vm`) with per-operator
traces and a bounded intermediate-result cache shared across queries
(:mod:`repro.exec.cache`).
"""

from .ir import (
    All_,
    Antijoin,
    Any_,
    Count,
    Distinct,
    Enumerate,
    GroupedMatMul,
    HeavyPart,
    Join,
    NonEmpty,
    Operator,
    Program,
    Project,
    Scan,
    Semijoin,
    Wcoj,
)
from .cache import CacheStats, ResultCache
from .dispatch import DEFAULT_MORSEL_SIZE, KernelDispatcher
from .vm import (
    CancellationToken,
    ExecutionResult,
    OpTrace,
    QueryCancelled,
    VirtualMachine,
)
from .optimize import (
    OptimizeStats,
    optimize_program,
    prune_operators,
)
from .lower import (
    lower_clique,
    lower_four_cycle,
    lower_generic_join,
    lower_naive,
    lower_plan,
    lower_triangle,
    lower_yannakakis,
)

__all__ = [
    "All_",
    "Antijoin",
    "Any_",
    "CacheStats",
    "CancellationToken",
    "Count",
    "DEFAULT_MORSEL_SIZE",
    "Distinct",
    "Enumerate",
    "ExecutionResult",
    "GroupedMatMul",
    "HeavyPart",
    "Join",
    "KernelDispatcher",
    "NonEmpty",
    "OpTrace",
    "Operator",
    "OptimizeStats",
    "Program",
    "Project",
    "QueryCancelled",
    "ResultCache",
    "Scan",
    "Semijoin",
    "VirtualMachine",
    "Wcoj",
    "lower_clique",
    "lower_four_cycle",
    "lower_generic_join",
    "lower_naive",
    "lower_plan",
    "lower_triangle",
    "lower_yannakakis",
    "optimize_program",
    "prune_operators",
]
