"""The Figure-1 triangle algorithm: degree partitioning + matrix multiplication.

Section 2.5 derives, from the Shannon inequality (13), an algorithm for the
Boolean triangle query ``Q△() :- R(X,Y), S(Y,Z), T(X,Z)`` running in time
``O(N^{2ω/(ω+1)})``:

1. partition each relation by the degree of its first variable with
   threshold ``Δ = N^{(ω-1)/(ω+1)}`` (decomposition steps);
2. find triangles with at least one *light* vertex by joining the light
   part with the opposite relation (submodularity steps, cost ``N·Δ``);
3. find all-heavy triangles by a single Boolean matrix multiplication over
   the (at most ``N/Δ``) heavy values on each side.

This module implements that algorithm literally.  The baselines the
benchmarks compare it against are engine calls on the same VM:
``QueryEngine(db).exists(TRIANGLE_QUERY, "naive" | "generic_join")``, and
the un-partitioned product is the explicit ω-plan that eliminates ``Y`` by
one MM step (``MMTerm({X}, {Z}, {Y}, ∅)``) and ``X``, ``Z`` by for-loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..constants import DEFAULT_OMEGA
from ..db.database import Database
from ..db.query import ConjunctiveQuery, parse_query

TRIANGLE_QUERY: ConjunctiveQuery = parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z)")


@dataclass
class TriangleReport:
    """Diagnostics of one run of the Figure-1 algorithm."""

    answer: bool
    threshold: int
    light_candidates: int = 0
    heavy_matrix_shape: Tuple[int, int, int] = (0, 0, 0)
    found_in: str = "none"
    seconds: float = 0.0


def triangle_figure1(
    database: Database,
    omega: float = DEFAULT_OMEGA,
    threshold: Optional[int] = None,
) -> TriangleReport:
    """The paper's triangle algorithm (Figure 1), returning a full report.

    ``threshold`` overrides the heavy/light degree threshold
    ``Δ = N^{(ω-1)/(ω+1)}`` (used by the ablation benchmark).

    The algorithm is a *lowering*: :func:`repro.exec.lower.lower_triangle`
    emits the decomposition/submodularity/MM steps as a physical-operator
    DAG (light-part joins short-circuit in branch order, the heavy case is
    one restricted Boolean matrix product) and the shared VM executes it;
    the report is reconstructed from the per-operator traces.
    """
    from ..exec.lower import lower_triangle
    from ..exec.vm import VirtualMachine

    database.validate_against(TRIANGLE_QUERY)
    program, roles = lower_triangle(database, omega, threshold)
    result = VirtualMachine(database).run(program)
    ids = program.node_ids()
    report = TriangleReport(
        answer=result.answer, threshold=roles.threshold, seconds=result.seconds
    )
    report.light_candidates = sum(
        trace.rows_out
        for node in roles.light_joins
        for trace in [result.trace_for(node, ids)]
        if trace is not None
    )
    mm_trace = result.trace_for(roles.heavy_matmul, ids)
    if mm_trace is not None and mm_trace.matrix_shape is not None:
        report.heavy_matrix_shape = mm_trace.matrix_shape
    if result.answer:
        light_hit = any(
            trace is not None and trace.rows_out
            for node in roles.light_checks
            for trace in [result.trace_for(node, ids)]
        )
        report.found_in = "light" if light_hit else "heavy"
    return report
