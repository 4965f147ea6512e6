"""4-cycle (and general even-cycle) detection with degree partitioning + MM.

The 4-cycle query ``Q□() :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)`` is the
canonical example where neither a single tree decomposition nor a single
matrix multiplication is optimal: the paper's framework partitions the data
by the degree of the "middle" variables and chooses per part (Lemma C.9).
This module implements that adaptive strategy.  Its baselines are engine
calls: ``QueryEngine(db).exists(FOUR_CYCLE_QUERY, "generic_join")``, and
``exists(FOUR_CYCLE_QUERY, "omega", plan=...)`` with either the
combinatorial two-bag plan ``all_for_loop_plan(h, ["Y", "W", "X", "Z"])``
or the purely MM-based plan that eliminates ``Y`` and ``W`` by one MM step
each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..constants import DEFAULT_OMEGA
from ..db.database import Database
from ..db.query import ConjunctiveQuery, parse_query

FOUR_CYCLE_QUERY: ConjunctiveQuery = parse_query(
    "Q() :- R(X, Y), S(Y, Z), T(Z, W), U(W, X)"
)


@dataclass
class FourCycleReport:
    """Diagnostics of the adaptive 4-cycle detection.

    The four (Y-part × W-part) checks short-circuit, light × light first,
    so ``light_pairs`` (rows of the light-middle relations) and
    ``heavy_matrix_shape`` (the larger heavy product) cover only the parts
    the run evaluated: a cycle found among light middles leaves the shape
    at ``(0, 0, 0)``.
    """

    answer: bool
    threshold: int
    light_pairs: int = 0
    heavy_matrix_shape: Tuple[int, int, int] = (0, 0, 0)
    found_in: str = "none"
    seconds: float = 0.0


def four_cycle_adaptive(
    database: Database,
    omega: float = DEFAULT_OMEGA,
    threshold: Optional[int] = None,
) -> FourCycleReport:
    """Degree-adaptive 4-cycle detection (the paper's partitioning strategy).

    Light ``Y`` values (degree at most Δ in ``R``) are handled by the
    combinatorial 2-path enumeration; heavy ``Y`` values (at most ``N/Δ`` of
    them) are handled by a Boolean matrix multiplication restricted to the
    heavy middle.  The same split is applied to ``W`` on the other side of
    the cycle; a cycle exists when an X–Z pair reached through some part of
    ``Y`` is also reached through some part of ``W``.

    The strategy is a *lowering* (:func:`repro.exec.lower.lower_four_cycle`)
    executed on the shared virtual machine; the report is reconstructed
    from the per-operator traces.
    """
    from ..exec.lower import lower_four_cycle
    from ..exec.vm import VirtualMachine

    database.validate_against(FOUR_CYCLE_QUERY)
    program, roles = lower_four_cycle(database, omega, threshold)
    result = VirtualMachine(database).run(program)
    ids = program.node_ids()
    report = FourCycleReport(
        answer=result.answer, threshold=roles.threshold, seconds=result.seconds
    )
    report.light_pairs = sum(
        trace.rows_out
        for node in roles.light_sides
        for trace in [result.trace_for(node, ids)]
        if trace is not None
    )
    shapes = [
        trace.matrix_shape
        for node in roles.matmuls
        for trace in [result.trace_for(node, ids)]
        if trace is not None and trace.matrix_shape is not None
    ]
    if shapes:
        report.heavy_matrix_shape = max(
            shapes, key=lambda s: s[0] * max(s[1], 1) * max(s[2], 1)
        )
    if report.answer:
        report.found_in = "intersection"
    return report
