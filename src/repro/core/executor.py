"""Executing ω-query plans on concrete databases.

Historically this module *was* the execution engine, walking plan steps
with hand-rolled join/matrix-multiplication loops.  Execution now lives in
the unified physical-operator layer: :class:`PlanExecutor` lowers the plan
to an IR program (:func:`repro.exec.lower.lower_plan`), runs it on the
instrumented virtual machine (:mod:`repro.exec.vm`) — the same executor
every other strategy uses — and reconstructs the historical per-step
:class:`StepTrace` records from the VM's per-operator traces.

The elimination semantics (Section 2.2/Section 7) are unchanged: each step
either joins every relation incident to its block and projects the block
away (a for-loop step) or realizes the elimination as a grouped Boolean
matrix product (an MM step); the Boolean answer is the non-emptiness of the
final (nullary) relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

from ..constants import DEFAULT_OMEGA
from ..db.database import Database
from ..db.query import ConjunctiveQuery
from .plan import OmegaQueryPlan, StepMethod


@dataclass
class StepTrace:
    """Diagnostics for one executed elimination step."""

    block: FrozenSet[str]
    method: StepMethod
    input_relations: int
    input_tuples: int
    output_tuples: int
    matrix_shape: Optional[Tuple[int, int, int]] = None
    group_count: int = 0
    seconds: float = 0.0


@dataclass
class ExecutionResult:
    """The Boolean answer plus per-step and per-operator traces."""

    answer: bool
    steps: List[StepTrace] = field(default_factory=list)
    seconds: float = 0.0
    #: Per-operator VM traces (:class:`repro.exec.vm.OpTrace`); populated by
    #: every execution that goes through the IR path.
    operators: List = field(default_factory=list)
    #: A key of the v1 wire document: ``QueryResult.to_dict``/``from_dict``
    #: carry it, nothing else reads or sets it (a live run reports ``1``).
    parallelism: int = 1
    #: Operators never evaluated because a
    #: :class:`~repro.exec.vm.CancellationToken` fired mid-run.
    cancelled_ops: int = 0
    #: Whether the run was cut short by a deadline expiring.  The traces
    #: then cover only the operators that completed before the cut.
    timed_out: bool = False
    #: Whether a cancellation token cut the run short (deadline expiry
    #: or explicit cancel).
    cancelled: bool = False

    def total_intermediate_tuples(self) -> int:
        """Rows materialized by non-leaf operators (or step outputs, if any)."""
        if self.steps:
            return sum(step.output_tuples for step in self.steps)
        return sum(
            trace.rows_out
            for trace in self.operators
            if trace.kind != "scan" and trace.kernel != "bool"
        )

    @classmethod
    def from_vm(cls, result) -> "ExecutionResult":
        """Wrap a :class:`repro.exec.vm.VMResult` (no per-step view)."""
        return cls(
            answer=result.answer,
            steps=[],
            seconds=result.seconds,
            operators=list(result.traces),
        )

    @classmethod
    def from_cancellation(cls, exc) -> "ExecutionResult":
        """The partial execution record of a cancelled VM run.

        ``exc`` is the :class:`~repro.exec.vm.QueryCancelled` the VM
        raised: the traces cover the operators that completed before the
        token fired, ``cancelled_ops`` counts the abandoned ones, and
        ``answer`` is vacuously ``False`` (no answer was produced).
        """
        return cls(
            answer=False,
            steps=[],
            seconds=getattr(exc, "seconds", 0.0),
            operators=list(getattr(exc, "traces", [])),
            cancelled_ops=getattr(exc, "cancelled_ops", 0),
            timed_out=getattr(exc, "timed_out", False),
            cancelled=True,
        )

    def describe(self) -> str:
        """A per-step (or per-operator) execution trace."""
        lines = [f"answer: {self.answer}  ({self.seconds * 1000:.2f} ms)"]
        if self.timed_out:
            lines[0] += f"  [TIMED OUT; {self.cancelled_ops} operators abandoned]"
        elif self.cancelled:
            lines[0] += f"  [CANCELLED; {self.cancelled_ops} operators abandoned]"
        for trace in self.steps:
            block = "".join(sorted(trace.block))
            detail = (
                f"shape={trace.matrix_shape} groups={trace.group_count}"
                if trace.method is StepMethod.MATRIX_MULTIPLICATION
                else f"{trace.input_relations} relations"
            )
            lines.append(
                f"  {{{block}}} via {trace.method.value}: "
                f"{trace.input_tuples} -> {trace.output_tuples} tuples "
                f"[{detail}, {trace.seconds * 1000:.2f} ms]"
            )
        if not self.steps:
            lines.extend(f"  {trace.describe()}" for trace in self.operators)
        return "\n".join(lines)


class PlanExecutor:
    """Executes an :class:`OmegaQueryPlan` against a database.

    A thin shim over the unified executor: the plan is lowered once
    (:func:`repro.exec.lower.lower_plan`), common subexpressions are
    merged, and the program runs on :class:`repro.exec.vm.VirtualMachine`.
    """

    def __init__(self, query: ConjunctiveQuery, database: Database) -> None:
        self.query = query
        self.database = database

    # ------------------------------------------------------------------
    def run(self, plan: OmegaQueryPlan, omega: float = DEFAULT_OMEGA) -> ExecutionResult:
        del omega  # execution is exponent-agnostic; ω only shapes the plan
        from ..exec.lower import lower_plan
        from ..exec.optimize import eliminate_common_subexpressions
        from ..exec.vm import VirtualMachine

        lowered = lower_plan(self.query, self.database, plan)
        # CSE only: fusion/pruning would rebuild nodes and detach the
        # per-step role records (they replace nodes with *unequal* ones).
        program, _ = eliminate_common_subexpressions(lowered.program)
        result = VirtualMachine(self.database).run(program)
        ids = program.node_ids()

        steps: List[StepTrace] = []
        for role in lowered.steps:
            if role.produced is None:
                continue
            produced_trace = result.trace_for(role.produced, ids)
            if produced_trace is None:
                # Short-circuited away (an earlier step already emptied the
                # pipeline) — mirrors the legacy executor's early break.
                continue
            input_tuples = 0
            for node in role.incident:
                trace = result.trace_for(node, ids)
                if trace is not None:
                    input_tuples += trace.rows_out
            seconds = 0.0
            for node in role.created:
                trace = result.trace_for(node, ids)
                if trace is not None:
                    seconds += trace.seconds
            shape = None
            groups = 0
            if role.step.method is StepMethod.MATRIX_MULTIPLICATION:
                shape = produced_trace.matrix_shape or (0, 0, 0)
                groups = produced_trace.group_count
            steps.append(
                StepTrace(
                    block=role.step.block,
                    method=role.step.method,
                    input_relations=len(role.incident),
                    input_tuples=input_tuples,
                    output_tuples=produced_trace.rows_out,
                    matrix_shape=shape,
                    group_count=groups,
                    seconds=seconds,
                )
            )
            if produced_trace.rows_out == 0:
                break
        return ExecutionResult(
            answer=result.answer,
            steps=steps,
            seconds=result.seconds,
            operators=list(result.traces),
        )
