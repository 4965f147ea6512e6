"""The execution record of one query run.

Execution itself lives in the unified physical-operator layer: a strategy
lowers to an IR program (:mod:`repro.exec.lower` — :func:`lower_plan` for
ω-query plans, whose steps either join every relation incident to a block
and project the block away or realize the elimination as a grouped
Boolean matrix product, Section 2.2/Section 7) and the instrumented
virtual machine (:mod:`repro.exec.vm`) runs it.  :class:`ExecutionResult`
is what the engine keeps of that run: the answer and the per-operator
traces (an MM step's ``matrix_shape`` / ``group_count`` are on its
``GroupedMatMul`` trace).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class ExecutionResult:
    """The Boolean answer plus per-operator traces."""

    answer: bool
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
        """Rows materialized by non-leaf operators."""
        return sum(
            trace.rows_out
            for trace in self.operators
            if trace.kind != "scan" and trace.kernel != "bool"
        )

    @classmethod
    def from_vm(cls, result) -> "ExecutionResult":
        """Wrap a :class:`repro.exec.vm.VMResult`."""
        return cls(
            answer=result.answer,
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
            seconds=getattr(exc, "seconds", 0.0),
            operators=list(getattr(exc, "traces", [])),
            cancelled_ops=getattr(exc, "cancelled_ops", 0),
            timed_out=getattr(exc, "timed_out", False),
            cancelled=True,
        )

    def describe(self) -> str:
        """A per-operator execution trace."""
        lines = [f"answer: {self.answer}  ({self.seconds * 1000:.2f} ms)"]
        if self.timed_out:
            lines[0] += f"  [TIMED OUT; {self.cancelled_ops} operators abandoned]"
        elif self.cancelled:
            lines[0] += f"  [CANCELLED; {self.cancelled_ops} operators abandoned]"
        lines.extend(f"  {trace.describe()}" for trace in self.operators)
        return "\n".join(lines)
