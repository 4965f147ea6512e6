"""Static analysis for the engine: plan verification and repo lint.

Two independent tools live here:

* :mod:`repro.analysis.verify` — a pass pipeline over lowered/optimized
  :class:`~repro.exec.ir.Program` DAGs that statically rejects unsound
  plans (broken schema inference, structural-key collisions, uncalibrated
  streaming sinks, cache-key drift) before the VM ever executes them.  Wired into
  :class:`~repro.api.QueryEngine` via ``verify_plans=...``, the
  ``EXPLAIN VERIFY`` statement and the ``repro verify`` CLI verb.
* :mod:`repro.analysis.lint` — an AST-based linter enforcing
  *repo-specific* invariants of the execution layer (lock-guarded shared
  state, monotonic clocks in kernels, bounded caches, cancellation not
  swallowed), run as ``repro lint`` and as a CI job.
"""

from .lint import LintFinding, LintReport, lint_paths, registered_rules
from .verify import (
    VERIFIER_PASSES,
    PlanVerificationError,
    Violation,
    assert_verified,
    verify_program,
)

__all__ = [
    "LintFinding",
    "LintReport",
    "PlanVerificationError",
    "VERIFIER_PASSES",
    "Violation",
    "assert_verified",
    "lint_paths",
    "registered_rules",
    "verify_program",
]
