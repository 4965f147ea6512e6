"""Repo-invariant lint: AST rules enforcing the execution layer's contracts.

The generic lint job (ruff) gates generic defects; the rules here encode
invariants *specific to this engine* that no off-the-shelf linter knows:

* ``guarded-state`` — mutable containers on lock-owning classes (the
  plan, result and incremental caches the server's request threads
  share) must name their lock in a ``# guarded-by: <lock>`` annotation;
* ``wall-clock`` — operator kernels and the interpreter time with
  ``perf_counter``/``monotonic``; ``time.time`` drifts with NTP and
  breaks trace accounting;
* ``unbounded-cache`` — cache/memo/log containers on long-lived objects
  must either be bounded in code or carry a ``# bounded-by: <reason>``
  annotation;
* ``swallowed-cancel`` — a catch-all ``except`` must not silently drop
  :class:`~repro.exec.vm.QueryCancelled` (cooperative cancellation dies
  if a handler eats the control-flow exception);
* ``layering`` — no ``repro`` module outside ``width/`` and
  ``polymatroid/`` imports those LP packages (and so SciPy) at module level.

Run as ``repro lint`` (exit 1 on any non-baselined finding) or through
:func:`lint_paths`.  Findings already accepted live in
``baseline.txt`` next to this package, keyed by a line-number-free
fingerprint so routine edits do not churn the baseline.
"""

from .framework import (
    DEFAULT_BASELINE,
    LintFinding,
    LintReport,
    LintRule,
    lint_paths,
    lint_source,
    load_baseline,
    register_rule,
    registered_rules,
)
from . import rules  # noqa: F401  (importing registers the rule set)

__all__ = [
    "DEFAULT_BASELINE",
    "LintFinding",
    "LintReport",
    "LintRule",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "register_rule",
    "registered_rules",
]
