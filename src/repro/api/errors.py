"""Exceptions raised by the public query-engine API."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping

from ..db.query import QueryParseError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.query import ConjunctiveQuery
    from .engine import QueryResult

__all__ = [
    "EngineError",
    "PlanVerificationError",
    "QueryCancelledError",
    "QueryParseError",
    "QueryTimeout",
    "StrategyDisagreement",
    "UnknownStrategyError",
    "UnsupportedWorkload",
]


class EngineError(Exception):
    """Base class for query-engine API errors."""


class PlanVerificationError(EngineError):
    """An optimized program failed static verification.

    Raised by :func:`repro.analysis.verify.assert_verified` (and by the
    engine when constructed with ``verify_plans != 'off'``) before the
    unsound program reaches the VM.  ``violations`` carries the structured
    :class:`repro.analysis.verify.Violation` records — each names the rule
    that fired and the offending operator's position in the program's
    ``describe()`` rendering — and ``program`` the rejected program.
    """

    def __init__(self, program, violations) -> None:
        self.program = program
        self.violations = tuple(violations)
        lines = [
            f"{len(self.violations)} plan verification "
            f"failure{'s' if len(self.violations) != 1 else ''} "
            f"(program, source {program.source!r}):"
        ]
        lines.extend(f"  {v.describe()}" for v in self.violations)
        lines.append("program:")
        lines.extend(f"  {line}" for line in program.describe().splitlines())
        super().__init__("\n".join(lines))


class QueryCancelledError(EngineError):
    """A query was cancelled before it produced an answer.

    Raised when a :class:`~repro.exec.vm.CancellationToken` passed to an
    engine verb fires mid-execution — an explicit cancel (client
    disconnect, server drain).  Deadline-triggered cancellation raises the
    :class:`QueryTimeout` subclass instead.  ``result`` carries a partial
    :class:`~repro.api.engine.QueryResult` (``timed_out``/trace fields
    populated, ``answer`` vacuously ``False``) for structured reporting.
    """

    def __init__(
        self,
        query: "ConjunctiveQuery",
        verb: str,
        result: "QueryResult | None" = None,
        message: "str | None" = None,
    ) -> None:
        self.query = query
        self.verb = verb
        self.result = result
        super().__init__(
            message or f"{verb} of query {query.name} was cancelled before completing"
        )


class QueryTimeout(QueryCancelledError, TimeoutError):
    """A query exceeded its deadline and was cancelled cooperatively.

    ``timeout`` is the deadline the caller requested (seconds; ``None``
    when the token was built elsewhere), and ``result.execution`` records
    how far execution got — completed operator traces plus the abandoned
    count.
    """

    def __init__(
        self,
        query: "ConjunctiveQuery",
        verb: str,
        timeout: "float | None" = None,
        result: "QueryResult | None" = None,
    ) -> None:
        self.timeout = timeout
        limit = f" (deadline {timeout:.3f}s)" if timeout is not None else ""
        super().__init__(
            query,
            verb,
            result,
            message=f"{verb} of query {query.name} exceeded its deadline{limit}",
        )


class UnsupportedWorkload(EngineError, NotImplementedError):
    """A strategy cannot serve the requested query verb.

    The ω/MM strategies are decision procedures: they answer ``exists``
    but have no counting or enumeration semantics, so asking them for
    ``count``/``select`` raises this error.  ``strategy="auto"`` resolves
    such asks to ``generic_join`` instead.
    """

    def __init__(
        self,
        strategy: str,
        verb: str,
        query: "ConjunctiveQuery",
        message: "str | None" = None,
    ) -> None:
        self.strategy = strategy
        self.verb = verb
        self.query = query
        super().__init__(
            message
            or f"strategy {strategy!r} does not support the {verb!r} verb "
            f"(query {query.name}); use strategy='auto' or a strategy whose "
            f"'verbs' includes {verb!r}"
        )


class UnknownStrategyError(EngineError, ValueError):
    """A strategy name outside :data:`~repro.api.strategies.STRATEGIES`
    was requested.  Subclasses :class:`ValueError`."""

    def __init__(self, name: str, known: tuple) -> None:
        self.name = name
        self.known = tuple(known)
        super().__init__(
            f"unknown strategy {name!r}; known: {self.known}"
        )


class StrategyDisagreement(EngineError, AssertionError):
    """Two strategies returned different answers for one query.

    Carries the per-strategy answers (Booleans for ``exists``, counts for
    ``count``, sorted row tuples for ``select``) and the full results when
    available, so cross-validation harnesses can report exactly who
    disagreed.  Subclasses :class:`AssertionError`, so a cross-validation
    run inside a test fails like any other assertion.
    """

    def __init__(
        self,
        query: "ConjunctiveQuery",
        answers: Mapping[str, object],
        results: Mapping[str, "QueryResult"] | None = None,
        verb: str = "exists",
    ) -> None:
        self.query = query
        self.answers: Dict[str, object] = dict(answers)
        self.results = dict(results) if results is not None else {}
        self.verb = verb
        what = "Boolean answer" if verb == "exists" else f"{verb} answer"
        super().__init__(
            f"strategies disagree on the {what} of {query}: {self.answers}"
        )
