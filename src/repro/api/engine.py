"""The :class:`QueryEngine` facade: stateful, cached, batched query answering.

Where the seed exposed one free function that re-planned on every call, the
engine owns a :class:`~repro.db.database.Database`, resolves strategies
by name in :data:`~repro.api.strategies.STRATEGIES`, and memoizes ω-query
plans in an LRU cache keyed by (strategy, canonical query shape, ω,
statistics epochs of the relations the query touches).  The second ask
of any previously seen query shape therefore skips planning entirely —
including asks of *isomorphic* queries with different variable or
relation names.

The engine is also the front door for *incremental maintenance*:
:meth:`QueryEngine.insert` / :meth:`QueryEngine.delete` route mutations
through the database's delta log, and repeated ``exists``/``count`` asks
are answered by *patching* the previously computed answer with the
logged deltas (monotone short-circuits for ``exists``, delta counting for
``count``) instead of re-executing — falling back to full evaluation
whenever a patch rule's soundness conditions do not hold.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, NoReturn, Optional, Sequence, Tuple

from ..analysis.verify import VERIFY_STAGES, assert_verified
from ..constants import DEFAULT_OMEGA
from ..db.database import Database
from ..db.query import ConjunctiveQuery
from ..db.relation import Relation
from ..core.plan import OmegaQueryPlan
from ..core.planner import PlannedQuery
from ..exec.cache import CacheStats, LRUCache, ResultCache
from ..exec.dispatch import KernelDispatcher
from ..exec.ir import Program
from ..exec.lower import SelectOptions, apply_select_options, check_verb, describe_join_tree
from ..exec.optimize import optimize_program
from ..exec.vm import (
    CancellationToken,
    EnumerationStream,
    ExecutionResult,
    OpTrace,
    QueryCancelled,
    VirtualMachine,
)
from .cache import (
    CachedPlanEntry,
    IncrementalEntry,
    IncrementalResultStore,
    PlanCacheKey,
)
from .errors import (
    PlanVerificationError,
    QueryCancelledError,
    QueryTimeout,
    StrategyDisagreement,
    UnknownStrategyError,
    UnsupportedWorkload,
)
from .results import ResultSet
from .strategies import STRATEGIES, Strategy

#: Entries of the plan cache (ω plans with their lowered programs).
PLAN_CACHE_SIZE = 128
#: Operator results the VM keeps across asks (see :class:`ResultCache`).
RESULT_CACHE_SIZE = 32
#: Whole-query ``exists``/``count`` answers kept for delta patching.
INCREMENTAL_STORE_SIZE = 256

#: Environment knob for the default ``verify_plans`` stage — ``off``
#: (the default) or ``optimized``.  The test suite exports
#: ``optimized`` from ``tests/conftest.py`` so every engine it builds
#: statically verifies every program it lowers.
VERIFY_PLANS_ENV = "REPRO_VERIFY_PLANS"

#: Version of the :meth:`QueryResult.to_dict` wire schema.  Bump on any
#: incompatible change; :meth:`QueryResult.from_dict` refuses documents
#: from a newer protocol and the server stamps it on every response, so
#: clients and servers can evolve the payload compatibly.  Version 2
#: dropped three keys no run ever set (a thread count and two per-trace
#: scheduler fields); v1 documents still decode.
PROTOCOL_VERSION = 2


@dataclass
class QueryResult:
    """The outcome of one :meth:`QueryEngine.exists`/``count``/``select`` run.

    The answer with verb-aware output fields, a plan/execute timing
    breakdown and plan-provenance counters:

    * ``verb`` / ``output_variables`` — which workload ran and the query's
      free variables; ``row_count`` is the number of distinct output
      tuples for ``count``/``select`` runs (``None`` for ``exists``).
    * ``plan_seconds`` / ``execute_seconds`` — where the time went;
      ``seconds`` is the end-to-end wall clock including dispatch.
    * ``cache_hit`` — whether the plan came from the engine's plan cache
      (or, for ``plan_source == "incremental"``, whether the answer was
      served verbatim from the incremental store with zero deltas).
    * ``plan_source`` — ``"none"`` (strategy does not plan), ``"planner"``
      (freshly planned), ``"cache"`` (LRU hit), ``"given"``
      (caller-supplied plan) or ``"incremental"`` (no plan ran at all: the
      answer was patched from a previous ask via the delta log).
    """

    query: ConjunctiveQuery
    answer: bool
    strategy: str
    seconds: float
    verb: str = "exists"
    output_variables: Tuple[str, ...] = ()
    #: Distinct output tuples (``count``/``select`` runs; ``None`` for
    #: ``exists``, whose workload never counts).
    row_count: Optional[int] = None
    plan_seconds: float = 0.0
    execute_seconds: float = 0.0
    cache_hit: bool = False
    plan_source: str = "none"
    #: Whether execution was cut short by a deadline.  Only ever ``True``
    #: on the partial result carried by a :class:`~repro.api.errors.QueryTimeout`
    #: — a normally returned result always completed.
    timed_out: bool = False
    plan: Optional[OmegaQueryPlan] = None
    planned: Optional[PlannedQuery] = None
    #: The planner's search counters (``planned.search``) when this ask
    #: planned afresh, empty otherwise; the only part of ``planned`` that
    #: travels through :meth:`to_dict`.
    plan_search: Dict[str, int] = field(default_factory=dict)
    execution: Optional[ExecutionResult] = None
    #: The lowered physical-operator program the ask executed (``None``
    #: only for answers served from the incremental store).
    program: Optional[Program] = None
    #: The distinct output relation of a ``select`` run (``None`` for the
    #: other verbs); :class:`~repro.api.results.ResultSet` streams it.
    relation: Optional[Relation] = None
    #: The live enumeration cursor of a *streaming* ``select`` run
    #: (``None`` otherwise).  When set, ``relation``/``row_count`` stay
    #: ``None`` — the output is produced incrementally as the cursor is
    #: pulled, and never travels through :meth:`to_dict`.
    stream: Optional[EnumerationStream] = None

    def describe(self) -> str:
        lines = [
            f"query:    {self.query}",
            f"strategy: {self.strategy}",
            f"verb:     {self.verb}",
            f"answer:   {self.answer}",
        ]
        if self.row_count is not None:
            lines.append(f"rows:     {self.row_count}")
        lines.append(
            f"time:     {self.seconds * 1000:.2f} ms "
            f"(plan {self.plan_seconds * 1000:.2f} ms, "
            f"execute {self.execute_seconds * 1000:.2f} ms)"
        )
        if self.plan_source != "none":
            lines.append(f"plan:     from {self.plan_source}")
        if self.planned is not None:
            lines.append(self.planned.describe())
        elif self.plan is not None:
            lines.append(self.plan.describe())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe summary for services and structured logging.

        Only plain Python scalars, lists and dicts appear in the document
        (``json.dumps`` → ``json.loads`` round-trips it unchanged): the
        query text, verb and outputs, the answer/row count, the timing
        split, cache provenance, and a per-operator trace summary.
        """
        execution = self.execution
        trace = []
        if execution is not None:
            for op in execution.operators:
                entry = {
                    "op_id": int(op.op_id),
                    "kind": str(op.kind),
                    "label": str(op.label),
                    "rows_in": int(op.rows_in),
                    "rows_out": int(op.rows_out),
                    "kernel": str(op.kernel),
                    "seconds": float(op.seconds),
                    "cache_hit": bool(op.cache_hit),
                }
                if op.heap_pops or op.heap_peak:
                    # Sparse: only ranked Enumerate sinks carry frontier-heap
                    # accounting, so plain documents keep the golden shape.
                    entry["heap_peak"] = int(op.heap_peak)
                    entry["heap_pops"] = int(op.heap_pops)
                trace.append(entry)
        document = {
            "protocol_version": PROTOCOL_VERSION,
            "query": str(self.query),
            "name": str(self.query.name),
            "verb": str(self.verb),
            "output_variables": [str(v) for v in self.output_variables],
            "answer": bool(self.answer),
            "row_count": None if self.row_count is None else int(self.row_count),
            "strategy": str(self.strategy),
            "seconds": float(self.seconds),
            "plan_seconds": float(self.plan_seconds),
            "execute_seconds": float(self.execute_seconds),
            "cache_hit": bool(self.cache_hit),
            "plan_source": str(self.plan_source),
            "timed_out": bool(self.timed_out),
            "trace": trace,
        }
        if self.plan_search:
            # Sparse, like the heap counters: only freshly ω-planned asks
            # carry it, so plain documents keep the golden shape.
            document["plan_search"] = {
                str(name): int(count) for name, count in self.plan_search.items()
            }
        return document

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "QueryResult":
        """Rebuild a :class:`QueryResult` from a :meth:`to_dict` document.

        The inverse of :meth:`to_dict` for everything the wire carries:
        the query is re-parsed from its Datalog text, the per-operator
        trace summaries become :class:`~repro.exec.vm.OpTrace` records on
        a reconstructed :class:`~repro.exec.vm.ExecutionResult`, and
        ``from_dict(r.to_dict()).to_dict() == r.to_dict()`` holds — the
        round trip the server/client protocol relies on.  Plan objects and
        relations never travel over the wire, so those fields stay
        ``None``.  Documents stamped with a newer (or a non-integer)
        ``protocol_version`` are refused.
        """
        from ..db.query import parse_query

        version = document.get("protocol_version", PROTOCOL_VERSION)
        # bool is an int subclass: ``true`` is not a version.
        if (
            isinstance(version, bool)
            or not isinstance(version, int)
            or version > PROTOCOL_VERSION
        ):
            raise ValueError(
                f"cannot decode protocol_version {version!r} documents "
                f"(this build speaks <= {PROTOCOL_VERSION})"
            )
        query = parse_query(str(document["query"]))
        operators = []
        for op in document.get("trace", []) or []:
            operators.append(
                OpTrace(
                    op_id=int(op.get("op_id", 0)),
                    kind=str(op.get("kind", "")),
                    label=str(op.get("label", "")),
                    schema=(),
                    rows_in=int(op.get("rows_in", 0)),
                    rows_out=int(op.get("rows_out", 0)),
                    kernel=str(op.get("kernel", "")),
                    seconds=float(op.get("seconds", 0.0)),
                    cache_hit=bool(op.get("cache_hit", False)),
                    heap_peak=int(op.get("heap_peak", 0)),
                    heap_pops=int(op.get("heap_pops", 0)),
                )
            )
        execution = ExecutionResult(
            answer=bool(document["answer"]),
            operators=operators,
            seconds=float(document.get("seconds", 0.0)),
            timed_out=bool(document.get("timed_out", False)),
        )
        row_count = document.get("row_count")
        return cls(
            query=query,
            answer=bool(document["answer"]),
            strategy=str(document["strategy"]),
            seconds=float(document.get("seconds", 0.0)),
            verb=str(document.get("verb", "exists")),
            output_variables=tuple(
                str(v) for v in document.get("output_variables", ())
            ),
            row_count=None if row_count is None else int(row_count),
            plan_seconds=float(document.get("plan_seconds", 0.0)),
            execute_seconds=float(document.get("execute_seconds", 0.0)),
            cache_hit=bool(document.get("cache_hit", False)),
            plan_source=str(document.get("plan_source", "none")),
            timed_out=bool(document.get("timed_out", False)),
            plan_search={
                str(name): int(count)
                for name, count in (document.get("plan_search") or {}).items()
            },
            execution=execution,
        )


@dataclass
class Explanation:
    """What :meth:`QueryEngine.explain` reports: plan + structure, no execution."""

    query: ConjunctiveQuery
    strategy: str
    is_acyclic: bool
    num_variables: int
    num_atoms: int
    verb: str = "exists"
    output_variables: Tuple[str, ...] = ()
    cache_hit: bool = False
    plan: Optional[OmegaQueryPlan] = None
    planned: Optional[PlannedQuery] = None
    widths: Dict[str, float] = field(default_factory=dict)
    #: The lowered (and optimized) physical-operator DAG the ask would run.
    program: Optional[Program] = None

    def describe(self) -> str:
        lines = [
            f"query:    {self.query}",
            f"strategy: {self.strategy}",
            f"verb:     {self.verb}"
            + (
                f" -> ({', '.join(self.output_variables)})"
                if self.output_variables
                else ""
            ),
            f"shape:    {self.num_atoms} atoms over {self.num_variables} variables"
            f" ({'acyclic' if self.is_acyclic else 'cyclic'})",
        ]
        for measure, value in sorted(self.widths.items()):
            lines.append(f"{measure}: {value:.4f}")
        if self.planned is not None:
            lines.append("plan:")
            lines.append(self.planned.describe())
        elif self.plan is not None:
            lines.append("plan (cached):")
            lines.append(self.plan.describe())
        if self.program is not None:
            if self.program.source == "yannakakis":
                lines.append(describe_join_tree(self.program))
            lines.append("operators:")
            lines.append(self.program.describe())
        return "\n".join(lines)


class QueryEngine:
    """A stateful conjunctive-query engine over one database.

    The facade is organised around three query *verbs* sharing the same
    strategies, caches and virtual machine:

    * :meth:`exists` — the Boolean decision;
    * :meth:`count` — the number of distinct output tuples;
    * :meth:`select` — a lazy, deterministically-ordered
      :class:`~repro.api.results.ResultSet` streaming the distinct output
      tuples.

    Parameters
    ----------
    database:
        The data the engine answers queries against.  The engine reads the
        database's statistics fingerprint on every ask, so mutating the
        database (setting or deleting relations) transparently invalidates
        cached plans.
    omega:
        The default matrix-multiplication exponent for cost models;
        overridable per call.
    verify_plans:
        Static plan verification stage (see
        :mod:`repro.analysis.verify`): ``"off"`` (no checking) or
        ``"optimized"`` (verify the final program after the rewrite
        passes and select-option stamping).  Unsound programs raise
        :class:`~repro.api.errors.PlanVerificationError` instead of
        executing.  Defaults to the ``REPRO_VERIFY_PLANS`` environment
        variable, else ``"off"``.

    Three bounded LRUs serve every ask: the plan cache
    (:data:`PLAN_CACHE_SIZE` ω plans with their lowered programs), the
    VM's cross-query result cache (:data:`RESULT_CACHE_SIZE` operator
    results, keyed by name-insensitive structural hash plus the scanned
    relations' versions, so :meth:`ask_many` batches of isomorphic
    queries share identical subplans), and the incremental store
    (:data:`INCREMENTAL_STORE_SIZE` whole-query ``exists``/``count``
    answers, *patched* under :meth:`insert`/:meth:`delete` deltas instead
    of re-executed; patched results report ``plan_source ==
    "incremental"``).
    """

    def __init__(
        self,
        database: Database,
        *,
        omega: float = DEFAULT_OMEGA,
        verify_plans: Optional[str] = None,
    ) -> None:
        if verify_plans is None:
            verify_plans = os.environ.get(VERIFY_PLANS_ENV, "off")
        if verify_plans not in VERIFY_STAGES:
            raise ValueError(
                f"verify_plans must be one of {VERIFY_STAGES}, "
                f"got {verify_plans!r}"
            )
        self.verify_plans = verify_plans
        self.database = database
        self.omega = omega
        self._plan_cache = LRUCache(PLAN_CACHE_SIZE)
        self._result_cache = ResultCache(RESULT_CACHE_SIZE)
        self.dispatcher = KernelDispatcher()
        self._incremental_store = IncrementalResultStore(INCREMENTAL_STORE_SIZE)
        #: A lazily built sibling engine evaluating the tiny delta queries
        #: the patch rules need (Q with one relation replaced by its delta).
        self._patch_engine: Optional["QueryEngine"] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the sibling patch engine (idempotent)."""
        if self._patch_engine is not None:
            self._patch_engine.close()
            self._patch_engine = None

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Mutation: the incremental-maintenance front door
    # ------------------------------------------------------------------
    def insert(self, relation: str, rows: Iterable[Sequence[object]]) -> int:
        """Insert ``rows`` into ``relation``; returns how many were new.

        Delegates to :meth:`Database.insert`: the backend appends in
        O(|rows|) Python work plus a few memcpy-speed array passes (writers
        serialise on the database lock, readers never block), the exact
        delta lands in the relation's bounded log, and only that
        relation's version bumps — cached plans, cached subplan results
        and stored whole-query answers for queries that never read
        ``relation`` all survive.  Subsequent ``exists``/``count`` asks of
        queries that *do* read it are patched from the log where sound.
        """
        return self.database.insert(relation, rows)

    def delete(self, relation: str, rows: Iterable[Sequence[object]]) -> int:
        """Delete ``rows`` from ``relation``; returns how many existed.

        The mirror of :meth:`insert`; see there for the maintenance
        semantics.
        """
        return self.database.delete(relation, rows)

    def incremental_info(self) -> Dict[str, int]:
        """Incremental-store counters: stored / patched / reused / dropped,
        and ``fallback_<reason>`` per :data:`~repro.api.cache.FALLBACK_REASONS`."""
        return self._incremental_store.stats()

    # ------------------------------------------------------------------
    # Strategy resolution
    # ------------------------------------------------------------------
    def resolve_strategy(
        self, query: ConjunctiveQuery, strategy: str = "auto", verb: str = "exists"
    ) -> Strategy:
        """Resolve a strategy name (``"auto"`` included) for a query.

        For ``exists``, ``"auto"`` picks Yannakakis for acyclic queries
        and the ω-engine otherwise.  For ``count``/``select`` the ω-engine
        is not an option (it is a decision procedure), so cyclic queries
        fall back to the exhaustive worst-case-optimal search instead.
        """
        return _strategy(self._resolve_key(query, strategy, verb))

    def _resolve_key(
        self, query: ConjunctiveQuery, strategy: str, verb: str = "exists"
    ) -> str:
        """Resolve ``"auto"`` to a concrete key of :data:`STRATEGIES`.

        Unknown verbs fail fast here, so every entry point — including the
        public :meth:`resolve_strategy` — rejects a typo'd verb instead of
        silently resolving to the exists-only ω strategy.
        """
        check_verb(verb)
        if strategy != "auto":
            return strategy
        if query.is_acyclic():
            return "yannakakis"
        # The ω/MM engine is exists-only: cyclic count/select asks run the
        # exhaustive worst-case-optimal search instead.
        return "omega" if verb == "exists" else "generic_join"

    def _resolve_supported(
        self, query: ConjunctiveQuery, strategy: str, verb: str = "exists"
    ) -> Tuple[str, Strategy]:
        check_verb(verb)
        key = self._resolve_key(query, strategy, verb)
        resolved = _strategy(key)
        if verb not in resolved.verbs:
            raise UnsupportedWorkload(key, verb, query)
        if not resolved.supports(query, verb):
            raise ValueError(
                f"strategy {key!r} does not support query {query.name} "
                f"({'acyclic' if query.is_acyclic() else 'cyclic'})"
            )
        return key, resolved

    # ------------------------------------------------------------------
    # Asking: the exists / count / select verbs
    # ------------------------------------------------------------------
    def exists(
        self,
        query: ConjunctiveQuery,
        strategy: str = "auto",
        *,
        omega: Optional[float] = None,
        plan: Optional[OmegaQueryPlan] = None,
        timeout: Optional[float] = None,
        token: Optional[CancellationToken] = None,
    ) -> QueryResult:
        """Decide satisfiability, reusing a cached plan when possible.

        The Boolean verb: ``result.answer`` is ``True`` iff the body has a
        satisfying assignment.  Output variables are ignored — a query with
        a non-empty head still *exists* iff its body does.

        ``timeout`` bounds execution: a query still running after that many
        seconds is cancelled cooperatively (one operator's granularity) and
        :class:`~repro.api.errors.QueryTimeout` is raised, carrying a
        partial :class:`QueryResult` with ``timed_out=True``.  Pass a
        :class:`~repro.exec.vm.CancellationToken` as ``token`` instead to
        control cancellation externally (e.g. a server draining).
        """
        return self._ask(
            query, strategy, omega=omega, plan=plan, timeout=timeout, token=token
        )

    def count(
        self,
        query: ConjunctiveQuery,
        strategy: str = "auto",
        *,
        omega: Optional[float] = None,
        timeout: Optional[float] = None,
        token: Optional[CancellationToken] = None,
    ) -> QueryResult:
        """Count the distinct output tuples of the query.

        ``result.row_count`` is the number of distinct bindings of the
        query's output variables over all satisfying assignments; for a
        Boolean-head query it is ``1``/``0`` (satisfiable or not).  The
        counting sink never materializes the projected output relation —
        unique code rows are counted with one ``np.unique``.
        ``timeout``/``token`` behave as in :meth:`exists`.
        """
        return self._ask(
            query, strategy, omega=omega, verb="count", timeout=timeout, token=token
        )

    def select(
        self,
        query: ConjunctiveQuery,
        strategy: str = "auto",
        *,
        omega: Optional[float] = None,
        limit: Optional[int] = None,
        order: Optional[str] = None,
        batch_size: Optional[int] = None,
        timeout: Optional[float] = None,
        token: Optional[CancellationToken] = None,
    ) -> ResultSet:
        """Enumerate distinct output tuples as a lazy :class:`ResultSet`.

        Nothing executes until rows are pulled (iteration, ``fetch(n)``,
        ``batches()``, ``to_rows()``).  ``order`` picks the delivery
        contract:

        * ``"sorted"`` — the deterministic total order, identical across
          strategies and storage orders.  With a small ``limit`` the
          engine serves it by *ranked (any-k) enumeration*:
          a frontier heap pops the globally next tuple straight out of the
          calibrated join, so the first ``k`` tuples cost roughly an
          ``exists`` plus O(k log n) — never a full-output scan.  Past the
          dispatcher's ``ranked_limit_cap`` (or with no limit) the output
          is materialized once and sorted (bounded ``nsmallest`` when a
          limit exists).
        * ``"stream"`` — tuples in *discovery order* with constant delay:
          a ``limit=k`` select costs roughly the full-reducer passes (an
          ``exists``) plus O(k) enumeration work, and the first batch is
          available after O(batch) work.  The tuple set equals the sorted
          order's; the sequence may differ across strategies.

        ``order=None`` (the default) resolves to ``"stream"`` when a
        ``limit`` is given and ``"sorted"`` otherwise.  ``batch_size``
        defaults to the engine's kernel-dispatch morsel size.

        ``timeout`` starts counting at the first pull (execution time, not
        result-set lifetime); a fired deadline raises
        :class:`~repro.api.errors.QueryTimeout` from the pulling call —
        including pulls partway through a streaming enumeration.
        """
        # Resolve and validate eagerly so bad queries/strategies fail at
        # call time; execution itself stays deferred to the first pull.
        self.database.validate_against(query)
        strategy_key, _ = self._resolve_supported(query, strategy, "select")
        resolved_order = (
            order
            if order is not None
            else ("stream" if limit is not None else "sorted")
        )
        options = SelectOptions(limit=limit, order=resolved_order)
        start = time.perf_counter()

        def run() -> QueryResult:
            return self._ask(
                query,
                strategy,
                omega=omega,
                verb="select",
                select_options=options,
                timeout=timeout,
                token=token,
            )

        def on_cancelled(exc: QueryCancelled) -> "NoReturn":
            # A deadline/cancel firing while the ResultSet pulls the
            # enumeration cursor maps onto the same API errors as one
            # firing during the reducer passes.
            self._raise_cancelled(exc, query, "select", strategy_key, start, timeout)

        return ResultSet(
            tuple(query.output_variables),
            run,
            limit=limit,
            batch_size=(
                self.dispatcher.morsel_size if batch_size is None else batch_size
            ),
            order=resolved_order,
            on_cancelled=on_cancelled,
        )

    def _check_token(
        self,
        token: CancellationToken,
        query: ConjunctiveQuery,
        verb: str,
        strategy: str,
        start: float,
        timeout: Optional[float],
    ) -> None:
        """Raise the API-level cancellation error if ``token`` has fired."""
        try:
            token.check()
        except QueryCancelled as exc:
            self._raise_cancelled(exc, query, verb, strategy, start, timeout)

    def _raise_cancelled(
        self,
        exc: QueryCancelled,
        query: ConjunctiveQuery,
        verb: str,
        strategy: str,
        start: float,
        timeout: Optional[float],
    ) -> "NoReturn":
        """Map a VM-level :class:`QueryCancelled` onto the API error types.

        Builds a partial :class:`QueryResult` from whatever execution state
        the VM recorded before the token fired, then raises
        :class:`QueryTimeout` (deadline expiry) or
        :class:`QueryCancelledError` (explicit cancel).
        """
        execution = exc.execution
        partial = QueryResult(
            query=query,
            answer=False,
            strategy=strategy,
            seconds=time.perf_counter() - start,
            verb=verb,
            output_variables=tuple(query.output_variables),
            timed_out=execution.timed_out,
            execution=execution,
        )
        if execution.timed_out:
            raise QueryTimeout(query, verb, timeout, partial) from None
        raise QueryCancelledError(query, verb, partial) from None

    def _ask(
        self,
        query: ConjunctiveQuery,
        strategy: str = "auto",
        *,
        omega: Optional[float] = None,
        plan: Optional[OmegaQueryPlan] = None,
        verb: str = "exists",
        select_options: Optional[SelectOptions] = None,
        timeout: Optional[float] = None,
        token: Optional[CancellationToken] = None,
    ) -> QueryResult:
        """The shared verb executor behind exists/count/select."""
        start = time.perf_counter()
        omega_value = self.omega if omega is None else omega
        if token is None and timeout is not None:
            token = CancellationToken.with_deadline(timeout)
        self.database.validate_against(query)
        if plan is not None:
            if verb != "exists":
                raise ValueError(
                    "explicit plans apply to the 'exists' verb only; the "
                    "ω-engine is a decision procedure"
                )
            if strategy == "auto":
                strategy = "omega"
        strategy_key, resolved = self._resolve_supported(query, strategy, verb)
        if plan is not None and not resolved.uses_plans:
            raise ValueError(
                f"strategy {strategy_key!r} does not execute plans; an explicit "
                "plan requires a plan-based strategy such as 'omega'"
            )
        if token is not None:
            # Pre-planning cancellation point: an already-expired deadline
            # (timeout=0) fails deterministically before any work.
            self._check_token(token, query, verb, strategy_key, start, timeout)

        incremental_key = None
        versions_before: Optional[Dict[str, int]] = None
        if (
            verb in ("exists", "count")
            and strategy == "auto"
            and plan is None
            and select_options is None
        ):
            # Only "auto" asks use the store: naming a strategy is a
            # request about *how* to execute (plan provenance, strategy
            # comparison, differential tests), so it always runs live.
            incremental_key = self._incremental_key(query, verb)
            patched = self._try_patch(
                incremental_key, query, verb, strategy_key, start
            )
            if patched is not None:
                return patched
            versions_before = {
                atom.relation: self.database.relation_version(atom.relation)
                for atom in query.atoms
            }

        planned: Optional[PlannedQuery] = None
        plan_seconds = 0.0
        cache_hit = False
        plan_source = "none"
        program: Optional[Program] = None
        if plan is not None:
            plan_source = "given"
        elif resolved.uses_plans and verb == "exists":
            plan, planned, cache_hit, plan_seconds, program = self._obtain_plan(
                strategy_key, resolved, query, omega_value
            )
            plan_source = "cache" if cache_hit else "planner"

        execute_start = time.perf_counter()
        if program is None:
            program = self._lower(
                resolved, query, omega_value, plan, verb, select_options
            )
        row_count: Optional[int] = None
        relation: Optional[Relation] = None
        stream: Optional[EnumerationStream] = None
        # Run the lowered program on the shared VM (per-operator traces,
        # cross-query intermediate-result cache).
        vm = VirtualMachine(
            self.database,
            result_cache=self._result_cache,
            dispatcher=self.dispatcher,
            token=token,
        )
        try:
            execution = vm.run(program)
        except QueryCancelled as exc:
            self._raise_cancelled(exc, query, verb, strategy_key, start, timeout)
        if verb == "count":
            row_count = execution.row_count
        elif verb == "select":
            stream = execution.stream
            if stream is None:
                relation = execution.relation
                if relation is None:  # pragma: no cover - defensive
                    raise RuntimeError(
                        "select program produced no relation payload"
                    )
                row_count = len(relation)
            # Streaming runs leave relation/row_count None: the output
            # only exists as the cursor is pulled.
        execute_seconds = time.perf_counter() - execute_start
        if incremental_key is not None and versions_before is not None:
            current = {
                name: self.database.relation_version(name)
                for name in versions_before
            }
            # A mutation racing the execution makes the answer's base
            # version ambiguous — store nothing rather than something a
            # later patch could replay deltas onto twice.
            if current == versions_before and (
                verb == "exists" or row_count is not None
            ):
                answer_value = execution.answer if verb == "exists" else row_count
                self._incremental_store.put(
                    incremental_key,
                    IncrementalEntry(answer_value, current, self.database.uid),
                )
        return QueryResult(
            query=query,
            answer=execution.answer,
            strategy=strategy_key,
            seconds=time.perf_counter() - start,
            verb=verb,
            output_variables=tuple(query.output_variables),
            row_count=row_count,
            plan_seconds=plan_seconds,
            execute_seconds=execute_seconds,
            cache_hit=cache_hit,
            plan_source=plan_source,
            plan=plan,
            planned=planned,
            plan_search=dict(planned.search) if planned is not None else {},
            execution=execution,
            program=program,
            relation=relation,
            stream=stream,
        )

    def ask_many(
        self,
        queries: Iterable[ConjunctiveQuery],
        strategy: str = "auto",
        *,
        omega: Optional[float] = None,
        verb: str = "exists",
        limit: Optional[int] = None,
        order: Optional[str] = None,
    ) -> List[QueryResult]:
        """Answer a batch of queries, one ask per query in input order.

        ``verb`` may be ``"exists"`` (the default), ``"count"`` or
        ``"select"`` — every query in the batch runs under that verb.  A
        ``"select"`` batch returns lazy
        :class:`~repro.api.results.ResultSet` cursors (one per query, in
        input order) with ``limit``/``order`` threaded through to each;
        nothing executes until a cursor is pulled, and isomorphic batch
        members still share work at pull time through the VM's
        intermediate-result cache.  ``limit``/``order`` are select-only.

        Plans are shared the one way every ask shares them: through the
        plan cache, so isomorphic members after the first report
        ``plan_source == "cache"``, exactly as sequential asks would.
        """
        if verb == "select":
            return [  # type: ignore[return-value]
                self.select(query, strategy, omega=omega, limit=limit, order=order)
                for query in list(queries)
            ]
        if verb not in ("exists", "count"):
            raise ValueError(
                f"ask_many supports the 'exists', 'count' and 'select' verbs, "
                f"not {verb!r}"
            )
        if limit is not None or order is not None:
            raise ValueError(
                "limit/order apply to the 'select' verb only"
            )
        return [self._ask(q, strategy, omega=omega, verb=verb) for q in queries]

    def explain(
        self,
        query: ConjunctiveQuery,
        strategy: str = "auto",
        *,
        omega: Optional[float] = None,
        include_widths: bool = False,
        verb: str = "exists",
    ) -> Explanation:
        """Report the chosen strategy and plan without executing the query.

        ``verb`` selects which workload's program is shown — an
        enumeration ``explain`` renders the reduce-then-join DAG (and, for
        Yannakakis, names the join tree's root and the atoms it joins) where
        the Boolean one shows the upward semijoin pass.  For plan-based
        strategies the plan is obtained through the same cache path as
        :meth:`exists` (so explaining a query warms the cache for the ask that
        follows).  With ``include_widths=True`` the report also carries the
        classical width measures ρ* and fhtw of the query hypergraph.
        """
        omega_value = self.omega if omega is None else omega
        self.database.validate_against(query)
        strategy_key, resolved = self._resolve_supported(query, strategy, verb)
        plan: Optional[OmegaQueryPlan] = None
        planned: Optional[PlannedQuery] = None
        cache_hit = False
        if resolved.uses_plans and verb == "exists":
            plan, planned, cache_hit, _, program = self._obtain_plan(
                strategy_key, resolved, query, omega_value
            )
        else:
            program = self._lower(resolved, query, omega_value, plan, verb)
        widths: Dict[str, float] = {}
        if include_widths:
            from ..width import (
                fractional_edge_cover_number,
                fractional_hypertree_width,
            )

            hypergraph = query.hypergraph()
            widths["fractional edge cover ρ*"] = fractional_edge_cover_number(
                hypergraph
            )
            widths["fractional hypertree width"] = fractional_hypertree_width(
                hypergraph
            ).value
        return Explanation(
            query=query,
            strategy=strategy_key,
            is_acyclic=query.is_acyclic(),
            num_variables=len(query.variables),
            num_atoms=len(query.atoms),
            verb=verb,
            output_variables=tuple(query.output_variables),
            cache_hit=cache_hit,
            plan=plan,
            planned=planned,
            widths=widths,
            program=program,
        )

    def verify(
        self,
        query: ConjunctiveQuery,
        strategy: str = "auto",
        *,
        omega: Optional[float] = None,
        verb: str = "exists",
    ):
        """Lower the query and statically verify the optimized program.

        Returns the list of :class:`~repro.analysis.verify.Violation`
        objects (empty when the program is sound) instead of raising, so
        callers — ``EXPLAIN VERIFY`` and the ``repro verify`` CLI verb —
        can render every violation at once.  Runs regardless of the
        engine's ``verify_plans`` setting; when that setting already
        verifies eagerly, the violations are recovered from the raised
        :class:`~repro.api.errors.PlanVerificationError`.
        """
        from ..analysis.verify import verify_program

        try:
            explanation = self.explain(query, strategy, omega=omega, verb=verb)
        except PlanVerificationError as error:
            return list(error.violations)
        return verify_program(explanation.program, verb=verb, database=self.database)

    def compare(
        self,
        query: ConjunctiveQuery,
        strategies: Optional[Sequence[str]] = None,
        *,
        omega: Optional[float] = None,
        verb: str = "exists",
    ) -> Dict[str, QueryResult]:
        """Run several strategies on the same query; answers must agree.

        The compared value follows the verb — Booleans for ``exists``,
        distinct-output counts for ``count``, the sorted output tuples for
        ``select``.  Raises :class:`StrategyDisagreement` (carrying the
        per-strategy answers) on any mismatch.
        """
        check_verb(verb)
        if strategies is None:
            names = ["naive", "generic_join"]
            if verb == "exists":
                names.append("omega")
            if query.is_acyclic():
                names.append("yannakakis")
        else:
            names = list(strategies)
        results: Dict[str, QueryResult] = {}
        answers: Dict[str, object] = {}
        for name in names:
            if verb == "select":
                result_set = self.select(query, strategy=name, omega=omega)
                answers[name] = tuple(result_set.to_rows())
                results[name] = result_set.result
            else:
                result = self._ask(query, strategy=name, omega=omega, verb=verb)
                results[name] = result
                answers[name] = (
                    result.answer if verb == "exists" else result.row_count
                )
        if len(set(answers.values())) > 1:
            raise StrategyDisagreement(query, answers, results, verb=verb)
        return results

    # ------------------------------------------------------------------
    # Plan-cache management
    # ------------------------------------------------------------------
    def cache_info(self) -> CacheStats:
        """Hit/miss/eviction counters and current size of the plan cache."""
        return self._plan_cache.stats()

    def clear_plan_cache(self) -> None:
        self._plan_cache.clear()

    def result_cache_info(self) -> CacheStats:
        """Counters of the VM's cross-query intermediate-result cache."""
        return self._result_cache.stats()

    def clear_result_cache(self) -> None:
        self._result_cache.clear()

    # ------------------------------------------------------------------
    # Incremental answer patching (exists/count under logged deltas)
    # ------------------------------------------------------------------
    @staticmethod
    def _incremental_key(query: ConjunctiveQuery, verb: str) -> Hashable:
        """Exact query identity: atom bindings + output head + verb.

        Deliberately name-*sensitive* (unlike plan/result cache keys): a
        patched count is only sound for the very query it was computed
        for, relations, variable wiring and head included.
        """
        return (
            tuple(
                sorted(
                    (atom.relation, tuple(atom.variables)) for atom in query.atoms
                )
            ),
            tuple(query.output_variables),
            verb,
        )

    def _try_patch(
        self,
        key: Hashable,
        query: ConjunctiveQuery,
        verb: str,
        strategy_key: str,
        start: float,
    ) -> Optional[QueryResult]:
        """Answer from the incremental store by replaying logged deltas.

        Returns a finished :class:`QueryResult` (``plan_source ==
        "incremental"``) when every touched relation is unchanged (the
        stored answer is returned as-is, O(1)) or a sound patch rule
        applies to the logged deltas; ``None`` falls through to full
        evaluation — no stored entry, a truncated delta log (entry
        dropped), or deltas violating a rule's soundness conditions — and
        counts the fallback under its reason (:meth:`_fallback`).
        """
        entry = self._incremental_store.get(key)
        if entry is None or entry.db_uid != self.database.uid:
            return self._fallback("no_entry")
        names = {atom.relation for atom in query.atoms}
        # Snapshot before reading the log, as _ask does around execution: a
        # write landing while the deltas are read or the patch runs leaves
        # the patched answer's base version ambiguous, so it is not stored.
        versions = {name: self.database.relation_version(name) for name in names}
        deltas: Dict[str, Tuple] = {}
        for name in sorted(names):
            base = entry.versions.get(name)
            replay = (
                None if base is None else self.database.deltas_since(name, base)
            )
            if replay is None:
                self._incremental_store.drop(key)
                return self._fallback("truncated_log")
            if replay:
                deltas[name] = replay
        if not deltas:
            # Versions bump on every mutation, so all-equal versions mean
            # the query's relations are bit-for-bit unchanged: the stored
            # answer holds verbatim.  Mutations to *other* relations land
            # here — per-relation keys make them invisible.
            self._incremental_store.record_reuse()
            answer = entry.answer
            return QueryResult(
                query=query,
                answer=bool(answer) if verb == "exists" else int(answer) > 0,
                strategy=strategy_key,
                seconds=time.perf_counter() - start,
                verb=verb,
                output_variables=tuple(query.output_variables),
                row_count=None if verb == "exists" else int(answer),
                cache_hit=True,
                plan_source="incremental",
            )
        if verb == "exists":
            patched = self._patch_exists(entry, deltas, query, strategy_key)
        else:
            patched = self._patch_count(entry, deltas, query, strategy_key)
        if patched is None:
            return None
        if versions == {name: self.database.relation_version(name) for name in names}:
            self._incremental_store.put(
                key, IncrementalEntry(patched, versions, self.database.uid)
            )
        self._incremental_store.record_patch()
        if verb == "exists":
            answer, row_count = bool(patched), None
        else:
            answer, row_count = int(patched) > 0, int(patched)
        return QueryResult(
            query=query,
            answer=answer,
            strategy=strategy_key,
            seconds=time.perf_counter() - start,
            verb=verb,
            output_variables=tuple(query.output_variables),
            row_count=row_count,
            plan_source="incremental",
        )

    def _patch_exists(
        self,
        entry: IncrementalEntry,
        deltas: Dict[str, Tuple],
        query: ConjunctiveQuery,
        strategy_key: str,
    ) -> Optional[bool]:
        """Patch a Boolean answer, or ``None`` when no rule is sound.

        ``exists`` is monotone: inserts can only flip ``False → True`` and
        deletes only ``True → False``, so a ``True`` under pure inserts
        (and a ``False`` under pure deletes) is free.  A ``False`` under
        pure inserts needs work, but only on the deltas: any new witness
        must use at least one inserted tuple, so ``Q(old ∪ Δ) = ∨_R
        Q[R := Δ_R, others := current]`` — each disjunct a query with one
        tiny relation.  That decomposition replaces *relations*, not
        atoms; it is sound because a query's atoms name distinct relations
        (:class:`~repro.db.query.ConjunctiveQuery` rejects self-joins).
        """
        kinds = {kind for replay in deltas.values() for kind, _ in replay}
        if entry.answer is True and kinds == {"insert"}:
            return True
        if entry.answer is False and kinds == {"delete"}:
            return False
        if entry.answer is False and kinds == {"insert"}:
            for name, replay in deltas.items():
                rows = [row for _, batch in replay for row in batch]
                if self._patch_ask(query, strategy_key, "exists", name, rows).answer:
                    return True
            return False
        return self._fallback("no_rule")

    def _patch_count(
        self,
        entry: IncrementalEntry,
        deltas: Dict[str, Tuple],
        query: ConjunctiveQuery,
        strategy_key: str,
    ) -> Optional[int]:
        """Patch a distinct-output count, or ``None`` when not sound.

        Delta counting needs every output tuple to pin the mutated
        relation's row, so contributions never collide: exactly one
        relation mutated (it feeds one atom: atoms name distinct
        relations), and that atom's variables all appear in the output
        head.  The logged batches fold into one *net* delta
        (:func:`_net_delta`; exact, as the log has set semantics), and an
        output tuple is added/removed exactly when its pinned R-row is
        net-inserted/-deleted: the count moves by ``count(Q[R := Δ⁺]) −
        count(Q[R := Δ⁻])``, others current — at most two evaluations.
        """
        if len(deltas) != 1:
            return self._fallback("multi_relation")
        ((name, replay),) = deltas.items()
        (atom,) = [atom for atom in query.atoms if atom.relation == name]
        if not set(atom.variables) <= set(query.output_variables):
            return self._fallback("unpinned_head")
        count = int(entry.answer)
        inserted, deleted = _net_delta(replay)
        if inserted:
            count += self._patch_ask(
                query, strategy_key, "count", name, inserted
            ).row_count
        if deleted:
            count -= self._patch_ask(
                query, strategy_key, "count", name, deleted
            ).row_count
        return count

    def _fallback(self, reason: str) -> None:
        """Count one store fallback under its reason; the ask runs in full."""
        self._incremental_store.record_fallback(reason)

    def _ensure_patch_engine(self) -> "QueryEngine":
        if self._patch_engine is None:
            self._patch_engine = QueryEngine(Database(), omega=self.omega)
        return self._patch_engine

    def _patch_ask(
        self,
        query: ConjunctiveQuery,
        strategy_key: str,
        verb: str,
        delta_name: str,
        rows: List,
    ) -> QueryResult:
        """Evaluate ``Q[delta_name := rows, others := current]``.

        Runs on a persistent sibling engine whose database swaps relations
        via the epoch-stable ``_set_for_patch`` hook: one cached plan
        serves every patch evaluation, and unchanged relations keep their
        version (their object identity is checked before swapping) so the
        patch VM's result cache reuses calibrated subtrees across patches.
        The ask names the strategy ``"auto"`` resolved to for ``query``, so
        the sibling never consults (or fills) its own incremental store.
        """
        engine = self._ensure_patch_engine()
        patch_db = engine.database
        for name in {atom.relation for atom in query.atoms}:
            if name == delta_name:
                relation = Relation(self.database[name].schema, rows)
            else:
                relation = self.database[name]
                if patch_db._relations.get(name) is relation:
                    continue
            patch_db._set_for_patch(name, relation)
        return engine._ask(query, strategy_key, verb=verb)

    def _atom_sizes(self, query: ConjunctiveQuery) -> Tuple[Tuple[Tuple[str, ...], int], ...]:
        """Per-atom relation *size classes* in canonical variable space.

        The shape signature deliberately forgets which relations the atoms
        bind to (so renamed isomorphic queries share plans), but plans are
        *costed* against the actual relation statistics — the cache key
        includes these sizes so two same-shaped queries over
        differently-sized relations are planned separately.  Sizes
        enter as log₂ buckets (``bit_length``), not exact counts: a plan
        costed for 100 rows serves 101 rows just as well, and bucketing is
        what keeps plan-cache keys stable across a stream of small
        insert/delete deltas (which bump versions but not epochs).
        """
        mapping = query.canonical_mapping()
        return tuple(
            sorted(
                (
                    tuple(sorted(mapping[v] for v in atom.variables)),
                    len(self.database[atom.relation]).bit_length(),
                )
                for atom in query.atoms
            )
        )

    def _lower(
        self,
        strategy: Strategy,
        query: ConjunctiveQuery,
        omega: float,
        plan: Optional[OmegaQueryPlan],
        verb: str = "exists",
        select_options: Optional[SelectOptions] = None,
    ) -> Program:
        """Lower a strategy to an optimized program.

        Select limit/order options go to strategies declaring
        ``supports_select_options`` (Yannakakis pushes them into the
        top-down enumeration join); for every other strategy they are
        stamped onto the optimized program's enumeration root, which
        streams the materialized output without re-sorting it.

        This is also where the dispatcher routes sorted deliveries: a
        sorted select whose limit fits
        :meth:`~repro.exec.dispatch.KernelDispatcher.ranked_enumeration`
        is rewritten to ``order="ranked"`` before lowering, so the
        strategy hands back an any-k cursor that pops the first ``k``
        tuples of the deterministic order without scanning the output.
        (Safe to rewrite here: select programs are never plan-cached.)
        Sorted selects past the cap — and unlimited ones — stay
        non-streaming and materialize once.
        """
        if (
            verb == "select"
            and select_options is not None
            and self.dispatcher.ranked_enumeration(
                select_options.limit, select_options.order
            )
        ):
            select_options = SelectOptions(select_options.limit, "ranked")
        kwargs = {}
        if select_options is not None and strategy.supports_select_options:
            kwargs["select_options"] = select_options
        program = strategy.lower(
            query, self.database, omega, plan=plan, verb=verb, **kwargs
        )
        program, _ = optimize_program(program)
        if (
            verb == "select"
            and select_options is not None
            and select_options.streaming
        ):
            program = apply_select_options(program, select_options)
        if self.verify_plans == "optimized":
            assert_verified(program, verb=verb, database=self.database)
        return program

    def _plan_fingerprint(self, query: ConjunctiveQuery) -> Hashable:
        """Epochs of the query's relations, keyed by canonical atom scope.

        Name-*insensitive*: isomorphic queries over different relations
        with equal epochs still share a cached plan (the binding check in
        :meth:`_obtain_plan` re-lowers when the atom→relation wiring
        differs), while a structural mutation of any touched relation
        bumps its epoch and misses.  Relations the query never reads are
        absent entirely, so mutating them evicts nothing.
        """
        mapping = query.canonical_mapping()
        return (
            self.database.uid,
            tuple(
                sorted(
                    (
                        tuple(sorted(mapping[v] for v in atom.variables)),
                        self.database.relation_epoch(atom.relation),
                    )
                    for atom in query.atoms
                )
            ),
        )

    def _canonical_binding(
        self, query: ConjunctiveQuery, mapping: Dict[str, str]
    ) -> Tuple:
        """Which relation each canonical atom binds to, column order included.

        A cached program scans concrete relations with a fixed positional
        column→variable correspondence, so reuse requires the requesting
        query to bind the same relations with the same *ordered* canonical
        scopes.  (The shape signature sorts within atoms — two queries can
        share a signature while wiring a relation's columns differently, so
        the order must be preserved here or a cached program would answer
        for the wrong query.)
        """
        return tuple(
            sorted(
                (tuple(mapping[v] for v in atom.variables), atom.relation)
                for atom in query.atoms
            )
        )

    def _obtain_plan(
        self,
        strategy_key: str,
        strategy: Strategy,
        query: ConjunctiveQuery,
        omega: float,
    ) -> Tuple[OmegaQueryPlan, Optional[PlannedQuery], bool, float, Program]:
        """Fetch a plan (and its lowered program) from the cache, or build both.

        Returns ``(plan, planned-or-None, cache_hit, plan_seconds,
        program)``.  Cache entries hold the plan *and* the
        optimized IR in canonical variable space; a hit renames them into
        the query's variables.  If the hit's atom→relation binding differs
        (isomorphic query over different relations), the plan is reused and
        the program re-lowered.
        """
        mapping = query.canonical_mapping()
        # Only ω ``exists`` plans are cached, and ``exists`` ignores the
        # query head, so the shape is the body signature alone: Q() and
        # Q(X) over one body share a single cached plan.
        key: PlanCacheKey = (
            strategy_key,
            (query.shape_signature(), self._atom_sizes(query)),
            omega,
            # Only the touched relations' epochs: mutating an unrelated
            # relation no longer evicts this entry, and small deltas (which
            # bump versions, not epochs) keep hitting it.
            self._plan_fingerprint(query),
        )
        binding = self._canonical_binding(query, mapping)
        cached = self._plan_cache.get(key)
        if cached is not None:
            inverse = {c: variable for variable, c in mapping.items()}
            plan = cached.plan.rename(inverse)
            if cached.binding == binding:
                return plan, None, True, 0.0, cached.program.rename(inverse)
            # Same shape, different atom wiring: the plan is reused but the
            # IR must be lowered afresh — report that work as planning time
            # rather than hiding it.
            relower_start = time.perf_counter()
            program = self._lower(strategy, query, omega, plan)
            return plan, None, True, time.perf_counter() - relower_start, program
        plan_start = time.perf_counter()
        planned = strategy.plan(query, self.database, omega)
        program = self._lower(strategy, query, omega, planned.plan)
        plan_seconds = time.perf_counter() - plan_start
        self._plan_cache.put(
            key,
            CachedPlanEntry(
                plan=planned.plan.rename(mapping),
                program=program.rename(mapping),
                binding=binding,
            ),
        )
        return planned.plan, planned, False, plan_seconds, program

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.cache_info()
        return (
            f"QueryEngine({self.database!r}, omega={self.omega}, "
            f"cache={stats.size}/{stats.maxsize})"
        )


def _strategy(key: str) -> Strategy:
    """The built-in strategy named ``key``."""
    try:
        return STRATEGIES[key]
    except KeyError:
        raise UnknownStrategyError(key, tuple(sorted(STRATEGIES))) from None


def _net_delta(replay: Sequence[Tuple[str, Tuple]]) -> Tuple[List, List]:
    """Fold chronological ``(kind, rows)`` batches into net ``(inserted, deleted)``.

    The log has set semantics (a row is logged only when it changed), so a
    row's kinds alternate: it is net-inserted when its first and last kinds
    are both ``insert``, net-deleted when both are ``delete``, and cancels
    otherwise.  Rows keep their first-logged order.
    """
    first: Dict = {}
    last: Dict = {}
    for kind, rows in replay:
        for row in rows:
            first.setdefault(row, kind)
            last[row] = kind
    net = [row for row, kind in first.items() if last[row] == kind]
    return [r for r in net if first[r] == "insert"], [r for r in net if first[r] == "delete"]
