"""The five in-process workloads: one caller, closed loop, top-level calls only.

The timed region of an op is exactly one public call —
``engine.exists/count/select/insert/delete`` or ``Session.execute`` —
with ``parse_query`` inside it where the workload starts from text.
Cache clearing that defines a workload's temperature happens before the
clock starts.
"""

from __future__ import annotations

import gc
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.api import QueryEngine
from repro.db import Database
from repro.db.query import parse_query
from repro.lang.session import Session

from . import instances
from .bench import ROUND_SECONDS, Sample
from .instances import Instance, Op


@dataclass(frozen=True)
class Config:
    """How one in-process workload drives the engine."""

    warmup: int
    #: Strategy handed to every verb; a named strategy bypasses the
    #: incremental store, ``auto`` uses it.
    strategy: str
    #: Ops are statements for ``Session.execute`` instead of engine verbs.
    session: bool = False
    #: Which engine caches are cleared, off the clock, before every op.
    cold: Tuple[str, ...] = ()
    #: The query is parsed once at set-up, not per op.
    prepared: bool = False
    #: Ops per second on the reference box; sizes the fixed traced pass.
    rate: float = 100.0
    #: Oracle-checked reads per class and run.
    oracle_cap: int = 10**9
    #: Ops of a ``--smoke`` traced round.
    smoke_ops: int = 12


CONFIGS: Dict[str, Config] = {
    "omega-triangle": Config(
        15, "omega", cold=("result",), prepared=True, rate=45, smoke_ops=8
    ),
    "wcoj-triangle": Config(
        3, "generic_join", cold=("result",), prepared=True, rate=11, smoke_ops=8
    ),
    "chain-adhoc": Config(20, "auto", rate=55, oracle_cap=6),
    "updates-mix": Config(40, "auto", rate=140, oracle_cap=5, smoke_ops=40),
    # Warm-up is the one op of every shape that opens the stream.
    "plan-cold": Config(
        len(instances.PLAN_SHAPES), "omega", session=True, cold=("plan", "result"),
        rate=40, smoke_ops=8,
    ),
}  # fmt: skip


@dataclass
class Context:
    """A loaded, warmed-up engine and the op stream positioned after warm-up."""

    config: Config
    engine: QueryEngine
    ops: Iterator[Op]
    session: Optional[Session] = None
    prepared: Optional[object] = None
    warmup: List[Sample] = field(default_factory=list)

    def chill(self) -> None:
        """Bring the caches to the workload's declared temperature (off the clock)."""
        for cache in self.config.cold:
            if cache == "plan":
                self.engine.clear_plan_cache()
            else:
                self.engine.clear_result_cache()

    def call(self, op: Op):
        """The one public call of an op; returns ``(observed, QueryResult-or-None)``."""
        engine, strategy = self.engine, self.config.strategy
        if op.verb == "insert":
            return engine.insert(op.relation, op.rows), None
        if op.verb == "delete":
            return engine.delete(op.relation, op.rows), None
        if self.session is not None:
            result = self.session.execute(op.text).result
            return result.answer, result
        query = self.prepared if self.prepared is not None else parse_query(op.text)
        if op.verb == "exists":
            result = engine.exists(query, strategy)
            return result.answer, result
        if op.verb == "count":
            result = engine.count(query, strategy)
            return result.row_count, result
        rows = engine.select(query, strategy, limit=op.limit, order=op.order)
        return rows.to_rows(), rows.result

    def run(self, op: Op, round_index: int) -> Sample:
        self.chill()
        start = time.perf_counter()
        try:
            observed, _ = self.call(op)
            error = None
        except Exception as exc:  # counted as a failed op, never hidden
            observed, error = None, f"{type(exc).__name__}: {exc}"
        return Sample(op, observed, time.perf_counter() - start, round_index, error)


def load(tables) -> QueryEngine:
    """A default engine over the tables, loaded through the public bulk loader."""
    return QueryEngine(Database(backend="columnar").bulk_load(tables))


def setup(workload: str, seed: int, smoke: bool) -> Tuple[Instance, Context]:
    """Generate, load, build the engine, run the warm-up ops."""
    config = CONFIGS[workload]
    instance = instances.generate(workload, seed, smoke)
    engine = load(instance.tables)
    context = Context(config, engine, instance.ops())
    if config.session:
        context.session = Session(engine=engine, strategy=config.strategy)
    if config.prepared:
        context.prepared = parse_query(next(instance.ops()).text)
    if instance.planted is not None:
        # The planted twin differs by one triangle: an engine that answered
        # False to everything would pass the measured ops and fail here.
        if not load(instance.planted).exists(context.prepared, config.strategy).answer:
            raise AssertionError("the planted triangle was not found")
    for op in itertools.islice(context.ops, config.warmup):
        context.warmup.append(context.run(op, -1))
    return instance, context


def measure(context: Context, seconds: float) -> List[Sample]:
    """Closed loop for ``seconds`` measured seconds, in rounds of ``ROUND_SECONDS``."""
    samples: List[Sample] = []
    round_index = 0
    while seconds > 0:
        # Off the clock, once a measured second: peak memory then tracks what
        # is alive, not when the collector last happened to reach the oldest
        # generation.
        if round_index % 4 == 0:
            gc.collect()
        start = time.perf_counter()
        deadline = start + min(ROUND_SECONDS, seconds)
        while time.perf_counter() < deadline:
            samples.append(context.run(next(context.ops), round_index))
        # What the last op ran over comes off the rounds that follow.
        seconds -= time.perf_counter() - start
        round_index += 1
    return samples


def run_fixed(context: Context, count: int) -> List[Sample]:
    """Exactly ``count`` ops (the traced round's untraced reference pass)."""
    return [context.run(op, 0) for op in itertools.islice(context.ops, count)]
