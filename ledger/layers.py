"""The traced round of the in-process workloads: spans and layer replays.

Every layer is measured from outside: a span around each public call the
op makes, then — under a ``replay`` span — one call into each layer's own
public function for the same query (``parse_query``, ``strategy.plan``,
``strategy.lower``, ``optimize_program``, ``verify_program``,
``VirtualMachine.run``), plus what the program already returns
(``QueryResult.execution.operators``, ``cache_info()``,
``result_cache_info()``, ``incremental_info()``, ``OptimizeStats``).
The replays never touch the engine's caches, so the counters read at the
end are those of the ops alone and repeat exactly for a seed.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.analysis.verify import verify_program
from repro.db.query import parse_query
from repro.exec import VirtualMachine, optimize_program
from repro.exec.lower import SelectOptions
from repro.lang.parser import parse_statement
from repro.matmul.boolean import boolean_multiply, matrix_from_pairs
from repro.matmul.cost import predicted_triangle_exponent

from . import bench, inprocess, instances
from .bench import Sample, median_ms, percentile
from .inprocess import Context
from .instances import Instance, Op
from .spans import Tracer

#: The share of ``--seconds`` the bare pass of a traced round is sized for
#: (the traced pass repeats it with replays, at two to three times the cost).
BARE_SHARE = 0.25

#: Spans whose median self time is reported as ``<span>_ms``.
LAYER_SPANS = (
    "lang.parse",
    "db.query.parse",
    "db.query.canon",
    "core.planner.plan",
    "exec.lower.lower",
    "exec.optimize.optimize",
    "analysis.verify.verify",
    "exec.vm.run",
    "matmul.fill",
    "matmul.multiply",
    "db.backends.semijoin",
    "db.backends.join",
    "db.backends.count_distinct",
    "db.backends.append",
    "db.backends.delete",
    "db.database.insert",
    "db.database.delete",
)

VM_KINDS = (
    "scan", "semijoin", "multisemijoin", "join", "project",
    "count", "enumerate", "groupedmatmul", "wcoj", "nonempty",
)  # fmt: skip

PROBE_REPEATS = 5
SWEEP_OPS = 5


def fixed_ops(rate: float, seconds: float, smoke_ops: Optional[int]) -> int:
    """How many ops a traced round runs: fixed by the arguments, never by the clock.

    ``smoke_ops`` is the count of a ``--smoke`` run, ``None`` otherwise.
    """
    return smoke_ops or max(40, round(rate * seconds * BARE_SHARE))


class Probe:
    """Runs the ops of the traced pass and collects what the layers report."""

    def __init__(self, context: Context, instance: Instance) -> None:
        self.context = context
        self.instance = instance
        self.engine = context.engine
        self.tracer = Tracer()
        self.counts: Counter = Counter()
        self.kind_seconds: Counter = Counter()
        self.overheads: List[float] = []
        self.decode_rows = 0
        self.decode_seconds = 0.0

    # -- the op itself ---------------------------------------------------
    def run(self, index: int, op: Op) -> Sample:
        context = self.context
        context.chill()
        with self.tracer.span("op", index) as span:
            try:
                with self.tracer.span("call", index):
                    observed, result = self._call(index, op)
                error = None
            except Exception as exc:
                observed, result, error = None, None, f"{type(exc).__name__}: {exc}"
            if result is not None:
                self._harvest(op, result)
                with self.tracer.span("replay", index):
                    self._replay(index, op, result)
        return Sample(op, observed, span["end"] - span["start"], 0, error)

    def _call(self, index: int, op: Op):
        """``Context.call``, with a select split at its first row."""
        if op.verb != "select":
            return self.context.call(op)
        start = time.perf_counter()
        with self.tracer.span("api.results.ttfr", index):
            rows = self.engine.select(
                parse_query(op.text), self.context.config.strategy,
                limit=op.limit, order=op.order,
            )  # fmt: skip
            rows.fetch(1)
        observed = rows.to_rows()
        self.decode_rows += len(observed)
        # What is left of the call once the engine's own run is taken out:
        # pulling the cursor and decoding rows.
        self.decode_seconds += time.perf_counter() - start - rows.result.seconds
        return observed, rows.result

    def _harvest(self, op: Op, result) -> None:
        """Read the per-operator traces the engine already returns."""
        if result.plan_source != "incremental" and self.context.config.strategy == "auto":
            if op.verb in ("exists", "count"):
                self.counts["api.engine.incremental_fallbacks"] += 1
        if result.execution is None:
            return
        for trace in result.execution.operators:
            self.counts["exec.vm.ops_evaluated"] += 1
            self.counts["exec.vm.heap_pops"] += trace.heap_pops
            if trace.kind in VM_KINDS:
                self.counts[f"exec.vm.rows_out.{trace.kind}"] += trace.rows_out
                self.kind_seconds[trace.kind] += trace.seconds
            if trace.kind == "groupedmatmul" and trace.matrix_shape:
                self.counts["exec.vm.mm_group_count"] += trace.group_count
                self.counts["exec.vm.mm_cells"] += math.prod(trace.matrix_shape)

    # -- the layers, one public function each ----------------------------
    def _replay(self, index: int, op: Op, result) -> None:
        def span(name: str):
            return self.tracer.span(name, index)

        engine, database = self.engine, self.engine.database
        rule = op.text
        if self.context.session is not None:
            with span("lang.parse"):
                parse_statement(op.text)
            rule = op.text.split(" ", 1)[1]
        with span("db.query.parse"):
            query = parse_query(rule)
        with span("db.query.canon"):
            query.shape_signature()
            query.canonical_mapping()
        strategy = engine.resolve_strategy(query, self.context.config.strategy, op.verb)
        plan = None
        if strategy.uses_plans and op.verb == "exists":
            with span("core.planner.plan"):
                plan = strategy.plan(query, database, engine.omega).plan
        options = {}
        if op.verb != "exists":
            options["verb"] = op.verb
        if op.verb == "select" and strategy.supports_select_options:
            order = op.order or "stream"
            if engine.dispatcher.ranked_enumeration(op.limit, order):
                order = "ranked"
            options["select_options"] = SelectOptions(op.limit, order)
        with span("exec.lower.lower"):
            program = strategy.lower(query, database, engine.omega, plan=plan, **options)
        self.counts["exec.lower.ops_emitted"] += len(program)
        with span("exec.optimize.optimize"):
            program, stats = optimize_program(program)
        self.counts["exec.optimize.ops_removed"] += stats.nodes_before - stats.nodes_after
        self.counts["exec.optimize.semijoins_fused"] += stats.semijoins_fused
        self.counts["exec.optimize.cse_merged"] += stats.cse_merged
        with span("analysis.verify.verify"):
            verify_program(program, verb=op.verb, database=database)
        if op.verb != "select" and result.program is not None:
            # A bare VM on the same program: no result cache, no engine.
            with span("exec.vm.run") as run:
                VirtualMachine(database, dispatcher=engine.dispatcher).run(program)
            self.overheads.append(result.seconds - (run["end"] - run["start"]))

    # -- kernels on the workload's own relations -------------------------
    def kernels(self) -> None:
        """Backend and database kernels, outside any engine."""
        database = self.engine.database
        first, second = sorted(database)[:2]
        left, right = database[first], database[second]
        if not set(left.schema) & set(right.schema) or left.schema == right.schema:
            # Binary tables share the schema (A, B): chain them on B.
            right = right.rename({"A": "B", "B": "C"})
        shared = sorted(set(left.schema) & set(right.schema))
        present = next(iter(self.instance.tables[first][1]))
        absent = (10**9, 10**9 + 1)
        shadow = database.copy()
        span = self.tracer.span
        for _ in range(PROBE_REPEATS):
            with span("db.backends.semijoin"):
                left.semijoin(right)
            with span("db.backends.join"):
                left.join(right)
            with span("db.backends.count_distinct"):
                left.count_distinct(shared)
            with span("db.backends.append"):
                left.insert_rows([absent])
            with span("db.backends.delete"):
                left.delete_rows([present])
            with span("db.database.insert"):
                shadow.insert(first, [absent])
            with span("db.database.delete"):
                shadow.delete(first, [absent])

    def blas_floor(self) -> None:
        """The same product straight on ``matmul``: what the MM operator could cost."""
        tables = self.instance.tables
        index = {v: v for v in range(self.instance.size["domain"])}
        span = self.tracer.span
        for _ in range(PROBE_REPEATS):
            with span("matmul.fill"):
                left = matrix_from_pairs(tables["R"][1], index, index)
                right = matrix_from_pairs(tables["S"][1], index, index)
            with span("matmul.multiply"):
                boolean_multiply(left, right)


def _fit_exponent(points: List[Tuple[int, float]]) -> float:
    """Least-squares slope of log time on log N."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def scaling_sweep(instance: Instance, repeats: int = SWEEP_OPS) -> Dict[str, float]:
    """Both triangle strategies at N/4, N/2 and N, result-cold."""
    query = parse_query(next(instance.ops()).text)
    rng = random.Random(f"sweep/{instance.seed}")
    medians: Dict[str, List[Tuple[int, float]]] = {"omega": [], "generic_join": []}
    for divisor in (4, 2, 1):
        rows = instance.size["rows"] // divisor
        # Constant density: the domain shrinks with the square root of N.
        domain = 2 * round(instance.size["domain"] / math.sqrt(divisor) / 2)
        engine = inprocess.load(instances.triangle_tables(rng, rows, domain))
        for strategy, points in medians.items():
            times = []
            for _ in range(repeats + 1):
                engine.clear_result_cache()
                start = time.perf_counter()
                engine.exists(query, strategy)
                times.append(time.perf_counter() - start)
            points.append((rows, statistics.median(times[1:])))
    return {
        "scaling.omega_fit_exponent": _fit_exponent(medians["omega"]),
        "scaling.wcoj_fit_exponent": _fit_exponent(medians["generic_join"]),
        "scaling.predicted_omega_exponent": predicted_triangle_exponent(),
        "crossover.omega_over_wcoj_ratio": medians["omega"][-1][1]
        / medians["generic_join"][-1][1],
    }


def _same(op: Op, bare, traced) -> bool:
    if op.verb == "select" and bare is not None and traced is not None:
        return sorted(map(tuple, bare)) == sorted(map(tuple, traced))
    return bare == traced


def traced_round(
    instance: Instance, context: Context, seconds: float, smoke: bool
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """A fixed op list run bare, then again on a fresh set-up with tracing."""
    workload = instance.workload
    config = context.config
    count = fixed_ops(config.rate, seconds, config.smoke_ops if smoke else None)
    values: Dict[str, float] = dict(bench.calibrate())

    bare = inprocess.run_fixed(context, count)
    verdict = bench.judge(instance, context.warmup + bare, config.oracle_cap)
    context.engine.close()

    _, context = inprocess.setup(workload, instance.seed, smoke)
    engine = context.engine
    probe = Probe(context, instance)
    before = (engine.cache_info(), engine.result_cache_info(), engine.incremental_info())
    epochs = {name: engine.database.relation_epoch(name) for name in engine.database}
    ops = instances.take(instance, config.warmup + count)[config.warmup :]
    traced = [probe.run(index, op) for index, op in enumerate(ops)]
    after = (engine.cache_info(), engine.result_cache_info(), engine.incremental_info())
    # The traced pass must see what the bare pass saw, op for op.
    verdict["failed"] += sum(
        1 for b, t in zip(bare, traced) if not _same(b.op, b.observed, t.observed)
    )

    probe.kernels()
    if workload.endswith("-triangle"):
        if probe.counts["exec.vm.mm_cells"]:
            probe.blas_floor()
        values.update(scaling_sweep(instance, 2 if smoke else SWEEP_OPS))

    self_seconds = probe.tracer.self_seconds()
    for name in LAYER_SPANS:
        values[f"{name}_ms"] = median_ms(self_seconds.get(name, ()))
    plans = self_seconds.get("core.planner.plan")
    values["core.planner.plan_p90_ms"] = percentile(plans, 0.9) * 1e3 if plans else 0.0
    values["api.results.ttfr_p50_ms"] = median_ms(self_seconds.get("api.results.ttfr", ()))
    if probe.decode_seconds > 0:
        values["api.results.decode_rows_per_s"] = probe.decode_rows / probe.decode_seconds
    values["api.engine.overhead_ms"] = median_ms(probe.overheads)
    for kind in VM_KINDS:
        values[f"exec.vm.self_ms.{kind}"] = probe.kind_seconds[kind] * 1e3 / count
    fill_multiply = values["matmul.fill_ms"] + values["matmul.multiply_ms"]
    if fill_multiply:
        values["exec.vm.mm_over_blas_ratio"] = (
            values["exec.vm.self_ms.groupedmatmul"] / fill_multiply
        )
    values.update({name: float(total) for name, total in probe.counts.items()})

    def ratio(hits: int, misses: int) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    (plans0, results0, store0), (plans1, results1, store1) = before, after
    values["api.engine.plan_cache_hit_ratio"] = ratio(
        plans1.hits - plans0.hits, plans1.misses - plans0.misses
    )
    values["exec.vm.result_cache_hit_ratio"] = ratio(
        results1.hits - results0.hits, results1.misses - results0.misses
    )
    values["api.engine.incremental_patched"] = store1["patched"] - store0["patched"]
    values["api.engine.incremental_reused"] = store1["reused"] - store0["reused"]
    values["db.database.epoch_bumps"] = sum(
        engine.database.relation_epoch(name) - epoch for name, epoch in epochs.items()
    )
    values.update(bench.class_medians(workload, bare))
    values["trace.overhead_share"] = (
        sum(s.seconds for s in traced) / sum(s.seconds for s in bare) - 1.0
    )
    values["aux.oracle_s"] = verdict["oracle_s"]
    values["aux.oracle_checked"] = verdict["checked"]
    probe.tracer.write(
        bench.TRACE_DIR / f"trace_{workload}.json",
        {"workload": workload, "seed": instance.seed, "ops": count},
    )
    engine.close()
    return values, verdict
