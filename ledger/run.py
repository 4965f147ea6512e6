"""One run of one workload: set up, measure, judge, report.

``--trace 0`` measures the end-to-end metrics with no tracing of any
kind; ``--trace 1`` runs a fixed op list twice — once bare, once with the
benchmark's spans and layer replays — and reports the per-layer metrics.
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
from typing import Dict, List, Tuple

from . import bench
from .bench import SETUPS_EACH_SIDE
from .instances import SHARES


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> Dict[str, object]:
    """Run one workload; returns the contract's result object."""
    spec = bench.load_spec()
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit(f"ledger: unknown workload {workload!r}")
    if workload == "serve-hot":
        values, verdict = asyncio.run(_serve_hot(seed, seconds, trace, smoke))
    else:
        values, verdict = _in_process(workload, seed, seconds, trace, smoke)
    declared = spec["per_layer" if trace else "end_to_end"]
    undeclared = set(values) - {m["name"] for m in declared}
    if undeclared:
        raise AssertionError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    if not trace and len(values) != len(declared):
        raise AssertionError("an end-to-end metric was not measured")
    return {
        "correct": verdict["failed"] == 0,
        "attempted": int(verdict["attempted"]),
        "failed": int(verdict["failed"]),
        # A layer that does not run on this workload reports 0.
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared
        },
    }


def render(workload: str, result: Dict[str, object]) -> str:
    """Every metric by name with its unit, one per line."""
    lines = [
        f"workload {workload}: attempted {result['attempted']}, "
        f"failed {result['failed']}, correct {result['correct']}"
    ]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<44} {metric['value']:>14.4f} {metric['unit']}")
    return "\n".join(lines)


def _in_process(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> Tuple[Dict[str, float], Dict[str, float]]:
    start = time.perf_counter()
    from . import inprocess

    import_seconds = time.perf_counter() - start
    config = inprocess.CONFIGS[workload]
    setups: List[float] = []
    context = None

    def set_up():
        if context is not None:
            context.engine.close()
            gc.collect()
        start = time.perf_counter()
        made = inprocess.setup(workload, seed, smoke)
        setups.append(time.perf_counter() - start)
        return made

    for _ in range(1 if smoke or trace else SETUPS_EACH_SIDE):
        instance, context = set_up()
    if trace:
        from . import layers

        values, verdict = layers.traced_round(instance, context, seconds, smoke)
        values["aux.import_s"] = import_seconds
        return values, verdict
    samples = inprocess.measure(context, seconds)
    rss_mb = bench.peak_rss_mb()
    warmup = context.warmup
    for _ in range(0 if smoke else SETUPS_EACH_SIDE):
        _, context = set_up()
    context.engine.close()
    values = bench.end_to_end(SHARES[workload], bench.fastest_rounds(samples), setups, rss_mb)
    return values, bench.judge(instance, warmup + samples, config.oracle_cap)


async def _serve_hot(
    seed: int, seconds: float, trace: bool, smoke: bool
) -> Tuple[Dict[str, float], Dict[str, float]]:
    start = time.perf_counter()
    from . import serve

    import_seconds = time.perf_counter() - start
    setups: List[float] = []
    load = None

    async def set_up():
        if load is not None:
            await serve.teardown(load)
        start = time.perf_counter()
        made = await serve.setup(seed, smoke)
        setups.append(time.perf_counter() - start)
        return made

    try:
        for _ in range(1 if smoke or trace else SETUPS_EACH_SIDE):
            instance, load = await set_up()
        if trace:
            values, verdict = await serve.traced_round(instance, load, seconds, smoke)
            values["aux.import_s"] = import_seconds
            return values, verdict
        samples = await serve.measure(load, seconds)
        measured = load
        for _ in range(0 if smoke else SETUPS_EACH_SIDE):
            _, load = await set_up()
    finally:
        if load is not None:
            await serve.teardown(load)
    # The child reported its peak as it was torn down.
    rss_mb = float(measured.child.report["peak_rss_mb"])
    values = bench.end_to_end(
        SHARES["serve-hot"], bench.fastest_rounds(samples), setups, rss_mb, serve.CONNECTIONS
    )
    return values, bench.judge(instance, measured.warmup + samples, 10**9)


def print_result(workload: str, result: Dict[str, object]) -> None:
    print(render(workload, result))
    print(json.dumps(result), flush=True)
