"""What every workload shares: the declared metrics, samples, statistics."""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .instances import SHARES, Instance, Op
from .oracle import Oracle

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = Path(__file__).resolve().parent / "results" / "traces"

#: A run is split into rounds of this length, and only the fastest quarter of
#: them (by the pace of their ops) is read.  This box spends a quarter to a
#: third of its time 1.5 to 3 times slower, in stretches from a fraction of a
#: second up to 20 s (``ledger/README.md``), and a round caught by that says
#: nothing about the program: a run reports the machine's undisturbed speed
#: whenever a quarter of it, in pieces of any length from a round up, was
#: undisturbed.
ROUND_SECONDS = 0.25
KEEP_SHARE = 0.25


#: A run sets the workload up this many times before it measures and as many
#: times after, 15 s apart, and ``setup_s`` is the second-fastest of the four:
#: the slow stretches of this machine mostly last under 5 s, so one of them
#: slows the set-ups of one side and the figure stays that of the other.
SETUPS_EACH_SIDE = 2


#: Every measured process runs single-threaded BLAS and the engine's shipped
#: defaults, whatever the caller's shell exports.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
REMOVED_ENV = ("REPRO_VERIFY_PLANS", "REPRO_PARALLELISM", "REPRO_BENCH_TINY")


def pin_environment() -> None:
    """Fix the environment and the CPU; call before NumPy or ``repro`` is imported.

    The measuring process stays on the last CPU it may use, and so does
    every child it starts — the server of ``serve-hot`` included.  Left to
    the scheduler on this 2-core box, identical runs gave medians 50 %
    apart: migrations cost the caches, and a client and a server on two
    cores wake each other through the hypervisor on every message.
    """
    for name in REMOVED_ENV:
        os.environ.pop(name, None)
    os.environ.update(PINNED_ENV)
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: the run is still valid, only noisier


def python_loop_seconds(iterations: int) -> float:
    """How long a fixed, allocation-free Python loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i & 7
    return time.perf_counter() - start


def load_spec() -> dict:
    """``BENCHMARK.json``: the one declaration of names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def use_repo_sources() -> None:
    """Put ``src/`` on the path; the ledger measures this checkout's ``repro``."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"ledger: no program to measure under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))


@dataclass
class Sample:
    """One executed operation."""

    op: Op
    observed: object
    seconds: float
    round: int  # -1 for warm-up
    error: Optional[str] = None


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def median_ms(seconds: Iterable[float]) -> float:
    values = list(seconds)
    return statistics.median(values) * 1e3 if values else 0.0


def peak_rss_mb(pid: str = "self") -> float:
    """``VmHWM`` of a process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def typical_latencies(samples: Iterable[Sample]) -> Dict[str, float]:
    """Each class's median latency."""
    by_class: Dict[str, List[float]] = {}
    for sample in samples:
        by_class.setdefault(sample.op.cls, []).append(sample.seconds)
    return {cls: statistics.median(values) for cls, values in by_class.items()}


def round_paces(samples: Iterable[Sample], typical: Dict[str, float]) -> Dict[int, float]:
    """Each round's pace: the median of its ops' latencies over their class's typical one.

    Relative to the class, so a round is not slow for having drawn a slow class.
    """
    ratios: Dict[int, List[float]] = {}
    for sample in samples:
        ratios.setdefault(sample.round, []).append(sample.seconds / typical[sample.op.cls])
    return {r: statistics.median(values) for r, values in ratios.items()}


def fastest_rounds(samples: List[Sample]) -> List[Sample]:
    """The samples of the ``KEEP_SHARE`` of a run's rounds with the lowest pace."""
    paces = round_paces(samples, typical_latencies(samples))
    fastest = sorted(paces, key=paces.get)
    kept = set(fastest[: max(1, round(len(fastest) * KEEP_SHARE))])
    return [sample for sample in samples if sample.round in kept]


def weighted_percentile(weighted: Sequence[Tuple[float, float]], fraction: float) -> float:
    """Nearest-rank percentile of ``(value, weight)`` pairs."""
    ordered = sorted(weighted)
    target = fraction * sum(weight for _, weight in ordered)
    reached = 0.0
    for value, weight in ordered:
        reached += weight
        if reached >= target * (1 - 1e-12):
            return value
    return ordered[-1][0]


def end_to_end(
    shares: Dict[str, int],
    kept: List[Sample],
    setups: List[float],
    rss_mb: float,
    callers: int = 1,
) -> Dict[str, float]:
    """The end-to-end metrics of one run from the samples of its fastest rounds.

    ``shares`` are the workload's declared class shares and ``callers`` the
    closed-loop callers that ran at once.  Every class counts with its
    declared share, however many of its ops the kept rounds happened to hold.
    """
    by_class: Dict[str, List[float]] = {}
    for sample in kept:
        by_class.setdefault(sample.op.cls, []).append(sample.seconds)
    weighted = [
        (seconds, shares[cls] / len(values))
        for cls, values in by_class.items()
        for seconds in values
    ]
    # Closed loop: each caller completes one op per mean latency.
    mean_latency = sum(
        shares[cls] * statistics.fmean(values) for cls, values in by_class.items()
    ) / sum(shares[cls] for cls in by_class)
    return {
        "setup_s": sorted(setups)[min(1, len(setups) - 1)],
        "op_p50_ms": weighted_percentile(weighted, 0.5) * 1e3,
        "op_p90_ms": weighted_percentile(weighted, 0.9) * 1e3,
        "throughput_ops_s": callers / mean_latency,
        "peak_rss_mb": rss_mb,
    }


def class_medians(workload: str, samples: List[Sample]) -> Dict[str, float]:
    return {
        f"class.{workload}.{cls}.p50_ms": median_ms(
            s.seconds for s in samples if s.op.cls == cls
        )
        for cls in SHARES[workload]
    }


def judge(
    instance: Instance, samples: List[Sample], cap_per_class: int
) -> Dict[str, float]:
    """Replay the run against the oracle; returns attempted/failed counts.

    An op fails when it raised, was refused, or disagrees with the oracle.
    Updates are all checked (their expected effect is a set lookup); of the
    reads, up to ``cap_per_class`` evenly spaced ones per class — the
    oracle is plain Python and must fit the run's time cap.
    """
    started = time.perf_counter()
    measured = [s for s in samples if s.round >= 0]
    chosen = set()
    for cls in SHARES[instance.workload]:
        reads = [
            i for i, s in enumerate(measured)
            if s.op.cls == cls and s.op.verb not in ("insert", "delete")
        ]
        step = max(1, math.ceil(len(reads) / cap_per_class))
        chosen.update(reads[::step])
    oracle = Oracle(instance.tables)
    failed = checked = 0
    position = 0
    for sample in samples:
        op = sample.op
        is_update = op.verb in ("insert", "delete")
        if sample.round >= 0:
            if sample.error is not None:
                failed += 1
            elif is_update or position in chosen:
                checked += 1
                if not oracle.agrees(op, sample.observed):
                    failed += 1
            position += 1
        if is_update and sample.error is None:
            oracle.apply(op)
    return {
        "attempted": len(measured),
        "failed": failed,
        "checked": checked,
        "oracle_s": time.perf_counter() - started,
    }


def calibrate() -> Dict[str, float]:
    """A fixed Python loop and a fixed matrix product: flags a noisy machine."""
    import numpy as np

    python_ms = python_loop_seconds(200_000) * 1e3
    matrix = np.ones((192, 192), dtype=np.float64)
    start = time.perf_counter()
    np.matmul(matrix, matrix)
    numpy_ms = (time.perf_counter() - start) * 1e3
    return {"calib.python_ms": python_ms, "calib.numpy_ms": numpy_ms}
