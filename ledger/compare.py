"""Compare two ledger files: ``python3 -m ledger.compare A.json B.json``.

Per workload and metric, how much worse B is than A, as a share of A —
"worse" by the direction ``BENCHMARK.json`` declares, not by guessing from
the name.  End-to-end metrics are held to their declared bound.  Counts of
the five in-process workloads must be equal: the traced round runs a fixed
op list on one thread, so equal seeds give equal counts, and a count that
moved means the program did different work.  Exits 1 when anything is out
of bounds.
"""

from __future__ import annotations

import json
import sys
from typing import List, Tuple

from . import bench


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a`` as a share of ``a`` (negative = better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def compare(a: dict, b: dict, spec: dict) -> Tuple[List[str], List[str]]:
    """Returns ``(report lines, violations)``."""
    lines: List[str] = []
    violations: List[str] = []
    if (a["seed"], a["seconds"], a["smoke"]) != (b["seed"], b["seconds"], b["smoke"]):
        violations.append("the two files were not run with the same seed, seconds and sizes")
    for workload in (w["name"] for w in spec["workloads"]):
        left, right = a["workloads"][workload], b["workloads"][workload]
        lines.append(workload)
        if right["failed"] > left["failed"]:
            violations.append(f"{workload}: failed ops {left['failed']} -> {right['failed']}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            x, y = left["end_to_end"][name]["value"], right["end_to_end"][name]["value"]
            delta = worse_by(x, y, metric["better"])
            verdict = "ok"
            if delta > metric["bound"]:
                verdict = f"WORSE than the bound {metric['bound']:.0%}"
                violations.append(f"{workload} {name}: {x:.4f} -> {y:.4f} ({delta:+.1%})")
            lines.append(f"  {name:<44} {x:>12.4f} -> {y:>12.4f} {delta:>+8.1%}  {verdict}")
        for metric in spec["per_layer"]:
            name = metric["name"]
            x, y = left["per_layer"][name]["value"], right["per_layer"][name]["value"]
            if x == 0 and y == 0:
                continue
            delta = worse_by(x, y, metric["better"])
            verdict = ""
            if metric["unit"] == "count" and workload != "serve-hot" and x != y:
                verdict = "COUNT MOVED"
                violations.append(f"{workload} {name}: count {x:.0f} -> {y:.0f}")
            lines.append(f"  {name:<44} {x:>12.4f} -> {y:>12.4f} {delta:>+8.1%}  {verdict}")
    return lines, violations


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(open(path).read()) for path in argv)
    lines, violations = compare(a, b, bench.load_spec())
    print("\n".join(lines))
    if violations:
        print("\nout of bounds:", *violations, sep="\n  ")
        return 1
    print("\nwithin bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
