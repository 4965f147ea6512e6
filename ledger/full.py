"""The whole ledger in one command: every workload, three rounds and a traced one.

Round *r* runs every workload once, each in a fresh child process seeded
``seed + r`` — so a slow phase of the machine lands on one round of
several workloads, not on one workload's whole sample.  Each child is the
contract command itself (``python3 -m ledger --workload …``); this module
only starts them, takes the median of the rounds and writes the file.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from . import bench

END_TO_END_ROUNDS = 3


def machine_info() -> Dict[str, object]:
    import numpy

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count() or 1,
    }


def child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    command = [
        sys.executable, "-m", "ledger", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=bench.ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_all(seed: int, seconds: float, smoke: bool, out: str) -> dict:
    spec = bench.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    rounds: Dict[str, List[dict]] = {name: [] for name in names}
    for r in range(END_TO_END_ROUNDS):
        for name in names:
            rounds[name].append(child(name, seed + r, seconds, 0, smoke))
            print(f"round {r} {name}: done", file=sys.stderr)
    document = {
        "schema": 1,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "machine": machine_info(),
        "environment": {"pinned": bench.PINNED_ENV, "removed": list(bench.REMOVED_ENV)},
        "workloads": {},
    }
    for name in names:
        traced = child(name, seed, seconds, 1, smoke)
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in rounds[name]]
            end_to_end[metric["name"]] = {
                "value": statistics.median(values),
                "unit": metric["unit"],
                "rounds": values,
            }
        runs = rounds[name] + [traced]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        document["workloads"][name] = {
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    Path(out).write_text(json.dumps(document, indent=1) + "\n")
    print(render(document))
    return document


def render(document: dict) -> str:
    lines = []
    for name, entry in document["workloads"].items():
        lines.append(
            f"{name}: attempted {entry['attempted']}, failed {entry['failed']} "
            f"(failed_share {entry['failed_share']:.4f})"
        )
        for group in ("end_to_end", "per_layer"):
            for metric, cell in entry[group].items():
                if group == "end_to_end" or cell["value"]:
                    lines.append(f"  {metric:<44} {cell['value']:>14.4f} {cell['unit']}")
    return "\n".join(lines)
