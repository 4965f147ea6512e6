"""Result-artefact writing shared by the benchmark modules.

Each benchmark regenerates one table or figure of the paper (engine
performance is the ledger's business — ``python3 -m ledger``); besides
the timings collected by pytest-benchmark, every run writes **two**
artefacts under ``benchmarks/results/`` (git-ignored):

* ``<name>.txt`` — the human-readable table;
* ``BENCH_<name>.json`` — the same rows machine-readable, plus the
  machine fingerprint, the benchmark parameters and any derived metrics.

The JSON document schema (``schema_version`` 1) is described in
``benchmarks/README.md``.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import platform
from typing import Dict, Iterable, Optional, Sequence

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Bump when the JSON document layout changes incompatibly.
SCHEMA_VERSION = 1


def tiny_mode() -> bool:
    """Whether ``REPRO_BENCH_TINY`` requests smoke-sized inputs.

    Must parse exactly like the bench modules' own ``TINY`` flags, or the
    artefacts would misclassify full-size runs (e.g. ``REPRO_BENCH_TINY=0``).
    """
    return os.environ.get("REPRO_BENCH_TINY", "").strip().lower() in (
        "1",
        "true",
        "yes",
    )


def machine_info() -> Dict[str, object]:
    """The machine fingerprint embedded in every JSON artefact."""
    import numpy

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count() or 1,
        "tiny": tiny_mode(),
    }


def _json_safe(value: object) -> object:
    """Plain-Python, RFC-8259-clean mirror of a cell value.

    NumPy scalars unwrap; non-finite floats become ``null`` — Python's
    ``json.dumps`` would otherwise emit bare ``NaN``/``Infinity`` tokens
    that strict parsers (jq, JSON.parse) reject, making the artefacts
    unreadable outside Python.
    """
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(key): _json_safe(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return str(value)


def write_json(
    name: str,
    *,
    columns: Sequence[str] = (),
    rows: Iterable[Sequence[object]] = (),
    params: Optional[Dict[str, object]] = None,
    metrics: Optional[Dict[str, object]] = None,
) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` and return its path."""
    RESULTS_DIR.mkdir(exist_ok=True)
    document = {
        "benchmark": name,
        "schema_version": SCHEMA_VERSION,
        "machine": machine_info(),
        "params": {key: _json_safe(v) for key, v in (params or {}).items()},
        "columns": list(columns),
        "rows": [[_json_safe(v) for v in row] for row in rows],
        "metrics": {key: _json_safe(v) for key, v in (metrics or {}).items()},
    }
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def write_table(
    name: str,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    params: Optional[Dict[str, object]] = None,
    metrics: Optional[Dict[str, object]] = None,
) -> None:
    """Write the plain-text table *and* its JSON twin for one benchmark."""
    rows = [list(row) for row in rows]
    RESULTS_DIR.mkdir(exist_ok=True)
    widths = [max(len(str(h)), 12) for h in header]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(
                (f"{value:.4f}" if isinstance(value, float) else str(value)).ljust(w)
                for value, w in zip(row, widths)
            )
        )
    (RESULTS_DIR / f"{name}.txt").write_text("\n".join(lines) + "\n")
    write_json(name, columns=header, rows=rows, params=params, metrics=metrics)
