"""In-memory span trace recorded by the benchmark around public calls.

A span is ``{name, start, end, parent, op}``: ``parent`` is the index of
the span that was open when this one started (``None`` at the top), and
``op`` the index of the operation it belongs to, so the spans of one
operation share an identifier.  Nothing is written until :meth:`write`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[dict]:
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._open[-1] if self._open else None,
            "op": op,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def absorb(self, other: "Tracer") -> None:
        """Append another tracer's spans (one tracer per concurrent caller)."""
        shift = len(self.spans)
        for record in other.spans:
            parent = record["parent"]
            self.spans.append(
                {**record, "parent": None if parent is None else parent + shift}
            )

    def self_seconds(self) -> Dict[str, List[float]]:
        """Per span name, each span's duration minus what its children cover.

        Spans are recorded on one thread, so siblings never overlap and the
        children's cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                covered[record["parent"]] += record["end"] - record["start"]
        by_name: Dict[str, List[float]] = defaultdict(list)
        for record, cover in zip(self.spans, covered):
            by_name[record["name"]].append(record["end"] - record["start"] - cover)
        return by_name

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((record["start"] for record in self.spans), default=0.0)
        spans = [
            {**record, "start": record["start"] - origin, "end": record["end"] - origin}
            for record in self.spans
        ]
        path.write_text(json.dumps({**header, "spans": spans}) + "\n")
