"""One locked LRU for every engine cache, and the VM's result cache on it.

:class:`LRUCache` is the mechanism the engine's three caches share — the
plan cache and the incremental answer store (:mod:`repro.api.cache`) and
the cross-query :class:`ResultCache` below: an ``OrderedDict`` in recency
order, one lock (the server's request threads share one engine, so every
operation is serialized), and hit / miss / eviction counters.  Only the
result cache weighs its entries (rows retained) against a total bound.

:class:`ResultCache` is what the VM consults: keys are ``(operator
structural key, scan-closure fingerprint)`` — the fingerprint covers only
the relations the operator actually reads — and values are the operator's
declared schema plus its payload (a relation, a Boolean or a count).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple

from ..db.relation import Relation


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of one cache's effectiveness counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """A bounded, thread-safe least-recently-used map.

    With ``max_weight`` set, eviction also continues until the summed
    weights of the retained entries (each given to :meth:`put`) fit it.
    :meth:`clear` keeps the counters.
    """

    def __init__(self, maxsize: int, max_weight: Optional[int] = None) -> None:
        self.maxsize = maxsize
        self.max_weight = max_weight
        # guarded-by: _lock; bounded-by: LRU eviction at maxsize/max_weight
        self._entries: "OrderedDict[Hashable, Tuple[object, int]]" = OrderedDict()
        self._lock = threading.Lock()
        self._weight = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Optional[object]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[0]

    def put(self, key: Hashable, value: object, weight: int = 0) -> None:
        with self._lock:
            self._discard(key)
            self._entries[key] = (value, weight)
            self._weight += weight
            while self._entries and (
                len(self._entries) > self.maxsize
                or (self.max_weight is not None and self._weight > self.max_weight)
            ):
                _, (_, evicted) = self._entries.popitem(last=False)
                self._weight -= evicted
                self._evictions += 1

    def pop(self, key: Hashable) -> Optional[object]:
        """Remove and return one entry's value (``None`` when absent)."""
        with self._lock:
            return self._discard(key)

    def _discard(self, key: Hashable) -> Optional[object]:
        entry = self._entries.pop(key, None)
        if entry is None:
            return None
        self._weight -= entry[1]
        return entry[0]

    def clear(self) -> None:
        """Drop every entry (the counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._weight = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                maxsize=self.maxsize,
            )


class ResultCache(LRUCache):
    """The VM's bounded LRU of operator results, shared across runs.

    Memory is bounded two ways: a relation wider than ``max_entry_rows``
    is never stored (the entry *count* alone would not bound a
    near-cross-product), and eviction also continues until the retained
    rows fit ``max_total_rows``.
    """

    def __init__(
        self,
        maxsize: int,
        max_entry_rows: int = 1_000_000,
        max_total_rows: int = 4_000_000,
    ) -> None:
        super().__init__(maxsize, max_weight=max_total_rows)
        self.max_entry_rows = max_entry_rows

    def put(self, key: Hashable, schema: Tuple[str, ...], payload: object) -> None:
        rows = len(payload) if isinstance(payload, Relation) else 0
        if rows <= self.max_entry_rows:
            super().put(key, (schema, payload), rows)
