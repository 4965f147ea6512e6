"""The engine's three caches share one LRU: their counters, pinned.

The plan cache, the VM's result cache and the incremental answer store
each see one scripted sequence of gets and puts — an LRU eviction, a
replacement in place, a clear, and a disabled (``maxsize=0``) variant —
and must report exactly these ``stats()``.  Each cache is consulted the
way the engine consults it: the VM never asks a disabled result cache.
The server's request threads share these caches, so a stress test checks
that concurrent use loses no counter update and no entry weight.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading

import pytest

from repro.api import PlanCache
from repro.api.cache import FALLBACK_REASONS, IncrementalEntry, IncrementalResultStore
from repro.db import Relation
from repro.exec import ResultCache
from repro.exec.cache import LRUCache


def always_get(cache, key):
    return cache.get(key)


def vm_get(cache, key):
    return cache.get(key) if cache.enabled else None


def put_value(cache, key, value):
    cache.put(key, value)


def put_rows(cache, key, value):
    cache.put(key, ("X",), Relation(("X",), [(i,) for i in range(value)]))


def put_entry(cache, key, value):
    cache.put(key, IncrementalEntry(value, {}, 0))


def run_script(cache, get, put):
    seen = [get(cache, "a")]
    put(cache, "a", 1)
    put(cache, "b", 2)
    seen.append(get(cache, "a"))
    put(cache, "c", 3)  # over the bound: b is the least recently used
    seen += [get(cache, "b"), get(cache, "c")]
    put(cache, "a", 4)  # a replacement (or, past max_entry_rows, refused)
    seen.append(get(cache, "a"))
    if hasattr(cache, "drop"):
        cache.drop("c")
        cache.drop("absent")
    before = (len(cache), normalized(cache.stats()))
    cache.clear()
    return [hit is not None for hit in seen], before, (len(cache), normalized(cache.stats()))


def normalized(stats):
    return stats if isinstance(stats, dict) else dataclasses.asdict(stats)


def counters(hits, misses, evictions, size, maxsize):
    return {"hits": hits, "misses": misses, "evictions": evictions, "size": size, "maxsize": maxsize}


def store(size, maxsize, stored, dropped):
    fallbacks = {f"fallback_{reason}": 0 for reason in FALLBACK_REASONS}
    return {"size": size, "maxsize": maxsize, "stored": stored, "patched": 0,
            "reused": 0, "dropped": dropped, **fallbacks}


HITS = [False, True, False, True, True]
MISSES = [False] * 5

CASES = {
    "plan": (lambda: PlanCache(2), always_get, put_value, HITS,
             (2, counters(3, 2, 1, 2, 2)), (0, counters(3, 2, 1, 0, 2))),
    "plan-disabled": (lambda: PlanCache(0), always_get, put_value, MISSES,
                      (0, counters(0, 5, 0, 0, 0)), (0, counters(0, 5, 0, 0, 0))),
    "result": (lambda: ResultCache(2), vm_get, put_rows, HITS,
               (2, counters(3, 2, 1, 2, 2)), (0, counters(3, 2, 1, 0, 2))),
    # Rows weigh: a (1) + b (2) + c (3) passes max_total_rows=4, so b goes;
    # a second a of 4 rows is wider than max_entry_rows=3 and never stored.
    "result-rows": (lambda: ResultCache(8, 3, 4), vm_get, put_rows, HITS,
                    (2, counters(3, 2, 1, 2, 8)), (0, counters(3, 2, 1, 0, 8))),
    "result-disabled": (lambda: ResultCache(0), vm_get, put_rows, MISSES,
                        (0, counters(0, 0, 0, 0, 0)), (0, counters(0, 0, 0, 0, 0))),
    "store": (lambda: IncrementalResultStore(2), always_get, put_entry, HITS,
              (1, store(1, 2, 4, 1)), (0, store(0, 2, 4, 1))),
    "store-disabled": (lambda: IncrementalResultStore(0), always_get, put_entry, MISSES,
                       (0, store(0, 0, 0, 0)), (0, store(0, 0, 0, 0))),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_lru_counters(name):
    factory, get, put, hits, before, after = CASES[name]
    assert run_script(factory(), get, put) == (hits, before, after)


class Key(int):
    """A key hashed in Python, so a thread switch can land inside a lookup."""

    def __hash__(self):
        return int.__hash__(self)


def test_counters_and_weight_survive_concurrent_use():
    """Eight threads on three keys of one weighted LRU lose no update."""
    cache = LRUCache(2, max_weight=3)
    rounds = 20_000
    start = threading.Barrier(8)

    def work(seed):
        rng = random.Random(seed)
        start.wait(timeout=60)
        for i in range(rounds):
            key = Key(rng.randrange(3))
            cache.get(key)
            cache.put(key, i, 1 + key % 2)

    threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    stats = cache.stats()
    assert stats.hits + stats.misses == 8 * rounds
    assert stats.size == len(cache) <= 2
    assert cache._weight == sum(weight for _, weight in cache._entries.values()) <= 3
