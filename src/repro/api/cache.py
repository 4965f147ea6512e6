"""An LRU cache for ω-query plans and their lowered IR programs.

Plans are cached in *canonical shape space*: before insertion the engine
renames a plan's variables through the query's canonical mapping
(:meth:`ConjunctiveQuery.canonical_mapping`), so a single cached entry
serves every query isomorphic to the one that was planned.  Keys combine

* the canonical shape signature (atom scopes over canonical names) plus an
  output-signature slot and the query verb — so Boolean, counting and
  enumeration programs over the same body can never collide.  Only the
  exists verb plans (the ω strategy is exists-only), and exists ignores
  the query head, so the output slot is normalized to ``()`` there —
  differently-headed queries over one body share a single cached plan,
* the strategy name and the ω exponent the plan was costed with, and
* the *per-relation plan fingerprint* of only the relations the query's
  atoms touch (the engine's name-insensitive ``_plan_fingerprint``) — mutating
  relation ``R`` therefore never evicts cached plans for queries that do
  not read ``R``, and because the fingerprint is built from statistics
  *epochs* (bumped on structural changes, not on small deltas), a stream
  of single-tuple inserts keeps hitting one cached plan.  Invalidation
  still needs no observer protocol: stale keys simply stop being asked
  for and age out of the LRU.

This module also hosts :class:`IncrementalResultStore`, the bounded store
behind the engine's delta patching of whole-query ``exists``/``count``
answers: each entry remembers the answer plus the per-relation versions it
was computed at, so the engine can replay the delta log forward instead of
re-executing (see :meth:`~repro.api.QueryEngine.insert`).

Both are thin subclasses of :class:`~repro.exec.cache.LRUCache`, the one
locked LRU every engine cache shares (the VM's
:class:`~repro.exec.cache.ResultCache` is the third): the plan cache adds
nothing, the store adds its patch / reuse / fallback counters.

Since the unified execution layer landed, the engine stores a
:class:`CachedPlanEntry` — the plan *plus* its optimized physical-operator
program (:class:`~repro.exec.ir.Program`) and the atom→relation binding the
program was lowered against.  On a hit with the same binding the engine
renames the cached program instead of lowering again; isomorphic queries
over *different* relation names reuse the plan and re-lower (lowering is
linear in the plan size).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Tuple

from ..core.plan import OmegaQueryPlan
from ..exec.cache import LRUCache
from ..exec.ir import Program

#: (strategy name, (shape signature, output signature, verb, atom sizes),
#: omega, per-relation plan fingerprint of the atoms' relations)
PlanCacheKey = Tuple[str, Hashable, float, Hashable]


@dataclass(frozen=True)
class CachedPlanEntry:
    """What the engine caches per query shape: plan, lowered IR, binding."""

    #: The ω-query plan in canonical variable space.
    plan: OmegaQueryPlan
    #: The optimized physical-operator program in canonical variable space.
    program: Program
    #: Which relation each canonical atom scope was lowered against — reuse
    #: of ``program`` requires the requesting query to bind the same way.
    binding: Hashable


class PlanCache(LRUCache):
    """A bounded mapping from :data:`PlanCacheKey` to :class:`CachedPlanEntry`.

    ``maxsize <= 0`` disables caching entirely (every lookup misses and
    nothing is stored).
    """

    def __init__(self, maxsize: int = 128) -> None:
        super().__init__(maxsize)


@dataclass
class IncrementalEntry:
    """One patched whole-query answer and the state it is valid at.

    ``answer`` is the Boolean for ``exists`` entries and the distinct
    output count for ``count`` entries.  ``versions`` maps every relation
    the query reads to the :meth:`~repro.db.Database.relation_version` the
    answer was computed (or last patched) at; the engine advances both in
    place as it applies deltas.
    """

    answer: object
    versions: dict
    db_uid: int


#: Why an ask ran in full: no stored answer (or another database's), a log
#: no longer reaching back to it, deltas on several relations (count), a
#: mutated atom with a variable outside the head (count), no rule at all.
FALLBACK_REASONS = ("no_entry", "truncated_log", "multi_relation", "unpinned_head", "no_rule")


class IncrementalResultStore(LRUCache):
    """A bounded LRU of whole-query answers for delta patching.

    Keyed by the exact query identity — ``(sorted (relation, variables)
    atom bindings, output variables, verb)`` — unlike the plan/result
    caches this store is *name-sensitive*: a patched count is only sound
    for the very query it was computed for.  ``maxsize <= 0`` disables the
    store (the engine then always re-executes).
    """

    def __init__(self, maxsize: int = 256) -> None:
        super().__init__(maxsize)
        self._patched = 0
        self._reused = 0
        self._stored = 0
        self._dropped = 0
        self._fallbacks = dict.fromkeys(FALLBACK_REASONS, 0)  # guarded-by: _lock

    def put(self, key: Hashable, entry: IncrementalEntry) -> None:
        super().put(key, entry)
        if self.enabled:
            with self._lock:
                self._stored += 1

    def drop(self, key: Hashable) -> None:
        """Remove an entry whose delta replay turned out unavailable."""
        if self.pop(key) is not None:
            with self._lock:
                self._dropped += 1

    def record_patch(self) -> None:
        with self._lock:
            self._patched += 1

    def record_reuse(self) -> None:
        """An entry answered as-is: every touched relation unchanged."""
        with self._lock:
            self._reused += 1

    def record_fallback(self, reason: str) -> None:
        """An ask the store could not answer, for one of :data:`FALLBACK_REASONS`."""
        with self._lock:
            self._fallbacks[reason] += 1

    def stats(self) -> dict:  # type: ignore[override]
        """Counters for tests and observability (plain dict, JSON-safe)."""
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "stored": self._stored,
                "patched": self._patched,
                "reused": self._reused,
                "dropped": self._dropped,
                **{f"fallback_{k}": v for k, v in self._fallbacks.items()},
            }
