"""Databases: named relations plus validation against a query.

**Versioning model.**  Every relation carries its own mutation counter
(:meth:`Database.relation_version`) and a coarser *statistics epoch*
(:meth:`Database.relation_epoch`).  The version bumps on every mutation of
that relation — assignment, :meth:`Database.insert`, :meth:`Database.delete`
— and is what result caches key on (:meth:`Database.fingerprint_for`).  The
epoch bumps only on *structural* changes: wholesale replacement, deletion,
or a delta stream crossing the fallback threshold.
Plan caches key on epochs (:meth:`Database.relation_epoch`) because a
plan stays *correct* under small deltas — only its cost optimality can
drift — so a thousand single-tuple inserts reuse one cached plan instead of
re-planning a thousand times.

**Delta log.**  :meth:`insert` / :meth:`delete` route through the storage
backend's append/tombstone kernels (O(|Δ|) Python work plus a few
memcpy-speed passes over the code arrays, no re-encode) and
append the *exact* delta — only the rows that genuinely changed under set
semantics — to a bounded per-relation log.  Consumers that cached a result
at version ``v`` call :meth:`deltas_since` to obtain the contiguous batch
list replaying ``v → current``, or ``None`` when the log has been truncated
(then they must fall back to full re-evaluation).  When the cumulative
delta volume since the last epoch exceeds the configured threshold
(``max(delta_threshold_rows, delta_threshold_fraction · |R|)``), the
relation's statistics caches are rebuilt fresh, the epoch bumps, and the
log clears — worst-case behavior is exactly the old full invalidation.
"""

from __future__ import annotations

import itertools
import threading
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .backends import RelationStats, Row, Value
from .query import ConjunctiveQuery
from .relation import Relation

#: A relation spec accepted by :meth:`Database.bulk_load`: either a built
#: :class:`Relation` or a ``(schema, rows)`` pair.
RelationSpec = Union[Relation, Tuple[Iterable[str], Iterable]]

#: One delta-log entry: ``(version_after, kind, rows)`` where ``kind`` is
#: ``"insert"`` or ``"delete"`` and ``rows`` is the exact changed set.
DeltaEntry = Tuple[int, str, Tuple[Row, ...]]

# Database instances get process-unique ids so fingerprints from different
# databases (whose per-relation counters evolve independently) can never
# collide in a shared plan/result cache.
_DB_UIDS = itertools.count(1)


class Database:
    """A collection of named relations.

    The paper measures complexity in the total input size
    ``N = Σ_R |R|`` (data complexity); :attr:`size` reports exactly that.

    Parameters
    ----------
    relations:
        Initial relations (mapping or (name, relation) pairs).
    backend:
        ``"columnar"`` or ``None``; both mean the one columnar store, and
        any other value raises :class:`ValueError`.
    delta_log_limit:
        Maximum number of delta batches retained per relation; older
        entries are dropped and :meth:`deltas_since` reports truncation.
    delta_threshold_rows / delta_threshold_fraction:
        Fallback threshold for incremental maintenance: once the
        cumulative delta volume since the last statistics epoch exceeds
        ``max(delta_threshold_rows, delta_threshold_fraction · |R|)``,
        the relation's statistics are recomputed fresh and its epoch
        bumps (full invalidation for that relation only).
    """

    def __init__(
        self,
        relations: Union[Mapping[str, Relation], Iterable[Tuple[str, Relation]]] = (),
        *,
        backend: Optional[str] = None,
        delta_log_limit: int = 32,
        delta_threshold_rows: int = 512,
        delta_threshold_fraction: float = 0.05,
    ):
        self._relations: Dict[str, Relation] = {}  # guarded-by: _lock
        self._uid = next(_DB_UIDS)
        # Per-relation counters survive delete + re-add (entries are never
        # removed), so a stale fingerprint can never collide with a fresh
        # relation that happens to reuse the name.
        self._versions: Dict[str, int] = {}  # guarded-by: _lock
        self._epochs: Dict[str, int] = {}  # guarded-by: _lock
        self._deltas: Dict[str, List[DeltaEntry]] = {}  # guarded-by: _lock
        self._delta_base: Dict[str, int] = {}  # guarded-by: _lock
        self._pending_rows: Dict[str, int] = {}  # guarded-by: _lock
        #: Serialises writers (each one a read-modify-write of the maps
        #: above).  Readers take no lock: single dict reads are atomic and
        #: the relations they return are immutable.
        self._lock = threading.RLock()
        self.delta_log_limit = int(delta_log_limit)
        self.delta_threshold_rows = int(delta_threshold_rows)
        self.delta_threshold_fraction = float(delta_threshold_fraction)
        if backend not in (None, "columnar"):
            raise ValueError(f"unknown backend {backend!r}; the only backend is 'columnar'")
        items = relations.items() if isinstance(relations, Mapping) else relations
        for name, relation in items:
            self[name] = relation

    # ------------------------------------------------------------------
    # Internal bookkeeping
    # ------------------------------------------------------------------
    def _bump_version(self, name: str) -> int:
        version = self._versions.get(name, 0) + 1
        self._versions[name] = version
        return version

    def _bump_epoch(self, name: str) -> None:
        self._epochs[name] = self._epochs.get(name, 0) + 1

    def _clear_deltas(self, name: str) -> None:
        self._deltas[name] = []
        self._delta_base[name] = self._versions.get(name, 0)
        self._pending_rows[name] = 0

    def _replace(self, name: str, relation: Relation) -> None:
        """Wholesale replacement: version + epoch bump, delta log reset."""
        self._relations[name] = relation
        self._bump_version(name)
        self._bump_epoch(name)
        self._clear_deltas(name)

    # ------------------------------------------------------------------
    def __setitem__(self, name: str, relation: Relation) -> None:
        if not isinstance(relation, Relation):
            raise TypeError("databases store Relation objects")
        with self._lock:
            self._replace(name, relation.with_name(name))

    def __delitem__(self, name: str) -> None:
        with self._lock:
            if name not in self._relations:
                known = ", ".join(sorted(self._relations))
                raise KeyError(f"no relation {name!r}; known relations: {known}")
            del self._relations[name]
            self._bump_version(name)
            self._bump_epoch(name)
            self._clear_deltas(name)

    def __getitem__(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            known = ", ".join(sorted(self._relations))
            raise KeyError(f"no relation {name!r}; known relations: {known}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._relations))

    def __len__(self) -> int:
        return len(self._relations)

    def items(self) -> Iterable[Tuple[str, Relation]]:
        return sorted(self._relations.items())

    # ------------------------------------------------------------------
    # Incremental mutation (the delta front door)
    # ------------------------------------------------------------------
    def insert(self, name: str, rows: Iterable[Sequence[Value]]) -> int:
        """Insert ``rows`` into relation ``name``; returns how many were new.

        Routes through the backend's ``append_rows`` kernel — O(|rows|)
        interpreter work plus a constant number
        of memcpy-speed passes over the code arrays: membership on a
        handed-over index, dictionaries extended rather than copied, no
        re-encode — logs the exact delta, and bumps only this relation's
        version: cached work for queries that never read ``name`` survives
        untouched.  Inserting rows that are already present is a no-op
        (set semantics): nothing is logged and no cache is invalidated.
        Writers serialise on the database lock; readers never block (they
        hold immutable relations).  Raises :class:`KeyError` when the
        relation does not exist.
        """
        with self._lock:
            updated, added = self[name].insert_rows(rows)
            if added:
                self._apply_delta(name, updated, "insert", added)
            return len(added)

    def delete(self, name: str, rows: Iterable[Sequence[Value]]) -> int:
        """Delete ``rows`` from relation ``name``; returns how many existed.

        Costs what an insert costs: the backend finds the victims
        in the same handed-over index, tombstones them with one vectorized
        pass and compacts lazily; only the rows actually present are
        logged as the delta.  Deleting absent rows is a no-op.  Raises
        :class:`KeyError` when the relation does not exist.
        """
        with self._lock:
            updated, removed = self[name].delete_rows(rows)
            if removed:
                self._apply_delta(name, updated, "delete", removed)
            return len(removed)

    def _apply_delta(
        self, name: str, relation: Relation, kind: str, rows: Tuple[Row, ...]
    ) -> None:
        self._relations[name] = relation
        version = self._bump_version(name)
        log = self._deltas.setdefault(name, [])
        if name not in self._delta_base:
            self._delta_base[name] = version - 1
        log.append((version, kind, rows))
        while len(log) > self.delta_log_limit:
            dropped_version, _, _ = log.pop(0)
            self._delta_base[name] = dropped_version
        pending = self._pending_rows.get(name, 0) + len(rows)
        self._pending_rows[name] = pending
        threshold = max(
            self.delta_threshold_rows,
            int(self.delta_threshold_fraction * len(relation)),
        )
        if pending > threshold:
            # Fallback: rebuild statistics fresh (the seeded degree caches
            # are upper bounds that drift under sustained deltas), bump the
            # epoch so plans re-cost, and clear the log — exactly the old
            # full-invalidation behavior, scoped to this one relation.
            self._relations[name] = relation.with_fresh_statistics()
            self._bump_epoch(name)
            self._clear_deltas(name)

    def _set_for_patch(self, name: str, relation: Relation) -> None:
        """Swap a relation in place *without* bumping its epoch.

        Internal hook for the engine's patch evaluator: the patch database
        swaps delta relations in and out between evaluations, and keeping
        the epoch stable lets one cached plan serve every patch.  The
        version still bumps so result caches never serve stale answers.
        """
        if not isinstance(relation, Relation):
            raise TypeError("databases store Relation objects")
        if relation.name != name:
            relation = relation.with_name(name)
        # Identity-preserving on purpose: the engine's patch evaluator skips
        # the swap when the very same relation object is already stored, so
        # unchanged relations keep their version (and their cached subplans).
        self._relations[name] = relation
        self._bump_version(name)
        self._clear_deltas(name)

    def deltas_since(
        self, name: str, version: int
    ) -> Optional[Tuple[Tuple[str, Tuple[Row, ...]], ...]]:
        """The contiguous delta batches replaying ``version`` → current.

        Returns ``((kind, rows), ...)`` in chronological order — empty when
        ``version`` is already current — or ``None`` when the replay is
        unavailable: the log was truncated past ``version``, the relation
        was replaced or crossed the fallback threshold (log cleared), or
        ``version`` is from a different timeline.
        """
        if name not in self._relations:
            return None
        current = self._versions.get(name, 0)
        if version == current:
            return ()
        if version > current or version < self._delta_base.get(name, current):
            return None
        return tuple(
            (kind, rows)
            for entry_version, kind, rows in self._deltas.get(name, ())
            if entry_version > version
        )

    # ------------------------------------------------------------------
    # Fingerprints
    # ------------------------------------------------------------------
    @property
    def uid(self) -> int:
        """Process-unique database id embedded in every fingerprint."""
        return self._uid

    def relation_version(self, name: str) -> int:
        """Mutation counter for one relation (0 when never stored)."""
        return self._versions.get(name, 0)

    def relation_epoch(self, name: str) -> int:
        """Statistics epoch for one relation (bumps only on structural change)."""
        return self._epochs.get(name, 0)

    def fingerprint_for(self, names: Iterable[str]) -> Hashable:
        """Result-cache fingerprint covering only the named relations.

        Two calls return equal fingerprints iff none of the named
        relations changed in between — mutations to *other* relations
        leave it stable, which is what lets per-query cache entries
        survive unrelated writes.
        """
        return (
            self._uid,
            tuple(
                (name, self._versions.get(name, 0)) for name in sorted(set(names))
            ),
        )

    # ------------------------------------------------------------------
    # Bulk construction
    # ------------------------------------------------------------------
    def bulk_load(
        self,
        tables: Union[Mapping[str, RelationSpec], Iterable[Tuple[str, RelationSpec]]] = (),
        **named: RelationSpec,
    ) -> "Database":
        """Load many relations at once.

        Each value is either a :class:`Relation` or a ``(schema, rows)``
        pair, and each relation's version and epoch advance once.  Returns
        ``self`` for chaining.
        """
        items = list(tables.items() if isinstance(tables, Mapping) else tables)
        items.extend(named.items())
        with self._lock:
            for name, spec in items:
                if not isinstance(spec, Relation):
                    if isinstance(spec, (str, bytes)) or not isinstance(
                        spec, (tuple, list)
                    ) or len(spec) != 2:
                        raise TypeError(
                            "bulk_load values must be Relation objects or "
                            f"(schema, rows) pairs; got {spec!r} for {name!r}"
                        )
                    schema, rows = spec
                    spec = Relation(schema, rows)
                self._replace(name, spec.with_name(name))
        return self

    def load_csv(
        self,
        path: str,
        name: Optional[str] = None,
        *,
        delimiter: Optional[str] = None,
        header: Union[bool, str] = "auto",
    ) -> Relation:
        """Load a CSV/TSV file as a relation and store it under ``name``.

        A thin wrapper over :func:`repro.db.loader.load_table` (delimiter
        sniffing, header auto-detection, per-column int/str inference)
        that stores the result in the database, bumping the version so
        cached plans re-validate.  ``name`` defaults to the file's stem.
        Returns the stored relation.
        """
        from .loader import load_table

        relation = load_table(path, name=name, delimiter=delimiter, header=header)
        self[relation.name] = relation
        return self[relation.name]

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Total number of tuples across all relations (the paper's ``N``)."""
        return sum(len(relation) for relation in self._relations.values())

    def stats(self) -> Dict[str, RelationStats]:
        """Per-relation statistics objects (``n_r``, ``V(A, r)``, degrees).

        Computed and cached by each relation's backend; the caches
        survive renames, so the planner reading these repeatedly across
        candidate orders costs one scan per relation, not one per order.
        """
        return {name: relation.stats for name, relation in self.items()}

    def copy(self) -> "Database":
        return Database(
            dict(self._relations),
            delta_log_limit=self.delta_log_limit,
            delta_threshold_rows=self.delta_threshold_rows,
            delta_threshold_fraction=self.delta_threshold_fraction,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{name}[{len(rel)}]" for name, rel in self.items())
        return f"Database({parts})"

    # ------------------------------------------------------------------
    def validate_against(self, query: ConjunctiveQuery) -> None:
        """Check that every query atom has a relation with a compatible schema.

        The relation's schema must *cover* the atom's variables after
        positional matching: the convention used throughout the library is
        that the atom's variable list names the relation's columns in
        order, so arities must agree.  Query text is a ``TypeError``.
        """
        if not isinstance(query, ConjunctiveQuery):
            raise TypeError(f"expected a ConjunctiveQuery, got {type(query).__name__}; "
                            "build one from query text with repro.db.parse_query")
        for atom in query.atoms:
            if atom.relation not in self._relations:
                raise KeyError(f"query atom {atom} has no relation in the database")
            relation = self._relations[atom.relation]
            if len(relation.schema) != len(atom.variables):
                raise ValueError(
                    f"atom {atom} has arity {len(atom.variables)} but relation "
                    f"{atom.relation} has arity {len(relation.schema)}"
                )

    def relation_for(self, query: ConjunctiveQuery, relation_name: str) -> Relation:
        """The relation of an atom, with columns renamed to the atom's variables."""
        atom = query.atom_for(relation_name)
        relation = self[relation_name]
        mapping = dict(zip(relation.schema, atom.variables))
        return relation.rename(mapping).with_name(relation_name)

    def instance_for(self, query: ConjunctiveQuery) -> Dict[str, Relation]:
        """All atom relations keyed by relation name, renamed to query variables."""
        self.validate_against(query)
        return {
            atom.relation: self.relation_for(query, atom.relation)
            for atom in query.atoms
        }
