"""Relation storage: dictionary-encoded NumPy columns, plus statistics.

A :class:`~repro.db.relation.Relation` is a thin facade; the tuples *and the
operators over them* live in a :class:`ColumnarBackend`, and this module is
the only place that knows how they are stored.  Each column stores an
``int64`` code array plus a small dictionary (code → value); hash indexes
(value → code, distinct-code sets, grouped row indexes) are built lazily
and cached.  Semijoins become vectorized membership probes on composite
keys, natural joins become sort + ``searchsorted`` gathers on code arrays,
projections deduplicate via ``np.unique`` and the grouped Boolean matrix
product (:meth:`ColumnarBackend.matmul`) goes from code arrays to code
arrays.  Operator outputs share the input dictionaries, so chains of
operators never re-encode values.  Every kernel is total: where the
dictionaries of a key multiply past one int64 the code rows are re-ranked
instead (:meth:`ColumnarBackend._row_keys`), never handed to a row loop.
Reference answers for tests come from ``ledger.oracle``, which joins plain
tuple sets and shares no code with this module.

The backend exposes a :class:`RelationStats` view — the textbook
``n_r`` / ``V(A, r)`` / ``deg(Y | X)`` statistics — with all computations
cached on the backend (and shared across renames, which reuse the
underlying storage), so the planner reads real statistics instead of
re-scanning relations on every candidate order.

**Mutation kernels.**  :meth:`ColumnarBackend.append_rows` and
:meth:`ColumnarBackend.delete_rows` are the primitives behind the
database's delta-based ``insert``/``delete`` path.  A write costs O(|Δ|)
interpreter work plus a constant number of memcpy-speed NumPy passes over
the code arrays, under three rules.  *Handover:* set semantics are decided
on a private set of code tuples (:meth:`ColumnarBackend._take_write_index`)
that a write pops from its predecessor, updates per row and gives to its
successor — never copied, never shared.  *Fork:* a version written a
second time (somebody kept a stale snapshot) finds no index and rebuilds
it from its own code columns, so both branches stay correct.  *Lineage:*
a column that gains no value keeps its dictionary; one that does mints an
*extended* dictionary rather than mutating the shared one (composite-key
strides cached by other relations stay valid), which takes over the
parent's value → code index and translation tables, so the next probe
patches a table for the values gained instead of rebuilding it
(:class:`_Dictionary`).  Deletes are tombstone kernels: the surviving
backend carries a Boolean tombstone mask and compacts **lazily** on first
kernel access.  Seeded on the successor: the write index, per-column
distinct codes (exact under appends) and the max-degree entries (sound
upper bounds, ``old + |Δ|``).  Never seeded: the public ``row_set`` (a
frozenset: a copy per write) and the caches whose values feed *answers*
(``ndistinct``, order/probe/sjprobe/trie structures) — they rebuild on
first use.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union as TUnion,
)

import numpy as np

from ..matmul.boolean import boolean_multiply
from .ordering import _uniform_natural_order, value_order_key

Value = object
Row = Tuple[Value, ...]

#: Largest dictionary-size product one int64 composite key may span; wider
#: keys are ranked densely on their code rows (:meth:`ColumnarBackend._row_keys`).
_COMPOSITE_LIMIT = 1 << 62

#: Per-backend cap on cached probe structures / translation tables of one
#: family.  Backends of database-resident relations live for the process;
#: without a bound, every distinct probing partner would leave an entry
#: behind forever (the distinct/degree statistics caches are fine — their
#: key space is the relation's own columns, which is small and fixed).
_FAMILY_CACHE_LIMIT = 16


def _put_bounded(cache: dict, key: tuple, value: object, limit: int) -> None:
    """Insert into a backend cache, evicting oldest same-family entries.

    The family is ``key[0]`` (e.g. ``"sjprobe"``); plain dicts preserve
    insertion order, so the first matching key is the oldest.

    Thread contract (shared with every lazy backend cache): individual
    ``dict`` operations and ``list(dict)`` snapshots are atomic under the
    GIL, so concurrent VM workers may at worst duplicate work or briefly
    over-retain — never corrupt.  The eviction scan therefore iterates a
    snapshot, and deletions tolerate a racing evictor via ``pop(...,
    None)``; a Python-level comprehension over the live dict would raise
    ``dictionary changed size during iteration`` instead.
    """
    cache[key] = value
    family = key[0]
    snapshot = list(cache)  # atomic under the GIL
    family_keys = [
        k for k in snapshot if isinstance(k, tuple) and k and k[0] == family
    ]
    for stale in family_keys[: max(len(family_keys) - limit, 0)]:
        cache.pop(stale, None)


_INT64_MAX = (1 << 63) - 1  #: the largest count a ``count_tree`` returns

#: How many (group, key) cells per ranked row a presence table may span
#: before :func:`_ranks_within_groups` sorts instead.
_PRESENCE_CELLS_PER_ROW = 8

#: No rows: an operand the product does not have (its mask, when unmasked).
#: Only ever indexed, never written.
_NO_ROWS = np.empty(0, dtype=np.int64)


def _checked_count(total: int) -> int:
    if total > _INT64_MAX:
        raise OverflowError(f"join-tree count {total} does not fit in int64")
    return total


#: NumPy dtype kinds that round-trip safely through ``np.unique().tolist()``.
_FAST_KINDS = "biufU"

#: Homogeneous Python element types eligible for the vectorized encoder.
_FAST_TYPES = (bool, int, float, str)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
class RelationStats:
    """Per-relation statistics: ``n_r``, ``V(A, r)`` and ``deg(Y | X)``.

    A lightweight named view over a backend's cached positional statistics;
    the planner consumes these instead of recomputing distinct sets and
    degree maps from scratch for every candidate elimination order.
    """

    __slots__ = ("_backend",)

    def __init__(self, backend: "ColumnarBackend") -> None:
        self._backend = backend

    @property
    def n_rows(self) -> int:
        """The relation cardinality ``n_r``."""
        return len(self._backend)

    def distinct(self, variable: str) -> int:
        """``V(A, r)``: the number of distinct values of one column."""
        return self._backend.distinct_count(self._backend.position(variable))

    @property
    def distinct_counts(self) -> Dict[str, int]:
        """``V(A, r)`` for every column of the schema."""
        return {
            variable: self._backend.distinct_count(position)
            for position, variable in enumerate(self._backend.schema)
        }

    def max_degree(self, target: Sequence[str], given: Sequence[str] = ()) -> int:
        """``deg(target | given)``: the worst-case fan-out (cached)."""
        schema = self._backend.schema
        target_positions = tuple(
            self._backend.position(v) for v in target if v in schema
        )
        given_positions = tuple(
            self._backend.position(v) for v in given if v in schema
        )
        return self._backend.max_degree(target_positions, given_positions)

    def fingerprint(self) -> Tuple[int, Tuple[int, ...]]:
        """A hashable summary ``(n_r, V(A, r) per column)`` for cache keys."""
        return self._backend.stats_fingerprint()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RelationStats(n={self.n_rows}, V={self.distinct_counts})"


# ----------------------------------------------------------------------
# ColumnarBackend: dictionary-encoded NumPy columns
# ----------------------------------------------------------------------
class _Dictionary:
    """One shared encoding dictionary: the code → value array plus caches.

    Every column derived from the same encoding (renames, row subsets,
    row slices, operator outputs) points at the *same* dictionary
    object, so the lazily built value → code hash index and the
    cross-dictionary translation tables are built once and visible to all
    of them — including columns created before the index existed.

    Dictionaries grow as a *lineage* (:meth:`extended`): successive
    versions share one index and one lineage token, each version being
    the prefix ``[0, len(values))`` of the newest.  The shared index may
    thus hold codes of later versions; reads go through :meth:`lookup`,
    which reports those as absent (composite-key strides would alias an
    out-of-range code onto another row).
    """

    __slots__ = ("values", "_index", "_xlate", "_order_ranks", "_lineage")

    def __init__(
        self, values: np.ndarray, index: Optional[Dict[Value, int]] = None
    ) -> None:
        self.values = values
        self._index = index
        self._order_ranks: Optional[np.ndarray] = None
        #: The lineage token, shared by every version: a one-element list
        #: holding the newest version's size.  ``pop`` is the atomic claim
        #: that lets exactly one writer at a time extend the lineage.
        self._lineage: List[int] = [len(values)]
        #: id(other lineage token) → (table, own size it was built for,
        #: that token); versions are prefixes, so the table's length names
        #: the other version.  Pinning the token, never the dictionary,
        #: keeps old versions of both sides (and their tables) collectable.
        self._xlate: Dict[int, Tuple[np.ndarray, int, List[int]]] = {}

    @property
    def index(self) -> Dict[Value, int]:
        if self._index is None:
            self._index = self._build_index()
        return self._index

    def _build_index(self) -> Dict[Value, int]:
        return {value: code for code, value in enumerate(self.values)}

    def lookup(self, value: Value) -> Optional[int]:
        """The code of ``value`` in *this* version, ``None`` when absent."""
        code = self.index.get(value)
        return code if code is not None and code < len(self.values) else None

    def extended(self, extension: List[Value]) -> "_Dictionary":
        """The successor version holding ``extension`` (absent here) as well.

        Never mutates this version: other backends share it, and their
        composite-key caches bake its size into their strides.  The newest
        version of a lineage hands its index and translation tables on in
        O(|extension|); any other one (a fork) starts a new lineage whose
        index rebuilds lazily.
        """
        size = len(self.values)
        values = np.empty(size + len(extension), dtype=object)
        values[:size] = self.values
        values[size:] = extension
        try:
            newest = self._lineage.pop()
        except IndexError:  # another writer is extending the lineage now
            return _Dictionary(values)
        if newest != size:
            self._lineage.append(newest)
            return _Dictionary(values)
        index = self.index
        index.update(zip(extension, range(size, len(values))))
        heir = _Dictionary(values, index)
        heir._lineage, heir._xlate = self._lineage, dict(self._xlate)
        self._lineage.append(len(values))
        return heir

    @property
    def order_ranks(self) -> np.ndarray:
        """Code → rank under the deterministic value order.

        Codes are *not* value-ordered in general: the ``np.unique`` path of
        :meth:`_Column.from_values` assigns them sorted, the dict-encoding
        fallback (mixed types, NaN columns) first-seen.  Type-uniform
        values (:func:`~repro.db.ordering._uniform_natural_order`'s rule)
        rank by a NumPy argsort of their natural order, anything else by
        the :func:`~repro.db.ordering.value_order_key` sort.
        """
        if self._order_ranks is None:
            values = self.values
            if _uniform_natural_order((value,) for value in values):
                order = np.argsort(values, kind="stable")
            else:
                order = sorted(range(len(values)), key=lambda c: value_order_key(values[c]))
            ranks = np.empty(len(values), dtype=np.int64)
            ranks[order] = np.arange(len(values), dtype=np.int64)
            self._order_ranks = ranks
        return self._order_ranks

    def translate_from(self, other: "_Dictionary") -> np.ndarray:
        """A table mapping the other dictionary's codes into this one.

        Values unknown here map to ``-1``.  Cached per *lineage* pair, so
        repeated probes between the same two relations (Yannakakis
        passes, ``ask_many`` batches, enumeration chunks) build it once,
        and after a write only the values either side gained since are
        looked up — on a copy: readers may still hold the cached table.
        Past ``_FAMILY_CACHE_LIMIT`` partners the least recently used
        table is evicted, so a pair in steady use is never rebuilt.
        """
        if other is self:
            table = np.arange(len(self.values), dtype=np.int64)
            return table
        key = id(other._lineage)
        size = len(self.values)
        entry = self._xlate.get(key)
        if entry is not None and len(entry[0]) == len(other.values) and entry[1] == size:
            # Re-inserted on every hit, so the dict's order is recency and
            # eviction below drops the least recently used table.
            self._xlate.pop(key, None)
            self._xlate[key] = entry
            return entry[0]
        if entry is None or len(entry[0]) > len(other.values):
            table = self._build_table(other)
        else:
            # Entries come from this version or its ancestors and ``other``
            # is a successor of the one they were built for: extend by its
            # new codes, then enter the codes this side gained.
            found = [self.lookup(value) for value in other.values[len(entry[0]):]]
            table = np.concatenate(
                (entry[0], np.array([-1 if c is None else c for c in found], dtype=np.int64))
            )
            for code in range(entry[1], size):
                theirs = other.lookup(self.values[code])
                if theirs is not None:
                    table[theirs] = code
        self._xlate.pop(key, None)
        self._xlate[key] = (table, size, other._lineage)
        # Bound the table count: a process-long dictionary (stored
        # relation) probed by many distinct partners must not pin them
        # all forever.  Evict the least recently used over a snapshot with
        # pop(..., None) — concurrent workers may race this loop (see
        # _put_bounded's thread contract).
        overflow = len(self._xlate) - _FAMILY_CACHE_LIMIT
        if overflow > 0:
            for stale in list(self._xlate)[:overflow]:
                self._xlate.pop(stale, None)
        return table

    def _build_table(self, other: "_Dictionary") -> np.ndarray:
        if other._index is not None and len(self.values) < len(other.values):
            # The smaller side drives when the larger one is indexed already
            # (a one-row delta probing a stored relation it has never met):
            # build the opposite table and invert it.
            inverse = other._build_table(self)
            table = np.full(len(other.values), -1, dtype=np.int64)
            known = np.nonzero(inverse >= 0)[0]
            table[inverse[known]] = known
            return table
        own_index = self.index
        table = np.fromiter(
            (own_index.get(value, -1) for value in other.values),
            dtype=np.int64,
            count=len(other.values),
        )
        if len(own_index) > len(self.values):
            table[table >= len(self.values)] = -1  # codes of later versions
        return table


class _Column:
    """One dictionary-encoded column: ``int64`` codes + a shared dictionary.

    ``values`` (an object ndarray) decodes codes vectorized; the value →
    code hash index lives on the shared :class:`_Dictionary` and the
    distinct-code set is built lazily per column.  Columns are immutable
    and freely shared between backends, so operator outputs reuse the
    input dictionaries without re-encoding.
    """

    __slots__ = ("codes", "dictionary", "_distinct_codes", "_ranks")

    def __init__(
        self,
        codes: np.ndarray,
        dictionary: TUnion[np.ndarray, _Dictionary],
        index: Optional[Dict[Value, int]] = None,
    ) -> None:
        self.codes = codes
        if not isinstance(dictionary, _Dictionary):
            dictionary = _Dictionary(dictionary, index)
        self.dictionary = dictionary
        self._distinct_codes: Optional[np.ndarray] = None
        self._ranks: Optional[Tuple[np.ndarray, ...]] = None

    @property
    def values(self) -> np.ndarray:
        return self.dictionary.values

    @property
    def index(self) -> Dict[Value, int]:
        return self.dictionary.index

    @property
    def distinct_codes(self) -> np.ndarray:
        if self._distinct_codes is None:
            self._distinct_codes = np.unique(self.codes)
        return self._distinct_codes

    @property
    def ranks(self) -> Tuple[np.ndarray, ...]:
        """The codes ranked as one group, cached: ``(rank per row, rank per
        code, distinct codes, first row per distinct code)``.

        The per-code table ranks a code absent here, and the ``-1`` of an
        unknown value (its last entry), ``-1``: a lookup is one gather.
        """
        if self._ranks is None:
            rank, count, heads = _ranks_within_groups(None, self.codes, 1, len(self.codes))
            table = np.full(len(self.values) + 1, -1, dtype=np.int64)
            table[self.codes] = rank
            self._ranks = (rank, table, count, heads)
        return self._ranks

    def take(self, row_indices: np.ndarray) -> "_Column":
        return _Column(self.codes[row_indices], self.dictionary)

    def with_codes(self, codes: np.ndarray) -> "_Column":
        return _Column(codes, self.dictionary)

    def decode(self) -> np.ndarray:
        """The column as an object array of original values."""
        return self.values[self.codes]

    @classmethod
    def from_values(cls, column: Sequence[Value]) -> "_Column":
        """Encode raw values; vectorized when the column is homogeneous."""
        arr: Optional[np.ndarray] = None
        if isinstance(column, np.ndarray):
            if column.ndim == 1 and column.dtype.kind in _FAST_KINDS:
                arr = column
        else:
            column = list(column)
            element_types = set(map(type, column))
            if len(element_types) == 1 and element_types.pop() in _FAST_TYPES:
                candidate = np.asarray(column)
                if candidate.ndim == 1 and candidate.dtype.kind in _FAST_KINDS:
                    arr = candidate
        if arr is not None and arr.dtype.kind == "f" and np.isnan(arr).any():
            # np.unique collapses NaNs; Python set semantics keep distinct
            # NaN objects apart, so NaN columns take the dict-encoding path
            # below (over the original values) to answer like a tuple set.
            arr = None
        if arr is not None:
            uniques, inverse = np.unique(arr, return_inverse=True)
            values = np.empty(len(uniques), dtype=object)
            values[:] = uniques.tolist()
            return cls(inverse.astype(np.int64, copy=False), values)
        index: Dict[Value, int] = {}
        codes = np.empty(len(column), dtype=np.int64)
        for position, value in enumerate(column):
            code = index.get(value)
            if code is None:
                code = len(index)
                index[value] = code
            codes[position] = code
        values = np.empty(len(index), dtype=object)
        for value, code in index.items():
            values[code] = value
        return cls(codes, values, index)


class ColumnarBackend:
    """Storage + operators for one relation: dictionary-encoded columns.

    The positional half of a :class:`~repro.db.relation.Relation`, which
    only translates variable names to column positions, calls a method
    here and wraps what comes back.  Every operator is total and returns
    a new backend; rows follow set semantics (no duplicates).  Per-row
    Python loops are replaced by NumPy kernels over code arrays, and hash
    indexes are built lazily and cached.
    """

    __slots__ = ("schema", "_cols", "_n", "_cache", "_tombstones")

    def __init__(
        self,
        schema: Tuple[str, ...],
        columns: Sequence[_Column],
        n_rows: int,
        cache: Optional[dict] = None,
        tombstones: Optional[np.ndarray] = None,
    ) -> None:
        self.schema = schema
        self._cols = tuple(columns)
        self._n = n_rows
        self._cache: dict = cache if cache is not None else {}
        #: Pending-delete mask over the *stored* code arrays (which may be
        #: longer than ``n_rows``); compaction is deferred to the first
        #: kernel access — see :attr:`_columns`.
        self._tombstones = tombstones

    @property
    def _columns(self) -> Tuple[_Column, ...]:
        """The live columns, compacting pending tombstones on first access.

        ``delete_rows`` marks victims in a Boolean mask instead of
        gathering survivors eagerly; every kernel reads columns through
        this one choke point, so the gather happens at most once — and not
        at all for a relation that is deleted from but never probed again.
        The benign race under concurrent VM workers recomputes the same
        compaction (columns are immutable), it cannot corrupt.
        """
        if self._tombstones is not None:
            keep = np.nonzero(~self._tombstones)[0]
            self._cols = tuple(column.take(keep) for column in self._cols)
            self._tombstones = None
        return self._cols

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_rows(cls, schema, rows):
        width = len(schema)
        materialized: List[Row] = []
        for row in rows:
            row_tuple = tuple(row)
            if len(row_tuple) != width:
                raise ValueError(
                    f"row {row_tuple} does not match schema of width {width}"
                )
            materialized.append(row_tuple)
        if not schema:
            return cls(schema, (), 1 if materialized else 0)
        columns = (
            [list(column) for column in zip(*materialized)]
            if materialized
            else [[] for _ in schema]
        )
        return cls._from_encoded(schema, [_Column.from_values(c) for c in columns])

    @staticmethod
    def _validate_columns(
        schema: Tuple[str, ...], columns: Sequence[Sequence[Value]]
    ) -> Tuple[List[Sequence[Value]], int]:
        """Shared ``from_columns`` validation: widths and equal lengths.

        Returns the materialized columns and the common row count.
        """
        columns = [
            column if hasattr(column, "__len__") else list(column)
            for column in columns
        ]
        if len(columns) != len(schema):
            raise ValueError(
                f"{len(columns)} columns do not match schema of width {len(schema)}"
            )
        lengths = {len(column) for column in columns}
        if len(lengths) > 1:
            raise ValueError(f"columns have unequal lengths {sorted(lengths)}")
        return columns, (lengths.pop() if lengths else 0)

    @classmethod
    def from_columns(cls, schema, columns):
        columns, count = cls._validate_columns(schema, columns)
        if not schema:
            return cls(schema, (), 1 if count else 0)
        return cls._from_encoded(schema, [_Column.from_values(c) for c in columns])

    @classmethod
    def _from_encoded(
        cls, schema: Tuple[str, ...], columns: List[_Column]
    ) -> "ColumnarBackend":
        """Deduplicate encoded columns and wrap them."""
        n = len(columns[0].codes) if columns else 0
        if n:
            stacked = np.stack([column.codes for column in columns], axis=1)
            unique_rows = np.unique(stacked, axis=0)
            if len(unique_rows) != n:
                columns = [
                    column.with_codes(unique_rows[:, i])
                    for i, column in enumerate(columns)
                ]
                n = len(unique_rows)
        return cls(schema, columns, n)

    # -- core accessors -------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def iter_rows(self) -> Iterator[Row]:
        if not self.schema:
            return iter([()] * self._n)
        decoded = [column.decode() for column in self._columns]
        return zip(*decoded)

    def row_set(self) -> FrozenSet[Row]:
        cached = self._cache.get("row_set")
        if cached is None:
            cached = frozenset(self.iter_rows())
            self._cache["row_set"] = cached
        return cached

    def rename(self, schema: Tuple[str, ...]) -> "ColumnarBackend":
        return ColumnarBackend(schema, self._columns, self._n, self._cache)

    def take(self, row_indices: np.ndarray) -> "ColumnarBackend":
        """A new backend over a subset of rows (codes gathered, dicts shared)."""
        return ColumnarBackend(
            self.schema,
            [column.take(row_indices) for column in self._columns],
            len(row_indices),
        )

    def slice_rows(self, start: int, stop: int) -> "ColumnarBackend":
        """Rows ``[start, stop)`` as a new backend over code-array *views*.

        The chunk entry point of the streaming enumeration cursors: no
        codes are copied, and the dictionaries (with their lazily-built
        value→code indexes) stay shared with the parent, so chunks probe
        through the parent's caches.
        """
        start = max(start, 0)
        stop = min(stop, self._n)
        count = max(stop - start, 0)
        if not self._columns:
            return ColumnarBackend(self.schema, (), min(count, self._n))
        columns = [
            column.with_codes(column.codes[start:stop]) for column in self._columns
        ]
        return ColumnarBackend(self.schema, columns, count)

    # -- mutation kernels -------------------------------------------------
    def _checked_rows(self, rows: Iterable[Sequence[Value]]) -> List[Row]:
        width = len(self.schema)
        checked = [tuple(row) for row in rows]
        for row_tuple in checked:
            if len(row_tuple) != width:
                raise ValueError(
                    f"row {row_tuple} does not match schema of width {width}"
                )
        return checked

    def _take_write_index(self) -> set:
        """The stored rows as a set of code tuples, *taken* from this version.

        Only the two write kernels touch it: a write pops it (one atomic
        dict operation, so two writers never share it), updates it in
        O(|Δ|) and gives it to its successor — or back, when nothing
        changed.  A version written a second time (a fork from a stale
        snapshot) finds none and rebuilds it from its own code columns.
        """
        index = self._cache.pop("write_index", None)
        if index is None:
            index = set(zip(*(column.codes.tolist() for column in self._columns)))
        return index

    def append_rows(self, rows):
        incoming = self._checked_rows(rows)
        if not self.schema:
            if self._n or not incoming:
                return self, ()
            return ColumnarBackend(self.schema, (), 1), ((),)
        old_columns = self._columns
        dictionaries = [column.dictionary for column in old_columns]
        #: Per column, the values this write brings: value → its new code,
        #: in input order.
        minted: List[Dict[Value, int]] = [{} for _ in dictionaries]
        stored = self._take_write_index()
        added: List[Row] = []
        added_codes: List[Tuple[int, ...]] = []
        for row_tuple in incoming:
            codes = []
            for dictionary, fresh, value in zip(dictionaries, minted, row_tuple):
                code = dictionary.lookup(value)
                if code is None:
                    code = fresh.get(value)
                    if code is None:
                        code = fresh[value] = len(dictionary.values) + len(fresh)
                codes.append(code)
            key = tuple(codes)
            if key not in stored:
                stored.add(key)
                added.append(row_tuple)
                added_codes.append(key)
        if not added:
            self._cache["write_index"] = stored
            return self, ()
        fresh_codes = np.array(added_codes, dtype=np.int64)
        new_columns: List[_Column] = []
        for position, own in enumerate(old_columns):
            fresh = fresh_codes[:, position]
            # A column that gains no value keeps its dictionary (and every
            # cache keyed on it) and copies nothing.
            dictionary = own.dictionary
            if minted[position]:
                dictionary = dictionary.extended(list(minted[position]))
            column = _Column(np.concatenate([own.codes, fresh]), dictionary)
            # Distinct codes stay exact under appends: old codes survive
            # unchanged (the extended dictionary is a superset) and the
            # fresh codes are merged into the sorted array — a stable sort
            # of nearly sorted input, not np.union1d's hash of all of it.
            if own._distinct_codes is not None:
                merged = np.concatenate((own._distinct_codes, fresh))
                merged.sort(kind="stable")
                column._distinct_codes = merged[np.append(True, merged[1:] != merged[:-1])]
            new_columns.append(column)
        out = ColumnarBackend(self.schema, new_columns, self._n + len(added))
        out._cache["write_index"] = stored
        for key, value in list(self._cache.items()):
            if isinstance(key, tuple) and key and key[0] == "degree":
                # A group key gains at most |added| distinct targets: keep
                # the entry as a sound upper bound for the cost model.
                out._cache[key] = value + len(added)
        return out, tuple(added)

    def delete_rows(self, rows):
        incoming = self._checked_rows(rows)
        if not self.schema:
            if not self._n or not incoming:
                return self, ()
            return ColumnarBackend(self.schema, (), 0), ((),)
        columns = self._columns
        stored = self._take_write_index()
        victims: List[Tuple[int, ...]] = []
        for row_tuple in incoming:
            # A value missing from a dictionary has no code, and a key
            # holding None is in no stored row.
            key = tuple(self.lookup_code(p, value) for p, value in enumerate(row_tuple))
            if key in stored:
                stored.discard(key)
                victims.append(key)
        if not victims:
            self._cache["write_index"] = stored
            return self, ()
        positions = tuple(range(len(columns)))
        victim_codes = np.array(victims, dtype=np.int64)
        targets = ColumnarBackend(
            self.schema,
            [column.with_codes(victim_codes[:, p]) for p, column in enumerate(columns)],
            len(victims),
        )
        row_keys, target_keys = self._shared_keys(positions, targets, positions)
        # Tombstone, don't gather: the new backend shares the stored code
        # arrays and compacts lazily on first kernel access (_columns).
        out = ColumnarBackend(
            self.schema,
            columns,
            self._n - len(victims),
            tombstones=np.isin(row_keys, target_keys),
        )
        out._cache["write_index"] = stored
        for key, value in list(self._cache.items()):
            if isinstance(key, tuple) and key and key[0] == "degree":
                out._cache[key] = value  # still a sound upper bound
        removed = tuple(
            tuple(column.values[code] for column, code in zip(columns, key))
            for key in victims
        )
        return out, removed

    def with_fresh_statistics(self) -> "ColumnarBackend":
        out = ColumnarBackend(self.schema, self._columns, self._n)
        # Answer-exact, not a statistic: the write index moves on.
        stored = self._cache.pop("write_index", None)
        if stored is not None:
            out._cache["write_index"] = stored
        return out

    def position(self, variable: str) -> int:
        try:
            return self.schema.index(variable)
        except ValueError:
            raise KeyError(
                f"variable {variable!r} not in schema {self.schema}"
            ) from None

    # -- statistics -----------------------------------------------------
    def stats(self) -> RelationStats:
        return RelationStats(self)

    def distinct_count(self, position: int) -> int:
        return len(self._columns[position].distinct_codes)

    def max_degree(self, target_positions, given_positions) -> int:
        key = ("degree", target_positions, given_positions)
        cached = self._cache.get(key)
        if cached is None:
            degrees = self.degree_counts(target_positions, given_positions)[1]
            cached = int(degrees.max()) if len(degrees) else 0
            self._cache[key] = cached
        return cached

    def stats_fingerprint(self):
        cached = self._cache.get("fingerprint")
        if cached is None:
            cached = (
                self._n,
                tuple(self.distinct_count(p) for p in range(len(self.schema))),
            )
            self._cache["fingerprint"] = cached
        return cached

    def count_distinct(self, positions: Sequence[int]) -> int:
        """Distinct projections counted on the code arrays (one np.unique).

        Cached alongside the distinct/degree statistics: the key space is
        the relation's own column subsets, which is small and fixed.
        """
        if not positions:
            return 1 if self._n else 0
        if len(set(positions)) == len(self.schema):
            return self._n  # every column: the rows are distinct already
        if len(positions) == 1:
            return len(self._columns[positions[0]].distinct_codes)
        key = ("ndistinct", tuple(positions))
        cached = self._cache.get(key)
        if cached is None:
            stacked = np.stack(self._codes(positions), axis=1)
            cached = len(np.unique(stacked, axis=0))
            self._cache[key] = cached
        return cached

    # -- key helpers ----------------------------------------------------
    def _codes(self, positions: Sequence[int]) -> List[np.ndarray]:
        return [self._columns[p].codes for p in positions]

    def _key_space(self, positions: Sequence[int]) -> int:
        """Size of the composite key space the dictionaries of ``positions`` span."""
        total = 1
        for position in positions:
            total *= max(len(self._columns[position].values), 1)
        return total

    def _fits(self, positions: Sequence[int]) -> bool:
        """Whether one int64 composite key can hold a row over ``positions``."""
        return self._key_space(positions) <= _COMPOSITE_LIMIT

    def _row_keys(
        self, code_arrays: Sequence[np.ndarray], positions: Sequence[int], n_rows: int
    ) -> np.ndarray:
        """One int64 key per row: equal, and ordered, exactly as the code rows are.

        The composite key — per-column codes mixed with the *dictionary*
        sizes of ``positions`` as strides; any code array expressed in
        those dictionaries' spaces can be mixed, which is how another
        relation's translated codes become probe keys.  This is the one
        place composite-key overflow is met: before a stride would carry
        the key space past ``_COMPOSITE_LIMIT``, the keys so far are
        replaced by their ranks among the distinct ones (one 1-D sort),
        which keeps equality and order and shrinks the space to at most
        ``n_rows``.  Ranks depend on the rows ranked, so keys from two
        calls compare only when ``positions`` :meth:`_fits`; wider keys of
        two relations are ranked together (:meth:`_shared_keys`).
        """
        if not code_arrays:
            return np.zeros(n_rows, dtype=np.int64)
        keys = code_arrays[0].astype(np.int64, copy=True)
        space = max(len(self._columns[positions[0]].values), 1)
        for codes, position in zip(code_arrays[1:], positions[1:]):
            size = max(len(self._columns[position].values), 1)
            if space * size > _COMPOSITE_LIMIT:
                # Afterwards space <= n_rows, and rows x one dictionary is
                # far inside int64 for anything that fits in memory.
                distinct, keys = np.unique(keys, return_inverse=True)
                space = len(distinct)
            keys *= size
            keys += codes
            space *= size
        return keys

    def translate_codes(
        self, position: int, other: "ColumnarBackend", other_position: int
    ) -> np.ndarray:
        """The other backend's column codes re-expressed in this dictionary.

        Values unknown to this side's dictionary map to ``-1``; the lookup
        table is built over the (small) dictionaries, not the rows, and
        cached per dictionary pair (see :meth:`_Dictionary.translate_from`).
        """
        theirs = other._columns[other_position]
        return _recode(theirs.codes, theirs.dictionary, self._columns[position].dictionary)

    def lookup_code(self, position: int, value: Value) -> Optional[int]:
        """The dictionary code of one value (the per-variable hash index)."""
        return self._columns[position].dictionary.lookup(value)

    def _shared_keys(
        self,
        positions: Sequence[int],
        other: "ColumnarBackend",
        other_positions: Sequence[int],
        *more: Tuple["ColumnarBackend", Sequence[int]],
    ) -> Tuple[np.ndarray, ...]:
        """Both sides' rows keyed over ``positions`` in this side's code space.

        The two-relation form of :meth:`_row_keys`, at any key width: the
        other side's codes are translated into this side's dictionaries and
        both sides' rows are keyed (and, past the composite limit, ranked)
        as one array, so ``own == theirs`` exactly where the rows agree.  A
        row of ``other`` carrying a value this side's dictionaries do not
        know matches nothing here and gets the key ``-1``.  Each further
        ``(backend, positions)`` pair in ``more`` is keyed the same way, in
        the same call, and gets one more array.
        """
        sides = ((other, other_positions),) + more
        if len(positions) == 1:
            # One column: the codes are the keys (read-only: they may be the
            # columns' own arrays), and an unknown value translates to -1.
            return (self._columns[positions[0]].codes,) + tuple(
                self.translate_codes(positions[0], side, side_positions[0])
                for side, side_positions in sides
            )
        translated = [
            [self.translate_codes(p, side, sp) for p, sp in zip(positions, side_positions)]
            for side, side_positions in sides
        ]
        joint = [
            np.concatenate([self._columns[p].codes] + [codes[i] for codes in translated])
            for i, p in enumerate(positions)
        ]
        ends = np.cumsum([self._n] + [side._n for side, _ in sides]).tolist()
        keys = self._row_keys(joint, positions, ends[-1])
        parts = [keys[: self._n]]
        for start, end, codes in zip(ends, ends[1:], translated):
            theirs = keys[start:end]
            for side_codes in codes:
                theirs[side_codes < 0] = -1
            parts.append(theirs)
        return tuple(parts)

    def sorted_composite_keys(
        self, positions: Tuple[int, ...]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(sorted keys, argsort order)`` of one column-set, cached.

        The composite-key sort order of a relation's columns is what every
        join and semijoin probe against; it only depends on (relation,
        column-set), so it is computed once and kept in the backend cache
        alongside the distinct/degree indexes — renames share it, and
        repeated probes (Yannakakis passes, ``ask_many`` batches,
        enumeration chunks) reuse it instead of re-sorting the build side
        every time.  Only for positions that :meth:`_fits`.
        """
        key = ("sortkeys", tuple(positions))
        entry = self._cache.get(key)
        if entry is None:
            keys = self._row_keys(self._codes(positions), positions, self._n)
            order = np.argsort(keys, kind="stable")
            entry = self._cache[key] = (keys[order], order)
        return entry

    def value_order_ranks(self, position: int) -> np.ndarray:
        """One column's code → rank table under the deterministic value order.

        Rank comparisons on codes are value comparisons under the
        ``select(order="sorted")`` contract.  The table costs O(dictionary),
        not O(rows), and lives on the column's shared :class:`_Dictionary`,
        so every relation derived from one encoding ranks it once.
        """
        return self._columns[position].dictionary.order_ranks

    def value_sorted_order(self, positions: Tuple[int, ...]) -> np.ndarray:
        """Row permutation ordering the rows by value over ``positions``.

        The value-order analogue of :meth:`sorted_composite_keys`: per-
        column codes are mapped through :meth:`value_order_ranks` and the
        rank arrays are mixed into one key per row with the same machinery
        (ranks occupy the same ``[0, |dict|)`` space as codes, and
        :meth:`_row_keys` preserves the lexicographic order at any width),
        then argsorted stably.  Cached per (relation, column-set), so
        repeated ranked enumerations over the same calibrated relations
        re-sort nothing.
        """
        key = ("valsort", tuple(positions))
        cached = self._cache.get(key)
        if cached is None:
            ranks = [
                self.value_order_ranks(p)[self._columns[p].codes] for p in positions
            ]
            keys = self._row_keys(ranks, positions, self._n)
            cached = self._cache[key] = np.argsort(keys, kind="stable")
        return cached

    def ordered_rows(self, limit):
        # Only the requested prefix of the cached permutation is decoded.
        order = self.value_sorted_order(tuple(range(len(self.schema))))
        return list(self.take(order if limit is None else order[:limit]).iter_rows())

    def ordered_values(self, position: int) -> List[Value]:
        """One column's distinct values in deterministic value order, cached."""
        key = ("ordvals", position)
        cached = self._cache.get(key)
        if cached is None:
            column = self._columns[position]
            codes = column.distinct_codes
            order = np.argsort(self.value_order_ranks(position)[codes], kind="stable")
            values = column.values
            cached = [values[c] for c in codes[order]]
            self._cache[key] = cached
        return cached

    # -- operators ------------------------------------------------------
    def restrict(self, position: int, values: Iterable[Value]) -> "ColumnarBackend":
        """Rows whose ``position`` value lies in ``values`` (index probe)."""
        lookup = self._columns[position].dictionary.lookup
        wanted = [code for code in map(lookup, values) if code is not None]
        if not wanted:
            return self.take(np.empty(0, dtype=np.int64))
        mask = np.isin(self._columns[position].codes, np.asarray(wanted, dtype=np.int64))
        return self.take(np.nonzero(mask)[0])

    def project(self, positions: Sequence[int], schema: Tuple[str, ...]) -> "ColumnarBackend":
        if not positions:
            return ColumnarBackend(schema, (), 1 if self._n else 0)
        if len(positions) == 1:
            column = self._columns[positions[0]]
            codes = column.distinct_codes
            return ColumnarBackend(
                schema, [column.with_codes(codes)], len(codes)
            )
        stacked = np.stack(self._codes(positions), axis=1)
        unique_rows = np.unique(stacked, axis=0)
        columns = [
            self._columns[p].with_codes(unique_rows[:, i])
            for i, p in enumerate(positions)
        ]
        return ColumnarBackend(schema, columns, len(unique_rows))

    def _probe_keys(
        self,
        self_positions: Sequence[int],
        other: "ColumnarBackend",
        other_positions: Sequence[int],
    ) -> np.ndarray:
        """This side's rows as composite keys in the *other* side's key space.

        Rows carrying a value unknown to the other side's dictionaries get
        the sentinel key ``-1`` (valid keys are always non-negative), so
        they match nothing when probed.  Only when ``other_positions``
        :meth:`_fits` on the other side.
        """
        translated = []
        valid: Optional[np.ndarray] = None
        for sp, op in zip(self_positions, other_positions):
            codes = other.translate_codes(op, self, sp)
            ok = codes >= 0
            valid = ok if valid is None else (valid & ok)
            translated.append(codes)
        keys = other._row_keys(translated, other_positions, self._n)
        if valid is not None and not valid.all():
            # Mixing a -1 component into a composite key can collide with
            # a genuine key, so invalid rows are stamped out wholesale.
            keys[~valid] = -1
        return keys

    def _semijoin_probe(
        self,
        self_positions: Sequence[int],
        other: "ColumnarBackend",
        other_positions: Sequence[int],
    ) -> Tuple[str, np.ndarray]:
        """The reducer's key set, prepared for probing from this side.

        Returns ``("table", dense Boolean lookup table over this side's
        composite code space)`` when the space is small enough, else
        ``("keys", the reducer's translated composite keys)`` for an
        ``isin`` probe; only when ``self_positions`` :meth:`_fits`.  The
        structure is
        cached on the *reducer's* backend keyed by the probing side's
        dictionaries, so every later probe from a relation sharing those
        dictionaries (Yannakakis passes, ``ask_many`` batches, enumeration
        chunks) reuses one build.
        """
        dictionaries = tuple(self._columns[p].dictionary for p in self_positions)
        key = (
            "sjprobe",
            tuple(other_positions),
            tuple(id(dictionary) for dictionary in dictionaries),
        )
        # The entry pins the probing dictionaries, so their ids cannot be
        # reused by other live objects: a key match implies the same
        # dictionaries, no further validation needed.
        cached = other._cache.get(key)
        if cached is not None:
            return cached[0], cached[1]
        translated = []
        valid: Optional[np.ndarray] = None
        for sp, op in zip(self_positions, other_positions):
            codes = self.translate_codes(sp, other, op)
            ok = codes >= 0
            valid = ok if valid is None else (valid & ok)
            translated.append(codes)
        if valid is not None and not valid.all():
            keep = np.nonzero(valid)[0]
            translated = [codes[keep] for codes in translated]
        right_count = len(translated[0]) if translated else len(other)
        right_keys = self._row_keys(translated, self_positions, right_count)
        space = self._key_space(self_positions)
        # Probe-side-size-independent decision, so a row slice and its
        # parent take the same deterministic path.
        if space <= min(
            max(8 * max(right_count, 1), 1 << 16), 1 << 26
        ):
            table = np.zeros(space, dtype=bool)
            table[right_keys] = True
            entry: Tuple[str, np.ndarray] = ("table", table)
        else:
            entry = ("keys", right_keys)
        # The stored tuple carries the probing dictionaries purely to pin
        # them (keeping the key's ids valid); bounded per backend so a
        # process-long reducer can't accumulate probe tables forever.
        _put_bounded(
            other._cache, key, (entry[0], entry[1], dictionaries), _FAMILY_CACHE_LIMIT
        )
        return entry

    def semijoin(
        self,
        self_positions: Sequence[int],
        other: "ColumnarBackend",
        other_positions: Sequence[int],
        negate: bool = False,
    ) -> "ColumnarBackend":
        """The rows kept by a semijoin, gathered once through a Boolean mask.

        The reducer's codes are translated into this side's key space
        (cached per dictionary pair) and probed through a cached dense
        lookup table over the code space when it is small enough, else
        ``isin`` (see :meth:`_semijoin_probe`); keys too wide for one int64
        are ranked jointly over both sides (:meth:`_shared_keys`).
        """
        if self._fits(self_positions):
            left_keys = self._row_keys(
                self._codes(self_positions), self_positions, self._n
            )
            kind, data = self._semijoin_probe(self_positions, other, other_positions)
        else:
            left_keys, data = self._shared_keys(self_positions, other, other_positions)
            kind = "keys"
        membership = data[left_keys] if kind == "table" else np.isin(left_keys, data)
        return self.take(np.nonzero(~membership if negate else membership)[0])

    def join(
        self,
        self_positions: Sequence[int],
        other: "ColumnarBackend",
        other_positions: Sequence[int],
        other_extra_positions: Sequence[int],
        schema: Tuple[str, ...],
    ) -> "ColumnarBackend":
        """Natural join probing the build side's composite-key sort.

        The probe (``self``) side's keys are translated into the build
        (``other``) side's key space and looked up with ``searchsorted``
        against :meth:`sorted_composite_keys` — the sort order is computed
        once per (relation, column-set) and reused across probes.  Keys too
        wide for one int64 are ranked jointly over both sides
        (:meth:`_shared_keys`) and sorted for this one join.
        """
        if other._fits(other_positions):
            sorted_keys, order = other.sorted_composite_keys(tuple(other_positions))
            left_keys = self._probe_keys(self_positions, other, other_positions)
        else:
            build_keys, left_keys = other._shared_keys(
                other_positions, self, self_positions
            )
            order = np.argsort(build_keys, kind="stable")
            sorted_keys = build_keys[order]

        starts = np.searchsorted(sorted_keys, left_keys, side="left")
        ends = np.searchsorted(sorted_keys, left_keys, side="right")
        counts = ends - starts
        total = int(counts.sum())
        left_out = np.repeat(np.arange(self._n, dtype=np.int64), counts)
        if total:
            offsets = np.cumsum(counts) - counts
            within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
            right_out = order[np.repeat(starts, counts) + within]
        else:
            right_out = np.empty(0, dtype=np.int64)
        columns = [column.take(left_out) for column in self._columns]
        columns.extend(other._columns[p].take(right_out) for p in other_extra_positions)
        # Inputs are sets, so (left row, right row) pairs — and hence the
        # concatenated output rows — are already distinct.
        return ColumnarBackend(schema, columns, total)

    def count_tree(self, edges):
        """Multiplicities on codes: per edge the parent's rows are located
        in the child's cached composite-key sort, as :meth:`join` probes
        its build side (keys too wide for one int64 ranked jointly,
        :meth:`_shared_keys`), and read the child's summed multiplicities
        off one prefix sum."""
        nodes = [self] + [child for _, _, child, _ in edges]
        weights: List[Optional[np.ndarray]] = [None] * len(nodes)
        for node in range(len(edges), 0, -1):  # children before their parents
            parent, parent_positions, child, positions = edges[node - 1]
            if child._fits(positions):
                sorted_keys, order = child.sorted_composite_keys(tuple(positions))
                probe = nodes[parent]._probe_keys(parent_positions, child, positions)
            else:
                build, probe = child._shared_keys(positions, nodes[parent], parent_positions)
                order = np.argsort(build, kind="stable")
                sorted_keys = build[order]
            runs = [np.searchsorted(sorted_keys, probe, side=side) for side in ("left", "right")]
            weights[parent] = _edge_weights(weights[parent], weights[node], order, *runs)
        root = weights[0]
        if root is None or _largest(root) * len(root) <= _INT64_MAX:
            return self._n if root is None else int(root.sum())
        return _checked_count(sum(root.tolist()))

    # -- worst-case-optimal join ----------------------------------------
    def _trie(self, positions: Tuple[int, ...]) -> List[Tuple[np.ndarray, ...]]:
        """The rows as a trie over ``positions``, one level per column, cached.

        Level ``j`` is ``(keys, code_j per key, |dict_j|, a dense Boolean
        table over the key space or None)``: the sorted distinct prefixes
        over ``positions[:j + 1]`` keyed ``node * |dict_j| + code_j``, with
        ``node`` the prefix's index in level ``j - 1``, so a node's children
        are one key range at any row width.  They are read off the
        :meth:`sorted_composite_keys` order; the table follows
        :meth:`_semijoin_probe`'s size rule.
        """
        levels = self._cache.get(("trie", positions))
        if levels is None:
            order = self.sorted_composite_keys(positions)[1]
            fresh = np.arange(self._n) == 0  # the row opens a node at this level
            nodes = np.zeros(self._n, dtype=np.int64)  # its node one level up
            levels = []
            for position in positions:
                codes = self._columns[position].codes[order]
                fresh[1:] |= codes[1:] != codes[:-1]
                heads = np.nonzero(fresh)[0]
                size = max(len(self._columns[position].values), 1)
                keys = nodes[heads] * size + codes[heads]
                space = (int(nodes[-1]) + 1 if self._n else 1) * size
                table = None
                if space <= min(max(8 * max(len(keys), 1), 1 << 16), 1 << 26):
                    table = np.zeros(space, dtype=bool)
                    table[keys] = True
                levels.append((keys, codes[heads], size, table))
                nodes = np.cumsum(fresh) - 1
            self._cache[("trie", positions)] = levels  # whole, for concurrent readers
        return levels

    @staticmethod
    def wcoj(atoms, schema, find_all, morsel_size, token=None) -> "ColumnarBackend":
        """GenericJoin on codes: the bindings of ``schema`` every atom holds.

        ``atoms`` pairs each backend with the ``schema`` index of each of
        its columns.  A batch of bindings is one code array per bound
        variable, in the dictionary of the first atom holding it.  Each
        binding's candidates in an atom are the children of its node in the
        atom's :meth:`_trie`; it expands from the atom with the fewest (the
        AGM bound) and probes the others.  Depth first, in morsels of
        ``morsel_size`` bindings, ``token`` checked once per morsel and
        level; without ``find_all`` it stops at the first complete binding.
        """
        tries = []
        holders: List[List[Tuple[int, int, _Dictionary]]] = [[] for _ in schema]
        for a, (backend, variables) in enumerate(atoms):
            positions = tuple(sorted(range(len(variables)), key=variables.__getitem__))
            tries.append(backend._trie(positions))
            for level, position in enumerate(positions):
                dictionary = backend._columns[position].dictionary
                holders[variables[position]].append((a, level, dictionary))
        found: List[List[np.ndarray]] = []

        def extend(codes, nodes, depth):
            """The bindings extended by variable ``depth``.  ``nodes[a]`` is
            each binding's node in atom ``a``'s trie, None once ``a`` is done."""
            here = holders[depth]
            ranges = []
            for a, level, _ in here:
                keys, _, size, _ = tries[a][level]
                low = nodes[a] * size
                ranges.append((np.searchsorted(keys, low), np.searchsorted(keys, low + size)))
            counts = np.stack([high - low for low, high in ranges])
            expand_from = np.argmin(counts, axis=0)
            # The holders with a deeper variable to bind, and their nodes reached.
            reached = {a: [] for a, level, _ in here if level + 1 < len(tries[a])}
            parents, bound = [], []
            for i, (a, level, dictionary) in enumerate(here):
                rows = np.nonzero(expand_from == i)[0]
                fan = counts[i][rows]
                parent = np.repeat(rows, fan)
                node = np.repeat(ranges[i][0][rows] - (np.cumsum(fan) - fan), fan)
                node += np.arange(len(node), dtype=np.int64)
                code = tries[a][level][1][node]
                at = {a: node} if a in reached else {}
                for b, b_level, b_dictionary in here[:i] + here[i + 1:]:
                    theirs = _recode(code, dictionary, b_dictionary)
                    keys, _, size, table = tries[b][b_level]
                    probe = theirs + nodes[b][parent] * size
                    # A value b does not know (-1) would alias the key before it.
                    hit = table[probe] if table is not None else _find(keys, probe) >= 0
                    keep = np.nonzero(hit & (theirs >= 0))[0]
                    parent, code, probe = parent[keep], code[keep], probe[keep]
                    at = {x: array[keep] for x, array in at.items()}
                    if b in reached:
                        at[b] = np.searchsorted(keys, probe)
                parents.append(parent)
                bound.append(_recode(code, dictionary, here[0][2]))
                for x, array in at.items():
                    reached[x].append(array)
            parent = np.concatenate(parents)
            done = {a for a, _, _ in here}
            nodes = [
                np.concatenate(reached[x]) if x in reached
                else None if x in done or nodes[x] is None else nodes[x][parent]
                for x in range(len(atoms))
            ]
            return [c[parent] for c in codes] + [np.concatenate(bound)], nodes

        def search(codes, nodes, depth) -> bool:
            if depth == len(schema):
                found.append(codes)
                return not find_all
            for start in range(0, len(nodes[holders[depth][0][0]]), morsel_size):
                if token is not None:
                    token.check()
                window = slice(start, start + morsel_size)
                codes_out, nodes_out = extend(
                    [c[window] for c in codes],
                    [None if n is None else n[window] for n in nodes],
                    depth,
                )
                if len(codes_out[-1]) and search(codes_out, nodes_out, depth + 1):
                    return True
            return False

        if all(len(backend) for backend, _ in atoms):
            search([], [np.zeros(1, dtype=np.int64)] * len(atoms), 0)
        columns = [np.concatenate([c[d] for c in found] or [_NO_ROWS]) for d in range(len(schema))]
        n = len(columns[0]) if schema else len(found)
        n = n if find_all else min(n, 1)
        columns = [_Column(codes[:n], h[0][2]) for codes, h in zip(columns, holders)]
        return ColumnarBackend(schema, columns, n)

    def degree_counts(
        self, target_positions: Tuple[int, ...], given_positions: Tuple[int, ...]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Unique ``given`` code rows and their distinct-``target`` counts."""
        if self._n == 0:
            return (
                np.empty((0, len(given_positions)), dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        pair_positions = list(given_positions) + list(target_positions)
        if pair_positions:
            stacked = np.stack(self._codes(pair_positions), axis=1)
            pairs = np.unique(stacked, axis=0)
        else:
            pairs = np.zeros((1, 0), dtype=np.int64)
        given_part = pairs[:, : len(given_positions)]
        if len(given_positions):
            keys, counts = np.unique(given_part, axis=0, return_counts=True)
        else:
            keys = np.zeros((1, 0), dtype=np.int64)
            counts = np.asarray([len(pairs)], dtype=np.int64)
        return keys, counts

    def degree_split(self, target_positions, given_positions, threshold):
        """The ``given`` bindings with more than ``threshold`` distinct targets."""
        keys, counts = self.degree_counts(
            tuple(target_positions), tuple(given_positions)
        )
        heavy_rows = keys[counts > threshold]
        return ColumnarBackend(
            tuple(self.schema[p] for p in given_positions),
            [
                self._columns[p].with_codes(heavy_rows[:, i])
                for i, p in enumerate(given_positions)
            ],
            len(heavy_rows),
        )

    # -- grouped Boolean matrix product ---------------------------------
    def matmul(
        self,
        other: "ColumnarBackend",
        row_positions: Sequence[int],
        inner_positions: Sequence[int],
        group_positions: Sequence[int],
        other_inner_positions: Sequence[int],
        other_col_positions: Sequence[int],
        other_group_positions: Sequence[int],
        schema: Tuple[str, ...],
        mask: Optional["ColumnarBackend"] = None,
        mask_positions: Sequence[int] = (),
    ) -> Tuple["ColumnarBackend", Tuple[int, int, int], int]:
        """One Boolean matrix product per group key present on both sides.

        ``self`` is read as ``rows × inner`` and ``other`` as ``inner ×
        cols`` within each binding of the group columns; the nonzero
        entries decode to rows over ``schema`` = rows + cols + group.
        Everything happens on dictionary codes: the other side's inner and
        group codes are translated into this side's dictionaries, every key
        is ranked within its group (:func:`_ranks_within_groups`, a
        presence table over the codes; a product without groups ranks a
        one-column key once per column, :attr:`_Column.ranks`), and the
        loop over groups only fills two float32 0/1 matrices, multiplies
        them and reads the nonzeros back.  A group's dimensions are its distinct row keys × its
        distinct inner keys *on this side* × its distinct column keys.  The
        output columns share the operands' dictionaries, and (row, column,
        group) triples are distinct by construction.

        With a ``mask`` (``mask_positions`` are its columns holding
        ``schema``) the products are gathered instead of listed: the mask's
        row, column and group codes are ranked in the same calls as the
        operands' keys, each group's product is read at its mask rows' cells,
        and the output is the mask rows that hit, in the mask's order.

        Returns ``(product, the shape with the most cells, groups matched)``.
        """
        n_mask = 0 if mask is None else mask._n
        cut, group_cut = len(row_positions), len(schema) - len(group_positions)
        mask_rows, mask_cols = mask_positions[:cut], mask_positions[cut:group_cut]
        masks = () if mask is None else ((mask, mask_positions[group_cut:]),)
        if group_positions:
            left_group, right_group, *mask_group = self._shared_keys(
                group_positions, other, other_group_positions, *masks
            )
            # Group ids index the sorted distinct group keys of this side;
            # rows whose group the opposite side lacks take no part.
            group_keys, left_gid = np.unique(left_group, return_inverse=True)
            right_gid = _find(group_keys, right_group)
            right_rows = np.nonzero(right_gid >= 0)[0]
            matched = np.zeros(len(group_keys), dtype=bool)
            matched[right_gid[right_rows]] = True
            left_rows = np.nonzero(matched[left_gid])[0]
            mask_gid = _find(group_keys, mask_group[0]) if mask_group else _NO_ROWS
            mask_at = np.nonzero(np.append(matched, False)[mask_gid])[0]
            # Group-contiguous row order, so a group is one slice of every array.
            left_rows = left_rows[np.argsort(left_gid[left_rows], kind="stable")]
            right_rows = right_rows[np.argsort(right_gid[right_rows], kind="stable")]
            mask_at = mask_at[np.argsort(mask_gid[mask_at], kind="stable")]
            left_gid, right_gid = left_gid[left_rows], right_gid[right_rows]
            mask_gid = mask_gid[mask_at]
        else:
            # One plain product, if both sides have rows: one group, no ids.
            matched = np.array([self._n > 0 and other._n > 0])
            left_rows, right_rows, mask_at = (
                np.arange(n if matched[0] else 0) for n in (self._n, other._n, n_mask)
            )
            left_gid = right_gid = mask_gid = None
        n_groups = len(matched)

        left_inner, right_inner = self._shared_keys(
            inner_positions, other, other_inner_positions
        )
        if mask is None:
            row_keys = self._row_keys(self._codes(row_positions), row_positions, self._n)
            col_keys = other._row_keys(
                other._codes(other_col_positions), other_col_positions, other._n
            )
            mask_row_keys = mask_col_keys = _NO_ROWS
        else:
            row_keys, mask_row_keys = self._shared_keys(row_positions, mask, mask_rows)
            col_keys, mask_col_keys = other._shared_keys(other_col_positions, mask, mask_cols)
        # The mask's rows rank their row and column keys after the operands'
        # rows, in the same calls: a key its group lacks ranks -1.
        def ranks(owner, positions, rows, gid, keys, lookup_gid, lookup_keys, with_heads):
            if gid is None and len(positions) == 1 and len(rows) == owner._n:
                # One group of every row, keyed by one column: its cached ranks.
                own, table, count, heads = owner._columns[positions[0]].ranks
                return own, table[lookup_keys], count, heads
            rank, count, heads = _ranks_within_groups(
                None if gid is None else np.concatenate((gid, lookup_gid)),
                np.concatenate((keys[rows], lookup_keys)),
                n_groups,
                len(rows),
                with_heads,
            )
            return rank[: len(rows)], rank[len(rows):], count, heads

        row_rank, mask_row_rank, row_count, row_heads = ranks(
            self, row_positions, left_rows, left_gid, row_keys,
            mask_gid, mask_row_keys[mask_at], mask is None,
        )  # fmt: skip
        col_rank, mask_col_rank, col_count, col_heads = ranks(
            other, other_col_positions, right_rows, right_gid, col_keys,
            mask_gid, mask_col_keys[mask_at], mask is None,
        )  # fmt: skip
        left_inner_rank, right_inner_rank, inner_count, _ = ranks(
            self, inner_positions, left_rows, left_gid, left_inner,
            right_gid, right_inner[right_rows], False,
        )  # fmt: skip

        groups = np.nonzero(matched)[0]
        left_ends, right_ends, mask_ends = (
            [len(rows)] if gid is None else np.searchsorted(gid, groups, side="right").tolist()
            for gid, rows in ((left_gid, left_rows), (right_gid, right_rows), (mask_gid, mask_at))
        )
        row_bases = (np.cumsum(row_count) - row_count)[groups].tolist()
        col_bases = (np.cumsum(col_count) - col_count)[groups].tolist()
        shapes = list(
            zip(row_count[groups].tolist(), inner_count[groups].tolist(), col_count[groups].tolist())
        )
        # Seeded with an empty array so that no matched group is no special case.
        out_rows = [np.empty(0, dtype=np.int64)]
        out_cols = [np.empty(0, dtype=np.int64)]
        hits = np.zeros(n_mask, dtype=bool)
        left_start = right_start = mask_start = 0
        for (rows, inner, cols), left_end, right_end, mask_end, row_base, col_base in zip(
            shapes, left_ends, right_ends, mask_ends, row_bases, col_bases
        ):
            # One spare row and column that stay zero: a rank of -1 (a key
            # the group lacks) writes (an inner key) or reads (a mask key)
            # there, through flat indices, which wrap around to the end.
            left_matrix = np.zeros((rows + 1, inner), dtype=np.float32)
            left = slice(left_start, left_end)
            left_matrix.ravel()[row_rank[left] * inner + left_inner_rank[left]] = 1
            right_matrix = np.zeros((inner + 1, cols + 1), dtype=np.float32)
            right = slice(right_start, right_end)
            right_matrix.ravel()[right_inner_rank[right] * (cols + 1) + col_rank[right]] = 1
            product = boolean_multiply(left_matrix, right_matrix[:inner])
            if mask is None:
                hit_rows, hit_cols = np.nonzero(product)
                out_rows.append(hit_rows + row_base)
                out_cols.append(hit_cols + col_base)
            else:
                at = slice(mask_start, mask_end)
                cells = mask_row_rank[at] * (cols + 1) + mask_col_rank[at]
                hits[mask_at[at]] = product.ravel()[cells]
            left_start, right_start, mask_start = left_end, right_end, mask_end
        # Most cells first; equal cell counts fall to the larger shape, so the
        # reported shape does not depend on the order groups are met in.
        largest = max(shapes, key=lambda s: (s[0] * s[1] * s[2], s), default=(0, 0, 0))
        if mask is not None:
            return mask.take(np.nonzero(hits)[0]), tuple(largest), len(groups)
        # One source row per output entry: the first row of the operand that
        # carries the entry's row (column) key within its group.
        left_source = left_rows[row_heads[np.concatenate(out_rows)]]
        right_source = right_rows[col_heads[np.concatenate(out_cols)]]
        columns = [self._columns[p].take(left_source) for p in row_positions]
        columns += [other._columns[p].take(right_source) for p in other_col_positions]
        columns += [self._columns[p].take(left_source) for p in group_positions]
        return (
            ColumnarBackend(schema, columns, len(left_source)),
            tuple(largest),
            len(groups),
        )


def _recode(codes: np.ndarray, source: _Dictionary, target: _Dictionary) -> np.ndarray:
    """Codes of ``source`` re-expressed in ``target`` (``-1`` where unknown)."""
    return codes if source is target else target.translate_from(source)[codes]


def _find(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Each key's index in ``sorted_keys``, or ``-1`` where it is missing."""
    found = np.searchsorted(sorted_keys, keys)
    known = np.nonzero(found < len(sorted_keys))[0]
    known = known[sorted_keys[found[known]] == keys[known]]
    index = np.full(len(keys), -1, dtype=np.int64)
    index[known] = found[known]
    return index


def _largest(weights: np.ndarray) -> int:
    return int(weights.max()) if len(weights) else 0


def _edge_weights(above, below, order, starts, ends) -> np.ndarray:
    """Each parent row's multiplicity (``above``; ``None`` = 1) times the
    summed ``below`` of its child rows ``order[starts:ends]``: int64 while
    a bound on every sum and product fits, else exact Python integers."""
    bound = len(order) if below is None else _largest(below) * len(below)
    if above is not None:
        bound *= _largest(above)
    dtype = np.int64 if bound <= _INT64_MAX else object
    if below is None:
        sums = (ends - starts).astype(dtype, copy=False)
    else:
        prefix = np.zeros(len(below) + 1, dtype=dtype)
        prefix[1:] = np.cumsum(below[order].astype(dtype, copy=False))
        sums = prefix[ends] - prefix[starts]
    return sums if above is None else above.astype(dtype, copy=False) * sums


def _ranks_within_groups(
    groups: Optional[np.ndarray],
    keys: np.ndarray,
    n_groups: int,
    n_ranked: int,
    with_heads: bool = True,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Rank every row's key among the distinct keys of its group.

    ``groups`` ``None`` is one group.  Only the first ``n_ranked`` rows say
    which keys a group has; the rows after them look their key up and get
    ``-1`` when the group lacks it (the right operand's inner keys against
    the left operand's, a mask's keys against an operand's).  Returns
    ``(rank per row, distinct keys per group, the first row carrying each
    distinct (group, key), in (group, rank) order)``; the last is ``None``
    unless ``with_heads``.

    Keys are codes, so while the table of (group, key) cells has at most
    ``_PRESENCE_CELLS_PER_ROW`` cells per row the ranks come from which
    cells the ranked rows occupy: one scatter, one ``cumsum``, one gather
    and no sort.  Wider keys take one ``lexsort``; both give the same
    three arrays.
    """
    if len(keys):
        low = int(keys.min())
        span = int(keys.max()) - low + 1
        if n_groups * span <= _PRESENCE_CELLS_PER_ROW * len(keys):
            cells = keys - low
            if groups is not None:
                cells += groups * span
            present = np.zeros((n_groups, span), dtype=bool)
            present.ravel()[cells[:n_ranked]] = True
            # Per group, a present cell's rank is the present cells before it.
            table = np.cumsum(present, axis=1) - 1
            counts = table[:, -1] + 1
            table[~present] = -1
            heads = None
            if with_heads:
                first = np.full(present.size, n_ranked, dtype=np.int64)
                np.minimum.at(first, cells[:n_ranked], np.arange(n_ranked))
                heads = first[present.ravel()]
            return table.ravel()[cells], counts, heads
    if groups is None:
        groups = np.zeros(len(keys), dtype=np.int64)
    order = np.lexsort((keys, groups))  # stable: the lowest row leads its run
    sorted_groups, sorted_keys = groups[order], keys[order]
    run_start = np.ones(len(order), dtype=bool)
    run_start[1:] = (sorted_groups[1:] != sorted_groups[:-1]) | (
        sorted_keys[1:] != sorted_keys[:-1]
    )
    heads = order[run_start]
    ranked = heads < n_ranked
    run_groups = sorted_groups[run_start]
    counts = np.bincount(run_groups[ranked], minlength=n_groups)
    run_ranks = np.cumsum(ranked) - 1 - (np.cumsum(counts) - counts)[run_groups]
    run_ranks[~ranked] = -1
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = run_ranks[np.cumsum(run_start) - 1]
    return ranks, counts, heads[ranked] if with_heads else None

