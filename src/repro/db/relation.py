"""Relations: a named-schema facade over pluggable storage backends.

A relation ``R(X, Y, ...)`` is a schema (tuple of variable names) plus a
*backend* holding the tuples.  Besides the classical operators
(select/project/join/semijoin), relations expose the *degree* statistics of
Definition E.9 — ``deg_R(Y | X)`` — and the heavy/light partitioning that
the paper's algorithms (Figure 1, PANDA decomposition steps) are built on,
plus the grouped Boolean matrix product of the matrix-multiplication
eliminations and conversion to and from 0/1 matrices.

Backend protocol
----------------
Storage lives behind :class:`~repro.db.backends.RelationBackend`; this
facade translates variable names into column positions, dispatches to a
backend fast path when both operands share a representation, and falls back
to generic row-at-a-time logic (the reference semantics) otherwise.  Two
backends ship:

* ``"set"`` (:class:`~repro.db.backends.SetBackend`) — a frozenset of
  tuples, the reference implementation and the default.  Best for tiny
  relations and for operators driven by arbitrary Python predicates.
* ``"columnar"`` (:class:`~repro.db.backends.ColumnarBackend`) —
  dictionary-encoded NumPy code columns with lazily-built hash indexes.
  Semijoins become vectorized key-membership probes, joins become sort +
  ``searchsorted`` gathers, and the grouped Boolean matrix product
  (:meth:`Relation.matmul`) goes from code arrays to code arrays without
  building a row tuple; it wins by an order of magnitude on semijoin-heavy
  workloads (e.g. Yannakakis on ≥10^5-row chains) and whenever an
  operator streams many rows through few columns.

Pick a backend per relation (``Relation(..., backend="columnar")``), per
database (``Database(backend=...)`` / ``Database.convert_backend``) or per
engine (``QueryEngine(db, backend=...)``); both backends pass the same
differential test suite and are interchangeable semantically.  Statistics
(:attr:`Relation.stats`) — row counts, per-column distinct counts
``V(A, r)``, max degrees ``deg(Y | X)`` — are computed by the backend,
cached, and consumed by the cost-based planner.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..matmul.boolean import matrix_from_pairs
from .ordering import _ordered_rows, row_order_key, value_order_key
from .backends import (
    ColumnarBackend,
    RelationBackend,
    RelationStats,
    Row,
    Value,
    available_backends,
    resolve_backend,
)

__all__ = [
    "Relation",
    "RelationStats",
    "Row",
    "Value",
    "available_backends",
]


class Relation:
    """An in-memory relation with a named schema.

    Parameters
    ----------
    schema:
        Variable names, one per column (duplicates are rejected).
    rows:
        The tuples; duplicates are collapsed (set semantics).
    name:
        Optional name used in query plans and debugging output.
    backend:
        Storage backend: a name from :func:`available_backends` (``"set"``,
        ``"columnar"``), an existing :class:`RelationBackend` to adopt, or
        ``None`` for the process default (``"set"``).
    """

    __slots__ = ("_backend", "name")

    def __init__(
        self,
        schema: Sequence[str],
        rows: Iterable[Sequence[Value]] = (),
        name: Optional[str] = None,
        *,
        backend: Union[str, RelationBackend, None] = None,
    ) -> None:
        schema_tuple = tuple(schema)
        if len(set(schema_tuple)) != len(schema_tuple):
            raise ValueError(f"duplicate variables in schema {schema_tuple}")
        if isinstance(backend, RelationBackend):
            try:
                has_rows = len(rows) > 0  # type: ignore[arg-type]
            except TypeError:
                has_rows = True  # non-sized iterable: treat as provided
            if has_rows:
                raise ValueError(
                    "cannot pass both rows and a RelationBackend instance; "
                    "the backend already holds the tuples"
                )
            if len(backend.schema) != len(schema_tuple):
                raise ValueError(
                    f"backend of width {len(backend.schema)} does not match "
                    f"schema {schema_tuple}"
                )
            if backend.schema != schema_tuple:
                backend = backend.rename(schema_tuple)
            self._backend = backend
        else:
            self._backend = resolve_backend(backend).from_rows(schema_tuple, rows)
        self.name = name

    @classmethod
    def _wrap(cls, backend: RelationBackend, name: Optional[str] = None) -> "Relation":
        """Adopt a backend without re-validating (internal fast constructor)."""
        relation = object.__new__(cls)
        relation._backend = backend
        relation.name = name
        return relation

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Tuple[str, ...]:
        return self._backend.schema

    @property
    def variables(self) -> FrozenSet[str]:
        return frozenset(self._backend.schema)

    @property
    def rows(self) -> FrozenSet[Row]:
        return self._backend.row_set()

    @property
    def backend_kind(self) -> str:
        """The storage backend's registry name (``"set"``, ``"columnar"``)."""
        return self._backend.kind

    @property
    def stats(self) -> RelationStats:
        """Cached relation statistics: ``n_r``, ``V(A, r)``, ``deg(Y | X)``."""
        return self._backend.stats()

    def with_backend(self, kind: Optional[str]) -> "Relation":
        """This relation converted to another backend (no-op if same/None)."""
        if kind is None or self._backend.kind == kind:
            return self
        converted = resolve_backend(kind).from_rows(
            self.schema, self._backend.iter_rows()
        )
        return Relation._wrap(converted, self.name)

    def __len__(self) -> int:
        return len(self._backend)

    def __iter__(self) -> Iterator[Row]:
        return self._backend.iter_rows()

    def __contains__(self, row: Sequence[Value]) -> bool:
        return tuple(row) in self._backend.row_set()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if set(self.schema) != set(other.schema):
            return False
        return (
            self.project(sorted(self.schema)).rows
            == other.project(sorted(other.schema)).rows
        )

    def __hash__(self) -> int:
        return hash((self.schema, self.rows))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or "Relation"
        return f"{label}({', '.join(self.schema)})[{len(self)} rows]"

    def is_empty(self) -> bool:
        return len(self._backend) == 0

    def with_name(self, name: str) -> "Relation":
        return Relation._wrap(self._backend, name)

    # ------------------------------------------------------------------
    # Mutation (delta-producing; relations themselves stay immutable)
    # ------------------------------------------------------------------
    def insert_rows(
        self, rows: Iterable[Sequence[Value]]
    ) -> Tuple["Relation", Tuple[Row, ...]]:
        """A new relation with ``rows`` added, plus the exact delta.

        Returns ``(relation, added)`` where ``added`` holds only the rows
        that were genuinely new (set semantics) — the delta the database
        logs for incremental maintenance.  The backend appends in place of
        re-encoding: dictionaries grow by extension and statistics are
        seeded incrementally (see
        :meth:`~repro.db.backends.RelationBackend.append_rows`).  When no
        row is new, ``self`` is returned unchanged.
        """
        backend, added = self._backend.append_rows(rows)
        if not added:
            return self, ()
        return Relation._wrap(backend, self.name), added

    def delete_rows(
        self, rows: Iterable[Sequence[Value]]
    ) -> Tuple["Relation", Tuple[Row, ...]]:
        """A new relation with ``rows`` removed, plus the exact delta.

        Returns ``(relation, removed)`` where ``removed`` holds only the
        rows that were actually present.  Columnar backends tombstone the
        victims and compact lazily on first kernel access.  When nothing
        matched, ``self`` is returned unchanged.
        """
        backend, removed = self._backend.delete_rows(rows)
        if not removed:
            return self, ()
        return Relation._wrap(backend, self.name), removed

    def with_fresh_statistics(self) -> "Relation":
        """The same rows behind a fresh statistics cache (threshold fallback)."""
        return Relation._wrap(self._backend.with_fresh_statistics(), self.name)

    # ------------------------------------------------------------------
    # Column helpers
    # ------------------------------------------------------------------
    def _positions(self, variables: Sequence[str]) -> List[int]:
        return [self._backend.position(variable) for variable in variables]

    def column_values(self, variable: str) -> FrozenSet[Value]:
        """The active domain of one column (cached distinct-value index)."""
        return self._backend.distinct_values(self._backend.position(variable))

    def active_domain(self) -> FrozenSet[Value]:
        """All values appearing anywhere in the relation."""
        domain: set = set()
        for position in range(len(self.schema)):
            domain |= self._backend.distinct_values(position)
        return frozenset(domain)

    def sorted_order(self, variables: Sequence[str]) -> Sequence[int]:
        """Row indices ordering the rows by the deterministic value order.

        The order over ``variables`` (lexicographic per
        :func:`~repro.db.ordering.row_order_key`, ties broken stably by
        storage position) is the ``select(order="sorted")`` contract; the
        indices address the same storage positions :meth:`row_slice`
        reads.  Columnar backends compute it once per (relation,
        column-set) from cached per-column value ranks
        (:meth:`~repro.db.backends.ColumnarBackend.value_sorted_order`);
        the set backend keys a Python sort over its cached row snapshot.
        """
        positions = tuple(self._positions(list(variables)))
        if isinstance(self._backend, ColumnarBackend):
            return self._backend.value_sorted_order(positions)
        cache_key = ("valsort", positions)
        cached = self._backend.cache_get(cache_key)
        if cached is None:
            snapshot = self._backend.cache_get(("rowlist",))
            if snapshot is None:
                snapshot = list(self._backend.iter_rows())
                self._backend.cache_put(("rowlist",), snapshot, family_limit=1)
            cached = sorted(
                range(len(snapshot)),
                key=lambda i: row_order_key([snapshot[i][p] for p in positions]),
            )
            self._backend.cache_put(cache_key, cached, family_limit=8)
        return cached

    def ordered_rows(self, limit: Optional[int] = None) -> List[Row]:
        """The rows in the deterministic sorted-order contract, vectorized.

        The materialized arm of ``select(order="sorted")``: the first
        ``limit`` rows (all of them when ``limit`` is ``None``) under the
        same total order :meth:`sorted_order` indexes.  On the columnar
        backend the permutation comes from the cached vectorized sort and
        only the requested prefix is decoded — far cheaper on large
        outputs than materializing every tuple and sorting in Python.
        The set backend falls back to the keyed bounded selection.
        """
        if isinstance(self._backend, ColumnarBackend):
            order = self._backend.value_sorted_order(
                tuple(range(len(self.schema)))
            )
            if limit is not None:
                order = order[:limit]
            return list(self._backend.take(np.asarray(order)).iter_rows())
        return _ordered_rows(self.rows, limit)

    def ordered_distinct_values(self, variable: str) -> List[Value]:
        """One column's distinct values in deterministic value order.

        The candidate feed of the ranked enumeration: on a *calibrated*
        relation (full-reducer property) these are exactly the values the
        join output takes for ``variable``, already in output order.
        Cached per column on the backend, so repeated ranked selects over
        the same calibrated relations pay the sort once.
        """
        position = self._backend.position(variable)
        if isinstance(self._backend, ColumnarBackend):
            return list(self._backend.ordered_values(position))
        cache_key = ("ordvals", position)
        cached = self._backend.cache_get(cache_key)
        if cached is None:
            cached = sorted(
                self._backend.distinct_values(position), key=value_order_key
            )
            self._backend.cache_put(cache_key, cached, family_limit=8)
        return list(cached)

    def _columnar_pair(
        self, other: "Relation"
    ) -> Optional[Tuple[ColumnarBackend, ColumnarBackend]]:
        """Both backends, when both relations are columnar (fast-path gate)."""
        if isinstance(self._backend, ColumnarBackend) and isinstance(
            other._backend, ColumnarBackend
        ):
            return self._backend, other._backend
        return None

    # ------------------------------------------------------------------
    # Classical operators
    # ------------------------------------------------------------------
    def project(self, variables: Sequence[str]) -> "Relation":
        """Project onto the given variables (duplicates collapse)."""
        variables = list(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variables in schema {tuple(variables)}")
        positions = self._positions(variables)
        if isinstance(self._backend, ColumnarBackend):
            return Relation._wrap(
                self._backend.project(positions, tuple(variables))
            )
        rows = {tuple(row[p] for p in positions) for row in self._backend.iter_rows()}
        return Relation(variables, rows)

    def count_distinct(self, variables: Sequence[str]) -> int:
        """The number of distinct projections onto ``variables``.

        Equivalent to ``len(self.project(variables))`` but computed by the
        backend's counting kernel without materializing the projected
        relation (the columnar backend counts unique code rows with one
        ``np.unique`` over the stacked code arrays).  An empty variable
        list counts the nullary projection: ``1`` when the relation is
        nonempty, else ``0``.
        """
        variables = list(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variables in projection {tuple(variables)}")
        return self._backend.count_distinct(self._positions(variables))

    def select(
        self,
        condition: Union[Mapping[str, Value], Callable[[Dict[str, Value]], bool]],
    ) -> "Relation":
        """Select rows matching an equality mapping or an arbitrary predicate."""
        if callable(condition):
            schema = self.schema
            keep = [
                row
                for row in self._backend.iter_rows()
                if condition(dict(zip(schema, row)))
            ]
            return Relation(schema, keep, self.name, backend=self._backend.kind)
        positions = self._positions(list(condition.keys()))
        wanted = list(condition.values())
        if isinstance(self._backend, ColumnarBackend):
            return Relation._wrap(
                self._backend.select_equals(list(zip(positions, wanted))), self.name
            )
        keep = [
            row
            for row in self._backend.iter_rows()
            if all(row[p] == value for p, value in zip(positions, wanted))
        ]
        return Relation(self.schema, keep, self.name)

    def restrict(self, variable: str, values: Iterable[Value]) -> "Relation":
        """Select the rows whose ``variable`` value lies in ``values``.

        The set-membership analogue of an equality select; the columnar
        backend answers it with one vectorized index probe.
        """
        position = self._backend.position(variable)
        if isinstance(self._backend, ColumnarBackend):
            return Relation._wrap(self._backend.restrict(position, values), self.name)
        wanted = set(values)
        keep = [row for row in self._backend.iter_rows() if row[position] in wanted]
        return Relation(self.schema, keep, self.name)

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """Rename columns (variables not mentioned keep their names)."""
        new_schema = tuple(mapping.get(variable, variable) for variable in self.schema)
        if len(set(new_schema)) != len(new_schema):
            raise ValueError(f"duplicate variables in schema {new_schema}")
        return Relation._wrap(self._backend.rename(new_schema), self.name)

    def join(self, other: "Relation") -> "Relation":
        """Natural (hash) join on the shared variables."""
        shared = [v for v in self.schema if v in other.variables]
        other_only = [v for v in other.schema if v not in self.variables]
        out_schema = tuple(self.schema) + tuple(other_only)
        pair = self._columnar_pair(other)
        if pair is not None:
            left, right = pair
            joined = left.join(
                self._positions(shared),
                right,
                other._positions(shared),
                other._positions(other_only),
                out_schema,
            )
            if joined is not None:
                return Relation._wrap(joined)
        left_positions = self._positions(shared)
        right_shared_positions = other._positions(shared)
        right_extra_positions = other._positions(other_only)

        index: Dict[Row, List[Row]] = {}
        for row in other._backend.iter_rows():
            key = tuple(row[p] for p in right_shared_positions)
            index.setdefault(key, []).append(
                tuple(row[p] for p in right_extra_positions)
            )
        out_rows: List[Row] = []
        for row in self._backend.iter_rows():
            key = tuple(row[p] for p in left_positions)
            for extra in index.get(key, ()):
                out_rows.append(tuple(row) + extra)
        return Relation(out_schema, out_rows, backend=self._backend.kind)

    def semijoin(self, other: "Relation") -> "Relation":
        """Keep the rows whose shared-variable projection appears in ``other``."""
        shared = [v for v in self.schema if v in other.variables]
        if not shared:
            return self if not other.is_empty() else Relation(
                self.schema, (), self.name, backend=self._backend.kind
            )
        return self._semijoin(other, shared, negate=False)

    def antijoin(self, other: "Relation") -> "Relation":
        """Keep the rows whose shared-variable projection does NOT appear in ``other``."""
        shared = [v for v in self.schema if v in other.variables]
        if not shared:
            return self if other.is_empty() else Relation(
                self.schema, (), self.name, backend=self._backend.kind
            )
        return self._semijoin(other, shared, negate=True)

    def _semijoin(
        self, other: "Relation", shared: List[str], negate: bool
    ) -> "Relation":
        pair = self._columnar_pair(other)
        if pair is not None:
            left, right = pair
            reduced = left.semijoin(
                self._positions(shared), right, other._positions(shared), negate
            )
            if reduced is not None:
                return Relation._wrap(reduced, self.name)
        left_positions = self._positions(shared)
        other_positions = other._positions(shared)
        right_keys = {
            tuple(row[p] for p in other_positions)
            for row in other._backend.iter_rows()
        }
        keep = [
            row
            for row in self._backend.iter_rows()
            if (tuple(row[p] for p in left_positions) in right_keys) != negate
        ]
        return Relation(self.schema, keep, self.name, backend=self._backend.kind)

    def semijoin_many(self, others: Iterable["Relation"]) -> "Relation":
        """Reduce by several independent relations in one fused pass.

        Semantically equal to folding :meth:`semijoin` left-to-right (the
        reducers are independent of the partially reduced result), but
        executed without per-reducer materializations: the columnar backend
        ANDs the per-reducer keep-masks and gathers once; the reference
        backend filters a surviving-row list reducer by reducer and wraps
        it once at the end.  ``others`` is consumed lazily — as soon as the
        accumulated reduction is provably empty, remaining reducers (which
        may be generators evaluating whole subplans) are never pulled.
        """
        others = iter(others)
        if self.is_empty():
            return self
        if isinstance(self._backend, ColumnarBackend):
            mask: Optional[np.ndarray] = None
            for other in others:
                shared = [v for v in self.schema if v in other.variables]
                if not shared:
                    if other.is_empty():
                        return Relation(
                            self.schema, (), self.name, backend=self._backend.kind
                        )
                    continue
                part = None
                if isinstance(other._backend, ColumnarBackend):
                    part = self._backend.semijoin_mask(
                        self._positions(shared), other._backend, other._positions(shared)
                    )
                if part is None:
                    # Mixed backend or composite-key overflow: materialize
                    # the mask so far, then fold the rest sequentially.
                    current = self if mask is None else Relation._wrap(
                        self._backend.take(np.nonzero(mask)[0]), self.name
                    )
                    current = current.semijoin(other)
                    for rest in others:
                        if current.is_empty():
                            break
                        current = current.semijoin(rest)
                    return current
                mask = part if mask is None else (mask & part)
                if not mask.any():
                    break
            if mask is None:
                return self
            return Relation._wrap(self._backend.take(np.nonzero(mask)[0]), self.name)
        if self._backend.kind == "set":
            survivors: Optional[List[Row]] = None
            for other in others:
                shared = [v for v in self.schema if v in other.variables]
                if not shared:
                    if other.is_empty():
                        return Relation(
                            self.schema, (), self.name, backend=self._backend.kind
                        )
                    continue
                positions = self._positions(shared)
                other_positions = other._positions(shared)
                keys = {
                    tuple(row[p] for p in other_positions)
                    for row in other._backend.iter_rows()
                }
                source: Iterable[Row] = (
                    self._backend.iter_rows() if survivors is None else survivors
                )
                survivors = [
                    row for row in source if tuple(row[p] for p in positions) in keys
                ]
                if not survivors:
                    break
            if survivors is None:
                return self
            return Relation(self.schema, survivors, self.name, backend=self._backend.kind)
        current = self
        for other in others:
            if current.is_empty():
                break
            current = current.semijoin(other)
        return current

    def row_slice(self, start: int, stop: int) -> "Relation":
        """The rows at storage positions ``[start, stop)`` as a relation.

        For callers that pull chunks on demand (the VM's streaming
        enumeration cursor).  Columnar backends slice their code arrays
        (zero-copy views sharing the parent's dictionaries and caches);
        the set backend snapshots its iteration order once — cached on
        the backend so repeated slices stay O(slice) — and slices the
        snapshot.  The position order is arbitrary but stable for the
        lifetime of the relation.
        """
        if isinstance(self._backend, ColumnarBackend):
            return Relation._wrap(self._backend.slice_rows(start, stop), self.name)
        cache_key = ("rowlist",)
        ordered = self._backend.cache_get(cache_key)
        if ordered is None:
            ordered = list(self._backend.iter_rows())
            self._backend.cache_put(cache_key, ordered, family_limit=1)
        return Relation(self.schema, ordered[start:stop], backend=self.backend_kind)

    def union(self, other: "Relation") -> "Relation":
        if set(self.schema) != set(other.schema):
            raise ValueError("union requires identical variable sets")
        pair = self._columnar_pair(other)
        if pair is not None:
            left, right = pair
            return Relation._wrap(
                left.union(right, other._positions(list(self.schema))), self.name
            )
        aligned = other.project(self.schema)
        return Relation(
            self.schema,
            self.rows | aligned.rows,
            self.name,
            backend=self._backend.kind,
        )

    def intersect(self, other: "Relation") -> "Relation":
        if set(self.schema) != set(other.schema):
            raise ValueError("intersection requires identical variable sets")
        # Over identical variable sets, intersection is a semijoin on the
        # full schema — which the columnar backend answers with one probe.
        return self._semijoin(other, list(self.schema), negate=False)

    def cross(self, other: "Relation") -> "Relation":
        """Cartesian product (the schemas must be disjoint)."""
        if self.variables & other.variables:
            raise ValueError("cross product requires disjoint schemas")
        out_schema = tuple(self.schema) + tuple(other.schema)
        pair = self._columnar_pair(other)
        if pair is not None:
            left, right = pair
            joined = left.join([], right, [], other._positions(list(other.schema)), out_schema)
            if joined is not None:
                return Relation._wrap(joined)
        rows = [
            tuple(a) + tuple(b)
            for a in self._backend.iter_rows()
            for b in other._backend.iter_rows()
        ]
        return Relation(out_schema, rows, backend=self._backend.kind)

    # ------------------------------------------------------------------
    # Degree statistics (Definition E.9) and heavy/light partitioning
    # ------------------------------------------------------------------
    def degree(self, target: Sequence[str], given: Sequence[str] = ()) -> int:
        """``deg_R(target | given)``: the worst-case fan-out of ``given`` into ``target``."""
        target = [v for v in target if v not in given]
        schema = set(self.schema)
        return self.stats.max_degree(
            [v for v in target if v in schema], [v for v in given if v in schema]
        )

    def degree_map(
        self, target: Sequence[str], given: Sequence[str] = ()
    ) -> Dict[Row, int]:
        """Per-binding degrees: for each ``given`` value, how many ``target`` values."""
        target = [v for v in target if v not in given]
        schema = set(self.schema)
        target_positions = self._positions([v for v in target if v in schema])
        given_positions = self._positions([v for v in given if v in schema])
        if isinstance(self._backend, ColumnarBackend):
            keys, counts = self._backend.degree_counts(
                tuple(target_positions), tuple(given_positions)
            )
            decoded = self._backend.decode_key_rows(given_positions, keys)
            return dict(zip(decoded, counts.tolist()))
        seen: Dict[Row, set] = {}
        for row in self._backend.iter_rows():
            key = tuple(row[p] for p in given_positions)
            seen.setdefault(key, set()).add(tuple(row[p] for p in target_positions))
        return {key: len(values) for key, values in seen.items()}

    def heavy_light_split(
        self,
        given: Sequence[str],
        threshold: int,
        target: Optional[Sequence[str]] = None,
    ) -> Tuple["Relation", "Relation"]:
        """Split into (heavy, light) parts by the degree of ``given`` bindings.

        This is the database interpretation of the proof-sequence
        *decomposition step* ``h(XY) → h(X) + h(Y|X)`` (Figure 1): bindings
        of ``given`` whose degree exceeds ``threshold`` form the heavy part
        (returned projected onto ``given``); the remaining full rows form
        the light part.
        """
        if target is None:
            target = [v for v in self.schema if v not in given]
        given = list(given)
        heavy_name = f"{self.name or 'R'}_heavy"
        light_name = f"{self.name or 'R'}_light"
        if isinstance(self._backend, ColumnarBackend) and given:
            schema = set(self.schema)
            target_positions = tuple(
                self._positions([v for v in target if v not in given and v in schema])
            )
            given_positions = self._positions(given)
            keys, counts = self._backend.degree_counts(
                target_positions, tuple(given_positions)
            )
            heavy_keys = keys[counts > threshold]
            split = self._backend.split_by_keys(given_positions, heavy_keys)
            if split is not None:
                heavy_backend, light_backend = split
                return (
                    Relation._wrap(heavy_backend, heavy_name),
                    Relation._wrap(light_backend, light_name),
                )
        degrees = self.degree_map(target, given)
        heavy_keys_set = {key for key, degree in degrees.items() if degree > threshold}
        given_positions = self._positions(given)
        heavy_rows = set()
        light_rows = []
        for row in self._backend.iter_rows():
            key = tuple(row[p] for p in given_positions)
            if key in heavy_keys_set:
                heavy_rows.add(key)
            else:
                light_rows.append(row)
        heavy = Relation(
            given, heavy_rows, name=heavy_name, backend=self._backend.kind
        )
        light = Relation(
            self.schema, light_rows, name=light_name, backend=self._backend.kind
        )
        return heavy, light

    # ------------------------------------------------------------------
    # Matrix conversion (for MM-based eliminations)
    # ------------------------------------------------------------------
    def to_matrix(
        self,
        row_variables: Sequence[str],
        col_variables: Sequence[str],
        row_index: Optional[Dict[Row, int]] = None,
        col_index: Optional[Dict[Row, int]] = None,
    ) -> Tuple[np.ndarray, Dict[Row, int], Dict[Row, int]]:
        """Encode the relation as a 0/1 matrix over (row, column) value tuples.

        Returns ``(matrix, row_index, col_index)``; indexes can be supplied
        to align several relations on the same dimensions.  The columnar
        backend deduplicates the (row, column) key pairs on its code arrays
        before any Python-level work happens.
        """
        row_variables = list(row_variables)
        col_variables = list(col_variables)
        row_positions = self._positions(row_variables)
        col_positions = self._positions(col_variables)
        if isinstance(self._backend, ColumnarBackend):
            projected: Iterable[Tuple[Row, Row]] = self._backend.matrix_pairs(
                row_positions, col_positions
            )
        else:
            projected = {
                (
                    tuple(row[p] for p in row_positions),
                    tuple(row[p] for p in col_positions),
                )
                for row in self._backend.iter_rows()
            }
        if row_index is None or col_index is None:
            # Sorting fixes a deterministic index order; skipped when both
            # indexes are caller-supplied (mixed-type keys need not be
            # mutually comparable).
            projected = sorted(projected)
        if row_index is None:
            row_index = {}
            for key, _ in projected:
                if key not in row_index:
                    row_index[key] = len(row_index)
        if col_index is None:
            col_index = {}
            for _, key in projected:
                if key not in col_index:
                    col_index[key] = len(col_index)
        matrix = matrix_from_pairs(projected, row_index, col_index)
        return matrix, row_index, col_index

    @staticmethod
    def from_matrix(
        matrix: np.ndarray,
        row_variables: Sequence[str],
        col_variables: Sequence[str],
        row_index: Dict[Row, int],
        col_index: Dict[Row, int],
        name: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> "Relation":
        """Decode a Boolean matrix back into a relation (inverse of ``to_matrix``)."""
        inverse_rows = {position: key for key, position in row_index.items()}
        inverse_cols = {position: key for key, position in col_index.items()}
        rows = []
        nonzero_rows, nonzero_cols = np.nonzero(matrix)
        for i, j in zip(nonzero_rows.tolist(), nonzero_cols.tolist()):
            rows.append(inverse_rows[i] + inverse_cols[j])
        return Relation(
            list(row_variables) + list(col_variables), rows, name, backend=backend
        )

    def matmul(
        self,
        other: "Relation",
        row_variables: Sequence[str],
        inner_variables: Sequence[str],
        col_variables: Sequence[str],
        group_variables: Sequence[str],
        mm_kernel: Callable[[int, int, int], Optional[Callable]],
    ) -> Tuple["Relation", Tuple[int, int, int], int]:
        """``MM(rows ; inner ; cols | group)``: a Boolean product per group binding.

        For every binding of ``group_variables`` present on both sides,
        ``self`` over ``row_variables × inner_variables`` is multiplied with
        ``other`` over ``inner_variables × col_variables``; the nonzero
        entries are the output rows over rows + cols + group.  No group
        variables means one plain product.  The work is
        :meth:`ColumnarBackend.matmul` on dictionary codes — a set-backed
        operand is converted on the way in and the product comes back in
        this relation's backend kind.  ``mm_kernel(rows, inner, cols)``
        picks the multiplication kernel of one product (``None`` = BLAS).

        Returns ``(product, largest product shape, groups matched)``.
        """
        schema = tuple(row_variables) + tuple(col_variables) + tuple(group_variables)
        if len(set(schema)) != len(schema):
            raise ValueError(f"duplicate variables in schema {schema}")
        left = self.with_backend(ColumnarBackend.kind)
        right = other.with_backend(ColumnarBackend.kind)
        product, shape, group_count = left._backend.matmul(
            right._backend,
            left._positions(row_variables),
            left._positions(inner_variables),
            left._positions(group_variables),
            right._positions(inner_variables),
            right._positions(col_variables),
            right._positions(group_variables),
            schema,
            mm_kernel,
        )
        return (
            Relation._wrap(product).with_backend(self.backend_kind),
            shape,
            group_count,
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        schema: Sequence[str],
        columns: Sequence[Sequence[Value]],
        name: Optional[str] = None,
        *,
        backend: Optional[str] = None,
    ) -> "Relation":
        """Bulk constructor from per-column value sequences.

        The columnar backend dictionary-encodes each column vectorized when
        the values are homogeneous (ints, floats, strings, NumPy arrays),
        skipping per-row Python tuple handling entirely.
        """
        schema_tuple = tuple(schema)
        if len(set(schema_tuple)) != len(schema_tuple):
            raise ValueError(f"duplicate variables in schema {schema_tuple}")
        built = resolve_backend(backend).from_columns(schema_tuple, columns)
        return cls._wrap(built, name)

    @classmethod
    def from_pairs(
        cls,
        schema: Sequence[str],
        pairs: Iterable[Tuple[Value, Value]],
        name: Optional[str] = None,
        *,
        backend: Optional[str] = None,
    ) -> "Relation":
        """Convenience constructor for binary relations."""
        if len(tuple(schema)) != 2:
            raise ValueError("from_pairs requires a binary schema")
        return cls(schema, pairs, name, backend=backend)

    @classmethod
    def empty(
        cls,
        schema: Sequence[str],
        name: Optional[str] = None,
        *,
        backend: Optional[str] = None,
    ) -> "Relation":
        return cls(schema, (), name, backend=backend)
