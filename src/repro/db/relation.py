"""Relations: a named-schema facade over the columnar store.

A relation ``R(X, Y, ...)`` is a schema (tuple of variable names) plus a
:class:`~repro.db.backends.ColumnarBackend` holding the tuples as
dictionary-encoded NumPy code columns.  Besides the classical operators
(restrict/project/join/semijoin), relations expose the *degree* statistics of
Definition E.9 — ``deg_R(Y | X)`` — and the heavy part of a degree split
that the paper's algorithms (Figure 1, PANDA decomposition steps) are
built on (the light rows are an antijoin with it), plus the grouped
Boolean matrix product of the matrix-multiplication eliminations.

This facade maps variable names to column positions, calls the backend's
positional operator and wraps the result; the storage and every kernel
live in :mod:`repro.db.backends`.  Semijoins are vectorized key-membership
probes, joins are sort + ``searchsorted`` gathers, and the grouped Boolean
matrix product (:meth:`Relation.matmul`) goes from code arrays to code
arrays without building a row tuple.  Statistics (:attr:`Relation.stats`)
— row counts, per-column distinct counts ``V(A, r)``, max degrees
``deg(Y | X)`` — are computed by the backend, cached, and consumed by the
cost-based planner.
"""

from __future__ import annotations

from typing import (
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .backends import ColumnarBackend, RelationStats, Row, Value

__all__ = [
    "Relation",
    "RelationStats",
    "Row",
    "Value",
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
    """

    __slots__ = ("_backend", "name")

    def __init__(
        self,
        schema: Sequence[str],
        rows: Iterable[Sequence[Value]] = (),
        name: Optional[str] = None,
    ) -> None:
        schema_tuple = tuple(schema)
        if len(set(schema_tuple)) != len(schema_tuple):
            raise ValueError(f"duplicate variables in schema {schema_tuple}")
        self._backend = ColumnarBackend.from_rows(schema_tuple, rows)
        self.name = name

    @classmethod
    def _wrap(cls, backend: ColumnarBackend, name: Optional[str] = None) -> "Relation":
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
    def stats(self) -> RelationStats:
        """Cached relation statistics: ``n_r``, ``V(A, r)``, ``deg(Y | X)``."""
        return self._backend.stats()

    def __len__(self) -> int:
        return len(self._backend)

    def __iter__(self) -> Iterator[Row]:
        return self._backend.iter_rows()

    def __contains__(self, row: Sequence[Value]) -> bool:
        return tuple(row) in self._backend.row_set()

    def _normal_form(self) -> Tuple[Tuple[str, ...], FrozenSet[Row]]:
        """Schema and rows with the columns sorted: equality is up to column order."""
        schema = sorted(self.schema)
        return tuple(schema), self.project(schema).rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._normal_form() == other._normal_form()

    def __hash__(self) -> int:
        return hash(self._normal_form())

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
        :meth:`~repro.db.backends.ColumnarBackend.append_rows`).  When no
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
        rows that were actually present.  The backend tombstones the
        victims and compacts lazily on first kernel access.  When nothing
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

    def _shared(self, other: "Relation") -> List[str]:
        return [v for v in self.schema if v in other.variables]

    def _empty(self) -> "Relation":
        return Relation(self.schema, (), self.name)

    def sorted_order(self, variables: Sequence[str]) -> Sequence[int]:
        """Row indices ordering the rows by the deterministic value order.

        The order over ``variables`` (lexicographic per
        :func:`~repro.db.ordering.row_order_key`, ties broken stably by
        storage position) is the ``select(order="sorted")`` contract; the
        indices address the same storage positions :meth:`row_slice`
        reads.  Computed once per (relation, column-set) from per-column
        value ranks and cached on the backend.
        """
        return self._backend.value_sorted_order(tuple(self._positions(variables)))

    def ordered_rows(self, limit: Optional[int] = None) -> List[Row]:
        """The rows in the deterministic sorted-order contract.

        The materialized arm of ``select(order="sorted")``: the first
        ``limit`` rows (all of them when ``limit`` is ``None``) under the
        same total order :meth:`sorted_order` indexes; only the requested
        prefix of the cached vectorized sort is decoded.
        """
        return self._backend.ordered_rows(limit)

    def ordered_distinct_values(self, variable: str) -> List[Value]:
        """One column's distinct values in deterministic value order.

        The candidate feed of the ranked enumeration: on a *calibrated*
        relation (full-reducer property) these are exactly the values the
        join output takes for ``variable``, already in output order.
        Cached per column on the backend, so repeated ranked selects over
        the same calibrated relations pay the sort once.
        """
        return list(self._backend.ordered_values(self._backend.position(variable)))

    # ------------------------------------------------------------------
    # Classical operators
    # ------------------------------------------------------------------
    def project(self, variables: Sequence[str]) -> "Relation":
        """Project onto the given variables (duplicates collapse)."""
        variables = list(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variables in schema {tuple(variables)}")
        return Relation._wrap(
            self._backend.project(self._positions(variables), tuple(variables))
        )

    def count_distinct(self, variables: Sequence[str]) -> int:
        """The number of distinct projections onto ``variables``.

        Equivalent to ``len(self.project(variables))`` but computed by the
        backend's counting kernel without materializing the projected
        relation (one ``np.unique`` over the stacked code arrays).  An empty variable
        list counts the nullary projection: ``1`` when the relation is
        nonempty, else ``0``.
        """
        variables = list(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variables in projection {tuple(variables)}")
        return self._backend.count_distinct(self._positions(variables))

    def count_join_tree(self, frontiers: Sequence["Relation"], parents: Sequence[int]) -> int:
        """The number of tuples of the join tree rooted here, without joining.

        ``parents[i]`` indexes frontier ``i``'s parent in ``[self,
        *frontiers]``; each frontier joins its parent on their shared
        variables (:meth:`~repro.db.backends.ColumnarBackend.count_tree`).
        """
        nodes = [self, *frontiers]
        edges = []
        for child, parent in zip(nodes[1:], parents):
            keys = nodes[parent]._shared(child)
            edges.append((parent, nodes[parent]._positions(keys), child._backend, child._positions(keys)))
        return self._backend.count_tree(edges)

    def restrict(self, variable: str, values: Iterable[Value]) -> "Relation":
        """Select the rows whose ``variable`` value lies in ``values``.

        Answered with one vectorized index probe; an equality select is
        ``restrict(variable, [value])``.
        """
        position = self._backend.position(variable)
        return Relation._wrap(self._backend.restrict(position, values), self.name)

    @staticmethod
    def wcoj(relations, variable_order, find_all, morsel_size, token=None) -> "Relation":
        """GenericJoin binding ``variable_order``: every satisfying assignment
        with ``find_all``, else at most one (:meth:`ColumnarBackend.wcoj
        <repro.db.backends.ColumnarBackend.wcoj>`)."""
        order = tuple(variable_order)
        atoms = [(r._backend, [order.index(v) for v in r.schema]) for r in relations]
        return Relation._wrap(ColumnarBackend.wcoj(atoms, order, find_all, morsel_size, token))

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """Rename columns (variables not mentioned keep their names)."""
        new_schema = tuple(mapping.get(variable, variable) for variable in self.schema)
        if len(set(new_schema)) != len(new_schema):
            raise ValueError(f"duplicate variables in schema {new_schema}")
        return Relation._wrap(self._backend.rename(new_schema), self.name)

    def join(self, other: "Relation") -> "Relation":
        """Natural (hash) join on the shared variables."""
        shared = self._shared(other)
        other_only = [v for v in other.schema if v not in self.variables]
        return Relation._wrap(
            self._backend.join(
                self._positions(shared),
                other._backend,
                other._positions(shared),
                other._positions(other_only),
                tuple(self.schema) + tuple(other_only),
            )
        )

    def semijoin(self, other: "Relation") -> "Relation":
        """Keep the rows whose shared-variable projection appears in ``other``."""
        shared = self._shared(other)
        if not shared:
            return self if not other.is_empty() else self._empty()
        return self._semijoin(other, shared, negate=False)

    def antijoin(self, other: "Relation") -> "Relation":
        """Keep the rows whose shared-variable projection does NOT appear in ``other``."""
        shared = self._shared(other)
        if not shared:
            return self if other.is_empty() else self._empty()
        return self._semijoin(other, shared, negate=True)

    def _semijoin(
        self, other: "Relation", shared: List[str], negate: bool
    ) -> "Relation":
        reduced = self._backend.semijoin(
            self._positions(shared), other._backend, other._positions(shared), negate
        )
        return Relation._wrap(reduced, self.name)

    def row_slice(self, start: int, stop: int) -> "Relation":
        """The rows at storage positions ``[start, stop)`` as a relation.

        For callers that pull chunks on demand (the VM's streaming
        enumeration cursor): zero-copy views of the code arrays, sharing
        the parent's dictionaries and caches.  The position order is
        arbitrary but stable for the lifetime of the relation.
        """
        return Relation._wrap(self._backend.slice_rows(start, stop), self.name)

    # ------------------------------------------------------------------
    # Degree statistics (Definition E.9) and heavy/light partitioning
    # ------------------------------------------------------------------
    def _degree_positions(
        self, target: Sequence[str], given: Sequence[str]
    ) -> Tuple[List[int], List[int]]:
        """Positions of ``target`` minus ``given`` and of ``given``, schema-clipped."""
        schema = set(self.schema)
        return (
            self._positions([v for v in target if v not in given and v in schema]),
            self._positions([v for v in given if v in schema]),
        )

    def heavy_part(self, given: Sequence[str], threshold: int) -> "Relation":
        """The bindings of ``given`` whose degree exceeds ``threshold``.

        This is the database interpretation of the proof-sequence
        *decomposition step* ``h(XY) → h(X) + h(Y|X)`` (Figure 1): a
        binding's degree counts the distinct values it takes on the other
        columns, and the heavy bindings come back projected onto ``given``.
        """
        target_positions, _ = self._degree_positions(self.schema, given)
        heavy = self._backend.degree_split(target_positions, self._positions(given), threshold)
        return Relation._wrap(heavy, f"{self.name or 'R'}_heavy")

    # ------------------------------------------------------------------
    # Matrix multiplication (for MM-based eliminations)
    # ------------------------------------------------------------------
    def matmul(
        self,
        other: "Relation",
        row_variables: Sequence[str],
        inner_variables: Sequence[str],
        col_variables: Sequence[str],
        group_variables: Sequence[str],
        mask: Optional["Relation"] = None,
    ) -> Tuple["Relation", Tuple[int, int, int], int]:
        """``MM(rows ; inner ; cols | group)``: a Boolean product per group binding.

        For every binding of ``group_variables`` present on both sides,
        ``self`` over ``row_variables × inner_variables`` is multiplied with
        ``other`` over ``inner_variables × col_variables``; the nonzero
        entries are the output rows over rows + cols + group.  No group
        variables means one plain product.  The work happens on dictionary
        codes (:meth:`~repro.db.backends.ColumnarBackend.matmul`).

        With a ``mask`` holding every row, col and group variable the
        product is gathered at the mask's rows instead: the output is the
        mask's rows (its schema, its order — a join with the product, which
        adds no column) whose projection is a nonzero entry.

        Returns ``(product, largest product shape, groups matched)``.
        """
        schema = tuple(row_variables) + tuple(col_variables) + tuple(group_variables)
        if len(set(schema)) != len(schema):
            raise ValueError(f"duplicate variables in schema {schema}")
        product, shape, group_count = self._backend.matmul(
            other._backend,
            self._positions(row_variables),
            self._positions(inner_variables),
            self._positions(group_variables),
            other._positions(inner_variables),
            other._positions(col_variables),
            other._positions(group_variables),
            schema,
            mask=None if mask is None else mask._backend,
            mask_positions=() if mask is None else mask._positions(schema),
        )
        return Relation._wrap(product), shape, group_count

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        schema: Sequence[str],
        columns: Sequence[Sequence[Value]],
        name: Optional[str] = None,
    ) -> "Relation":
        """Bulk constructor from per-column value sequences.

        Each column is dictionary-encoded vectorized when its values are
        homogeneous (ints, floats, strings, NumPy arrays), skipping per-row
        Python tuple handling entirely.
        """
        schema_tuple = tuple(schema)
        if len(set(schema_tuple)) != len(schema_tuple):
            raise ValueError(f"duplicate variables in schema {schema_tuple}")
        built = ColumnarBackend.from_columns(schema_tuple, columns)
        return cls._wrap(built, name)

    @classmethod
    def from_pairs(
        cls,
        schema: Sequence[str],
        pairs: Iterable[Tuple[Value, Value]],
        name: Optional[str] = None,
    ) -> "Relation":
        """Convenience constructor for binary relations."""
        if len(tuple(schema)) != 2:
            raise ValueError("from_pairs requires a binary schema")
        return cls(schema, pairs, name)

    @classmethod
    def empty(cls, schema: Sequence[str], name: Optional[str] = None) -> "Relation":
        return cls(schema, (), name)
