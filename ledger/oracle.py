"""The independent oracle: joins over plain tuple sets.

Nothing here imports ``repro``.  A query is evaluated by joining its
atoms one at a time over hash indexes, projecting after every step onto
the variables still needed — a few dozen lines whose only shared idea
with the engine is the definition of a conjunctive query.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, Sequence, Set, Tuple

Row = Tuple[int, ...]
Atom = Tuple[str, Tuple[str, ...]]


class Table:
    """A set of rows with hash indexes kept in step with inserts/deletes."""

    def __init__(self, rows: Iterable[Row]) -> None:
        self.rows: Set[Row] = set(rows)
        self._indexes: Dict[Tuple[int, ...], Dict[Row, Set[Row]]] = {}

    def index(self, positions: Tuple[int, ...]) -> Dict[Row, Set[Row]]:
        built = self._indexes.get(positions)
        if built is None:
            built = self._indexes[positions] = {}
            for row in self.rows:
                built.setdefault(tuple(row[p] for p in positions), set()).add(row)
        return built

    def insert(self, row: Row) -> None:
        if row not in self.rows:
            self.rows.add(row)
            for positions, built in self._indexes.items():
                built.setdefault(tuple(row[p] for p in positions), set()).add(row)

    def delete(self, row: Row) -> None:
        if row in self.rows:
            self.rows.discard(row)
            for positions, built in self._indexes.items():
                built[tuple(row[p] for p in positions)].discard(row)


def _getter(positions: Iterable[int]):
    """``row -> tuple(row[p] for p in positions)``, at C speed where it can."""
    positions = tuple(positions)
    if len(positions) >= 2:
        return itemgetter(*positions)
    return (lambda row: (row[positions[0]],)) if positions else (lambda row: ())


def evaluate(
    tables: Dict[str, Table], atoms: Sequence[Atom], outputs: Sequence[str]
) -> Set[Row]:
    """The distinct output tuples of ``Q(outputs) :- atoms``.

    A Boolean head yields ``{()}`` when the body is satisfiable, else ``{}``.
    """
    remaining = list(atoms)
    bound: Tuple[str, ...] = ()
    partials: Set[Row] = {()}
    while remaining and partials:
        atom = next((a for a in remaining if set(a[1]) & set(bound)), remaining[0])
        remaining.remove(atom)
        relation, variables = atom
        needed = set(outputs) | {v for _, vs in remaining for v in vs}
        key_positions = tuple(i for i, v in enumerate(variables) if v in bound)
        key_sources = tuple(bound.index(variables[i]) for i in key_positions)
        merged = bound + tuple(v for v in variables if v not in bound)
        kept = tuple(v for v in merged if v in needed)
        # Each kept variable's position in ``partial + row``.
        keep = _getter(
            bound.index(v) if v in bound else len(bound) + variables.index(v)
            for v in kept
        )
        key_of = _getter(key_sources)
        index = tables[relation].index(key_positions)
        extended: Set[Row] = set()
        for partial in partials:
            for row in index.get(key_of(partial), ()):
                extended.add(keep(partial + row))
        bound, partials = kept, extended
    if remaining:
        return set()
    return set(map(_getter(bound.index(v) for v in outputs), partials))


class Oracle:
    """Tracks the database as plain tables and judges observed answers."""

    def __init__(self, tables: Dict[str, Tuple[Sequence[str], Iterable[Row]]]) -> None:
        self.tables = {name: Table(rows) for name, (_, rows) in tables.items()}
        self._version = 0
        self._memo: Dict[tuple, Set[Row]] = {}

    def apply(self, op) -> None:
        """Replay an insert/delete op (other verbs leave the data alone)."""
        if op.verb in ("insert", "delete"):
            table = self.tables[op.relation]
            for row in op.rows:
                (table.insert if op.verb == "insert" else table.delete)(tuple(row))
            self._version += 1

    def expected(self, op) -> Set[Row]:
        key = (op.atoms, op.outputs, self._version)
        if key not in self._memo:
            self._memo[key] = evaluate(self.tables, op.atoms, op.outputs)
        return self._memo[key]

    def agrees(self, op, observed) -> bool:
        """Whether ``observed`` is a correct answer to ``op`` right now.

        ``observed`` is a bool (exists), an int (count or rows changed) or
        a list of rows (select).  Updates are judged by how many rows they
        changed; call :meth:`apply` afterwards.
        """
        if op.verb == "insert":
            return observed == len(set(op.rows) - self.tables[op.relation].rows)
        if op.verb == "delete":
            return observed == len(set(op.rows) & self.tables[op.relation].rows)
        expected = self.expected(op)
        if op.verb == "exists":
            return observed is bool(expected)
        if op.verb == "count":
            return observed == len(expected)
        rows = [tuple(row) for row in observed]
        if op.order == "sorted":
            return rows == sorted(expected)[: op.limit]
        size = len(expected) if op.limit is None else min(op.limit, len(expected))
        return len(rows) == size == len(set(rows)) and set(rows) <= expected
