"""The write path of one relation: state machine, stale snapshots, cost guards.

Three layers, all against the reference oracle's ``Table`` (a plain set of
rows with ``insert``/``delete``, from ``ledger.oracle``, which shares no
code with the engine):

* a Hypothesis state machine driving a relation and a ``Table`` in
  lock-step through inserts, deletes, forks from earlier versions,
  statistics refreshes and re-encodes — after every rule the rows equal
  the table's, the returned delta is exactly the table's delta in input
  order, and every earlier version still reads as it did;
* stale snapshots — a relation somebody still holds after a write must
  not see the write (not through ``in``, not through a probe whose partner
  carries the new value), and writing it again (a fork) must be correct;
* the cost of a steady-state single-row write, guarded without a clock:
  the O(N) builders are monkeypatched to raise, and ``tracemalloc`` bounds
  what one insert allocates.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from ledger.oracle import Table, evaluate
from repro.db import Relation
from repro.db import backends
from repro.db.backends import ColumnarBackend, _Dictionary
from tests.conftest import LOAD_FORMS, load_relation

SCHEMA = ("A", "B")

#: Stored values are drawn from VALUES; deletes and probes also use values
#: no dictionary has ever seen.  Mixed types on purpose: a column that
#: starts as homogeneous ints (``np.unique`` codes) may gain a string.
VALUES = [0, 1, 2, 3, 4, "a", "b"]
UNKNOWN = [77, "zz"]
PARTNER_ROWS = [(0, "p"), (2, "q"), (4, "r"), ("a", "s"), ("b", "t"), (9, "u")]

rows_st = st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES))
probe_rows_st = st.tuples(
    st.sampled_from(VALUES + UNKNOWN), st.sampled_from(VALUES + UNKNOWN)
)


def _delta(rows, keep):
    """First occurrences of the rows satisfying ``keep``, in input order."""
    out = []
    for row in rows:
        if keep(row) and row not in out:
            out.append(row)
    return tuple(out)


def _oracle(stored, partner, outputs):
    """``Q(outputs) :- R(A, B), P(B, C)`` over two oracle tables."""
    atoms = [("R", SCHEMA), ("P", ("B", "C"))]
    return evaluate({"R": stored, "P": partner}, atoms, outputs)


class WritePathMachine(RuleBasedStateMachine):
    """A relation against the oracle's ``Table``."""

    def __init__(self):
        super().__init__()
        start = [(0, 1), (1, 2), (2, 0)]
        self.reference = Table(start)
        self.relation = Relation(SCHEMA, start)
        self.partner = Relation(("B", "C"), PARTNER_ROWS)
        #: Every version ever current: (relation, rows it must keep).
        self.history = []
        self._remember()

    def _remember(self):
        self.history.append((self.relation, frozenset(self.reference.rows)))

    # -- writes -----------------------------------------------------------
    def _insert(self, rows):
        expected = _delta(rows, lambda row: row not in self.reference.rows)
        self.relation, added = self.relation.insert_rows(rows)
        assert added == expected
        for row in rows:
            self.reference.insert(row)
        self._remember()

    def _delete(self, rows):
        expected = _delta(rows, lambda row: row in self.reference.rows)
        self.relation, removed = self.relation.delete_rows(rows)
        assert removed == expected
        for row in rows:
            self.reference.delete(row)
        self._remember()

    @rule(row=rows_st)
    def insert_one(self, row):
        self._insert([row])

    @rule(rows=st.lists(rows_st, max_size=6), again=st.integers(0, 3))
    def insert_many(self, rows, again):
        # Duplicates within the batch and rows that are already stored.
        self._insert(rows + rows[:again] + sorted(self.reference.rows, key=repr)[:again])

    @rule(row=probe_rows_st)
    def delete_one(self, row):
        self._delete([row])

    @rule(rows=st.lists(probe_rows_st, max_size=6), stored=st.integers(0, 3))
    def delete_many(self, rows, stored):
        present = sorted(self.reference.rows, key=repr)[:stored]
        self._delete(rows + present + present[:1])

    @rule(data=st.data())
    def fork(self, data):
        """Make an earlier version current again: the next write forks it."""
        index = data.draw(st.integers(0, len(self.history) - 1))
        self.relation, rows = self.history[index]
        self.reference = Table(rows)

    @rule()
    def fresh_statistics(self):
        self.relation = self.relation.with_fresh_statistics()
        self._remember()

    @rule()
    def reencode(self):
        """Fresh dictionaries and codes for the same rows."""
        self.relation = Relation(SCHEMA, list(self.relation))
        self._remember()

    # -- reads ------------------------------------------------------------
    @rule(row=probe_rows_st)
    def contains(self, row):
        assert (row in self.relation) == (row in self.reference.rows)

    @rule()
    def probe_partner(self):
        partner = Table(PARTNER_ROWS)
        kept = _oracle(self.reference, partner, SCHEMA)
        assert set(self.relation.semijoin(self.partner)) == kept
        joined = self.relation.join(self.partner)
        assert joined.rows == _oracle(self.reference, partner, ("A", "B", "C"))
        assert len(joined) == len(kept)  # the partner's B is a key
        assert set(self.partner.semijoin(self.relation)) == _oracle(
            self.reference, partner, ("B", "C")
        )

    @rule(variables=st.sampled_from([["A"], ["B"], ["A", "B"], ["B", "A"]]))
    def count_distinct(self, variables):
        rows = self.reference.rows
        expected = len({tuple(row[SCHEMA.index(v)] for v in variables) for row in rows})
        assert self.relation.count_distinct(variables) == expected

    # -- invariants -------------------------------------------------------
    @invariant()
    def rows_equal_the_model(self):
        assert len(self.relation) == len(self.reference.rows)
        assert set(self.relation) == self.reference.rows  # decoded, not the cached row set
        assert self.relation.rows == self.reference.rows

    @invariant()
    def earlier_versions_are_untouched(self):
        for relation, rows in self.history:
            assert len(relation) == len(rows)
            assert set(relation) == rows


WritePathMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestWritePathMachine = WritePathMachine.TestCase


# ----------------------------------------------------------------------
# Stale snapshots and forks
# ----------------------------------------------------------------------
@pytest.fixture(params=[None, 4], ids=["int64-keys", "ranked-keys"])
def composite_limit(request, monkeypatch):
    """Run once as shipped and once with every composite key past the limit."""
    if request.param is not None:
        monkeypatch.setattr(backends, "_COMPOSITE_LIMIT", request.param)


def _base_rows():
    return [(i, (3 * i) % 10) for i in range(10)] + [(i, (i + 1) % 10) for i in range(10)]


@pytest.mark.parametrize("form", LOAD_FORMS)
def test_snapshot_held_across_an_insert(form, composite_limit):
    rows = _base_rows()
    old = load_relation(form, SCHEMA, rows)
    reference = Table(rows)
    # The partner already holds the value the insert is about to bring.
    partner_rows = [(99, "new"), (3, "old")]
    partner = load_relation(form, ("B", "C"), partner_rows)
    partner_reference = Table(partner_rows)
    old.semijoin(partner)  # warm the translation tables the write will patch
    row = (98, 99)
    new, added = old.insert_rows([row])
    assert added == (row,)
    assert new.semijoin(partner).rows == {row, *_oracle(reference, partner_reference, SCHEMA)}
    assert partner.semijoin(new).rows == set(partner_rows)

    assert row not in old and len(old) == len(rows) and old.rows == set(rows)
    assert set(old) == set(rows)
    assert old.semijoin(partner).rows == _oracle(reference, partner_reference, SCHEMA)
    assert old.join(partner).rows == _oracle(reference, partner_reference, ("A", "B", "C"))
    assert partner.semijoin(old).rows == _oracle(reference, partner_reference, ("B", "C"))
    same, removed = old.delete_rows([row])
    assert removed == () and same is old
    assert old.restrict("A", [98]).is_empty() and old.restrict("B", [99]).is_empty()

    # A second write to the snapshot is a fork: correct, and ``new`` is unaffected.
    other_row = (97, 99)
    fork, fork_added = old.insert_rows([other_row, rows[0]])
    assert fork_added == (other_row,)
    assert fork.rows == set(rows) | {other_row}
    assert other_row not in new and row not in fork
    assert new.rows == set(rows) | {row}
    assert fork.semijoin(partner).rows == new.semijoin(partner).rows - {row} | {other_row}
    # Both branches keep writing independently.
    fork, _ = fork.insert_rows([row])
    new, _ = new.delete_rows([row])
    assert fork.rows == set(rows) | {row, other_row} and new.rows == set(rows)


@pytest.mark.parametrize("form", LOAD_FORMS)
def test_snapshot_held_across_a_delete(form, composite_limit):
    rows = _base_rows()
    old = load_relation(form, SCHEMA, rows)
    reference = Table(rows)
    partner_rows = [(3, "x"), (4, "y")]
    partner = load_relation(form, ("B", "C"), partner_rows)
    partner_reference = Table(partner_rows)
    victim = (1, 3)
    new, removed = old.delete_rows([victim, (55, 55)])
    assert removed == (victim,)
    assert victim not in new and len(new) == len(rows) - 1

    assert victim in old and len(old) == len(rows) and set(old) == set(rows)
    assert old.semijoin(partner).rows == _oracle(reference, partner_reference, SCHEMA)
    assert old.join(partner).rows == _oracle(reference, partner_reference, ("A", "B", "C"))
    same, added = old.insert_rows([victim])
    assert added == () and same is old

    other_victim = (4, 2)
    fork, fork_removed = old.delete_rows([other_victim])
    assert fork_removed == (other_victim,)
    assert fork.rows == set(rows) - {other_victim}
    assert new.rows == set(rows) - {victim}
    assert victim in fork and other_victim in new
    back, added = new.insert_rows([victim])
    assert added == (victim,) and back.rows == reference.rows


def test_threads_forking_one_snapshot_stay_apart():
    """Relations are values: writers sharing no lock may write one snapshot.

    Each thread forks the same relation over and over (racing the others
    for its write index and for its dictionaries' lineage) and chains
    writes on its fork; nobody may ever see anybody else's rows.
    """
    rows = _base_rows()
    base = Relation(SCHEMA, rows)
    failures = []

    def writer(thread):
        try:
            for turn in range(150):
                mine = [(f"t{thread}", turn), (turn, f"t{thread}")]
                fork, added = base.insert_rows(mine[:1])
                fork, more = fork.insert_rows(mine[1:] + rows[:2])
                assert added + more == tuple(mine)
                assert set(fork) == set(rows) | set(mine)
                fork, removed = fork.delete_rows([rows[0], mine[0], ("nobody", 0)])
                assert removed == (rows[0], mine[0])
                assert set(fork) == (set(rows) | set(mine)) - set(removed)
        except Exception as exc:  # surfaced below, never swallowed
            failures.append(exc)

    workers = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not failures, failures
    assert set(base) == set(rows) and len(base) == len(rows)


# ----------------------------------------------------------------------
# The cost of a steady-state write, without a clock
# ----------------------------------------------------------------------
N = 20_000


def _steady_state():
    """A 20 000-row relation with one write and one probe each way behind it."""
    relation = Relation(SCHEMA, [(i, (7 * i) % N) for i in range(N)])
    partner = Relation(("B", "C"), [(i, i % 5) for i in range(0, 2 * N, 2)])
    relation.semijoin(partner), partner.semijoin(relation)
    relation, _ = relation.insert_rows([(N, N + 1)])
    relation.semijoin(partner), partner.semijoin(relation)
    return relation, partner


def test_single_row_writes_build_nothing_of_size_n(monkeypatch):
    relation, partner = _steady_state()
    expected = set(relation.semijoin(partner))

    def forbidden(*args, **kwargs):
        raise AssertionError("a single-row write did O(N) Python-object work")

    with monkeypatch.context() as patch:
        patch.setattr(ColumnarBackend, "row_set", forbidden)
        patch.setattr(ColumnarBackend, "iter_rows", forbidden)
        patch.setattr(_Dictionary, "_build_index", forbidden)
        patch.setattr(_Dictionary, "_build_table", forbidden)
        known = (5, 14)  # both values are in the dictionaries, the row is not
        relation, added = relation.insert_rows([known])
        assert added == (known,)
        after_known = relation.semijoin(partner), partner.semijoin(relation)
        novel = (N + 2, N + 4)  # new values in both columns; the partner holds N + 4
        relation, added = relation.insert_rows([novel])
        assert added == (novel,)
        after_novel = relation.semijoin(partner), partner.semijoin(relation)
        relation, removed = relation.delete_rows([(0, 0)])
        assert removed == ((0, 0),)
        after_delete = relation.semijoin(partner), partner.semijoin(relation)
        assert (len(relation), len(after_delete[0])) == (N + 2, len(expected) + 1)
    assert set(after_known[0]) == expected | {known}
    assert set(after_novel[0]) == expected | {known, novel}
    assert set(after_delete[0]) == (expected | {known, novel}) - {(0, 0)}
    assert len(after_novel[1]) == len(after_known[1]) + 1
    assert relation.rows == ({(i, (7 * i) % N) for i in range(1, N)} | {(N, N + 1), known, novel})


def test_translation_table_is_the_same_built_from_either_side():
    # A small dictionary meeting a large, already indexed one (a one-row
    # delta probing a stored relation) looks its own values up over there
    # instead of walking the large one: same table, |small| lookups.
    large = Relation(("A",), [(i,) for i in range(60)] + [("x",)])
    small = Relation(("A",), [(3,), ("x",), (77,), (59,), ("y",)])
    large_dictionary = large._backend._columns[0].dictionary
    small_dictionary = small._backend._columns[0].dictionary
    walked = small_dictionary._build_table(large_dictionary)  # no index over there yet
    grown, _ = large.insert_rows([("y",), (77,)])  # indexes the lineage, extends it
    assert (small_dictionary._build_table(large_dictionary) == walked).all()
    decoded = {
        large_dictionary.values[code]: small_dictionary.values[mapped]
        for code, mapped in enumerate(walked)
        if mapped >= 0
    }
    assert decoded == {3: 3, 59: 59, "x": "x"}
    # The older version never sees the codes its successor minted.
    assert set(small.semijoin(large)) == {(3,), (59,), ("x",)}
    assert set(small.semijoin(grown)) == {(3,), (59,), ("x",), ("y",), (77,)}


def test_single_row_insert_allocates_a_few_code_arrays():
    relation, _ = _steady_state()
    code_bytes = sum(column.codes.nbytes for column in relation._backend._columns)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        updated, added = relation.insert_rows([(N + 2, N + 4)])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert added == ((N + 2, N + 4),) and len(updated) == len(relation) + 1
    # Two appended code arrays and two extended value arrays — not a row
    # set and two value → code dicts over the whole relation.
    assert peak < 3 * code_bytes
