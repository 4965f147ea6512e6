"""Delta-driven incremental maintenance: kernels, deltas, differential replay.

Four layers, from storage up:

* write kernels — ``append_rows``/``delete_rows`` return exact deltas
  and never mutate the source relation, for both input forms
  (``tests.conftest.LOAD_FORMS``);
* the database delta ledger — per-relation versions and epochs, the
  bounded delta log, threshold fallback to fresh statistics;
* engine patching — cached ``exists``/``count`` answers adjusted under
  small deltas (``plan_source == "incremental"``), with the soundness
  guards (several mutated relations, unbound atom variables) falling back
  to full execution;
* differential replay — seeded interleaved insert/delete/query traces
  across input forms × strategies, cross-checked step by
  step against a from-scratch engine built on the current data.  The
  incremental engine may *never* disagree: a stale cache shows up as a
  wrong answer with a reproducible seed.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.api import QueryEngine
from repro.db import Database, Relation, parse_query
from repro.db import database as database_module
from tests.conftest import LOAD_FORMS, load_database, load_relation

SCHEMA = ("a", "b")
CHAIN = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
CHAIN_FULL = parse_query("Q(X, Y, Z) :- R(X, Y), S(Y, Z)")
CHAIN_BOOL = parse_query("Q() :- R(X, Y), S(Y, Z)")
TRIANGLE_BOOL = parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z)")


def make_database(form="columnar"):
    tables = {
        "R": (SCHEMA, [(1, 2), (2, 3), (3, 1)]),
        "S": (SCHEMA, [(2, 5), (3, 6), (1, 7)]),
        "T": (SCHEMA, [(1, 5), (9, 9)]),
    }
    return load_database(form, tables)


# ----------------------------------------------------------------------
# Write kernels
# ----------------------------------------------------------------------
class TestRelationKernels:
    @pytest.mark.parametrize("form", LOAD_FORMS)
    def test_insert_rows_returns_exact_delta(self, form):
        relation = load_relation(form, SCHEMA, [(1, 2), (2, 3)], "R")
        updated, added = relation.insert_rows([(1, 2), (4, 5), (4, 5)])
        assert set(added) == {(4, 5)}
        assert len(updated) == 3
        assert len(relation) == 2  # source untouched
        assert set(updated) == {(1, 2), (2, 3), (4, 5)}

    @pytest.mark.parametrize("form", LOAD_FORMS)
    def test_delete_rows_returns_exact_delta(self, form):
        relation = load_relation(form, SCHEMA, [(1, 2), (2, 3), (3, 4)], "R")
        updated, removed = relation.delete_rows([(2, 3), (9, 9)])
        assert set(removed) == {(2, 3)}
        assert set(updated) == {(1, 2), (3, 4)}
        assert len(relation) == 3

    @pytest.mark.parametrize("form", LOAD_FORMS)
    def test_noop_updates_return_same_relation(self, form):
        relation = load_relation(form, SCHEMA, [(1, 2)], "R")
        same, added = relation.insert_rows([(1, 2)])
        assert added == () and same is relation
        same, removed = relation.delete_rows([(7, 7)])
        assert removed == () and same is relation

    @pytest.mark.parametrize("form", LOAD_FORMS)
    def test_delete_everything_then_reinsert(self, form):
        relation = load_relation(form, SCHEMA, [(1, 2), (2, 3)], "R")
        empty, removed = relation.delete_rows([(1, 2), (2, 3)])
        assert len(empty) == 0 and len(removed) == 2
        refilled, added = empty.insert_rows([(5, 6)])
        assert set(refilled) == {(5, 6)} and set(added) == {(5, 6)}

    @pytest.mark.parametrize("form", LOAD_FORMS)
    def test_fresh_statistics_match_rebuild(self, form):
        relation = load_relation(form, SCHEMA, [(1, 2), (1, 3), (2, 3)], "R")
        grown, _ = relation.insert_rows([(1, 4), (3, 4)])
        fresh = grown.with_fresh_statistics()
        rebuilt = load_relation(form, SCHEMA, grown, "R")
        assert fresh.stats.n_rows == rebuilt.stats.n_rows
        for var in SCHEMA:
            assert fresh.stats.distinct(var) == rebuilt.stats.distinct(var)

    @pytest.mark.parametrize("form", LOAD_FORMS)
    def test_dictionary_growth_new_values(self, form):
        # Values never seen at build time must encode cleanly (the
        # backend grows its dictionary without mutating the one shared
        # with the pre-insert relation).
        relation = load_relation(form, SCHEMA, [("x", "y")], "R")
        grown, added = relation.insert_rows([("p", "q"), ("x", "q")])
        assert set(added) == {("p", "q"), ("x", "q")}
        assert set(grown) == {("x", "y"), ("p", "q"), ("x", "q")}
        assert set(relation) == {("x", "y")}


# ----------------------------------------------------------------------
# Database delta ledger
# ----------------------------------------------------------------------
class TestDatabaseDeltas:
    def test_insert_delete_counts_and_size(self):
        db = make_database()
        assert db.insert("R", [(7, 8), (1, 2)]) == 1
        assert len(db["R"]) == 4
        assert db.delete("R", [(7, 8), (0, 0)]) == 1
        assert len(db["R"]) == 3

    def test_versions_bump_only_on_change(self):
        db = make_database()
        before = db.relation_version("R")
        db.insert("R", [(1, 2)])  # already present: no-op
        assert db.relation_version("R") == before
        db.insert("R", [(7, 8)])
        assert db.relation_version("R") == before + 1

    def test_epoch_stable_under_small_deltas(self):
        db = make_database()
        epoch = db.relation_epoch("R")
        db.insert("R", [(7, 8)])
        db.delete("R", [(7, 8)])
        assert db.relation_epoch("R") == epoch  # plans stay cached

    def test_deltas_since_replays_chronologically(self):
        db = make_database()
        v0 = db.relation_version("R")
        db.insert("R", [(7, 8)])
        db.delete("R", [(1, 2)])
        replay = db.deltas_since("R", v0)
        assert [kind for kind, _ in replay] == ["insert", "delete"]
        assert set(replay[0][1]) == {(7, 8)}
        assert set(replay[1][1]) == {(1, 2)}
        assert db.deltas_since("R", db.relation_version("R")) == ()

    def test_delta_log_is_bounded(self, monkeypatch):
        monkeypatch.setattr(database_module, "DELTA_LOG_LIMIT", 2)
        db = make_database()
        v0 = db.relation_version("R")
        for i in range(5):
            db.insert("R", [(100 + i, i)])
        assert db.deltas_since("R", v0) is None  # truncated
        recent = db.deltas_since("R", db.relation_version("R") - 2)
        assert recent is not None and len(recent) == 2

    def test_replacement_clears_the_log(self):
        db = make_database()
        v0 = db.relation_version("R")
        db.insert("R", [(7, 8)])
        db["R"] = Relation.from_pairs(SCHEMA, [(5, 5)], "R")
        assert db.deltas_since("R", v0) is None

    def test_threshold_fallback_refreshes_statistics(self, monkeypatch):
        monkeypatch.setattr(database_module, "DELTA_THRESHOLD_ROWS", 4)
        db = make_database()
        epoch = db.relation_epoch("R")
        v0 = db.relation_version("R")
        db.insert("R", [(100 + i, i) for i in range(5)])  # crosses threshold
        assert db.relation_epoch("R") == epoch + 1
        assert db.deltas_since("R", v0) is None
        # Statistics reflect the full current contents, not stale seeds.
        assert db["R"].stats.n_rows == len(db["R"])

    def test_unknown_relation_raises(self):
        db = make_database()
        with pytest.raises(KeyError):
            db.insert("Zed", [(1, 2)])

    @pytest.mark.parametrize("form", LOAD_FORMS)
    def test_fingerprints_track_touched_relations_only(self, form):
        db = make_database(form)
        fp_rs = db.fingerprint_for(["R", "S"])
        db.insert("T", [(4, 4)])
        assert db.fingerprint_for(["R", "S"]) == fp_rs  # untouched pair
        db.insert("R", [(7, 8)])
        assert db.fingerprint_for(["R", "S"]) != fp_rs

    @pytest.mark.parametrize("form", LOAD_FORMS)
    def test_concurrent_writers_lose_no_update(self, form, monkeypatch):
        # insert is a read-modify-write of the stored relation: four server
        # threads writing one relation must serialise on the database lock,
        # while readers (who take no lock) probe whatever version is current.
        threads, per_thread, stored = 4, 200, 5000
        monkeypatch.setattr(database_module, "DELTA_LOG_LIMIT", 10**4)
        monkeypatch.setattr(database_module, "DELTA_THRESHOLD_ROWS", 10**6)
        db = load_database(form, {"R": (SCHEMA, [(i, i + 1) for i in range(stored)])})
        # Every written row brings a new value in both columns; the partner
        # holds exactly the written b-values, so a consistent snapshot of n
        # rows semijoins to n - stored of them.
        written = [
            [(-(t * per_thread + i) - 1, stored + 1 + t * per_thread + i) for i in range(per_thread)]
            for t in range(threads)
        ]
        partner = load_relation(
            form, ("b", "c"), [(row[1], 0) for rows in written for row in rows]
        )
        engine = QueryEngine(db)
        base = db.relation_version("R")
        failures = []
        done = threading.Event()

        def guarded(body, *args):
            try:
                body(*args)
            except Exception as exc:  # surfaced below, never swallowed
                failures.append(exc)

        def writer(rows):
            for row in rows:
                assert engine.insert("R", [row]) == 1

        def reader():
            while not done.is_set():
                snapshot = db["R"]
                assert len(snapshot.semijoin(partner)) == len(snapshot) - stored

        writers = [threading.Thread(target=guarded, args=(writer, rows)) for rows in written]
        readers = [threading.Thread(target=guarded, args=(reader,)) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in writers + readers:
                worker.start()
            for worker in writers:
                worker.join(timeout=120)
            done.set()
            for worker in readers:
                worker.join(timeout=120)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in writers + readers)
        assert not failures, failures
        expected = sorted(row for rows in written for row in rows)
        assert len(db["R"]) == stored + len(expected)
        assert set(expected) <= db["R"].rows
        # Every delta is logged exactly once, under contiguous versions.
        assert db.relation_version("R") == base + len(expected)
        assert [v for v, _, _ in db._deltas["R"]] == list(
            range(base + 1, base + len(expected) + 1)
        )
        replay = db.deltas_since("R", base)
        assert all(kind == "insert" and len(rows) == 1 for kind, rows in replay)
        assert sorted(rows[0] for _, rows in replay) == expected


# ----------------------------------------------------------------------
# Engine patching and cache provenance
# ----------------------------------------------------------------------
class TestEnginePatching:
    def test_monotone_exists_is_patched(self):
        engine = QueryEngine(make_database())
        assert engine.exists(CHAIN_BOOL).answer is True
        engine.insert("R", [(50, 60)])
        result = engine.exists(CHAIN_BOOL)
        assert result.answer is True
        assert result.plan_source == "incremental"

    def test_exists_false_flips_true_via_delta_evaluation(self):
        db = Database()
        db["R"] = Relation.from_pairs(SCHEMA, [(1, 2)], "R")
        db["S"] = Relation.from_pairs(SCHEMA, [(9, 9)], "S")
        engine = QueryEngine(db)
        assert engine.exists(CHAIN_BOOL).answer is False
        engine.insert("S", [(2, 7)])  # joins R(1, 2)
        result = engine.exists(CHAIN_BOOL)
        assert result.answer is True
        assert result.plan_source == "incremental"

    def test_false_exists_stays_false_under_deletes(self):
        db = Database()
        db["R"] = Relation.from_pairs(SCHEMA, [(1, 2), (5, 5)], "R")
        db["S"] = Relation.from_pairs(SCHEMA, [(9, 9)], "S")
        engine = QueryEngine(db)
        assert engine.exists(CHAIN_BOOL).answer is False
        engine.delete("R", [(5, 5)])
        result = engine.exists(CHAIN_BOOL)
        assert result.answer is False
        assert result.plan_source == "incremental"

    def test_count_patched_when_output_covers_delta_atom(self):
        engine = QueryEngine(make_database())
        base = engine.count(CHAIN_FULL).row_count
        engine.insert("S", [(2, 99)])  # R has two rows with b == 2? (1,2) only
        result = engine.count(CHAIN_FULL)
        assert result.row_count == base + 1
        assert result.plan_source == "incremental"
        engine.delete("S", [(2, 99)])
        result = engine.count(CHAIN_FULL)
        assert result.row_count == base
        assert result.plan_source == "incremental"

    def test_count_bails_when_atom_variable_unbound(self):
        engine = QueryEngine(make_database())
        base = engine.count(CHAIN).row_count  # output (X, Z) hides Y
        engine.insert("S", [(2, 99)])
        result = engine.count(CHAIN)
        assert result.plan_source != "incremental"  # guard refused the patch
        fresh = QueryEngine(make_database())
        fresh.insert("S", [(2, 99)])
        assert result.row_count == fresh.count(CHAIN).row_count
        assert base == 3

    def test_exists_patch_with_multiple_mutated_relations(self):
        # The insert decomposition sets *other* relations to their
        # current contents (own deltas included), so a witness that
        # joins one relation's new row with another's must be found.
        db = Database()
        db["R"] = Relation.from_pairs(SCHEMA, [(1, 2)], "R")
        db["S"] = Relation.from_pairs(SCHEMA, [(9, 9)], "S")
        engine = QueryEngine(db)
        assert engine.exists(CHAIN_BOOL).answer is False
        engine.insert("R", [(7, 8)])
        engine.insert("S", [(8, 3)])  # joins only the *new* R row
        result = engine.exists(CHAIN_BOOL)
        assert result.answer is True
        assert result.plan_source == "incremental"

    def test_untouched_relations_keep_their_cached_results(self):
        engine = QueryEngine(make_database())
        first = engine.exists(CHAIN_BOOL)
        assert first.cache_hit is False
        engine.insert("T", [(4, 4)])  # CHAIN_BOOL never reads T
        again = engine.exists(CHAIN_BOOL)
        assert again.answer is first.answer
        # Versions of R and S are unchanged, so the stored answer is
        # served verbatim (O(1)) — T's mutation is invisible under
        # per-relation cache keys.
        assert again.plan_source == "incremental"
        assert again.cache_hit is True
        assert engine.incremental_info()["reused"] == 1

    def test_incremental_info_counters(self):
        engine = QueryEngine(make_database())
        engine.exists(CHAIN_BOOL)
        engine.insert("R", [(50, 60)])
        engine.exists(CHAIN_BOOL)
        info = engine.incremental_info()
        assert info["stored"] >= 1
        assert info["patched"] >= 1
        assert info["size"] >= 1

    @staticmethod
    def _race_one_write(engine, monkeypatch, relation, row):
        """Land ``row`` in ``relation`` inside the next patch evaluation."""
        original = engine._patch_ask
        pending = [row]

        def racing(*args, **kwargs):
            while pending:
                engine.insert(relation, [pending.pop()])
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "_patch_ask", racing)

    def test_count_patch_racing_a_write_is_not_stored(self, monkeypatch):
        db = Database()
        db["R"] = Relation.from_pairs(SCHEMA, [(1, 2), (2, 3)], "R")
        db["S"] = Relation.from_pairs(SCHEMA, [(2, 5), (3, 6), (9, 9)], "S")
        engine = QueryEngine(db)
        assert engine.count(CHAIN_FULL).row_count == 2
        engine.insert("R", [(7, 2)])
        self._race_one_write(engine, monkeypatch, "R", (8, 3))
        # The racing read may see either side of the write ...
        assert engine.count(CHAIN_FULL).row_count in (3, 4)
        # ... but the store must not record it as applied with its delta uncounted.
        result = engine.count(CHAIN_FULL)
        assert result.row_count == 4 == engine.count(CHAIN_FULL, "naive").row_count
        assert result.plan_source == "incremental"

    def test_exists_patch_racing_a_write_is_not_stored(self, monkeypatch):
        db = Database()
        db["R"] = Relation.from_pairs(SCHEMA, [(1, 2)], "R")
        db["S"] = Relation.from_pairs(SCHEMA, [(9, 9)], "S")
        engine = QueryEngine(db)
        assert engine.exists(CHAIN_BOOL).answer is False
        engine.insert("R", [(7, 8)])  # no witness
        self._race_one_write(engine, monkeypatch, "R", (8, 9))  # joins S(9, 9)
        engine.exists(CHAIN_BOOL)
        result = engine.exists(CHAIN_BOOL)
        assert result.answer is True
        assert engine.exists(CHAIN_BOOL, "naive").answer is True
        assert result.plan_source == "incremental"


@pytest.mark.parametrize("form", LOAD_FORMS)
def test_patch_evaluations_bypass_the_sibling_store(form, oracle):
    """Patch evaluations name their strategy, so the sibling engine that
    runs them never stores an answer or counts a fallback."""
    engine = QueryEngine(
        load_database(
            form,
            {
                "R": (SCHEMA, [(1, 2), (2, 3)]),
                "S": (SCHEMA, [(2, 5), (3, 6)]),
                "T": (SCHEMA, [(9, 9)]),
            },
        )
    )
    assert engine.exists(TRIANGLE_BOOL).answer is False
    assert engine.count(CHAIN_FULL).row_count == 2
    engine.insert("T", [(1, 5)])  # closes the triangle (1, 2, 5)
    patched = engine.exists(TRIANGLE_BOOL)
    assert patched.plan_source == "incremental"
    assert patched.answer is bool(oracle(TRIANGLE_BOOL, engine.database)) is True
    engine.insert("S", [(2, 7)])
    engine.delete("S", [(3, 6)])
    counted = engine.count(CHAIN_FULL)
    assert counted.plan_source == "incremental"
    assert counted.row_count == len(oracle(CHAIN_FULL, engine.database)) == 2
    sibling = engine._patch_engine.incremental_info()
    assert sibling["stored"] == 0
    assert all(value == 0 for key, value in sibling.items() if key.startswith("fallback_"))


# ----------------------------------------------------------------------
# Differential replay of interleaved update/query traces
# ----------------------------------------------------------------------
TRACE_QUERIES = {
    "exists": CHAIN_BOOL,
    "exists_tri": TRIANGLE_BOOL,
    "count": CHAIN_FULL,
    "count_proj": CHAIN,
    "select": CHAIN,
}


def _random_row(rng):
    return (rng.randrange(12), rng.randrange(12))


def _trace(rng, steps):
    """A seeded interleaved trace of update and query operations."""
    operations = []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.3:
            operations.append(
                ("insert", rng.choice(["R", "S", "T"]),
                 tuple(_random_row(rng) for _ in range(rng.choice([1, 1, 3]))))
            )
        elif roll < 0.5:
            operations.append(
                ("delete", rng.choice(["R", "S", "T"]),
                 tuple(_random_row(rng) for _ in range(rng.choice([1, 2]))))
            )
        else:
            operations.append(("query", rng.choice(sorted(TRACE_QUERIES)), None))
    return operations


def _reference_answers(rows_by_name, verb_key, form, strategy):
    """From-scratch ground truth on the current data (no caches)."""
    db = load_database(form, {name: (SCHEMA, rows) for name, rows in rows_by_name.items()})
    engine = QueryEngine(db)
    query = TRACE_QUERIES[verb_key]
    if verb_key.startswith("exists"):
        return engine.exists(query, strategy).answer
    if verb_key.startswith("count"):
        return engine.count(query, strategy).row_count
    return engine.select(query, strategy).to_rows()


@pytest.mark.parametrize("form", LOAD_FORMS)
@pytest.mark.parametrize("seed", range(4))
def test_interleaved_trace_matches_from_scratch(form, seed):
    rng = random.Random(f"incremental:{form}:{seed}")
    db = make_database(form)
    engine = QueryEngine(db)
    shadow = {name: set(db[name]) for name in ("R", "S", "T")}

    for step, (op, target, payload) in enumerate(_trace(rng, steps=40)):
        if op == "insert":
            changed = engine.insert(target, payload)
            before = len(shadow[target])
            shadow[target] |= set(payload)
            assert changed == len(shadow[target]) - before, (seed, step)
        elif op == "delete":
            changed = engine.delete(target, payload)
            before = len(shadow[target])
            shadow[target] -= set(payload)
            assert changed == before - len(shadow[target]), (seed, step)
        else:
            verb_key = target
            expected = _reference_answers(shadow, verb_key, form, "auto")
            query = TRACE_QUERIES[verb_key]
            if verb_key.startswith("exists"):
                got = engine.exists(query).answer
            elif verb_key.startswith("count"):
                got = engine.count(query).row_count
            else:
                got = engine.select(query).to_rows()
            assert got == expected, (seed, step, verb_key)
        if op in ("insert", "delete"):
            # The live contents always match the shadow copy.
            assert set(db[target]) == shadow[target], (seed, step)


@pytest.mark.parametrize("strategy", ["auto", "yannakakis", "generic_join"])
def test_trace_per_strategy(strategy):
    rng = random.Random(f"strategy:{strategy}")
    engine = QueryEngine(make_database())
    shadow = {name: set(engine.database[name]) for name in ("R", "S", "T")}
    for step, (op, target, payload) in enumerate(_trace(rng, steps=25)):
        if strategy == "yannakakis" and target == "exists_tri":
            target = "exists"  # yannakakis only runs acyclic queries
        if op == "insert":
            engine.insert(target, payload)
            shadow[target] |= set(payload)
        elif op == "delete":
            engine.delete(target, payload)
            shadow[target] -= set(payload)
        else:
            expected = _reference_answers(shadow, target, "columnar", strategy)
            query = TRACE_QUERIES[target]
            if target.startswith("exists"):
                got = engine.exists(query, strategy).answer
            elif target.startswith("count"):
                got = engine.count(query, strategy).row_count
            else:
                got = engine.select(query, strategy).to_rows()
            assert got == expected, (strategy, step, target)


@pytest.mark.parametrize("form", LOAD_FORMS)
def test_sorted_select_prefixes_after_updates(form):
    engine = QueryEngine(make_database(form))
    full = engine.select(CHAIN, order="sorted").to_rows()
    assert engine.select(CHAIN, limit=2, order="sorted").to_rows() == full[:2]
    engine.insert("R", [(0, 2)])  # sorts before everything: new first row
    engine.insert("S", [(2, 0)])
    full = engine.select(CHAIN, order="sorted").to_rows()
    assert full == sorted(full)
    for k in (1, 2, len(full)):
        assert engine.select(CHAIN, limit=k, order="sorted").to_rows() == full[:k]
    engine.delete("R", [(0, 2)])
    full = engine.select(CHAIN, order="sorted").to_rows()
    assert engine.select(CHAIN, limit=1, order="sorted").to_rows() == full[:1]


def test_threshold_fallback_mid_trace_stays_correct(monkeypatch):
    """Crossing the delta threshold mid-stream must not strand caches."""
    monkeypatch.setattr(database_module, "DELTA_THRESHOLD_ROWS", 4)
    engine = QueryEngine(make_database())
    assert engine.exists(CHAIN_BOOL).answer is True
    base = engine.count(CHAIN_FULL).row_count
    # One big batch blows past the threshold: full invalidation path.
    rows = [(200 + i, 2) for i in range(8)]
    engine.insert("R", rows)
    expected = base + 8  # each (200+i, 2) joins S(2, 5)
    result = engine.count(CHAIN_FULL)
    assert result.row_count == expected
    engine.delete("R", rows)
    assert engine.count(CHAIN_FULL).row_count == base
