"""Counts as multiplicities, and patched counts that replay one net delta.

A ``count`` whose head holds every variable of its connex subtree lowers to
a tree-form :class:`~repro.exec.ir.Count`: the VM sums per-edge
multiplicities bottom-up (``ColumnarBackend.count_tree``) instead of
calibrating and joining.  Pinned here:

* differential — Hypothesis-drawn acyclic full-head counts (chains, stars,
  two-variable join keys, one relation bound to two atoms, empty
  relations, head order unlike atom order) against a plain tuple-set
  brute force, for both input forms, with and without a composite-key limit
  so low that every key is ranked jointly;
* exactness — a count past 2⁵³ is exact, one past 2⁶³ raises;
* plans — a head that misses a subtree variable lowers to the same
  program as before, byte for byte; a full head holds no ``Join``;
* the incremental store — logged batches fold into one net delta (at
  most two patch evaluations), cancelling rows cost nothing, a truncated
  log falls back, every fallback is counted under its reason, and every
  answer equals a fresh engine's;
* the translation-table cache evicts by recency.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import QueryEngine
from repro.api.cache import FALLBACK_REASONS
from repro.api.engine import _net_delta
from repro.db import Database, Relation, parse_query
from repro.db import backends as backends_module
from repro.db.backends import _FAMILY_CACHE_LIMIT, _Dictionary
from repro.db.query import Atom, ConjunctiveQuery
from repro.exec.ir import Count
from repro.exec.lower import describe_join_tree, lower_yannakakis
from tests.conftest import LOAD_FORMS, load_database, load_relation


# ----------------------------------------------------------------------
# Differential against a tuple-set brute force
# ----------------------------------------------------------------------
def brute_force_count(atoms, tables):
    """Distinct head tuples of a full-head query: its satisfying assignments."""
    assignments = [{}]
    for atom in atoms:
        rows = tables[atom.relation][1]
        assignments = [
            {**binding, **dict(zip(atom.variables, row))}
            for binding in assignments
            for row in rows
            if all(binding.get(v, value) == value for v, value in zip(atom.variables, row))
        ]
    return len(assignments)


@st.composite
def full_head_cases(draw):
    """A random join tree, every variable in the head (in a drawn order),
    and tables — some empty, some shared by two atoms."""
    fresh = (f"X{i}" for i in itertools.count())
    first = tuple(next(fresh) for _ in range(draw(st.integers(1, 3))))
    atoms = [Atom("A0", first)]
    for index in range(1, draw(st.integers(1, 5))):
        parent = draw(st.sampled_from(atoms))
        shared = draw(st.lists(st.sampled_from(parent.variables), unique=True, max_size=2))
        new = [next(fresh) for _ in range(draw(st.integers(0 if shared else 1, 2)))]
        atoms.append(Atom(f"A{index}", tuple(draw(st.permutations(shared + new)))))
    head = draw(st.permutations(sorted({v for atom in atoms for v in atom.variables})))
    rng = random.Random(draw(st.integers(0, 10_000)))
    domain = draw(st.integers(1, 4))
    tables = {}
    for atom in atoms:
        twins = [a for a in tables if len(tables[a][0]) == len(atom.variables)]
        if twins and rng.random() < 0.25:  # the same relation under a second name
            tables[atom.relation] = tables[rng.choice(twins)]
            continue
        rows = rng.choice([0, 3, 8, 14])
        tables[atom.relation] = (
            tuple(f"c{i}" for i in range(len(atom.variables))),
            sorted({tuple(rng.randrange(domain) for _ in atom.variables) for _ in range(rows)}),
        )
    return atoms, tuple(head), tables


def _database(tables, form):
    db = Database()
    for name, (schema, rows) in tables.items():
        twin = next((n for n, _ in db.items() if tables[n] is tables[name]), None)
        db[name] = db[twin] if twin else load_relation(form, schema, rows, name)
    return db


def assert_counts_match(case):
    atoms, head, tables = case
    query = ConjunctiveQuery(tuple(atoms), output_variables=head)
    expected = brute_force_count(atoms, tables)
    program = lower_yannakakis(query, "count")
    assert program.root.kind() == "count"
    assert not any(node.kind() == "join" for node in program.nodes()), program.describe()
    for form in LOAD_FORMS:
        engine = QueryEngine(_database(tables, form))
        for strategy in ("yannakakis", "auto"):
            assert engine.count(query, strategy).row_count == expected, (query, form)


@given(full_head_cases())
@settings(max_examples=60)
def test_full_head_counts_match_brute_force(case):
    assert_counts_match(case)


@given(full_head_cases())
@settings(max_examples=40)
def test_full_head_counts_match_brute_force_with_wide_keys(case):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backends_module, "_COMPOSITE_LIMIT", 4)
        assert_counts_match(case)


@pytest.mark.parametrize(
    "text",
    [
        "Q(V3, V1, V2, V0) :- C1(V0, V1), C2(V1, V2), C3(V2, V3)",
        "Q(L2, HUB, L1, L3) :- S1(HUB, L1), S2(L2, HUB), S3(HUB, L3)",
        "Q(A, B, C, D) :- R(A, B, C), S(B, C, D)",
    ],
)
def test_fixed_shapes_match_brute_force(text):
    query = parse_query(text)
    rng = random.Random(text)
    tables = {
        atom.relation: (
            tuple(f"c{i}" for i in range(len(atom.variables))),
            sorted({tuple(rng.randrange(3) for _ in atom.variables) for _ in range(12)}),
        )
        for atom in query.atoms
    }
    assert_counts_match((list(query.atoms), query.output_variables, tables))


# ----------------------------------------------------------------------
# Exactness
# ----------------------------------------------------------------------
def _star(leaves, width, form):
    """``leaves`` relations S_i(HUB, L_i) of ``width`` rows on one hub value:
    the full-head count is ``width ** leaves``."""
    atoms = ", ".join(f"S{i}(HUB, L{i})" for i in range(leaves))
    head = ", ".join(["HUB"] + [f"L{i}" for i in range(leaves)])
    rows = [(0, j) for j in range(width)]
    db = load_database(form, {f"S{i}": (("h", "l"), rows) for i in range(leaves)})
    return QueryEngine(db), parse_query(f"Q({head}) :- {atoms}")


@pytest.mark.parametrize("form", LOAD_FORMS)
def test_a_count_past_two_to_the_53_is_exact(form):
    engine, query = _star(5, 1999, form)
    expected = 1999**5
    assert expected > 2**53 and float(expected) != expected
    assert engine.count(query, "yannakakis").row_count == expected


@pytest.mark.parametrize("form", LOAD_FORMS)
def test_a_count_past_int64_raises(form):
    engine, query = _star(6, 1999, form)
    assert 1999**6 > 2**63
    with pytest.raises(OverflowError):
        engine.count(query, "yannakakis")


@pytest.mark.parametrize("form", LOAD_FORMS)
def test_one_row_carrying_the_whole_product_never_wraps(form):
    # A one-row root: its multiplicity is the count itself, so a weight
    # past int64 must be caught per row, not only in the final sum.
    hub = load_relation(form, ("HUB",), [(0,)])
    leaves = [
        load_relation(form, ("HUB", f"L{i}"), [(0, j) for j in range(1999)])
        for i in range(6)
    ]
    assert hub.count_join_tree(leaves[:5], (0,) * 5) == 1999**5
    with pytest.raises(OverflowError):
        hub.count_join_tree(leaves, (0,) * 6)


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
#: Heads that miss a subtree variable keep the projection-count programs
#: they lowered to before counts by multiplicities existed.
UNCHANGED_LISTINGS = {
    "Q(V1) :- U1(V1, V2), U2(V2, V3)": """\
#1 Scan U1(V1, V2) -> (V1, V2)
#2 Scan U2(V2, V3) -> (V2, V3)
#3 Semijoin(#1, #2) -> (V1, V2)
#4 Count[V1](#3) -> int""",
    "Q(Y0) :- H2(X0, Y0), H5(Z0, Y0), H1(Z0, W0)": """\
#1 Scan H5(Z0, Y0) -> (Z0, Y0)
#2 Scan H1(Z0, W0) -> (Z0, W0)
#3 Semijoin(#1, #2) -> (Z0, Y0)
#4 Scan H2(X0, Y0) -> (X0, Y0)
#5 Semijoin(#3, #4) -> (Z0, Y0)
#6 Count[Y0](#5) -> int""",
    "Q(X, Z) :- C1(X, Y), C2(Y, Z), C3(Z, W)": """\
#1 Scan C2(Y, Z) -> (Y, Z)
#2 Scan C3(Z, W) -> (Z, W)
#3 Semijoin(#1, #2) -> (Y, Z)
#4 Scan C1(X, Y) -> (X, Y)
#5 Semijoin(#3, #4) -> (Y, Z)
#6 Semijoin(#4, #5) -> (X, Y)
#7 Join(#5, #6) -> (Y, Z, X)
#8 Project[Z, X](#7) -> (Z, X)
#9 Count[X, Z](#8) -> int""",
}


@pytest.mark.parametrize("text", sorted(UNCHANGED_LISTINGS))
def test_a_non_full_head_keeps_its_program(text):
    program = lower_yannakakis(parse_query(text), "count")
    assert program.describe() == UNCHANGED_LISTINGS[text]


def test_a_full_head_counts_by_multiplicities():
    query = parse_query("Q(V1, V2, V3, V4, V5) :- U1(V1, V2), U2(V2, V3), U3(V3, V4), U4(V4, V5)")
    program = lower_yannakakis(query, "count")
    assert program.describe() == """\
#1 Scan U4(V4, V5) -> (V4, V5)
#2 Scan U3(V3, V4) -> (V3, V4)
#3 Scan U2(V2, V3) -> (V2, V3)
#4 Scan U1(V1, V2) -> (V1, V2)
#5 Semijoin(#3, #4) -> (V2, V3)
#6 Semijoin(#2, #5) -> (V3, V4)
#7 Semijoin(#1, #6) -> (V4, V5)
#8 Count[V1, V2, V3, V4, V5; by multiplicities](#7, #6, #5, #4) -> int"""
    assert describe_join_tree(program) == (
        "join tree: root U4(V4, V5); count by multiplicities over {U4, U3, U2, U1}; "
        "reducers only {}"
    )
    # The subtree's head may leave out a reducer's variables.
    reduced = lower_yannakakis(parse_query("Q(X, Y, Z) :- C1(X, Y), C2(Y, Z), C3(Z, W)"), "count")
    assert isinstance(reduced.root, Count) and reduced.root.frontiers
    assert "reducers only {C3}" in describe_join_tree(reduced)


def test_explain_names_the_multiplicity_sink():
    db = Database()
    db["R"] = Relation(("a", "b"), [(1, 2), (2, 3)])
    db["S"] = Relation(("a", "b"), [(2, 5), (3, 6)])
    text = QueryEngine(db).explain(FULL, "yannakakis", verb="count").describe()
    assert "count by multiplicities over {" in text


# ----------------------------------------------------------------------
# Net-delta patching
# ----------------------------------------------------------------------
FULL = parse_query("Q(X, Y, Z) :- R(X, Y), S(Y, Z)")
PROJECTED = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")


def _chain_engine(form="columnar", **kwargs):
    tables = {
        "R": (("a", "b"), [(1, 2), (2, 3), (3, 1)]),
        "S": (("a", "b"), [(2, 5), (3, 6), (1, 7), (2, 8)]),
    }
    return QueryEngine(load_database(form, tables), **kwargs)


def _fresh_count(engine, query):
    db = Database()
    for name, relation in engine.database.items():
        db[name] = relation
    return QueryEngine(db, incremental=False).count(query).row_count


def _spy_patch_asks(engine, monkeypatch):
    calls = []
    original = engine._patch_ask

    def spy(query, verb, name, rows):
        calls.append((verb, name, tuple(rows)))
        return original(query, verb, name, rows)

    monkeypatch.setattr(engine, "_patch_ask", spy)
    return calls


def test_net_delta_folds_chronological_batches():
    replay = [
        ("insert", ((1, 1), (2, 2))),
        ("delete", ((1, 1), (3, 3))),
        ("insert", ((3, 3), (4, 4))),
        ("delete", ((4, 4),)),
        ("delete", ((5, 5),)),
        ("insert", ((1, 1),)),
    ]
    # (1, 1): insert … insert → inserted; (3, 3): delete … insert → cancels;
    # (4, 4): insert … delete → cancels.  First-logged order is kept.
    assert _net_delta(replay) == ([(1, 1), (2, 2)], [(5, 5)])


@pytest.mark.parametrize("form", LOAD_FORMS)
def test_insert_then_delete_cancels(form, monkeypatch):
    engine = _chain_engine(form)
    base = engine.count(FULL).row_count
    calls = _spy_patch_asks(engine, monkeypatch)
    engine.insert("R", [(9, 2)])
    engine.delete("R", [(9, 2)])
    result = engine.count(FULL)
    assert (result.row_count, result.plan_source, calls) == (base, "incremental", [])


@pytest.mark.parametrize("form", LOAD_FORMS)
def test_delete_then_reinsert_cancels(form, monkeypatch):
    engine = _chain_engine(form)
    base = engine.count(FULL).row_count
    calls = _spy_patch_asks(engine, monkeypatch)
    engine.delete("S", [(2, 5)])
    engine.insert("S", [(2, 5)])
    result = engine.count(FULL)
    assert (result.row_count, result.plan_source, calls) == (base, "incremental", [])


@pytest.mark.parametrize("form", LOAD_FORMS)
def test_many_batches_patch_with_at_most_two_evaluations(form, monkeypatch):
    engine = _chain_engine(form)
    engine.count(FULL)
    calls = _spy_patch_asks(engine, monkeypatch)
    for value in range(10, 24):  # 29 batches: within the log's limit
        engine.insert("S", [(2, value), (3, value)])
        engine.delete("S", [(3, value)])
    engine.delete("S", [(2, 5), (3, 6)])
    result = engine.count(FULL)
    assert result.plan_source == "incremental"
    assert result.row_count == _fresh_count(engine, FULL)
    assert [(verb, len(rows)) for verb, _, rows in calls] == [("count", 14), ("count", 2)]


@pytest.mark.parametrize("form", LOAD_FORMS)
def test_a_log_past_its_limit_falls_back_correctly(form):
    engine = _chain_engine(form)
    engine.count(FULL)
    for value in range(engine.database.delta_log_limit + 1):
        engine.insert("S", [(1, 100 + value)])
    result = engine.count(FULL)
    assert result.plan_source != "incremental"
    assert result.row_count == _fresh_count(engine, FULL)
    assert engine.incremental_info()["fallback_truncated_log"] == 1


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("form", LOAD_FORMS)
def test_random_traces_match_a_fresh_engine(form, seed, monkeypatch):
    rng = random.Random(f"{form}:{seed}")
    engine = _chain_engine(form)
    calls = _spy_patch_asks(engine, monkeypatch)
    for _ in range(30):
        name = rng.choice(["R", "R", "S"])
        rows = [(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(0, 4)):
            (engine.insert if rng.random() < 0.5 else engine.delete)(name, rows)
        before = len(calls)
        for query in (FULL, PROJECTED):
            assert engine.count(query).row_count == _fresh_count(engine, query)
        assert len(calls) - before <= 2


# ----------------------------------------------------------------------
# Fallbacks, counted by reason
# ----------------------------------------------------------------------
def _fallbacks(engine):
    info = engine.incremental_info()
    return {reason: info[f"fallback_{reason}"] for reason in FALLBACK_REASONS}


def _ask_after(engine, verb, query, *writes):
    """Store an answer, apply ``writes``, and return the fallback counters
    the second ask moved."""
    getattr(engine, verb)(query)
    for method, name, rows in writes:
        getattr(engine, method)(name, rows)
    before = _fallbacks(engine)
    getattr(engine, verb)(query)
    after = _fallbacks(engine)
    return {reason for reason in FALLBACK_REASONS if after[reason] != before[reason]}, after


def test_each_fallback_reason_is_counted_once():
    engine = _chain_engine()
    engine.count(FULL)
    assert _fallbacks(engine)["no_entry"] == 1
    limit = engine.database.delta_log_limit
    scenarios = {
        "truncated_log": ("count", FULL, *[("insert", "S", [(9, i)]) for i in range(limit + 1)]),
        "multi_relation": ("count", FULL, ("insert", "R", [(7, 7)]), ("insert", "S", [(7, 8)])),
        "unpinned_head": ("count", PROJECTED, ("insert", "S", [(2, 99)])),
        "no_rule": ("exists", FULL, ("delete", "R", [(1, 2)])),
    }
    for reason, (verb, query, *writes) in scenarios.items():
        engine = _chain_engine()
        moved, after = _ask_after(engine, verb, query, *writes)
        assert moved == {reason}, reason
        assert after[reason] == 1, reason
    assert set(scenarios) | {"no_entry"} == set(FALLBACK_REASONS)


def test_fallback_counters_are_additive_keys():
    info = _chain_engine().incremental_info()
    assert {"stored", "patched", "reused", "dropped", "size", "maxsize"} <= set(info)
    assert all(info[f"fallback_{reason}"] == 0 for reason in FALLBACK_REASONS)


# ----------------------------------------------------------------------
# Translation tables evict by recency
# ----------------------------------------------------------------------
def test_a_pair_in_steady_use_is_never_rebuilt(monkeypatch):
    def dictionary(values):
        return _Dictionary(np.array(values, dtype=object))

    stored, partner = dictionary(list(range(50))), dictionary(list(range(25, 75)))
    others = [dictionary([i, i + 1]) for i in range(_FAMILY_CACHE_LIMIT)]
    built = []
    original = _Dictionary._build_table

    def spy(self, other):
        built.append((self, other))
        return original(self, other)

    monkeypatch.setattr(_Dictionary, "_build_table", spy)
    table = stored.translate_from(partner)
    for _ in range(3):
        for other in others:
            stored.translate_from(other)
            assert stored.translate_from(partner) is table
    assert built.count((stored, partner)) == 1
    assert len(stored._xlate) == _FAMILY_CACHE_LIMIT
