"""Output-rooted Yannakakis: reduce everywhere, join only the connex subtree.

``lower_yannakakis`` re-roots the GYO tree where the subtree that carries
the head is smallest and calibrates / joins only that subtree; atoms
outside it are reducers.  Pinned here:

* differential — ``count`` and every ``select`` delivery (stream + limit,
  sorted + limit, sorted unlimited) agree with the ``naive`` strategy and
  the reference oracle for chains, stars, a caterpillar and a cross
  product × every head of at most three variables × both input forms,
  plus Hypothesis-drawn acyclic queries, empty reducers and NaN /
  mixed-type columns (the keyed-sort branch of ``_Dictionary.order_ranks``);
* work counts that carry no timing noise — operator counts of the lowered
  programs, literal listings (the CI determinism loop runs this file under
  two ``PYTHONHASHSEED`` values), ``rows_out`` of the traces, and calls of
  ``value_order_key`` from the storage layer;
* the verifier's output-coverage check and the ``EXPLAIN`` header.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.verify import verify_program
from repro.api import QueryEngine, row_order_key
from repro.db import parse_query
from repro.db import backends as backends_module
from repro.db.query import Atom, ConjunctiveQuery
from repro.exec.ir import Enumerate, Program
from repro.exec.lower import SelectOptions, describe_join_tree, lower_yannakakis
from tests.conftest import LOAD_FORMS, load_database, oracle_outputs

NAN = float("nan")  # one object: every relation matches it by identity
MIXED_VALUES = (0, 1, 2, "a", "b", 2.5, NAN)


# ----------------------------------------------------------------------
# Shapes and data
# ----------------------------------------------------------------------
def _oriented(rng, name, left, right):
    return Atom(name, (left, right) if rng.random() < 0.5 else (right, left))


def _chain(length, rng):
    variables = [f"V{i}" for i in range(length + 1)]
    return [
        _oriented(rng, f"C{i + 1}", variables[i], variables[i + 1])
        for i in range(length)
    ]


def _star(leaves, rng):
    return [_oriented(rng, f"S{i + 1}", "HUB", f"L{i + 1}") for i in range(leaves)]


def _shapes():
    rng = random.Random(21)
    shapes = {f"chain{n}": _chain(n, rng) for n in (2, 3, 4, 5)}
    shapes["star3"] = _star(3, rng)
    shapes["star4"] = _star(4, rng)
    shapes["caterpillar"] = _chain(3, rng) + [
        _oriented(rng, "L1", "V1", "E1"),
        _oriented(rng, "L2", "V2", "E2"),
    ]
    shapes["cross"] = _chain(2, rng) + [Atom("T", ("D", "E"))]
    return shapes


SHAPES = _shapes()


def _heads(atoms, rng, most=3):
    """Every non-empty head of at most ``most`` variables, in a drawn order."""
    variables = sorted({v for atom in atoms for v in atom.variables})
    for size in range(1, most + 1):
        for head in itertools.combinations(variables, size):
            head = list(head)
            rng.shuffle(head)
            yield tuple(head)


def _tables(atoms, rng, rows=12, values=tuple(range(5))):
    return {
        atom.relation: (
            atom.variables,
            sorted(
                {tuple(rng.choice(values) for _ in atom.variables) for _ in range(rows)},
                key=repr,
            ),
        )
        for atom in atoms
    }


def assert_matches_naive(atoms, heads, tables):
    """count + the three select deliveries, both input forms, against the
    oracle and the ``naive`` strategy."""
    engines = {form: QueryEngine(load_database(form, tables)) for form in LOAD_FORMS}
    for head in heads:
        query = ConjunctiveQuery(tuple(atoms), output_variables=head)
        reference = oracle_outputs(query, engines["columnar"].database)
        expected = sorted(reference, key=row_order_key)
        for form, engine in engines.items():
            label = f"{query} on the {form} form"
            assert engine.select(query, "naive", order="sorted").to_rows() == expected, label
            assert engine.count(query, "yannakakis").row_count == len(expected), label
            full = engine.select(query, "yannakakis", order="sorted").to_rows()
            assert full == expected, label
            top = engine.select(query, "yannakakis", order="sorted", limit=16)
            assert top.to_rows() == expected[:16], label
            some = engine.select(query, "yannakakis", order="stream", limit=5).to_rows()
            assert len(some) == len(set(some)) == min(5, len(expected)), label
            assert set(some) <= set(expected), label


# ----------------------------------------------------------------------
# Differential against the naive strategy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_small_head_matches_naive(shape):
    atoms = SHAPES[shape]
    rng = random.Random(shape)
    assert_matches_naive(atoms, list(_heads(atoms, rng)), _tables(atoms, rng))


@pytest.mark.parametrize("shape", ["chain3", "star3", "cross"])
def test_mixed_type_and_nan_columns_match_naive(shape):
    atoms = SHAPES[shape]
    rng = random.Random(shape + "/mixed")
    tables = _tables(atoms, rng, rows=14, values=MIXED_VALUES)
    assert_matches_naive(atoms, list(_heads(atoms, rng, most=2)), tables)


@pytest.mark.parametrize("emptied", ["C1", "C3", "T"])
def test_an_empty_reducer_empties_every_head(emptied):
    atoms = _chain(3, random.Random(3)) + [Atom("T", ("D", "E"))]
    rng = random.Random(emptied)
    tables = _tables(atoms, rng)
    tables[emptied] = (tables[emptied][0], [])
    heads = [("V0",), ("V3", "V1"), ("D",), ("V0", "E")]
    assert_matches_naive(atoms, heads, tables)
    engine = QueryEngine(load_database("columnar", tables))
    for head in heads:
        query = ConjunctiveQuery(tuple(atoms), output_variables=head)
        assert engine.count(query, "yannakakis").row_count == 0


@st.composite
def acyclic_cases(draw):
    """A random join tree (so the query is acyclic), a head, and a data seed.

    Each new atom hangs off an earlier one, sharing a subset of its
    variables — empty for a cross product — plus up to two fresh ones.
    """
    fresh = (f"X{i}" for i in itertools.count())
    first = tuple(next(fresh) for _ in range(draw(st.integers(1, 3))))
    atoms = [Atom("A0", first)]
    for index in range(1, draw(st.integers(1, 5))):
        parent = draw(st.sampled_from(atoms))
        shared = draw(st.lists(st.sampled_from(parent.variables), unique=True, max_size=2))
        new = [next(fresh) for _ in range(draw(st.integers(0 if shared else 1, 2)))]
        atoms.append(Atom(f"A{index}", tuple(draw(st.permutations(shared + new)))))
    variables = sorted({v for atom in atoms for v in atom.variables})
    head = draw(st.lists(st.sampled_from(variables), unique=True, min_size=1, max_size=3))
    values = draw(st.sampled_from([tuple(range(4)), MIXED_VALUES]))
    return atoms, tuple(head), values, draw(st.integers(0, 10_000))


@settings(max_examples=100)
@given(acyclic_cases())
def test_random_acyclic_queries_match_naive(case):
    atoms, head, values, seed = case
    tables = _tables(atoms, random.Random(seed), rows=8, values=values)
    assert_matches_naive(atoms, [head], tables)


# ----------------------------------------------------------------------
# Work counts
# ----------------------------------------------------------------------
def _kinds(program):
    return Counter(node.kind() for node in program.nodes())


def _lowerings(query):
    yield lower_yannakakis(query, "count")
    yield lower_yannakakis(query, "select")
    for order in ("stream", "ranked"):
        yield lower_yannakakis(query, "select", SelectOptions(16, order))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_head_inside_one_atom_needs_no_join(shape):
    atoms = SHAPES[shape]
    heads = {atom.variables[:size] for atom in atoms for size in (1, 2)}
    for head in sorted(heads):
        query = ConjunctiveQuery(tuple(atoms), output_variables=head)
        for program in _lowerings(query):
            kinds = _kinds(program)
            assert kinds["semijoin"] == len(atoms) - 1, (query, program.describe())
            assert kinds["join"] == kinds["project"] == 0, (query, program.describe())
            assert verify_program(program, verb="count" if kinds["count"] else "select") == []


#: (query, atoms of the connex subtree, root first): the root is the atom
#: whose subtree is smallest, ties going to the one GYO removes last.  The
#: tree is GYO's, only re-rooted: GYO chains a star's leaves and a cross
#: product's components, so a head over two of them joins the path between.
SUBTREES = [
    ("Q(X, Z) :- C1(X, Y), C2(Y, Z), C3(Z, W), C4(W, U)", ["C2", "C1"]),
    ("Q(W, X) :- C1(X, Y), C2(Y, Z), C3(Z, W), C4(W, U)", ["C3", "C2", "C1"]),
    ("Q(U, X) :- C1(X, Y), C2(Y, Z), C3(Z, W), C4(W, U)", ["C4", "C3", "C2", "C1"]),
    ("Q(Z, Y) :- C1(X, Y), C2(Y, Z), C3(Z, W), C4(W, U)", ["C2"]),
    ("Q(Y, Z, U) :- C1(X, Y), C2(Y, Z), C3(Z, W), C4(W, U)", ["C4", "C3", "C2"]),
    ("Q(A, C) :- S1(H, A), S2(B, H), S3(H, C)", ["S3", "S2", "S1"]),
    ("Q(E, F) :- P1(A, B), P2(B, C), P3(C, D), L1(B, E), L2(F, C)", ["L2", "P2", "L1"]),
    ("Q(A, E) :- R(A, B), S(B, C), T(D, E)", ["T", "S", "R"]),
]


@pytest.mark.parametrize("text, subtree", SUBTREES)
def test_a_k_atom_subtree_costs_k_minus_one_joins(text, subtree):
    query = parse_query(text)
    n, k = len(query.atoms), len(subtree)
    header = describe_join_tree(lower_yannakakis(query, "count"))
    assert f"joined {{{', '.join(subtree)}}}" in header
    assert header.startswith(f"join tree: root {subtree[0]}(")
    materialized = _kinds(lower_yannakakis(query, "count"))
    assert materialized["join"] == k - 1
    assert materialized["semijoin"] == (n - 1) + (k - 1)
    ranked = lower_yannakakis(query, "select", SelectOptions(16, "ranked"))
    assert _kinds(ranked)["semijoin"] == (n - 1) + (k - 1)
    assert len(ranked.root.frontiers) == len(ranked.root.parents) == k - 1
    assert verify_program(ranked, verb="select") == []


LEDGER_COUNT = parse_query("Q(Y) :- C1(Y, X), C2(Y, Z), C3(W, Z)")


def test_listings_do_not_follow_the_hash_seed():
    assert lower_yannakakis(LEDGER_COUNT, "count").describe() == "\n".join([
        "#1 Scan C2(Y, Z) -> (Y, Z)",
        "#2 Scan C3(W, Z) -> (W, Z)",
        "#3 Semijoin(#1, #2) -> (Y, Z)",
        "#4 Scan C1(Y, X) -> (Y, X)",
        "#5 Semijoin(#3, #4) -> (Y, Z)",
        "#6 Count[Y](#5) -> int",
    ])
    two_apart = parse_query("Q(X, Z) :- C1(X, Y), C2(Y, Z), C3(Z, W)")
    assert lower_yannakakis(two_apart, "count").describe() == "\n".join([
        "#1 Scan C2(Y, Z) -> (Y, Z)",
        "#2 Scan C3(Z, W) -> (Z, W)",
        "#3 Semijoin(#1, #2) -> (Y, Z)",
        "#4 Scan C1(X, Y) -> (X, Y)",
        "#5 Semijoin(#3, #4) -> (Y, Z)",
        "#6 Semijoin(#4, #5) -> (X, Y)",
        "#7 Join(#5, #6) -> (Y, Z, X)",
        "#8 Project[Z, X](#7) -> (Z, X)",
        "#9 Count[X, Z](#8) -> int",
    ])


def test_a_head_that_needs_the_whole_tree_keeps_the_gyo_orientation():
    # ... and so shares its upward pass with ``exists`` in the result cache.
    query = parse_query("Q(V1, V4) :- U1(V1, V2), U2(V2, V3), U3(V3, V4)")
    exists = lower_yannakakis(query, "exists")
    count = lower_yannakakis(query, "count")
    assert exists.root.child in count.nodes()
    assert describe_join_tree(count) == (
        "join tree: root U3(V3, V4); joined {U3, U2, U1}; reducers only {}"
    )


def test_exists_and_boolean_heads_keep_the_gyo_program():
    boolean = parse_query("Q() :- C1(Y, X), C2(Y, Z), C3(W, Z)")
    listing = "\n".join([
        "#1 Scan C3(W, Z) -> (W, Z)",
        "#2 Scan C2(Y, Z) -> (Y, Z)",
        "#3 Scan C1(Y, X) -> (Y, X)",
        "#4 Semijoin(#2, #3) -> (Y, Z)",
        "#5 Semijoin(#1, #4) -> (W, Z)",
    ])
    for query in (boolean, LEDGER_COUNT):
        exists = lower_yannakakis(query, "exists").describe()
        assert exists == listing + "\n#6 NonEmpty(#5) -> bool"
    assert lower_yannakakis(boolean, "count").describe() == (
        listing + "\n#6 Count[()](#5) -> int"
    )


@pytest.mark.parametrize("form", LOAD_FORMS)
def test_ledger_count_shapes_trace_no_join_rows(form):
    rng = random.Random(8)
    atoms = _chain(3, rng)
    engine = QueryEngine(load_database(form, _tables(atoms, rng, rows=60, values=range(12))))
    for head in ("V0", "V1"):
        query = ConjunctiveQuery(tuple(atoms), output_variables=(head,))
        result = engine.count(query)
        assert result.strategy == "yannakakis"
        rows_out = Counter()
        for op in result.execution.operators:
            rows_out[op.kind] += op.rows_out
        assert rows_out["join"] == rows_out["project"] == 0
        assert rows_out["count"] == result.row_count > 0


def test_second_sorted_select_never_ranks_a_dictionary_again(monkeypatch):
    calls = []
    real = backends_module.value_order_key

    def counting(value):
        calls.append(value)
        return real(value)

    monkeypatch.setattr(backends_module, "value_order_key", counting)
    atoms = _chain(3, random.Random(5))
    tables = _tables(atoms, random.Random(6), rows=14, values=MIXED_VALUES)
    engine = QueryEngine(load_database("columnar", tables))
    first = ConjunctiveQuery(tuple(atoms), output_variables=("V0", "V2"))
    rows = engine.select(first, order="sorted", limit=16).to_rows()
    assert rows and calls  # mixed types: the dictionaries took the keyed sort
    del calls[:]
    # Other reduced relations, same stored dictionaries: nothing to re-rank.
    second = ConjunctiveQuery(tuple(atoms), output_variables=("V2", "V0"))
    assert engine.select(second, order="sorted", limit=16).to_rows()
    assert engine.select(first, order="sorted", limit=3).to_rows() == rows[:3]
    assert calls == []


# ----------------------------------------------------------------------
# Verifier and EXPLAIN
# ----------------------------------------------------------------------
def test_dropping_the_frontier_that_carries_an_output_is_a_violation():
    query = parse_query("Q(X, Z) :- C1(X, Y), C2(Y, Z), C3(Z, W)")
    root = lower_yannakakis(query, "select", SelectOptions(16, "ranked")).root
    assert isinstance(root, Enumerate) and len(root.frontiers) == 1
    object.__setattr__(root, "frontiers", ())
    object.__setattr__(root, "parents", ())
    object.__setattr__(root, "children", (root.child,))
    violations = verify_program(Program(root, source="mutant"), verb="select")
    lost = [v for v in violations if v.rule == "enumerate"]
    assert len(lost) == 1 and "['X']" in lost[0].message
    assert lost[0].node_id is not None


def test_a_count_sink_that_lost_its_output_is_a_violation():
    root = lower_yannakakis(LEDGER_COUNT, "count").root
    object.__setattr__(root, "variables_out", ("W",))
    violations = verify_program(Program(root, source="mutant"), verb="count")
    assert any(v.rule == "verb-sink" and "['W']" in v.message for v in violations)


def test_explain_states_the_orientation():
    query = parse_query("Q(Y) :- C1(X, Y), C2(Y, Z), C3(Z, W)")
    rng = random.Random(1)
    engine = QueryEngine(load_database("columnar", _tables(query.atoms, rng)))
    text = engine.explain(query, verb="count").describe()
    assert "join tree: root C2(Y, Z); joined {C2}; reducers only {C3, C1}" in text
    assert "join tree: root C3(Z, W); joined {C3}; reducers only {C2, C1}" in (
        engine.explain(query, verb="exists").describe()
    )
    assert "join tree" not in engine.explain(query, "naive", verb="count").describe()
