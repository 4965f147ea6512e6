"""GenericJoin's columnar kernel (``ColumnarBackend.wcoj``) against the oracle.

The ``generic_join`` strategy lowers to one ``Wcoj`` operator whose VM
branch calls the kernel: bindings are code arrays, every atom is a trie in
the variable order, each binding expands from the atom with the fewest
candidates and is probed in the others.  Pinned here:

* differential — Hypothesis-drawn cyclic (triangle, 4-cycle, ternary
  triangle) and random shapes of arity up to 3, under every variable order
  and all three verbs, with empty and one-row relations and integer, string
  and mixed-type values, against the ``oracle`` fixture, in both input
  forms;
* wide keys — the same with a composite-key limit so low that every trie is
  read off ranked keys, and seven 512-value columns past the real int64
  limit;
* laziness — ``exists`` stops at the first binding, and the kernel's
  result holds the reference dictionaries' codes.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.db import Database, Relation, parse_query
from repro.db import backends as backends_module
from repro.db.query import Atom, ConjunctiveQuery
from repro.exec.lower import lower_generic_join
from repro.exec.vm import VirtualMachine
from tests.conftest import LOAD_FORMS, load_database

VERBS = ("exists", "count", "select")

#: Fixed cyclic bodies; the random ones are mostly acyclic.
CYCLIC_SHAPES = (
    (("X", "Y"), ("Y", "Z"), ("X", "Z")),
    (("X", "Y"), ("Y", "Z"), ("Z", "W"), ("W", "X")),
    (("X", "Y", "Z"), ("Y", "Z"), ("Z", "X")),
)

VALUE_KINDS = {
    "int": lambda rng, domain: rng.randrange(domain),
    "str": lambda rng, domain: "abcd"[rng.randrange(domain)],
    "mixed": lambda rng, domain: rng.choice([rng.randrange(domain), f"v{rng.randrange(domain)}", 0.5]),
}

#: The ``oracle`` fixture is a stateless function, safe to share across examples.
FIXTURE_SAFE = [HealthCheck.too_slow, HealthCheck.function_scoped_fixture]


@st.composite
def wcoj_cases(draw):
    """A body (cyclic or random, arity <= 3), a head, and tables — some
    empty, some with one row."""
    if draw(st.booleans()):
        bodies = draw(st.sampled_from(CYCLIC_SHAPES))
    else:
        variables = ["X", "Y", "Z", "W"][: draw(st.integers(1, 4))]
        bodies = [
            tuple(draw(st.lists(st.sampled_from(variables), min_size=1, max_size=3, unique=True)))
            for _ in range(draw(st.integers(1, 3)))
        ]
    atoms = tuple(Atom(f"A{i}", variables) for i, variables in enumerate(bodies))
    covered = sorted({v for atom in atoms for v in atom.variables})
    head = tuple(draw(st.permutations(covered))[: draw(st.integers(0, len(covered)))])
    rng = random.Random(draw(st.integers(0, 10_000)))
    value = VALUE_KINDS[draw(st.sampled_from(sorted(VALUE_KINDS)))]
    domain = draw(st.integers(1, 4))
    tables = {}
    for atom in atoms:
        count = rng.choice([0, 1, 6, 6, 16, 16, 40])
        tables[atom.relation] = (
            tuple(f"c{i}" for i in range(len(atom.variables))),
            {tuple(value(rng, domain) for _ in atom.variables) for _ in range(count)},
        )
    return ConjunctiveQuery(atoms, output_variables=head), tables


def run(query, database, order, verb):
    return VirtualMachine(database).run(lower_generic_join(query, order, verb=verb))


def assert_every_order_matches(query, database, expected):
    for order in itertools.permutations(query.variables):
        for verb in VERBS:
            result = run(query, database, order, verb)
            if verb == "exists":
                assert result.answer == bool(expected), (query, order)
            elif verb == "count":
                assert result.row_count == len(expected), (query, order)
            else:
                rows = result.relation.project(list(query.output_variables)).rows
                assert rows == expected, (query, order)


@given(wcoj_cases())
@settings(max_examples=40, suppress_health_check=FIXTURE_SAFE)
def test_every_order_and_verb_matches_the_oracle(oracle, case):
    query, tables = case
    for form in LOAD_FORMS:
        database = load_database(form, tables)
        assert_every_order_matches(query, database, oracle(query, database))


@given(wcoj_cases())
@settings(max_examples=25, suppress_health_check=FIXTURE_SAFE)
def test_ranked_trie_keys_match_the_oracle(oracle, case):
    query, tables = case
    with pytest.MonkeyPatch.context() as patch:
        # Every key of two or more columns is ranked, not mixed.
        patch.setattr(backends_module, "_COMPOSITE_LIMIT", 4)
        database = load_database("set", tables)
        assert_every_order_matches(query, database, oracle(query, database))


def test_composite_keys_past_the_real_int64_limit(oracle):
    """Seven 512-value columns span 2⁶³ keys: each trie is read off ranks."""
    assert backends_module._COMPOSITE_LIMIT == 1 << 62
    schema = tuple(f"C{j}" for j in range(7))
    n, half = 512, 256
    rng = np.random.default_rng(7)
    a_columns = [rng.permutation(n) for _ in schema]
    b_columns = [
        np.concatenate((column[:half], rng.permutation(column[half:])))
        for column in a_columns
    ]
    database = Database()
    database["A"] = Relation.from_columns(schema, a_columns)
    database["B"] = Relation.from_columns(schema, b_columns)
    assert not database["A"]._backend._fits(range(7))
    query = parse_query(f"Q({', '.join(schema)}) :- A({', '.join(schema)}), B({', '.join(schema)})")
    expected = oracle(query, database)
    assert len(expected) == half
    for order in (schema, schema[::-1], schema[3:] + schema[:3]):
        assert run(query, database, order, "count").row_count == half
        assert run(query, database, order, "select").relation.rows == expected
        assert run(query, database, order, "exists").answer


def test_exists_stops_at_one_binding_and_codes_stay_in_the_reference_dictionaries():
    database = load_database(
        "set",
        {
            "R": (("a", "b"), {(x, y) for x in range(6) for y in range(6)}),
            "S": (("b", "c"), {(f"s{y}", z) for y in range(6) for z in range(3)}
                  | {(y, z) for y in range(6) for z in range(3)}),
        },
    )
    query = parse_query("Q(X, Y, Z) :- R(X, Y), S(Y, Z)")
    first = run(query, database, ("X", "Y", "Z"), "exists")
    wcoj = next(op for op in first.operators if op.kind == "wcoj")
    assert first.answer and wcoj.rows_out == 1
    everything = run(query, database, ("Z", "Y", "X"), "select").relation
    assert len(everything) == 6 * 6 * 3
    # Each variable's codes live in the dictionary of the first atom
    # holding it, whichever atom its candidates were expanded from.
    backend = everything._backend
    for variable, relation, column in (("X", "R", 0), ("Y", "R", 1), ("Z", "S", 1)):
        dictionary = backend._columns[backend.position(variable)].dictionary
        assert dictionary is database[relation]._backend._columns[column].dictionary
