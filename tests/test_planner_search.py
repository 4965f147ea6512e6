"""The planner's prefix search against the definition it replaced.

The oracle is the exhaustive loop: follow every permutation of the sorted
variables with ``plan_for_order`` and keep the first one strictly cheaper
than the incumbent.  ``plan_query`` must return that plan, that cost and
those per-step annotations with ``==`` on every float — never approx.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ledger.instances import PLAN_SHAPES
from repro.constants import OMEGA_BEST_KNOWN
from repro.core import plan_for_order, plan_query
from repro.db import Database, Relation, random_database, random_pairs, skewed_pairs
from repro.db.query import Atom, ConjunctiveQuery
from repro.lang.session import Session

OMEGA = OMEGA_BEST_KNOWN
RELATIONS = [f"E{i + 1}" for i in range(8)]
ROWS, DOMAIN = 200, 40


def exhaustive(query, database, orders=None):
    """First strict minimum of ``plan_for_order`` over the orders."""
    if orders is None:
        orders = itertools.permutations(sorted(query.variables))
    best = None
    for order in orders:
        planned = plan_for_order(query, database, order, OMEGA)
        if best is None or planned.estimated_cost < best.estimated_cost:
            best = planned
    return best


def costs(planned):
    return [(s.for_loop_cost, s.mm_cost) for s in planned.annotated_steps]


def assert_same(planned, expected):
    assert planned.plan == expected.plan
    assert planned.estimated_cost == expected.estimated_cost
    assert costs(planned) == costs(expected)


# ----------------------------------------------------------------------
# Data: eight binary relations E1..E8, as on the ledger's ``plan-cold``
# ----------------------------------------------------------------------
def _pairs(regime: str, rng: random.Random):
    seed = rng.randrange(1 << 30)
    if regime == "skewed":  # half the rows hang off four hub values
        return skewed_pairs(ROWS, DOMAIN, num_hubs=4, seed=seed)
    if regime == "symmetric":  # one 5-regular graph everywhere: all statistics tie
        return [(a, (a + shift) % DOMAIN) for shift in range(5) for a in range(DOMAIN)]
    return random_pairs(ROWS, DOMAIN, seed=seed)


def binary_database(regime: str, seed: int) -> Database:
    """``regime``: uniform, skewed, near_empty (one 1-row relation) or symmetric."""
    rng = random.Random(f"{regime}-{seed}")
    tables = {name: _pairs(regime, rng) for name in RELATIONS}
    if regime == "near_empty":
        tables[rng.choice(RELATIONS)] = [(0, 1)]
    return Database(
        {name: Relation(("A", "B"), rows, name) for name, rows in tables.items()}
    )


def shape_query(shape: str, rng: random.Random) -> ConjunctiveQuery:
    """One ``plan-cold`` op: random variable names, orientations and relations."""
    edges = PLAN_SHAPES[shape]
    letters = rng.sample("ABCDEFGHJK", 1 + max(max(edge) for edge in edges))
    variables = [f"{letter}{rng.randrange(100)}" for letter in letters]
    atoms = []
    for relation, (a, b) in zip(rng.sample(RELATIONS, len(edges)), edges):
        pair = (variables[a], variables[b])
        atoms.append(Atom(relation, pair if rng.random() < 0.5 else pair[::-1]))
    return ConjunctiveQuery(tuple(atoms))


@pytest.mark.parametrize("regime", ["uniform", "skewed", "near_empty", "symmetric"])
@pytest.mark.parametrize("shape", [s for s in PLAN_SHAPES if s != "cycle6"])
def test_search_equals_exhaustive_loop(shape, regime):
    for seed in range(3):
        database = binary_database(regime, seed)
        query = shape_query(shape, random.Random(f"{shape}-{seed}"))
        assert_same(plan_query(query, database, OMEGA), exhaustive(query, database))


@pytest.mark.parametrize("regime", ["uniform", "skewed", "near_empty", "symmetric"])
def test_search_equals_exhaustive_loop_on_six_cycle(regime):
    # 4 320 oracle steps per instance: one instance per regime.
    database = binary_database(regime, 0)
    query = shape_query("cycle6", random.Random(regime))
    assert_same(plan_query(query, database, OMEGA), exhaustive(query, database))


def test_symmetric_instances_tie_and_the_first_order_wins():
    """Equal relations on a cycle: many orders cost the same, the first is kept."""
    database = binary_database("symmetric", 0)
    names = iter(RELATIONS)
    query = ConjunctiveQuery(
        tuple(Atom(next(names), pair) for pair in ("AB", "BC", "CD", "DE", "EA"))
    )
    orders = list(itertools.permutations(sorted(query.variables)))
    totals = [plan_for_order(query, database, o, OMEGA).estimated_cost for o in orders]
    assert totals.count(min(totals)) > 1
    planned = plan_query(query, database, OMEGA)
    assert tuple(min(step.block) for step in planned.plan.steps) == orders[
        totals.index(min(totals))
    ]
    assert_same(planned, exhaustive(query, database))


@st.composite
def queries_with_data(draw):
    """Up to 6 variables; atoms of arity 1-3, scopes may repeat; random data."""
    variables = [f"V{i}" for i in range(draw(st.integers(2, 6)))]
    scopes = draw(
        st.lists(
            st.lists(st.sampled_from(variables), min_size=1, max_size=3, unique=True),
            min_size=1,
            max_size=7,
        )
    )
    uncovered = [v for v in variables if not any(v in scope for scope in scopes)]
    if uncovered:
        scopes.append(uncovered[:3])
        scopes.extend([v] for v in uncovered[3:])
    query = ConjunctiveQuery(
        tuple(Atom(f"R{i}", tuple(scope)) for i, scope in enumerate(scopes))
    )
    rows = draw(st.sampled_from([1, 12, 60]))
    database = random_database(
        query, rows, domain_size=draw(st.sampled_from([3, 8])),
        seed=draw(st.integers(0, 10_000)),
    )
    return query, database


@given(queries_with_data())
def test_search_equals_exhaustive_loop_on_random_hypergraphs(drawn):
    query, database = drawn
    assert_same(plan_query(query, database, OMEGA), exhaustive(query, database))


def test_explicit_orders_are_followed_one_by_one():
    database = binary_database("skewed", 1)
    query = shape_query("cycle5", random.Random(5))
    every = list(itertools.permutations(sorted(query.variables)))
    orders = random.Random(9).sample(every, 17)  # a subset, unsorted
    planned = plan_query(query, database, OMEGA, orders=orders)
    assert_same(planned, exhaustive(query, database, orders))
    assert tuple(min(step.block) for step in planned.plan.steps) in orders
    assert planned.search["orders"] == 17
    assert "prefixes_pruned" not in planned.search
    # A generator of orders works as it did.
    assert_same(plan_query(query, database, OMEGA, orders=iter(orders)), planned)


# ----------------------------------------------------------------------
# Search counters: a guard without a clock
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", list(PLAN_SHAPES))
def test_steps_evaluated_stay_a_fraction_of_the_exhaustive_loop(shape):
    database = binary_database("uniform", 7)
    query = shape_query(shape, random.Random(f"counters-{shape}"))
    search = plan_query(query, database, OMEGA).search
    n = len(query.variables)
    loop_steps = math.factorial(n) * n
    assert search["orders"] == math.factorial(n)
    if n >= 5:
        assert search["steps_evaluated"] <= 0.25 * loop_steps
    else:
        assert search["steps_evaluated"] < loop_steps
    # Every step the search asked for was either costed or found in the memo.
    assert search["steps_evaluated"] + search.get("memo_hits", 0) <= loop_steps


def test_counters_are_described_and_absent_without_a_search():
    database = binary_database("uniform", 7)
    query = shape_query("cycle4", random.Random(0))
    planned = plan_query(query, database, OMEGA)
    line = planned.describe().splitlines()[1]
    assert line.startswith("search: 24 orders, ")
    assert f"{planned.search['steps_evaluated']} steps evaluated" in line
    single = plan_for_order(query, database, sorted(query.variables), OMEGA)
    assert single.search == {}
    assert "search:" not in single.describe()
    # The front door shows the same line.
    explained = Session(database, strategy="omega").execute(f"EXPLAIN EXISTS {query}")
    assert line in explained.payload["text"].splitlines()


def test_nothing_is_remembered_between_calls():
    database = binary_database("uniform", 7)
    query = shape_query("cycle5", random.Random(0))
    first = plan_query(query, database, OMEGA)
    again = plan_query(query, database, OMEGA)
    assert again.search == first.search
    assert_same(again, first)


# ----------------------------------------------------------------------
# Above the exhaustive limit: one greedy order, whatever the hash seed
# ----------------------------------------------------------------------
_GREEDY_SCRIPT = """
from repro.core import candidate_orders, plan_query
from repro.db import random_database
from repro.db.query import Atom, ConjunctiveQuery

for n in (7, 8):
    names = [f"X{i}" for i in range(n)]
    query = ConjunctiveQuery(
        tuple(Atom(f"R{i}", (names[i], names[(i + 1) % n])) for i in range(n))
    )
    database = random_database(query, 40, domain_size=12, seed=n)
    print(candidate_orders(query, database))
    print(plan_query(query, database).plan.describe())
"""


def test_greedy_order_does_not_follow_the_hash_seed():
    source = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=source)
        done = subprocess.run(
            [sys.executable, "-c", _GREEDY_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("eliminate") == 7 + 8
