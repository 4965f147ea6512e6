"""The query engine starts and answers without the LP stack.

``repro.width`` and ``repro.polymatroid`` solve LPs with SciPy; an ω-query
plan needs only the combinatorial MM terms of ``repro.hypergraph.mm_terms``.
A fresh interpreter imports the front doors, runs the three verbs on small
generated data and must not have loaded SciPy or either LP package; only
``explain(include_widths=True)`` pulls ``repro.width`` in.  The ``layering``
lint rule (``tests/test_repo_lint.py``) keeps the imports that way.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.db import parse_query, random_database
from repro.hypergraph import mm_terms
from repro.width import (
    MMTerm,
    enumerate_mm_terms,
    fractional_edge_cover_number,
    fractional_hypertree_width,
)
from tests.conftest import oracle_outputs

TRIANGLE = "Q() :- R(X, Y), S(Y, Z), T(X, Z)"
FOUR_CYCLE = "Q(X, Z) :- R(X, Y), S(Y, Z), T(Z, W), U(W, X)"
CHAIN = "Q(A, D) :- R(A, B), S(B, C), T(C, D)"

_CHILD = """
import json, sys

import repro, repro.api, repro.server, repro.lang.session, repro.cli
from repro import QueryEngine
from repro.db import parse_query, random_database

def loaded():
    return sorted(
        name for name in sys.modules
        if name.split(".")[0] == "scipy"
        or name.startswith(("repro.width", "repro.polymatroid"))
    )

def engine_for(text):
    query = parse_query(text)
    return query, QueryEngine(random_database(query, 60, domain_size=12, seed=3))

triangle, engine = engine_for(%(triangle)r)
exists = engine.exists(triangle, "omega").answer
cycle, cycle_engine = engine_for(%(cycle)r)
count = cycle_engine.count(cycle, "auto").row_count
chain, chain_engine = engine_for(%(chain)r)
rows = chain_engine.select(chain, limit=5, order="sorted").to_rows()
after_verbs = loaded()
widths = engine.explain(triangle, include_widths=True).widths
print(json.dumps({
    "after_verbs": after_verbs,
    "exists": exists,
    "count": count,
    "rows": [list(row) for row in rows],
    "widths": widths,
    "width_loaded": "repro.width" in sys.modules,
}))
""" % {"triangle": TRIANGLE, "cycle": FOUR_CYCLE, "chain": CHAIN}


def _database(text):
    query = parse_query(text)
    return query, random_database(query, 60, domain_size=12, seed=3)


@pytest.fixture(scope="module")
def child():
    source = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=source)
    done = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_engine_verbs_leave_the_lp_stack_unloaded(child):
    assert child["after_verbs"] == []


def test_verbs_answer_like_the_oracle(child):
    triangle, triangle_db = _database(TRIANGLE)
    assert child["exists"] == bool(oracle_outputs(triangle, triangle_db))
    cycle, cycle_db = _database(FOUR_CYCLE)
    assert child["count"] == len(oracle_outputs(cycle, cycle_db))
    chain, chain_db = _database(CHAIN)
    assert [tuple(row) for row in child["rows"]] == sorted(oracle_outputs(chain, chain_db))[:5]


def test_explain_with_widths_loads_width_and_matches_it(child):
    assert child["width_loaded"]
    hypergraph = parse_query(TRIANGLE).hypergraph()
    assert child["widths"] == pytest.approx(
        {
            "fractional edge cover ρ*": fractional_edge_cover_number(hypergraph),
            "fractional hypertree width": fractional_hypertree_width(hypergraph).value,
        },
        abs=1e-9,
    )


def test_width_reexports_the_engine_mm_terms():
    assert MMTerm is mm_terms.MMTerm
    assert enumerate_mm_terms is mm_terms.enumerate_mm_terms
