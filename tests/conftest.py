"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import HealthCheck, settings

# Every engine the suite builds statically verifies every program it
# lowers (see repro.analysis.verify): the whole test corpus doubles as
# the verifier's plan corpus, and an unsound rewrite fails loudly here
# before it can corrupt a result.  Explicit QueryEngine(verify_plans=...)
# arguments in individual tests still win over this default.
os.environ.setdefault("REPRO_VERIFY_PLANS", "optimized")

from ledger.oracle import Table, evaluate
from repro.api import row_order_key
from repro.constants import OMEGA_BEST_KNOWN
from repro.db import Database, Relation
from repro.polymatroid import SetFunction, entropy_from_distribution

# Keep hypothesis example counts modest: several properties run LPs or joins.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def omega() -> float:
    """The ω value used by most numeric tests (the best known bound)."""
    return OMEGA_BEST_KNOWN


def oracle_outputs(query, database) -> set:
    """The distinct output tuples of ``query`` over ``database``.

    Reference answers come from the ledger's oracle (``ledger/oracle.py``),
    which joins plain tuple sets and shares no code with the engine.  A
    Boolean head yields ``{()}`` when the body is satisfiable, so
    ``bool(...)`` is the ``exists`` answer for any head.
    """
    tables = {atom.relation: Table(database[atom.relation]) for atom in query.atoms}
    atoms = [(atom.relation, tuple(atom.variables)) for atom in query.atoms]
    return evaluate(tables, atoms, query.output_variables)


@pytest.fixture
def oracle():
    """:func:`oracle_outputs`, the suite's one reference evaluator."""
    return oracle_outputs


#: The two input forms rows reach the columnar store in, as test ids: a
#: Python ``set`` of row tuples (``Relation(schema, rows)``, stored in the
#: set's hash order, dictionaries coded in that order) and per-column
#: sequences (``Relation.from_columns``, stored in sorted row order).
#: Answers must depend on neither the storage order nor the codes, so
#: tests that touch either run once per form.
LOAD_FORMS = ("columnar", "set")


def load_relation(form, schema, rows, name=None) -> Relation:
    """``rows`` as a relation built through the ``form`` input path."""
    rows = {tuple(row) for row in rows}
    if form == "set" or not tuple(schema):
        return Relation(schema, rows, name)
    ordered = sorted(rows, key=row_order_key)
    columns = [list(column) for column in zip(*ordered)] or [[] for _ in schema]
    return Relation.from_columns(schema, columns, name)


def load_database(form, tables) -> Database:
    """A database of ``name -> Relation | (schema, rows)`` built through ``form``."""
    database = Database()
    for name, spec in dict(tables).items():
        schema, rows = (spec.schema, spec.rows) if isinstance(spec, Relation) else spec
        database[name] = load_relation(form, schema, rows, name)
    return database


def random_entropic_polymatroid(
    variables: list[str], seed: int, num_outcomes: int = 12, domain: int = 3
) -> SetFunction:
    """A random polymatroid obtained as the entropy of a random distribution."""
    rng = random.Random(seed)
    outcomes = {}
    for _ in range(num_outcomes):
        outcome = tuple(rng.randrange(domain) for _ in variables)
        outcomes[outcome] = rng.random() + 0.05
    return entropy_from_distribution(variables, outcomes)
