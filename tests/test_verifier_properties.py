"""Property tests: rewrite passes map verifier-valid programs to valid ones.

The verifier (``repro.analysis.verify``) defines what a *sound* program
is; the optimizer's job is to rewrite without leaving that set.  These
tests pin the property over the differential suite's query-shape corpus:
every lowering of every shape verifies clean, and each optimizer pass —
individually, composed, and interleaved with variable renaming — keeps
it that way.  A new rewrite pass that drops an invariant (the way the
node rebuilder once dropped ``Enumerate.parents``) fails here with the
shape and pass named.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.verify import verify_program
from repro.db import parse_query
from repro.exec.lower import (
    SelectOptions,
    lower_generic_join,
    lower_naive,
    lower_yannakakis,
)
from repro.exec.optimize import optimize_program, prune_operators

SHAPES = {
    "path2": "Q(X, Z) :- R(X, Y), S(Y, Z)",
    "chain3": "Q(X, W) :- R(X, Y), S(Y, Z), T(Z, W)",
    "star": "Q(X, Y) :- R(C, X), S(C, Y), T(C, Z)",
    "triangle": "Q(X, Z) :- R(X, Y), S(Y, Z), T(X, Z)",
    "four_cycle": "Q(X, Z) :- R(X, Y), S(Y, Z), T(Z, W), U(W, X)",
    "tri_tail": "Q(X, W) :- R(X, Y), S(Y, Z), T(X, Z), U(Z, W)",
    "star_full": "Q(Y, C, X) :- R(C, X), S(C, Y)",
}

VERBS = ("exists", "count", "select")

PASSES = {
    "prune": prune_operators,
    "all": optimize_program,
}


def lowerings(query, verb):
    """Every lowering routed by the engine for this query/verb."""
    programs = [lower_naive(query, verb=verb)]
    programs.append(
        lower_generic_join(query, sorted(query.variables), verb=verb)
    )
    if query.is_acyclic():
        programs.append(lower_yannakakis(query, verb=verb))
        if verb == "select":
            for order in ("stream", "ranked"):
                programs.append(
                    lower_yannakakis(
                        query, verb="select",
                        select_options=SelectOptions(limit=4, order=order),
                    )
                )
    return programs


def assert_valid(program, verb, context):
    violations = verify_program(program, verb=verb)
    assert violations == [], (
        f"{context}: " + "; ".join(v.describe() for v in violations)
    )


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_lowerings_are_valid(shape, verb):
    query = parse_query(SHAPES[shape])
    for program in lowerings(query, verb):
        assert_valid(program, verb, f"{shape}/{verb}/{program.source}")


@pytest.mark.parametrize("pass_name", sorted(PASSES))
@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_passes_preserve_validity(shape, verb, pass_name):
    query = parse_query(SHAPES[shape])
    rewrite = PASSES[pass_name]
    for program in lowerings(query, verb):
        rewritten, _ = rewrite(program)
        assert_valid(
            rewritten, verb, f"{shape}/{verb}/{program.source} after {pass_name}"
        )


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_random_pass_sequences_preserve_validity(shape, seed):
    """Any order and repetition of passes stays inside the valid set."""
    rng = random.Random(f"{shape}:{seed}")
    query = parse_query(SHAPES[shape])
    verb = rng.choice(VERBS)
    program = rng.choice(lowerings(query, verb))
    applied = []
    for _ in range(rng.randint(2, 6)):
        name = rng.choice(sorted(PASSES))
        applied.append(name)
        program, _ = PASSES[name](program)
        assert_valid(
            program, verb, f"{shape}/{verb} after {'+'.join(applied)}"
        )


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_rename_preserves_validity_and_structure(shape):
    """Renaming variables keeps validity and the structural keys (the
    cross-query plan-cache contract)."""
    query = parse_query(SHAPES[shape])
    for verb in VERBS:
        for program in lowerings(query, verb):
            optimized, _ = optimize_program(program)
            mapping = {
                variable: f"{variable.lower()}_{index}"
                for index, variable in enumerate(sorted(query.variables))
            }
            renamed = optimized.rename(mapping)
            assert_valid(renamed, verb, f"{shape}/{verb} renamed")
            assert renamed.root.skey == optimized.root.skey


def test_optimization_is_idempotent_on_the_corpus():
    """A second optimize pass finds nothing left to do."""
    for shape, text in SHAPES.items():
        query = parse_query(text)
        for verb in VERBS:
            for program in lowerings(query, verb):
                once, _ = optimize_program(program)
                twice, stats = optimize_program(once)
                assert stats.operators_pruned == 0, f"{shape}/{verb}"
                assert twice.describe() == once.describe()
