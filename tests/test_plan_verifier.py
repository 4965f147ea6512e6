"""Static plan verifier: pass coverage, engine wiring, and front doors.

Three layers under test:

* the verifier passes themselves — each one is exercised against a
  deliberately broken program (corrupted schemas, forged structural keys,
  stripped enumeration parents, mismatched verbs) and must produce the
  matching :class:`~repro.analysis.verify.Violation`;
* the engine wiring — ``QueryEngine(verify_plans=...)`` verifies every
  program it lowers (the whole suite runs this way via ``conftest``), and
  :meth:`QueryEngine.verify` reports violations without raising;
* the front doors — ``EXPLAIN VERIFY`` statements and the ``repro
  verify`` CLI verb.

Plus the regression pinned by this PR: the optimizer's node rebuilder
must carry ``Enumerate.parents`` through rewrites — dropping them
silently degrades ranked (any-k) enumeration to derived-parent guessing,
which is exactly what the ``enumerate`` pass rejects.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.verify import (
    PlanVerificationError,
    _Context,
    assert_verified,
    check_cache_keys,
    check_skey_soundness,
    verify_program,
)
from repro.api import QueryEngine
from repro.db import Database, parse_query, random_database
from repro.exec.ir import Count, Enumerate, GroupedMatMul, Join, Program, Project, Scan
from repro.exec.lower import SelectOptions, lower_naive, lower_yannakakis
from repro.exec.optimize import optimize_program
from repro.lang.parser import parse_statement
from repro.lang.session import Session

TRIANGLE = parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z)")
CHAIN_SELECT = parse_query("Q(A, D) :- R(A, B), S(B, C), T(C, D)")


def rules(violations):
    return {violation.rule for violation in violations}


def chain_database():
    return random_database(CHAIN_SELECT, 30, domain_size=5, seed=11, plant_witness=True)


# ----------------------------------------------------------------------
# Clean programs verify clean
# ----------------------------------------------------------------------
@pytest.mark.parametrize("verb", ["exists", "count", "select"])
def test_lowered_and_optimized_programs_verify(verb):
    query = TRIANGLE if verb == "exists" else CHAIN_SELECT
    program = lower_naive(query, verb=verb)
    assert verify_program(program, verb=verb) == []
    optimized, _ = optimize_program(program)
    assert verify_program(optimized, verb=verb) == []


def test_violation_and_error_rendering():
    program = lower_naive(TRIANGLE)
    bad = Program(Project(program.root.child, ("X",)), source="test")
    violations = verify_program(bad, verb="exists")
    assert violations, "verb mismatch must be reported"
    text = str(PlanVerificationError(bad, violations, stage="optimized"))
    for violation in violations:
        assert violation.describe() in text
    assert "optimized program" in text
    assert "#1" in text  # the embedded program listing


# ----------------------------------------------------------------------
# Pass 1: DAG shape
# ----------------------------------------------------------------------
def test_sink_below_root_is_flagged():
    scan = Scan("R", ("a", "b"))
    inner_sink = Enumerate(scan, (), ("a", "b"))
    program = Program(Project(inner_sink, ("a",)), source="test")
    violations = verify_program(program)
    assert "dag-shape" in rules(violations)
    assert any("root" in violation.message for violation in violations)


def test_count_root_is_fine():
    program = Program(Count(Scan("R", ("a", "b")), ("a",)), source="test")
    assert verify_program(program, verb="count") == []


# ----------------------------------------------------------------------
# Pass 2: schema consistency
# ----------------------------------------------------------------------
def test_corrupted_schema_is_flagged():
    node = Project(Scan("R", ("a", "b")), ("a",))
    object.__setattr__(node, "schema", ("zzz",))
    violations = verify_program(Program(node, source="test"))
    assert "schema" in rules(violations)


def test_masked_product_must_keep_its_mask_contract():
    product = GroupedMatMul(
        Scan("R", ("X", "Y")), Scan("S", ("Y", "Z")), ("X",), ("Y",), ("Z",),
        mask=Scan("T", ("Z", "X")),
    )  # fmt: skip
    assert verify_program(Program(product)) == []
    # A mask without the product's column variable: nothing to look up.
    blind = dataclasses.replace(product)
    object.__setattr__(blind, "mask", Scan("T", ("X", "W")))
    assert "schema" in rules(verify_program(Program(blind)))
    # A schema other than the mask's: consumers would read the wrong columns.
    reordered = dataclasses.replace(product)
    object.__setattr__(reordered, "schema", ("X", "Z"))
    assert "schema" in rules(verify_program(Program(reordered)))


def test_scan_checked_against_database():
    db = Database().bulk_load(R=(("a", "b"), [(1, 2)]))
    unknown = Program(Scan("Missing", ("a", "b")), source="test")
    assert "schema" in rules(verify_program(unknown, database=db))
    wrong_arity = Program(Scan("R", ("a", "b", "c")), source="test")
    assert "schema" in rules(verify_program(wrong_arity, database=db))
    ok = Program(Scan("R", ("x", "y")), source="test")
    assert verify_program(ok, database=db) == []


# ----------------------------------------------------------------------
# Pass 3: structural-key soundness
# ----------------------------------------------------------------------
def test_forged_skey_collision_is_flagged():
    # Two scans of different relations with the same forged key: the
    # result cache would alias them.  The pass is called directly because
    # the schema pass re-derives (and thereby repairs) forged keys first
    # when the full pipeline runs.
    left = Scan("R", ("a", "b"))
    right = Scan("S", ("a", "b"))
    object.__setattr__(right, "skey", left.skey)
    program = Program(Join(left, right), source="test")
    violations = list(
        check_skey_soundness(program, _Context(program, None, None))
    )
    assert rules(violations) == {"skey-collision"}
    # ... and the full pipeline still rejects the program (via re-derivation).
    assert verify_program(program)


def test_rename_compatible_skey_sharing_is_allowed():
    # The same relation scanned under different variable names shares a
    # key by design — that is the cross-query cache hit.
    program = Program(
        Join(Scan("R", ("a", "b")), Scan("R", ("x", "y"))), source="test"
    )
    assert verify_program(program) == []


# ----------------------------------------------------------------------
# Pass 4 + satellite regression: the Enumerate contract
# ----------------------------------------------------------------------
def ranked_program():
    return lower_yannakakis(
        CHAIN_SELECT, verb="select",
        select_options=SelectOptions(limit=3, order="ranked"),
    )


def strip_parents(program):
    root = program.root
    assert isinstance(root, Enumerate) and root.parents
    stripped = Enumerate(
        root.child, root.frontiers, root.variables_out, root.limit, root.order
    )
    return Program(stripped, source=program.source)


def test_ranked_enumerate_without_parents_is_flagged():
    violations = verify_program(strip_parents(ranked_program()), verb="select")
    assert "enumerate" in rules(violations)
    assert any("parents" in violation.message for violation in violations)


def test_optimizer_preserves_enumerate_parents():
    # Regression: the optimizer's node rebuilder used to drop
    # ``Enumerate.parents``, silently downgrading any-k enumeration to
    # the hand-built-program fallback.
    program = ranked_program()
    optimized, _ = optimize_program(program)
    root = optimized.root
    assert isinstance(root, Enumerate)
    assert root.parents == program.root.parents != ()
    assert verify_program(optimized, verb="select") == []


def test_ranked_answers_survive_optimization():
    db = chain_database()
    engine = QueryEngine(db, verify_plans="optimized")
    ranked = [tuple(row) for row in engine.select(CHAIN_SELECT, limit=5, order="sorted")]
    full = sorted(tuple(row) for row in engine.select(CHAIN_SELECT))
    assert ranked == full[:5]


# ----------------------------------------------------------------------
# Pass 6: cache keys vs. scan closure
# ----------------------------------------------------------------------
def test_skey_scan_closure_mismatch_is_flagged():
    join = Join(Scan("R", ("a", "b")), Scan("S", ("b", "c")))
    # Forge a key recording only R while the DAG scans R and S: a delta
    # to S would never invalidate this node's cache entries.
    object.__setattr__(join, "skey", join.children[0].skey)
    program = Program(join, source="test")
    violations = list(check_cache_keys(program, _Context(program, None, None)))
    assert rules(violations) == {"cache-key"}


# ----------------------------------------------------------------------
# Pass 7: verb/sink agreement
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "lower_verb, claim_verb",
    [("exists", "select"), ("count", "exists"), ("select", "count")],
)
def test_verb_sink_mismatch_is_flagged(lower_verb, claim_verb):
    query = TRIANGLE if lower_verb == "exists" else CHAIN_SELECT
    program = lower_naive(query, verb=lower_verb)
    assert "verb-sink" in rules(verify_program(program, verb=claim_verb))


def test_tree_count_dropping_a_tree_variable_is_flagged():
    program = lower_yannakakis(parse_query("Q(A, B, C) :- R(A, B), S(B, C)"), verb="count")
    root = program.root
    assert root.frontiers and verify_program(program, verb="count") == []
    # Seeded mutant: the head forgets B, so the bottom-up sum would count
    # (A, B, C) join tuples where distinct (A, C) outputs were asked for.
    mutant = Program(Count(root.child, ("A", "C"), root.frontiers, root.parents), source="test")
    assert rules(verify_program(mutant, verb="count")) == {"verb-sink"}


# ----------------------------------------------------------------------
# Engine wiring
# ----------------------------------------------------------------------
def test_engine_rejects_unknown_stage():
    with pytest.raises(ValueError, match="verify_plans"):
        QueryEngine(Database(), verify_plans="paranoid")
    with pytest.raises(ValueError, match="verify_plans"):
        QueryEngine(Database(), verify_plans="lowered")


def test_engine_env_default(monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY_PLANS", "optimized")
    assert QueryEngine(Database()).verify_plans == "optimized"
    monkeypatch.setenv("REPRO_VERIFY_PLANS", "off")
    assert QueryEngine(Database()).verify_plans == "off"
    # Explicit argument wins over the environment.
    assert QueryEngine(Database(), verify_plans="optimized").verify_plans == (
        "optimized"
    )


def test_assert_verified_raises_with_violations():
    bad = strip_parents(ranked_program())
    with pytest.raises(PlanVerificationError) as info:
        assert_verified(bad, verb="select", stage="optimized")
    assert info.value.stage == "optimized"
    assert {v.rule for v in info.value.violations} == {"enumerate"}
    assert assert_verified(ranked_program(), verb="select") is not None


def test_engine_verify_reports_clean():
    engine = QueryEngine(chain_database())
    for verb in ("exists", "count", "select"):
        assert engine.verify(CHAIN_SELECT, verb=verb) == []


# ----------------------------------------------------------------------
# Corpus sweep: every (query, verb, strategy) combination the engine
# routes must lower to a verifier-clean program.
# ----------------------------------------------------------------------
SWEEP_QUERIES = {
    "path": "Q(X, Z) :- R(X, Y), S(Y, Z)",
    "chain": "Q(A, D) :- R(A, B), S(B, C), T(C, D)",
    "star": "Q(X, Y) :- R(C, X), S(C, Y), T(C, Z)",
    "triangle": "Q(X, Z) :- R(X, Y), S(Y, Z), T(X, Z)",
    "four_cycle": "Q(X, Z) :- R(X, Y), S(Y, Z), T(Z, W), U(W, X)",
    "tri_tail": "Q(X, W) :- R(X, Y), S(Y, Z), T(X, Z), U(Z, W)",
}


@pytest.mark.parametrize("shape", sorted(SWEEP_QUERIES))
def test_corpus_sweep_is_verifier_clean(shape):
    query = parse_query(SWEEP_QUERIES[shape])
    db = random_database(query, 25, domain_size=6, seed=3, plant_witness=True)
    engine = QueryEngine(db, verify_plans="optimized")
    strategies = ["auto", "naive", "generic_join"]
    if query.is_acyclic():
        strategies.append("yannakakis")
    for strategy in strategies:
        for verb in ("exists", "count", "select"):
            assert engine.verify(query, strategy, verb=verb) == [], (
                f"{shape}/{strategy}/{verb} failed verification"
            )


# ----------------------------------------------------------------------
# Front doors: EXPLAIN VERIFY and the CLI verb
# ----------------------------------------------------------------------
def test_explain_verify_parses():
    statement = parse_statement("EXPLAIN VERIFY SELECT R(X, Y) LIMIT 3")
    assert statement.explain and statement.verify
    assert statement.verb == "select" and statement.limit == 3
    plain = parse_statement("EXPLAIN COUNT R(X, Y)")
    assert plain.explain and not plain.verify
    # 'verify' stays a valid relation/head name (contextual keyword).
    named = parse_statement("EXPLAIN verify(X) :- R(X, Y)")
    assert not named.verify and named.query.name == "verify"


def test_explain_verify_session_outcome():
    session = Session(database=chain_database())
    outcome = session.execute("EXPLAIN VERIFY Q(A, D) :- R(A, B), S(B, C), T(C, D)")
    assert outcome.kind == "explain"
    assert outcome.payload["violations"] == []
    assert "plan verifies (0 violations)" in outcome.describe()


def test_cli_verify_verb(capsys):
    from repro.cli import main

    assert main(["verify", "Q(X, Z) :- R(X, Y), S(Y, Z)", "--verb", "select"]) == 0
    output = capsys.readouterr().out
    assert "plan verifies (0 violations)" in output
    assert "Enumerate" in output
