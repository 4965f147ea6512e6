"""Tests for the unified physical-operator layer: IR, lowering, optimizer, VM."""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.api import QueryEngine
from repro.constants import OMEGA_BEST_KNOWN
from repro.db import (
    Database,
    Relation,
    parse_query,
    random_database,
    triangle_instance,
)
from repro.exec import (
    Join,
    KernelDispatcher,
    NonEmpty,
    Project,
    Scan,
    Semijoin,
    VirtualMachine,
    Wcoj,
    lower_naive,
    lower_plan,
    lower_yannakakis,
    optimize_program,
    prune_operators,
)
from repro.exec import ir
from repro.exec.ir import Program
from tests.conftest import LOAD_FORMS, load_database

OMEGA = OMEGA_BEST_KNOWN
TRIANGLE = parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z)")
CHAIN = parse_query("Q() :- R(A, B), S(B, C), T(C, D)")


def chain_database(seed: int = 0, rows: int = 40) -> Database:
    return random_database(CHAIN, rows, domain_size=10, seed=seed, plant_witness=True)


class TestIRConstruction:
    def test_schema_inference(self):
        r = Scan("R", ("X", "Y"))
        s = Scan("S", ("Y", "Z"))
        join = Join(r, s)
        assert join.schema == ("X", "Y", "Z")
        assert Project(join, ("X", "Z")).schema == ("X", "Z")
        assert Semijoin(r, s).schema == ("X", "Y")
        assert NonEmpty(r).boolean and NonEmpty(r).schema == ()

    def test_unknown_variable_rejected(self):
        r = Scan("R", ("X", "Y"))
        with pytest.raises(ValueError, match="not in schema"):
            Project(r, ("Q",))

    def test_wcoj_order_must_cover_variables(self):
        r = Scan("R", ("X", "Y"))
        with pytest.raises(ValueError, match="cover exactly"):
            Wcoj((r,), ("X",), False)

    def test_validation_errors_carry_input_schemas(self):
        r = Scan("R", ("X", "Y"))
        with pytest.raises(ValueError, match=r"in Project; input schemas: \(X, Y\)"):
            Project(r, ("Q",))
        s = Scan("S", ("Y", "Z"))
        with pytest.raises(ValueError, match=r"in Wcoj; input schemas: \(X, Y\); \(Y, Z\)"):
            Wcoj((r, s), ("X",), False)

    def test_validate_reports_program_position(self):
        program = lower_naive(TRIANGLE)
        node = program.nodes()[0]
        node.validate(program)  # a sound node round-trips silently
        bad = Project(Scan("R", ("X", "Y")), ("X",))
        object.__setattr__(bad, "variables_out", ("Q",))
        wrapped = Program(bad)
        position = wrapped.node_ids()[bad]
        with pytest.raises(ValueError, match=f"operator #{position} of the program"):
            bad.validate(wrapped)

    def test_structural_key_is_name_insensitive(self):
        a = Semijoin(Scan("R", ("X", "Y")), Scan("S", ("Y", "Z")))
        b = Semijoin(Scan("R", ("P", "Q")), Scan("S", ("Q", "V")))
        assert a != b  # equality stays name-sensitive
        assert a.skey == b.skey  # structure is identical up to renaming
        # Different shared-variable positions -> different structure.
        c = Semijoin(Scan("R", ("P", "Q")), Scan("S", ("P", "V")))
        assert a.skey != c.skey

    def test_program_describe_names_every_operator(self):
        program = lower_naive(TRIANGLE)
        text = program.describe()
        for node in program.nodes():
            assert node.label() in text
        assert text.count("#") >= len(program.nodes())

    def test_rename_roundtrip(self):
        program = lower_yannakakis(CHAIN)
        mapping = {"A": "v0", "B": "v1", "C": "v2", "D": "v3"}
        renamed = program.rename(mapping)
        back = renamed.rename({v: k for k, v in mapping.items()})
        assert back.root == program.root
        assert renamed.root.skey == program.root.skey


# ----------------------------------------------------------------------
# Every operator class renames and rebuilds from its declared fields
# ----------------------------------------------------------------------
def _operator_classes():
    found, stack = [], list(ir.Operator.__subclasses__())
    while stack:
        cls = stack.pop()
        found.append(cls)
        stack.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: cls.__name__)


def _operator_fixtures():
    """Instances of every operator class over the variables X, Y, Z and G."""
    r, s, t = Scan("R", ("X", "Y")), Scan("S", ("Y", "Z")), Scan("T", ("X", "Z"))
    root, frontier = Semijoin(r, s), Semijoin(s, r)
    return {
        ir.Scan: [r],
        ir.Project: [Project(r, ("Y",))],
        ir.Distinct: [ir.Distinct(Join(r, s), ("X", "Z"))],
        ir.HeavyPart: [ir.HeavyPart(r, ("X",), 3)],
        ir.Join: [Join(r, s)],
        ir.Semijoin: [root],
        ir.Antijoin: [ir.Antijoin(r, s)],
        ir.GroupedMatMul: [
            ir.GroupedMatMul(r, s, ("X",), ("Y",), ("Z",)),
            ir.GroupedMatMul(
                Scan("RG", ("X", "Y", "G")), Scan("SG", ("Y", "Z", "G")),
                ("X",), ("Y",), ("Z",), ("G",),
            ),  # fmt: skip
            ir.GroupedMatMul(
                Scan("RG", ("X", "Y", "G")), Scan("SG", ("Y", "Z", "G")),
                ("X",), ("Y",), ("Z",), ("G",), mask=Scan("M", ("Z", "W", "G", "X")),
            ),  # fmt: skip
        ],
        ir.Wcoj: [Wcoj((r, s, t), ("X", "Y", "Z"), True)],
        ir.Count: [
            ir.Count(r, ("X",)),
            ir.Count(root, ("X", "Y", "Z"), (frontier,), (0,)),
        ],
        ir.Enumerate: [
            ir.Enumerate(ir.Distinct(r, ("Y", "X"))),  # variables_out=None
            ir.Enumerate(root, (frontier,), ("Z", "X"), 5, "ranked", (0,)),
        ],
        ir.NonEmpty: [NonEmpty(r)],
        ir.Any_: [ir.Any_((NonEmpty(r), NonEmpty(s)))],
        ir.All_: [ir.All_((NonEmpty(t),))],
    }


def _strings_held(node):
    """Every string the DAG under ``node`` holds in a field or a schema."""
    held = set()
    for member in Program(node).nodes():
        held.update(member.schema)
        for field in dataclasses.fields(member):
            value = getattr(member, field.name)
            values = value if isinstance(value, tuple) else (value,)
            held.update(v for v in values if isinstance(v, str))
    return held


@pytest.mark.parametrize("cls", _operator_classes(), ids=lambda cls: cls.__name__)
def test_every_operator_class_renames_and_rebuilds(cls):
    fixtures = _operator_fixtures()
    assert cls in fixtures, f"no fixture for {cls.__name__}: add one to _operator_fixtures"
    mapping = {"X": "x1", "Y": "y1", "Z": "z1", "G": "g1"}
    inverse = {new: old for old, new in mapping.items()}
    for node in fixtures[cls]:
        renamed = Program(node).rename(mapping).root
        assert type(renamed) is cls
        assert Program(renamed).rename(inverse).root == node
        assert renamed.skey == node.skey
        assert not _strings_held(renamed) & set(mapping), renamed
        assert node.rebuild(lambda child: child) is node
        copied = node.rebuild(copy.copy)  # equal inputs, new objects
        assert type(copied) is cls and copied == node
        assert (copied is node) == (not node.children)


class TestLoweringEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("form", LOAD_FORMS)
    def test_all_strategies_agree_on_ir_path(self, seed, form):
        db = random_database(
            TRIANGLE, 30, domain_size=8, seed=seed, plant_witness=(seed % 2 == 0)
        )
        engine = QueryEngine(load_database(form, db.items()), omega=OMEGA)
        answers = {
            strategy: engine.ask(TRIANGLE, strategy=strategy).answer
            for strategy in ("naive", "generic_join", "omega")
        }
        assert len(set(answers.values())) == 1

    def test_every_builtin_strategy_lowers(self):
        db = chain_database()
        engine = QueryEngine(db, omega=OMEGA)
        for strategy in ("naive", "generic_join", "yannakakis", "omega"):
            result = engine.ask(CHAIN, strategy=strategy)
            assert result.program is not None, strategy
            assert result.execution is not None
            assert result.execution.operators, strategy

    def test_lowered_plan_matches_legacy_answer(self, oracle):
        from repro.core import plan_query

        db = triangle_instance(60, domain_size=14, seed=3, plant_triangle=True)
        plan = plan_query(TRIANGLE, db, OMEGA).plan
        program = lower_plan(TRIANGLE, db, plan)
        result = VirtualMachine(db).run(program)
        assert result.answer == bool(oracle(TRIANGLE, db))
        assert program.source == "omega-plan"


class TestOptimizer:
    def test_fusion_preserves_answers_randomized(self):
        flower = parse_query("Q() :- Root(C0, C1, C2), L0(C0, X), L1(C1, Y), L2(C2, Z)")
        for seed in range(6):
            db = random_database(
                flower, 25, domain_size=5, seed=seed, plant_witness=(seed % 2 == 0)
            )
            raw = lower_yannakakis(flower)
            optimized, stats = optimize_program(raw)
            vm = VirtualMachine(db)
            assert vm.run(raw).answer == vm.run(optimized).answer
            assert stats.nodes_after <= stats.nodes_before

    def test_cse_merges_duplicate_subtrees(self):
        # Two distinct but structurally equal subtree objects are one node
        # to the VM's memo: the semijoin evaluates once.
        r = Scan("R", ("X", "Y"))
        first, second = (Semijoin(r, Scan("S", ("Y",))) for _ in range(2))
        assert first is not second and first == second
        db = Database(
            {"R": Relation(("X", "Y"), [(1, 2), (3, 4)]), "S": Relation(("Y",), [(2,)])}
        )
        result = VirtualMachine(db).run(Program(Join(first, second)))
        assert result.relation.rows == {(1, 2)}
        assert [t.kind for t in result.operators].count("semijoin") == 1

    def test_prune_drops_identity_projection(self):
        r = Scan("R", ("X", "Y"))
        program = Program(NonEmpty(Project(r, ("X", "Y"))))
        pruned, dropped = prune_operators(program)
        assert dropped == 1
        assert all(node.kind() != "project" for node in pruned.nodes())


class TestVM:
    def test_operator_traces_cover_rows_and_kernel(self, oracle):
        db = chain_database()
        result = VirtualMachine(db).run(lower_naive(CHAIN))
        assert result.answer == bool(oracle(CHAIN, db))
        assert result.operators
        kinds = {trace.kind for trace in result.operators}
        assert "scan" in kinds and "join" in kinds and "nonempty" in kinds
        for trace in result.operators:
            assert trace.rows_out >= 0
            assert trace.kernel in ("set", "columnar", "bool")

    def test_trace_seconds_sum_to_total(self):
        db = chain_database()
        result = VirtualMachine(db).run(lower_naive(CHAIN))
        assert 0.0 < sum(t.seconds for t in result.operators) <= result.seconds

    def test_empty_scan_short_circuits_join(self):
        db = Database(
            {
                "R": Relation(("X", "Y"), []),
                "S": Relation(("Y", "Z"), [(1, 2)]),
                "T": Relation(("X", "Z"), [(1, 2)]),
            }
        )
        result = VirtualMachine(db).run(lower_naive(TRIANGLE))
        assert not result.answer
        evaluated = {trace.label for trace in result.operators}
        assert "Scan S(Y, Z)" not in evaluated  # right side never touched

    def test_lazily_skipped_subtree_is_never_evaluated(self):
        # The right scan targets a missing relation: while the left side
        # is empty it is never evaluated; once it is needed it raises.
        db = Database({"R": Relation(("X", "Y"), [])})
        program = Program(
            NonEmpty(Join(Scan("R", ("X", "Y")), Scan("Missing", ("Y", "Z"))))
        )
        result = VirtualMachine(db).run(program)
        assert result.answer is False
        assert "Scan Missing(Y, Z)" not in {trace.label for trace in result.operators}
        db["R"] = Relation(("X", "Y"), [(1, 2)])
        with pytest.raises(KeyError):
            VirtualMachine(db).run(program)

    def test_thread_pool_keywords_are_gone(self):
        # One interpreter, no switch: the removed options are ordinary
        # TypeErrors, not deprecated no-ops.
        db = chain_database()
        for call in (
            lambda: QueryEngine(db, parallelism=2),
            lambda: VirtualMachine(db, parallelism=2),
            lambda: VirtualMachine(db, dag_scheduling=False),
            lambda: KernelDispatcher(min_partition_rows=16),
            lambda: KernelDispatcher(max_morsel_output=16),
            lambda: KernelDispatcher(convert_threshold=1),
            lambda: KernelDispatcher(strassen_overhead=1.0),
            lambda: KernelDispatcher(omega=2.0),
        ):
            with pytest.raises(TypeError):
                call()


class TestEngineResultCache:
    def test_repeated_ask_hits_result_cache(self):
        db = chain_database()
        engine = QueryEngine(db, omega=OMEGA)
        first = engine.ask(CHAIN, strategy="yannakakis")
        second = engine.ask(CHAIN, strategy="yannakakis")
        assert first.answer == second.answer
        assert engine.result_cache_info().hits > 0

    def test_isomorphic_batch_shares_subplans(self):
        db = chain_database()
        renamed = parse_query("Q2() :- R(P, Q), S(Q, V), T(V, W)")
        engine = QueryEngine(db, omega=OMEGA)
        results = engine.ask_many([CHAIN, renamed], strategy="yannakakis")
        assert len({r.answer for r in results}) == 1
        stats = engine.result_cache_info()
        assert stats.hits > 0  # the renamed member reused cached results

    def test_mutation_invalidates_result_cache(self):
        db = chain_database()
        engine = QueryEngine(db, omega=OMEGA)
        engine.ask(CHAIN, strategy="yannakakis")
        hits_before = engine.result_cache_info().hits
        # Empty one relation: the answer must flip to False, cached results
        # keyed by the old fingerprint must not be served.
        db["R"] = Relation(("X", "Y"), [])
        result = engine.ask(CHAIN, strategy="yannakakis")
        assert result.answer is False
        assert engine.result_cache_info().hits == hits_before

    def test_result_cache_disabled(self):
        db = chain_database()
        engine = QueryEngine(db, omega=OMEGA, result_cache_size=0)
        engine.ask(CHAIN, strategy="yannakakis")
        engine.ask(CHAIN, strategy="yannakakis")
        stats = engine.result_cache_info()
        assert stats.hits == 0 and stats.size == 0


class TestExplainRendersDag:
    def test_explain_names_every_operator(self):
        db = triangle_instance(60, domain_size=14, seed=2, plant_triangle=True)
        engine = QueryEngine(db, omega=OMEGA)
        explanation = engine.explain(TRIANGLE, strategy="omega")
        assert explanation.program is not None
        text = explanation.describe()
        assert "operators:" in text
        for node in explanation.program.nodes():
            assert node.label() in text

    def test_explain_renders_dag_for_non_planning_strategies(self):
        db = chain_database()
        engine = QueryEngine(db, omega=OMEGA)
        explanation = engine.explain(CHAIN, strategy="yannakakis")
        assert explanation.program is not None
        assert "Scan" in explanation.describe()

    def test_per_step_traces_sum_to_execute_time(self):
        db = triangle_instance(80, domain_size=18, seed=5, plant_triangle=True)
        engine = QueryEngine(db, omega=OMEGA)
        result = engine.ask(TRIANGLE, strategy="omega")
        execution = result.execution
        assert execution is not None and execution.operators
        operator_seconds = sum(t.seconds for t in execution.operators)
        assert 0.0 < operator_seconds <= execution.seconds
        assert execution.seconds <= result.execute_seconds + 1e-9

    def test_cache_provenance_survives_ir_cached_plans(self):
        db = triangle_instance(60, domain_size=14, seed=4, plant_triangle=True)
        engine = QueryEngine(db, omega=OMEGA)
        first = engine.explain(TRIANGLE, strategy="omega")
        assert not first.cache_hit and first.program is not None
        second = engine.explain(TRIANGLE, strategy="omega")
        assert second.cache_hit  # the plan (and its IR) came from the cache
        assert second.program is not None
        assert second.program.root.skey == first.program.root.skey
        # The ask after an explain reuses the cached IR and reports it.
        result = engine.ask(TRIANGLE, strategy="omega")
        assert result.cache_hit and result.plan_source == "cache"
        assert result.program is not None

    def test_shape_signature_collision_does_not_share_programs(self, oracle):
        # These two queries share a shape signature (scopes are sorted
        # within atoms) and bind the same relations, but wire F's and G's
        # columns differently — the cached IR of one must not answer the
        # other.  Regression test for the order-sensitive binding check.
        q1 = parse_query("Q() :- E(X, Y), F(Y, X), G(X, Y)")
        q2 = parse_query("Q() :- E(X, Y), F(X, Y), G(Y, X)")
        db = Database(
            {
                "E": Relation(("A", "B"), [(1, 2)]),
                "F": Relation(("A", "B"), [(1, 2)]),
                "G": Relation(("A", "B"), [(2, 1)]),
            }
        )
        assert q1.shape_signature() == q2.shape_signature()
        engine = QueryEngine(db, omega=OMEGA)
        first = engine.ask(q1, strategy="omega")
        second = engine.ask(q2, strategy="omega")
        assert first.answer == bool(oracle(q1, db))
        assert second.answer == bool(oracle(q2, db))
        assert second.answer is True and first.answer is False

    def test_isomorphic_query_over_other_relations_relowers(self):
        db = triangle_instance(60, domain_size=14, seed=6, plant_triangle=True)
        both = Database(
            dict(list(db.items()) + [("A", db["R"]), ("B", db["S"]), ("C", db["T"])])
        )
        renamed = parse_query("Q() :- A(U, V), B(V, W), C(U, W)")
        engine = QueryEngine(both, omega=OMEGA)
        engine.ask(TRIANGLE, strategy="omega")
        result = engine.ask(renamed, strategy="omega")
        assert result.cache_hit  # the plan is shared ...
        assert result.program is not None
        scans = {n.relation for n in result.program.nodes() if n.kind() == "scan"}
        assert scans == {"A", "B", "C"}  # ... but the IR scans *its* relations
