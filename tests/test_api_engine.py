"""Tests for the public API layer: QueryEngine, strategies, plan cache."""

from __future__ import annotations

import pytest

from repro.api import (
    STRATEGIES,
    QueryEngine,
    Strategy,
    StrategyDisagreement,
    UnknownStrategyError,
)
from repro.api import engine as engine_module
from repro.constants import OMEGA_BEST_KNOWN
from repro.db import (
    Database,
    Relation,
    four_cycle_instance,
    parse_query,
    random_database,
    triangle_instance,
)
from repro.db.backends import ColumnarBackend
from repro.exec import Antijoin, NonEmpty, Program, Scan
from repro.exec.cache import LRUCache
from tests.conftest import LOAD_FORMS, load_database

OMEGA = OMEGA_BEST_KNOWN
TRIANGLE = parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z)")
FOUR_CYCLE = parse_query("Q() :- R(X, Y), S(Y, Z), T(Z, W), U(W, X)")


def constant_lowering(answer: bool) -> Program:
    """An exists program that ignores the query and reads only ``R``.

    ``True`` lowers to "R is non-empty" (it is, on every instance here) and
    ``False`` to the emptiness of ``R`` antijoined with itself.
    """
    scan = Scan("R", ("X", "Y"))
    return Program(NonEmpty(scan if answer else Antijoin(scan, scan)), source="constant")


def make_engine(num_edges=120, seed=1, **kwargs) -> QueryEngine:
    db = triangle_instance(num_edges, domain_size=24, seed=seed, plant_triangle=True)
    kwargs.setdefault("omega", OMEGA)
    return QueryEngine(db, **kwargs)


class TestRegistry:
    def test_builtins_registered(self):
        assert sorted(STRATEGIES) == ["generic_join", "naive", "omega", "yannakakis"]
        for name, strategy in STRATEGIES.items():
            assert strategy.name == name

    def test_unknown_strategy_is_value_error(self):
        engine = make_engine()
        with pytest.raises(UnknownStrategyError):
            engine.exists(TRIANGLE, strategy="magic")
        with pytest.raises(ValueError):
            engine.resolve_strategy(TRIANGLE, "magic")

    def test_strategy_without_lowering_raises_naming_it(self, monkeypatch):
        class NoLowering(Strategy):
            name = "no_lowering"

        monkeypatch.setitem(STRATEGIES, "no_lowering", NoLowering())
        engine = make_engine()
        with pytest.raises(NotImplementedError, match="'no_lowering'"):
            engine.exists(TRIANGLE, strategy="no_lowering")


class TestPlanCache:
    def test_second_ask_hits_cache_and_skips_planning(self):
        engine = make_engine()
        first = engine.exists(TRIANGLE, strategy="omega")
        assert not first.cache_hit
        assert first.plan_source == "planner"
        assert first.plan_seconds > 0
        second = engine.exists(TRIANGLE, strategy="omega")
        assert second.cache_hit
        assert second.plan_source == "cache"
        assert second.plan_seconds == 0.0
        assert second.answer == first.answer
        assert second.plan == first.plan
        stats = engine.cache_info()
        assert stats.hits == 1 and stats.misses == 1 and stats.size == 1

    def test_isomorphic_shape_shares_plan(self, oracle):
        db = triangle_instance(120, domain_size=24, seed=5)
        both = Database(
            dict(list(db.items()) + [("A", db["R"]), ("B", db["S"]), ("C", db["T"])])
        )
        engine = QueryEngine(both, omega=OMEGA)
        renamed = parse_query("Q() :- A(U, V), B(V, W), C(U, W)")
        assert TRIANGLE.shape_signature() == renamed.shape_signature()
        engine.exists(TRIANGLE, strategy="omega")
        result = engine.exists(renamed, strategy="omega")
        assert result.cache_hit
        result.plan.validate()
        assert result.answer == bool(oracle(renamed, both))

    def test_database_mutation_invalidates(self):
        engine = make_engine()
        engine.exists(TRIANGLE, strategy="omega")
        assert engine.exists(TRIANGLE, strategy="omega").cache_hit
        engine.database["R"] = engine.database["R"]  # same content, still a mutation
        after = engine.exists(TRIANGLE, strategy="omega")
        assert not after.cache_hit
        assert after.plan_source == "planner"

    def test_relation_delete_bumps_fingerprint(self):
        db = triangle_instance(30, domain_size=10, seed=0)
        before = db.fingerprint_for(["R", "S", "T"])
        del db["R"]
        assert db.fingerprint_for(["R", "S", "T"]) != before
        with pytest.raises(KeyError):
            del db["R"]

    def test_omega_changes_miss(self):
        engine = make_engine()
        engine.exists(TRIANGLE, strategy="omega", omega=2.0)
        result = engine.exists(TRIANGLE, strategy="omega", omega=3.0)
        assert not result.cache_hit

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(engine_module, "PLAN_CACHE_SIZE", 2)
        db = Database(
            {
                "R": Relation(("A", "B"), [(1, 2)]),
                "S": Relation(("B", "C"), [(2, 3)]),
                "T": Relation(("A", "C"), [(1, 3)]),
                "U": Relation(("C", "D"), [(3, 1)]),
            }
        )
        engine = QueryEngine(db, omega=OMEGA)
        four_cycle = parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z), U(Z, W)")
        path = parse_query("Q() :- R(X, Y), S(Y, Z)")
        engine.exists(TRIANGLE, strategy="omega")
        engine.exists(four_cycle, strategy="omega")
        engine.exists(path, strategy="omega")  # evicts the triangle entry
        stats = engine.cache_info()
        assert stats.evictions == 1 and stats.size == 2
        assert not engine.exists(TRIANGLE, strategy="omega").cache_hit

    def test_same_shape_different_relation_sizes_not_shared(self):
        small = triangle_instance(40, domain_size=12, seed=1)
        both = Database(dict(small.items()))
        big = triangle_instance(400, domain_size=40, seed=2)
        for name, source in (("A", "R"), ("B", "S"), ("C", "T")):
            both[name] = big[source]
        engine = QueryEngine(both, omega=OMEGA)
        engine.exists(TRIANGLE, strategy="omega")
        over_big = parse_query("Q() :- A(X, Y), B(Y, Z), C(X, Z)")
        result = engine.exists(over_big, strategy="omega")
        assert not result.cache_hit  # same shape, different statistics
        assert result.plan_source == "planner"

    def test_alias_strategies_do_not_share_cache_entries(self, monkeypatch):
        from repro.api.strategies import OmegaStrategy

        plan_calls = []

        class MyOmega(OmegaStrategy):
            name = "omega"  # deliberately the same .name as the built-in

            def plan(self, query, database, omega):
                plan_calls.append(query)
                return super().plan(query, database, omega)

        monkeypatch.setitem(STRATEGIES, "my_omega", MyOmega())
        engine = make_engine()
        engine.exists(TRIANGLE, strategy="omega")
        result = engine.exists(TRIANGLE, strategy="my_omega")
        assert not result.cache_hit  # the alias plans for itself
        assert plan_calls == [TRIANGLE]
        assert result.strategy == "my_omega"
        assert engine.exists(TRIANGLE, strategy="my_omega").cache_hit

    def test_cache_stats_hit_rate(self):
        from repro.core import all_for_loop_plan
        from repro.hypergraph import triangle

        cache = LRUCache(1)
        key = ("omega", (("v0", "v1"),), 2.0, (0, ()))
        assert cache.get(key) is None
        plan = all_for_loop_plan(triangle(), ["X", "Y", "Z"])
        cache.put(key, plan)
        assert cache.get(key) is plan
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == 0.5

    def test_clear_plan_cache(self):
        engine = make_engine()
        engine.exists(TRIANGLE, strategy="omega")
        engine.clear_plan_cache()
        assert not engine.exists(TRIANGLE, strategy="omega").cache_hit


class TestAsk:
    @pytest.mark.parametrize("strategy", ["naive", "generic_join", "omega"])
    def test_strategies_match_naive(self, strategy, oracle):
        for seed in range(3):
            db = triangle_instance(
                80, domain_size=18, seed=seed, plant_triangle=(seed % 2 == 0)
            )
            engine = QueryEngine(db, omega=OMEGA)
            result = engine.exists(TRIANGLE, strategy=strategy)
            assert result.answer == bool(oracle(TRIANGLE, db))
            assert result.seconds >= result.execute_seconds

    def test_auto_uses_yannakakis_for_acyclic(self):
        q = parse_query("Q() :- R(X, Y), S(Y, Z)")
        db = random_database(q, 30, seed=3, plant_witness=True)
        result = QueryEngine(db, omega=OMEGA).exists(q)
        assert result.strategy == "yannakakis"
        assert result.answer

    def test_yannakakis_rejected_for_cyclic(self):
        engine = make_engine()
        with pytest.raises(ValueError):
            engine.exists(TRIANGLE, strategy="yannakakis")

    def test_explicit_plan_bypasses_cache(self):
        from repro.core import all_for_loop_plan
        from repro.hypergraph import triangle

        engine = make_engine()
        plan = all_for_loop_plan(triangle(), ["Z", "Y", "X"])
        result = engine.exists(TRIANGLE, plan=plan)
        assert result.strategy == "omega"
        assert result.plan_source == "given"
        assert result.answer
        assert engine.cache_info().misses == 0

    def test_explicit_plan_needs_plan_based_strategy(self):
        from repro.core import all_for_loop_plan
        from repro.hypergraph import triangle

        engine = make_engine()
        plan = all_for_loop_plan(triangle(), ["X", "Y", "Z"])
        with pytest.raises(ValueError, match="does not execute plans"):
            engine.exists(TRIANGLE, strategy="naive", plan=plan)

    def test_describe_mentions_timing_breakdown(self):
        engine = make_engine()
        result = engine.exists(TRIANGLE, strategy="omega")
        text = result.describe()
        assert "plan" in text and "execute" in text and "strategy" in text


class TestAskMany:
    def test_batch_groups_isomorphic_shapes(self, oracle):
        db = triangle_instance(100, domain_size=20, seed=7)
        both = Database(
            dict(list(db.items()) + [("A", db["R"]), ("B", db["S"]), ("C", db["T"])])
        )
        renamed = parse_query("Q() :- A(U, V), B(V, W), C(U, W)")
        engine = QueryEngine(both, omega=OMEGA)
        results = engine.ask_many([TRIANGLE, renamed, TRIANGLE], strategy="omega")
        assert len(results) == 3
        assert [r.query for r in results] == [TRIANGLE, renamed, TRIANGLE]
        assert not results[0].cache_hit
        assert results[1].cache_hit and results[2].cache_hit
        answers = {r.answer for r in results}
        assert answers == {bool(oracle(TRIANGLE, both))}

    def test_batch_does_not_share_across_different_sizes(self):
        small = triangle_instance(30, domain_size=10, seed=1)
        big = triangle_instance(300, domain_size=30, seed=2)
        both = Database(dict(small.items()))
        for name, source in (("A", "R"), ("B", "S"), ("C", "T")):
            both[name] = big[source]
        over_big = parse_query("Q() :- A(X, Y), B(Y, Z), C(X, Z)")
        engine = QueryEngine(both, omega=OMEGA)
        results = engine.ask_many([TRIANGLE, over_big], strategy="omega")
        # Same shape but different relation statistics: both plan afresh.
        assert [r.plan_source for r in results] == ["planner", "planner"]

    def test_batch_mixed_strategies_auto(self):
        q_acyclic = parse_query("Q() :- R(X, Y), S(Y, Z)")
        db = triangle_instance(60, domain_size=14, seed=2)
        engine = QueryEngine(db, omega=OMEGA)
        results = engine.ask_many([TRIANGLE, q_acyclic])
        assert results[0].strategy == "omega"
        assert results[1].strategy == "yannakakis"


class TestExplain:
    def test_explain_reports_plan_without_execution(self):
        engine = make_engine()
        explanation = engine.explain(TRIANGLE, strategy="omega")
        assert explanation.strategy == "omega"
        assert explanation.planned is not None
        assert not explanation.is_acyclic
        assert "eliminate" in explanation.describe()

    def test_explain_warms_the_cache(self):
        engine = make_engine()
        engine.explain(TRIANGLE, strategy="omega")
        assert engine.exists(TRIANGLE, strategy="omega").cache_hit

    def test_explain_rejects_unsupported_strategy(self):
        engine = make_engine()
        with pytest.raises(ValueError, match="does not support"):
            engine.explain(TRIANGLE, strategy="yannakakis")

    def test_explain_with_widths(self):
        engine = make_engine()
        explanation = engine.explain(TRIANGLE, strategy="omega", include_widths=True)
        values = dict(explanation.widths)
        assert pytest.approx(1.5) == values["fractional edge cover ρ*"]
        assert pytest.approx(1.5) == values["fractional hypertree width"]


class TestCompareAndDisagreement:
    def test_compare_agrees(self):
        engine = make_engine()
        results = engine.compare(TRIANGLE)
        assert set(results) == {"naive", "generic_join", "omega"}
        assert len({r.answer for r in results.values()}) == 1

    def test_disagreement_carries_answers(self, monkeypatch):
        class ConstantFalse(Strategy):
            name = "constant_false"

            def lower(self, query, database, omega, plan=None, verb="exists"):
                return constant_lowering(False)

        monkeypatch.setitem(STRATEGIES, "constant_false", ConstantFalse())
        engine = make_engine()  # plants a triangle: naive says True
        with pytest.raises(StrategyDisagreement) as excinfo:
            engine.compare(TRIANGLE, ["naive", "constant_false"])
        error = excinfo.value
        assert error.answers == {"naive": True, "constant_false": False}
        assert error.query is TRIANGLE
        assert set(error.results) == {"naive", "constant_false"}
        assert isinstance(error, AssertionError)  # legacy contract


class TestBackCompatWrappers:
    """What the deleted ``repro.core.engine`` free functions did, on the engine.

    They built a throwaway engine per call; the tests keep their names and
    check that one-shot engine directly.
    """

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("strategy", ["naive", "generic_join", "omega", "auto"])
    def test_answer_boolean_query_matches_engine(self, seed, strategy, oracle):
        db = triangle_instance(
            70, domain_size=16, seed=seed, plant_triangle=(seed % 2 == 0)
        )
        one_shot = QueryEngine(db, omega=OMEGA).exists(
            TRIANGLE, strategy
        )
        engine_result = QueryEngine(db, omega=OMEGA).exists(TRIANGLE, strategy=strategy)
        assert one_shot.answer == engine_result.answer == bool(oracle(TRIANGLE, db))
        assert one_shot.strategy == engine_result.strategy

    def test_compare_strategies_matches_engine(self):
        db = four_cycle_instance(60, domain_size=14, seed=2, plant_cycle=True)
        reports = QueryEngine(db, omega=OMEGA).compare(FOUR_CYCLE)
        assert len({r.answer for r in reports.values()}) == 1
        assert set(reports) == {"naive", "generic_join", "omega"}

    def test_compare_strategies_raises_strategy_disagreement(self, monkeypatch):
        class ConstantFalse2(Strategy):
            name = "constant_false2"

            def lower(self, query, database, omega, plan=None, verb="exists"):
                return constant_lowering(False)

        monkeypatch.setitem(STRATEGIES, "constant_false2", ConstantFalse2())
        db = triangle_instance(50, domain_size=12, seed=0, plant_triangle=True)
        engine = QueryEngine(db)
        with pytest.raises(StrategyDisagreement):
            engine.compare(TRIANGLE, ["naive", "constant_false2"])
        with pytest.raises(AssertionError):
            engine.compare(TRIANGLE, ["naive", "constant_false2"])


class TestCanonicalSignatures:
    def test_isomorphic_queries_share_signature(self):
        a = parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z)")
        b = parse_query("Q() :- Edge1(C, A), Edge2(A, B), Edge3(B, C)")
        assert a.shape_signature() == b.shape_signature()

    def test_non_isomorphic_queries_differ(self):
        triangle = parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z)")
        path = parse_query("Q() :- R(X, Y), S(Y, Z), T(Z, W)")
        assert triangle.shape_signature() != path.shape_signature()

    def test_four_cycle_signature_invariant_under_rotation(self):
        a = parse_query("Q() :- R(X, Y), S(Y, Z), T(Z, W), U(W, X)")
        b = parse_query("Q() :- R(W, X), S(X, Y), T(Y, Z), U(Z, W)")
        assert a.shape_signature() == b.shape_signature()

    def test_mapping_is_a_bijection(self):
        mapping = FOUR_CYCLE.canonical_mapping()
        assert set(mapping) == set(FOUR_CYCLE.variables)
        assert len(set(mapping.values())) == len(mapping)


class TestStrictParsing:
    def test_unbalanced_atom_raises(self):
        with pytest.raises(ValueError, match="unparsed text"):
            parse_query("Q() :- R(X, Y), S(Y, Z")

    def test_garbage_between_atoms_raises(self):
        with pytest.raises(ValueError, match="unparsed text"):
            parse_query("R(X, Y) AND S(Y, Z)")

    def test_malformed_variable_raises(self):
        with pytest.raises(ValueError, match="malformed variable"):
            parse_query("R(X, Y), S(Y Z)")

    def test_doubled_comma_raises(self):
        with pytest.raises(ValueError, match="malformed variable"):
            parse_query("Q() :- R(X,,Y), S(Y, Z)")

    def test_missing_comma_between_atoms_raises(self):
        with pytest.raises(ValueError, match="single comma"):
            parse_query("Q() :- R(X, Y) S(Y, Z)")

    def test_trailing_comma_raises(self):
        with pytest.raises(ValueError, match="unparsed text"):
            parse_query("Q() :- R(X, Y), S(Y, Z),")

    def test_lenient_mode_keeps_old_behaviour(self):
        query = parse_query("R(X, Y) AND S(Y, Z)", strict=False)
        assert len(query.atoms) == 2
        assert len(parse_query("R(X,,Y)", strict=False).atoms[0].variables) == 2

    @pytest.mark.parametrize("verb", ["exists", "count", "select"])
    def test_query_text_is_a_type_error_naming_parse_query(self, verb):
        engine = make_engine()
        with pytest.raises(TypeError, match="parse_query"):
            getattr(engine, verb)("Q() :- R(X, Y), S(Y, Z), T(X, Z)")

    def test_well_formed_queries_still_parse(self):
        query = parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z)")
        assert sorted(query.variables) == ["X", "Y", "Z"]
        body_only = parse_query("R(X', Y), S(Y, Z)")
        assert len(body_only.atoms) == 2


class TestStorageBackends:
    def test_plan_cache_behaviour_is_backend_independent(self):
        for form in LOAD_FORMS:
            db = load_database(form, triangle_instance(80, domain_size=20, seed=5).items())
            engine = QueryEngine(db, omega=OMEGA)
            first = engine.exists(TRIANGLE, strategy="omega")
            second = engine.exists(TRIANGLE, strategy="omega")
            assert not first.cache_hit and second.cache_hit
            assert first.answer == second.answer

    def test_database_backend_coerces_assignments(self):
        # The one backend name still accepted stores relations as usual.
        db = Database(backend="columnar")
        db["R"] = Relation(("X", "Y"), [(1, 2)])
        assert type(db["R"]._backend) is ColumnarBackend
        copied = db.copy()
        assert copied["R"].rows == {(1, 2)} and copied["R"].name == "R"

    def test_bulk_load_single_version_bump(self, oracle):
        db = Database()
        db.bulk_load(
            {
                "R": Relation(("X", "Y"), [(1, 2)]),
                "S": (("Y", "Z"), [(2, 3)]),
            },
            T=(("X", "Z"), [(1, 3)]),
        )
        assert [db.relation_version(name) for name in "RST"] == [1, 1, 1]
        assert set(db) == {"R", "S", "T"}
        assert oracle(TRIANGLE, db)

    def test_fingerprint_carries_relation_statistics(self):
        db = Database()
        db["R"] = Relation(("X", "Y"), [(1, 2), (1, 3)])
        assert db["R"].stats.fingerprint() == (2, (1, 2))

    def test_database_stats_view(self):
        db = triangle_instance(30, domain_size=10, seed=1)
        stats = db.stats()
        assert set(stats) == {"R", "S", "T"}
        assert stats["R"].n_rows == len(db["R"])

    def test_invalid_backend_name_rejected_up_front(self):
        # "columnar" (what the ledger passes) and None name the one store;
        # any other name raises.
        for accepted in ("columnar", None):
            db = Database(backend=accepted)
            db["R"] = Relation(("X",), [(1,)])
            assert db["R"].rows == {(1,)}
        for rejected in ("set", "nope"):
            with pytest.raises(ValueError):
                Database(backend=rejected)

    def test_bulk_load_rejects_malformed_specs(self):
        db = Database()
        with pytest.raises(TypeError):
            db.bulk_load(R="xy")  # a string is not a (schema, rows) pair
        with pytest.raises(TypeError):
            db.bulk_load(R=42)
