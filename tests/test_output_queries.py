"""The output-aware query API: exists / count / select across the stack.

The differential core mirrors ``tests/test_backends_differential.py``: for
every (strategy × input form × shape) case on seeded random instances,
``count`` must equal the brute-force distinct-output count, ``select`` must
enumerate exactly the brute-force tuple set in its deterministic order,
and ``exists`` must answer exactly like the pre-verb ``ask``.  Around that sit the API-surface
tests: ResultSet laziness/limit/fetch semantics, UnsupportedWorkload on the
exists-only ω strategy with registry fallback, QueryParseError spans,
``QueryResult.to_dict`` round-tripping, and plan/result-cache invalidation
through ``bulk_load``.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.api import (
    QueryEngine,
    QueryParseError,
    ResultSet,
    Strategy,
    StrategyDisagreement,
    StrategyRegistry,
    UnsupportedWorkload,
    register_strategy,
    row_order_key,
)
from repro.constants import OMEGA_BEST_KNOWN
from repro.db import (
    Database,
    Relation,
    parse_query,
    random_database,
    triangle_instance,
)
from repro.exec.lower import lower_naive, lower_yannakakis
from tests.conftest import LOAD_FORMS, load_database

#: Output-producing variants of the differential shapes.
SHAPES = {
    "path2": "Q(X, Z) :- R(X, Y), S(Y, Z)",
    "chain3": "Q(X, W) :- R(X, Y), S(Y, Z), T(Z, W)",
    "star": "Q(C) :- R(C, X), S(C, Y), T(C, Z)",
    "triangle": "Q(X, Y, Z) :- R(X, Y), S(Y, Z), T(X, Z)",
    "four_cycle": "Q(X, Z) :- R(X, Y), S(Y, Z), T(Z, W), U(W, X)",
    "disconnected": "Q(X, W) :- R(X, Y), S(Z, W)",
    "boolean_head": "Q() :- R(X, Y), S(Y, Z)",
}

SEEDS = range(6)


def brute_force_outputs(query, database):
    """All distinct output tuples by exhaustive consistent assignment."""
    assignments = [{}]
    for atom in query.atoms:
        relation = database[atom.relation]
        extended = []
        for partial in assignments:
            for row in relation.rows:
                candidate = dict(partial)
                ok = True
                for variable, value in zip(atom.variables, row):
                    if candidate.get(variable, value) != value:
                        ok = False
                        break
                    candidate[variable] = value
                if ok:
                    extended.append(candidate)
        assignments = extended
        if not assignments:
            break
    return {
        tuple(a[v] for v in query.output_variables) for a in assignments
    }


def _case_parameters(shape: str, seed: int):
    rng = random.Random(f"out:{shape}:{seed}")
    tuples = rng.choice([4, 8, 15, 22])
    domain = rng.choice([3, 4, 6, 8])
    plant = rng.random() < 0.3
    return tuples, domain, plant


def _strategies(query):
    names = ["naive", "generic_join"]
    if query.is_acyclic():
        names.append("yannakakis")
    return names


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_count_and_select_match_brute_force(shape, seed):
    query = parse_query(SHAPES[shape])
    tuples, domain, plant = _case_parameters(shape, seed)
    generated = random_database(
        query, tuples, domain_size=domain, seed=seed, plant_witness=plant
    )
    for form in LOAD_FORMS:
        database = load_database(form, generated.items())
        expected = brute_force_outputs(query, database)
        expected_rows = sorted(expected)
        engine = QueryEngine(database)
        for strategy in _strategies(query):
            label = f"{shape} seed={seed} form={form} strategy={strategy}"
            counted = engine.count(query, strategy=strategy)
            assert counted.row_count == len(expected), label
            assert counted.verb == "count"
            assert counted.answer == (len(expected) > 0)
            rows = engine.select(query, strategy=strategy).to_rows()
            assert rows == sorted(rows, key=row_order_key)  # deterministic order
            assert set(rows) == expected, label
            assert len(rows) == len(expected), label  # distinct
            # exists agrees with the count being positive and with ask().
            exists = engine.exists(query, strategy=strategy)
            assert exists.answer == (len(expected) > 0), label
            assert engine.ask(query, strategy=strategy).answer == exists.answer


@pytest.mark.parametrize("shape", ["path2", "triangle", "chain3"])
def test_select_limits_are_prefixes_of_the_full_order(shape):
    query = parse_query(SHAPES[shape])
    database = random_database(query, 25, domain_size=6, seed=7, plant_witness=True)
    engine = QueryEngine(database)
    full = engine.select(query).to_rows()
    total = len(full)
    assert total > 0
    for k in (0, 1, 2, total, total + 5):
        limited = engine.select(query, limit=k, order="sorted").to_rows()
        assert limited == full[: min(k, total)]
        assert len(limited) == min(k, total)
        # The default (stream) order keeps the set/cardinality contract.
        streamed = engine.select(query, limit=k).to_rows()
        assert len(streamed) == min(k, total)
        assert set(streamed) <= set(full)
    assert engine.count(query).row_count == total


def test_exists_matches_pre_verb_ask_on_differential_cases():
    """`exists` answers byte-identically to `ask` across the old suite."""
    from test_backends_differential import (
        SHAPES as BOOLEAN_SHAPES,
        _case_parameters as boolean_parameters,
    )

    for shape in sorted(BOOLEAN_SHAPES):
        query = parse_query(BOOLEAN_SHAPES[shape])
        for seed in range(3):
            tuples, domain, plant = boolean_parameters(shape, seed)
            database = random_database(
                query, tuples, domain_size=domain, seed=seed, plant_witness=plant
            )
            engine = QueryEngine(database)
            asked = engine.ask(query)
            existed = engine.exists(query)
            assert asked.answer == existed.answer
            assert asked.verb == existed.verb == "exists"
            assert existed.row_count is None


class TestResultSet:
    def _engine(self):
        db = Database(
            {
                "R": Relation(("A", "B"), [(1, 2), (2, 3), (1, 3), (4, 2)]),
                "S": Relation(("A", "B"), [(2, 5), (3, 6), (3, 5)]),
            }
        )
        return QueryEngine(db)

    def test_lazy_until_pulled(self):
        engine = self._engine()
        calls = []
        query = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
        original = engine._ask

        def counting_ask(*args, **kwargs):
            calls.append(kwargs.get("verb"))
            return original(*args, **kwargs)

        engine._ask = counting_ask
        result_set = engine.select(query)
        assert isinstance(result_set, ResultSet)
        assert not result_set.executed
        assert calls == []  # nothing ran yet
        rows = result_set.to_rows()
        assert result_set.executed and calls == ["select"]
        assert result_set.to_rows() == rows
        assert calls == ["select"]  # ran exactly once
        assert result_set.result.verb == "select"
        assert result_set.result.row_count == len(rows)
        assert result_set.result.relation is not None

    def test_fetch_cursor_and_batches(self):
        engine = self._engine()
        query = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
        result_set = engine.select(query, batch_size=2)
        rows = result_set.to_rows()
        assert len(rows) >= 3
        assert result_set.fetch(2) == rows[:2]
        assert result_set.fetch(2) == rows[2:4]
        result_set.rewind()
        assert result_set.fetch(1) == rows[:1]
        assert [len(batch) <= 2 for batch in result_set.batches()]
        assert [row for batch in result_set.batches() for row in batch] == rows
        assert list(result_set) == rows
        assert sorted(result_set) == rows  # already deterministically sorted

    def test_iteration_and_len(self):
        engine = self._engine()
        query = parse_query("Q(X) :- R(X, Y), S(Y, Z)")
        result_set = engine.select(query)
        assert len(result_set) == len(set(result_set.to_rows()))
        assert result_set.columns == ("X",)

    def test_invalid_arguments(self):
        engine = self._engine()
        query = parse_query("Q(X) :- R(X, Y), S(Y, Z)")
        with pytest.raises(ValueError):
            engine.select(query, limit=-1)
        with pytest.raises(ValueError):
            engine.select(query, batch_size=0)
        with pytest.raises(ValueError):
            engine.select(query).fetch(-1)

    def test_select_validates_eagerly(self):
        engine = self._engine()
        with pytest.raises(KeyError):
            engine.select(parse_query("Q(X) :- Missing(X, Y)"))


class TestVerbResolution:
    def _db(self):
        return triangle_instance(40, domain_size=12, seed=3, plant_triangle=True)

    def test_omega_is_exists_only(self):
        engine = QueryEngine(self._db(), omega=OMEGA_BEST_KNOWN)
        triangle = parse_query("Q(X, Y, Z) :- R(X, Y), S(Y, Z), T(X, Z)")
        with pytest.raises(UnsupportedWorkload):
            engine.count(triangle, strategy="omega")
        with pytest.raises(UnsupportedWorkload):
            engine.select(triangle, strategy="omega")
        with pytest.raises(NotImplementedError):  # subclass contract
            engine.count(triangle, strategy="omega")
        # auto falls back to the WCOJ search on the cyclic body instead.
        counted = engine.count(triangle)
        assert counted.strategy == "generic_join"
        assert counted.row_count > 0

    def test_auto_prefers_yannakakis_for_acyclic_outputs(self):
        engine = QueryEngine(self._db())
        path = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
        assert engine.count(path).strategy == "yannakakis"
        assert engine.select(path).result.strategy == "yannakakis"

    def test_auto_fallback_without_generic_join(self):
        registry = QueryEngine(self._db()).registry.copy()
        registry.unregister("generic_join")
        engine = QueryEngine(self._db(), registry=registry)
        triangle = parse_query("Q(X) :- R(X, Y), S(Y, Z), T(X, Z)")
        counted = engine.count(triangle)  # cyclic: falls back to naive
        assert counted.strategy == "naive"
        assert counted.row_count > 0

    def test_unorderable_values_still_sort_deterministically(self):
        database = Database(
            {"R": Relation(("A", "B"), [(1j, 1), (2j, 2), (1 + 1j, 3)])}
        )
        engine = QueryEngine(database)
        query = parse_query("Q(A) :- R(A, B)")
        rows = engine.select(query).to_rows()
        assert len(rows) == 3
        assert rows == engine.select(query).to_rows()  # stable order

    def test_mixed_type_limits_are_prefixes_of_the_full_order(self):
        # The comparator is chosen from the value types alone, so a limit
        # can never take a different path than the full sort (natural
        # comparison might "succeed" on the few pairs a bounded selection
        # happens to compare while the full sort would raise).
        database = Database(
            {
                "R": Relation(
                    ("A", "B"),
                    [(0, "a"), (0.5, 1), (1, "a"), (1, 5), ("z", 0)],
                )
            }
        )
        engine = QueryEngine(database)
        query = parse_query("Q(A, B) :- R(A, B)")
        full = engine.select(query).to_rows()
        assert len(full) == 5
        for k in range(1, 6):
            assert (
                engine.select(query, limit=k, order="sorted").to_rows() == full[:k]
            )

    def test_nan_outputs_keep_the_limit_prefix_contract(self):
        nan = float("nan")
        database = Database(
            {"R": Relation(("A", "B"), [(nan, 1.0), (2.0, 1.0), (0.5, 1.0)])}
        )
        engine = QueryEngine(database)
        query = parse_query("Q(A) :- R(A, B)")
        full = engine.select(query).to_rows()
        assert len(full) == 3
        # Real floats sort first, NaN canonicalizes to the end.
        assert full[:2] == [(0.5,), (2.0,)]
        assert full[2][0] != full[2][0]  # the NaN row
        for k in (1, 2, 3):
            limited = engine.select(query, limit=k, order="sorted").to_rows()
            assert [repr(r) for r in limited] == [repr(r) for r in full[:k]]

    def test_auto_exhausted_error_does_not_advise_auto(self):
        registry = StrategyRegistry()  # no verb-capable strategies at all
        engine = QueryEngine(self._db(), registry=registry)
        with pytest.raises(UnsupportedWorkload, match="no registered strategy"):
            engine.count(parse_query("Q(X) :- R(X, Y)"))

    def test_explicit_plan_rejected_for_output_verbs(self):
        engine = QueryEngine(self._db(), omega=OMEGA_BEST_KNOWN)
        triangle = parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z)")
        plan = engine.ask(triangle, strategy="omega").plan
        with pytest.raises(ValueError, match="exists"):
            engine._ask(triangle, "omega", plan=plan, verb="count")

    def test_unknown_verb_rejected(self):
        engine = QueryEngine(self._db())
        with pytest.raises(ValueError, match="verb"):
            engine._ask(parse_query("Q() :- R(X, Y)"), verb="sum")
        # The public resolver fails fast on typo'd verbs too, instead of
        # silently resolving to the exists-only omega strategy.
        with pytest.raises(ValueError, match="verb"):
            engine.resolve_strategy(parse_query("Q() :- R(X, Y)"), verb="Count")

    def test_exists_plan_cache_shared_across_heads(self):
        engine = QueryEngine(self._db(), omega=OMEGA_BEST_KNOWN)
        boolean = parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z)")
        headed = parse_query("Q(X) :- R(X, Y), S(Y, Z), T(X, Z)")
        first = engine.ask(boolean, strategy="omega")
        second = engine.exists(headed, strategy="omega")
        assert not first.cache_hit
        assert second.cache_hit  # exists ignores heads: one shared plan
        assert first.answer == second.answer


class TestVerbBatchesAndCompare:
    def test_ask_many_count_verb(self):
        query = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
        database = random_database(query, 20, domain_size=5, seed=1)
        engine = QueryEngine(database)
        renamed = parse_query("Q(U, W) :- R(U, V), S(V, W)")
        results = engine.ask_many([query, renamed], verb="count")
        expected = len(brute_force_outputs(query, database))
        assert [r.row_count for r in results] == [expected, expected]
        assert all(r.verb == "count" for r in results)

    def test_ask_many_select_returns_lazy_result_sets(self):
        query = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
        database = random_database(query, 20, domain_size=5, seed=1)
        engine = QueryEngine(database)
        expected = brute_force_outputs(query, database)
        cursors = engine.ask_many([query, query], verb="select", limit=2)
        assert all(not cursor.executed for cursor in cursors)
        for cursor in cursors:
            rows = cursor.to_rows()
            assert len(rows) == min(2, len(expected))
            assert set(rows) <= expected
        # limit/order are select-only knobs.
        with pytest.raises(ValueError, match="select"):
            engine.ask_many([query], verb="count", limit=2)
        with pytest.raises(ValueError, match="verbs"):
            engine.ask_many([query], verb="nonsense")

    def test_compare_across_verbs(self):
        query = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
        database = random_database(query, 18, domain_size=5, seed=2)
        engine = QueryEngine(database)
        for verb in ("exists", "count", "select"):
            results = engine.compare(query, verb=verb)
            assert "naive" in results and "generic_join" in results
            if verb != "exists":
                assert "omega" not in results
                counts = {r.row_count for r in results.values()}
                assert len(counts) == 1

    def test_compare_disagreement_carries_verb(self):
        registry = StrategyRegistry()

        @register_strategy(registry=registry)
        class WrongCount(Strategy):
            name = "wrong"
            verbs = ("exists", "count", "select")

            def lower(self, query, database, omega, plan=None, verb="exists"):
                # Lower a single-atom program: wrong for multi-atom queries.
                return lower_naive(
                    type(query)(query.atoms[:1], query.name, query.output_variables),
                    verb=verb,
                )

        @register_strategy(registry=registry)
        class Good(Strategy):
            name = "good"
            verbs = ("exists", "count", "select")

            def lower(self, query, database, omega, plan=None, verb="exists"):
                return lower_naive(query, verb=verb)

        query = parse_query("Q(X) :- R(X, Y), S(Y, Z)")
        database = Database(
            {
                "R": Relation(("A", "B"), [(1, 2), (5, 9)]),
                "S": Relation(("A", "B"), [(2, 3)]),
            }
        )
        engine = QueryEngine(database, registry=registry)
        with pytest.raises(StrategyDisagreement) as info:
            engine.compare(query, ["wrong", "good"], verb="count")
        assert info.value.verb == "count"
        assert info.value.answers["good"] == 1


class TestCountKernel:
    @pytest.mark.parametrize("seed", range(10))
    def test_count_distinct_matches_reference(self, seed):
        rng = random.Random(seed)
        schema = ("X", "Y", "Z")[: rng.randint(1, 3)]
        rows = [
            tuple(rng.randint(0, 4) for _ in schema)
            for _ in range(rng.randint(0, 30))
        ]
        relation = Relation(schema, rows)
        for width in range(len(schema) + 1):
            kept = list(schema[:width])
            expected = len({row[:width] for row in rows})  # {()} when rows exist
            assert relation.count_distinct(kept) == expected

    def test_duplicate_projection_variables_rejected(self):
        relation = Relation(("X", "Y"), [(1, 2)])
        with pytest.raises(ValueError):
            relation.count_distinct(["X", "X"])


class TestParseErrors:
    def test_span_and_fragment_on_unparsed_text(self):
        text = "Q() :- R(X, Y), S(Y, Z"
        with pytest.raises(QueryParseError) as info:
            parse_query(text)
        error = info.value
        assert isinstance(error, ValueError)
        assert error.source == text
        start, end = error.span
        assert text[start:end] == error.fragment
        assert "S(Y, Z" in error.fragment
        assert "unparsed text" in str(error)

    def test_span_points_at_malformed_variable(self):
        text = "Q() :- R(X, Y), S(Y Z)"
        with pytest.raises(QueryParseError) as info:
            parse_query(text)
        error = info.value
        assert error.fragment == "Y Z"
        assert text[error.span[0]: error.span[1]] == "Y Z"

    def test_span_points_at_bad_head(self):
        text = "Q(X Y) :- R(X, Y)"
        with pytest.raises(QueryParseError) as info:
            parse_query(text)
        assert info.value.fragment == "X Y"

    def test_unknown_head_variable_is_parse_error(self):
        with pytest.raises(QueryParseError, match="output variables"):
            parse_query("Q(A) :- R(X, Y)")

    def test_repeated_atom_variable_wrapped_with_span(self):
        text = "Q() :- R(X, X)"
        with pytest.raises(QueryParseError) as info:
            parse_query(text)
        assert info.value.fragment == "R(X, X)"

    def test_extra_head_atoms_rejected_not_dropped(self):
        # A silently dropped head fragment would silently change the
        # output semantics of count/select.
        with pytest.raises(QueryParseError, match="head"):
            parse_query("P(X), Q(Z) :- R(X, Y), S(Y, Z)")
        with pytest.raises(QueryParseError, match="head"):
            parse_query("Q(X) extra :- R(X, Y)")
        with pytest.raises(QueryParseError, match="head"):
            parse_query("not a name :- R(X, Y)")
        # Lenient mode keeps the historical first-atom behaviour.
        lenient = parse_query("P(X), Q(Z) :- R(X, Y), S(Y, Z)", strict=False)
        assert lenient.output_variables == ("X",)

    def test_bare_name_heads_still_parse(self):
        assert parse_query("Q :- R(X, Y)").name == "Q"
        assert parse_query("Q'() :- R(X, Y)").name == "Q'"


class TestToDict:
    def test_json_round_trip(self):
        query = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
        database = random_database(query, 15, domain_size=5, seed=4)
        engine = QueryEngine(database)
        for result in (
            engine.exists(query),
            engine.count(query),
            engine.select(query).result,
        ):
            document = result.to_dict()
            round_tripped = json.loads(json.dumps(document))
            assert round_tripped == document
            assert document["verb"] == result.verb
            assert document["output_variables"] == list(query.output_variables)
            assert document["strategy"] == result.strategy
            assert isinstance(document["trace"], list)
            assert document["trace"], "trace summary must not be empty"
            for op in document["trace"]:
                assert set(op) >= {"kind", "rows_in", "rows_out", "kernel"}

    def test_count_row_count_serialized(self):
        query = parse_query("Q(X) :- R(X, Y)")
        database = Database({"R": Relation(("A", "B"), [(1, 2), (1, 3), (2, 2)])})
        document = QueryEngine(database).count(query).to_dict()
        assert document["row_count"] == 2
        assert document["answer"] is True


class TestCacheInvalidation:
    """bulk_load must invalidate both engine caches."""

    TRIANGLE = parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z)")

    def _warm(self, engine):
        first = engine.ask(self.TRIANGLE, strategy="omega")
        second = engine.ask(self.TRIANGLE, strategy="omega")
        assert not first.cache_hit and second.cache_hit
        return first.answer

    def test_bulk_load_invalidates_plan_and_result_caches(self):
        database = triangle_instance(40, domain_size=10, seed=5, plant_triangle=True)
        engine = QueryEngine(database, omega=OMEGA_BEST_KNOWN)
        assert self._warm(engine) is True
        result_hits_before = engine.result_cache_info().hits
        fingerprint_before = database.fingerprint_for(database)
        database.bulk_load({"R": (("X", "Y"), [])})  # drop every R edge
        assert database.fingerprint_for(database) != fingerprint_before
        refreshed = engine.ask(self.TRIANGLE, strategy="omega")
        assert refreshed.answer is False
        assert not refreshed.cache_hit  # the plan cache saw the new fingerprint
        assert refreshed.plan_source == "planner"
        # The result cache is keyed by fingerprint too: nothing may hit.
        assert engine.result_cache_info().hits == result_hits_before


class TestLoweringShapes:
    def test_select_program_has_enumeration_sink(self):
        query = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
        database = random_database(query, 10, domain_size=4, seed=0)
        engine = QueryEngine(database)
        explanation = engine.explain(query, verb="select")
        described = explanation.program.describe()
        assert "Enumerate" in described
        assert explanation.verb == "select"
        assert explanation.output_variables == ("X", "Z")

    def test_count_program_has_count_sink(self):
        query = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
        database = random_database(query, 10, domain_size=4, seed=0)
        engine = QueryEngine(database)
        described = engine.explain(query, verb="count").program.describe()
        assert "Count[X, Z]" in described
        assert "-> int" in described

    def test_yannakakis_full_reducer_calibrates_both_directions(self):
        query = parse_query("Q(X, W) :- R(X, Y), S(Y, Z), T(Z, W)")
        program = lower_yannakakis(query, verb="count")
        described = program.describe()
        # Upward + downward passes: strictly more semijoins than the
        # Boolean program's single upward pass.
        boolean = lower_yannakakis(query, verb="exists").describe()
        assert described.count("Semijoin") > boolean.count("Semijoin")
        assert "Count" in described

    def test_boolean_head_count_skips_enumeration_machinery(self):
        query = parse_query("Q() :- R(X, Y), S(Y, Z), T(Z, W)")
        described = lower_yannakakis(query, verb="count").describe()
        # Upward pass + Count sink only: no downward calibration joins.
        assert "Join" not in described
        assert "Count[()]" in described
        # The WCOJ lowering likewise keeps the early-terminating search.
        from repro.exec.lower import lower_generic_join

        program = lower_generic_join(
            query, sorted(query.variables), verb="count"
        )
        assert "first" in program.root.children[0].label()  # find_all=False

    def test_exists_lowering_unchanged(self):
        query = parse_query("Q() :- R(X, Y), S(Y, Z)")
        assert (
            lower_yannakakis(query).describe()
            == lower_yannakakis(query, verb="exists").describe()
        )


class TestOutputSignatures:
    def test_output_signature_distinguishes_heads(self):
        a = parse_query("Q(X) :- R(X, Y), S(Y, Z)")
        b = parse_query("Q(Z) :- R(X, Y), S(Y, Z)")
        assert a.shape_signature() == b.shape_signature()
        assert a.output_signature() != b.output_signature()

    def test_isomorphic_output_queries_share_signatures(self):
        a = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
        b = parse_query("Q(U, W) :- A(U, V), B(V, W)")
        assert a.shape_signature() == b.shape_signature()
        assert a.output_signature() == b.output_signature()

    def test_with_outputs(self):
        q = parse_query("Q() :- R(X, Y)")
        widened = q.with_outputs(("Y",))
        assert widened.output_variables == ("Y",)
        assert widened.atoms == q.atoms
        with pytest.raises(ValueError):
            q.with_outputs(("Nope",))
