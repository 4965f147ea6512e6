"""The QueryResult wire schema: versioning, round-trips, golden pinning."""

import json
from pathlib import Path

import pytest

from repro.api.engine import PROTOCOL_VERSION, QueryResult
from repro.api import QueryEngine
from repro.db import Database, Relation, parse_query

GOLDEN = Path(__file__).parent / "golden" / "query_result_v2.json"
GOLDEN_V1 = Path(__file__).parent / "golden" / "query_result_v1.json"


def engine():
    edges = [(1, 2), (2, 3), (3, 1), (1, 3)]
    db = Database()
    db["R"] = Relation.from_pairs(("a", "b"), edges, "R")
    db["S"] = Relation.from_pairs(("a", "b"), edges, "S")
    return QueryEngine(db)


class TestGoldenDocument:
    """The v2 document is pinned: decoding and re-encoding is the identity.

    If a to_dict change breaks this test, the wire format changed — bump
    PROTOCOL_VERSION and add a new golden file instead of editing this
    one.
    """

    def test_golden_round_trips_exactly(self):
        document = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert document["protocol_version"] == 2
        rebuilt = QueryResult.from_dict(document)
        assert rebuilt.to_dict() == document

    def test_golden_semantic_fields(self):
        result = QueryResult.from_dict(json.loads(GOLDEN.read_text(encoding="utf-8")))
        assert result.verb == "count"
        assert result.row_count == 7
        assert result.output_variables == ("X", "Z")
        assert result.query.relation_names == ("R", "S")
        assert [op.op_id for op in result.execution.operators] == [1, 2, 3, 4]

    def test_v1_golden_still_decodes(self):
        # The same run at protocol 1: its three dropped keys are ignored,
        # everything else decodes to the v2 document.
        v1 = json.loads(GOLDEN_V1.read_text(encoding="utf-8"))
        assert v1["protocol_version"] == 1
        assert "parallelism" in v1 and "worker" in v1["trace"][0]
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert QueryResult.from_dict(v1).to_dict() == golden

    def test_live_schema_matches_golden_keys(self):
        # New to_dict keys require a golden update (and usually a
        # protocol bump) — this guard makes that step explicit.
        document = engine().count(parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")).to_dict()
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert set(document) == set(golden)
        assert set(document["trace"][0]) == set(golden["trace"][0])


class TestRoundTrip:
    @pytest.mark.parametrize("verb", ["exists", "count"])
    def test_live_result_round_trips(self, verb):
        q = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
        result = getattr(engine(), verb)(q)
        wire = result.to_dict()
        assert wire == QueryResult.from_dict(wire).to_dict()
        assert wire == QueryResult.from_dict(json.loads(json.dumps(wire))).to_dict()

    def test_select_result_round_trips(self):
        rows = engine().select(parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)"))
        rows.to_rows()
        wire = rows.result.to_dict()
        assert wire == QueryResult.from_dict(wire).to_dict()

    def test_planner_search_counters_are_additive_and_round_trip(self):
        q = parse_query("Q() :- R(X, Y), S(Y, Z)")
        eng = engine()
        fresh = eng.exists(q, strategy="omega")
        wire = fresh.to_dict()
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert set(wire) == set(golden) | {"plan_search"}
        assert wire["plan_search"] == fresh.planned.search
        assert wire["plan_search"]["orders"] == 6
        assert wire == QueryResult.from_dict(json.loads(json.dumps(wire))).to_dict()
        # A plan-cache hit searched nothing: the v1 shape, unchanged.
        eng.clear_result_cache()
        assert set(eng.exists(q, strategy="omega").to_dict()) == set(golden)

    def test_timed_out_result_round_trips(self):
        from repro.api.errors import QueryTimeout

        with pytest.raises(QueryTimeout) as info:
            engine().count(parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)"), timeout=0.0)
        wire = info.value.result.to_dict()
        assert wire["timed_out"] is True
        assert QueryResult.from_dict(wire).timed_out is True
        assert wire == QueryResult.from_dict(wire).to_dict()


class TestVersioning:
    def test_stamped_with_current_version(self):
        wire = engine().exists(parse_query("R(X, Y)")).to_dict()
        assert wire["protocol_version"] == PROTOCOL_VERSION

    def test_newer_version_refused(self):
        document = json.loads(GOLDEN.read_text(encoding="utf-8"))
        document["protocol_version"] = PROTOCOL_VERSION + 1
        with pytest.raises(ValueError, match="protocol_version"):
            QueryResult.from_dict(document)

    @pytest.mark.parametrize("version", [True, "2", 1.0])
    def test_non_integer_version_refused(self, version):
        # True is an int to isinstance (bool subclasses int), yet no version.
        document = engine().exists(parse_query("R(X, Y)")).to_dict()
        document["protocol_version"] = version
        with pytest.raises(ValueError, match="protocol_version"):
            QueryResult.from_dict(document)


class TestUpdateWireDocument:
    """The update result envelope is pinned alongside the query one.

    Protocol 2 left it unchanged, so its golden file stays the v1 one.
    """

    UPDATE_GOLDEN = Path(__file__).parent / "golden" / "update_result_v1.json"

    def test_pinned_shape(self):
        document = json.loads(self.UPDATE_GOLDEN.read_text(encoding="utf-8"))
        assert document["protocol_version"] == 1
        assert document["type"] == "result"
        assert document["kind"] in ("inserted", "deleted")
        assert set(document["payload"]) == {
            "relation",
            "rows_given",
            "rows_changed",
            "rows_total",
        }
        # Set semantics: never more rows change than were given.
        assert 0 <= document["payload"]["rows_changed"]
        assert document["payload"]["rows_changed"] <= document["payload"]["rows_given"]
