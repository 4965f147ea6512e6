"""Constant-delay streaming enumeration: stream/sorted contracts.

Pins the PR's select pipeline end to end:

* differential — ``order="stream"`` and ``order="sorted"`` produce the
  same tuple *set* across strategies × input forms;
* limit boundaries (0, 1, |output|, > |output|) under both orders;
* sorted determinism under streaming limits (bounded-heap selection
  equals the full sort's prefix);
* constant delay — pulling the first rows of a large-output chain join
  scans O(first rows) of the calibrated root, never the full output,
  and the Enumerate trace records tuples actually emitted;
* cancellation mid-enumeration maps to the API error types and leaves
  the VM result cache unpoisoned;
* the server drains a ``SELECT ... LIMIT k`` exactly and reports
  ``time_to_first_row``; the REPL prints a ``Time:`` line.
"""

from __future__ import annotations

import asyncio
import io
import textwrap

import pytest

from repro.api import QueryEngine
from repro.api.errors import QueryCancelledError, QueryTimeout
from repro.db import Database, Relation, parse_query, random_database
from repro.exec.ir import Enumerate
from repro.exec.lower import SelectOptions, apply_select_options, lower_yannakakis
from repro.exec.vm import CancellationToken
from repro.lang.repl import run_repl
from repro.lang.session import Session
from repro.server import QueryClient, QueryServer

from test_output_queries import brute_force_outputs
from tests.conftest import LOAD_FORMS, load_database

SHAPES = {
    "path2": "Q(X, Z) :- R(X, Y), S(Y, Z)",
    "chain3": "Q(X, W) :- R(X, Y), S(Y, Z), T(Z, W)",
    "star": "Q(C) :- R(C, X), S(C, Y), T(C, Z)",
    "triangle": "Q(X, Y, Z) :- R(X, Y), S(Y, Z), T(X, Z)",
}


def _strategies(query):
    names = ["naive", "generic_join"]
    if query.is_acyclic():
        names.append("yannakakis")
    return names


def _chain_database(edges: int) -> Database:
    """A 3-chain whose output is much larger than any input relation."""
    fan = max(2, edges // 50)
    r = [(i, i % fan) for i in range(edges)]
    s = [(i % fan, i % fan) for i in range(fan)]
    t = [(i % fan, i) for i in range(edges)]
    return Database(
        {
            "R": Relation(("X", "Y"), r),
            "S": Relation(("Y", "Z"), s),
            "T": Relation(("Z", "W"), t),
        }
    )


CHAIN = parse_query("Q(X, W) :- R(X, Y), S(Y, Z), T(Z, W)")


# ----------------------------------------------------------------------
# Differential: stream set == sorted set, everywhere
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("seed", range(3))
def test_stream_and_sorted_agree_everywhere(shape, seed):
    query = parse_query(SHAPES[shape])
    generated = random_database(query, 22, domain_size=5, seed=seed, plant_witness=True)
    for form in LOAD_FORMS:
        database = load_database(form, generated.items())
        expected = brute_force_outputs(query, database)
        engine = QueryEngine(database)
        for strategy in _strategies(query):
            label = f"{shape}/{form}/{strategy}"
            sorted_rows = engine.select(
                query, strategy=strategy, order="sorted"
            ).to_rows()
            streamed = engine.select(
                query, strategy=strategy, order="stream"
            ).to_rows()
            assert set(streamed) == expected, label
            assert len(streamed) == len(expected), label  # distinct
            assert set(sorted_rows) == set(streamed), label


@pytest.mark.parametrize("order", ["stream", "sorted"])
def test_limit_boundaries(order):
    query = parse_query(SHAPES["chain3"])
    database = random_database(
        query, 25, domain_size=5, seed=11, plant_witness=True
    )
    engine = QueryEngine(database)
    full = engine.select(query, order="sorted").to_rows()
    total = len(full)
    assert total > 1
    for k in (0, 1, total, total + 7):
        rows = engine.select(query, limit=k, order=order).to_rows()
        assert len(rows) == min(k, total)
        assert set(rows) <= set(full)
        if order == "sorted":
            assert rows == full[: min(k, total)]


def test_sorted_limits_are_deterministic_across_runs():
    query = parse_query(SHAPES["triangle"])
    database = random_database(query, 30, domain_size=6, seed=3, plant_witness=True)
    reference = None
    for _ in range(3):
        rows = QueryEngine(database).select(query, limit=5, order="sorted").to_rows()
        if reference is None:
            reference = rows
        assert rows == reference


# ----------------------------------------------------------------------
# Constant delay: the whole point
# ----------------------------------------------------------------------
def test_streaming_limit_scans_a_prefix_not_the_output():
    database = _chain_database(2000)
    engine = QueryEngine(database)
    total = engine.count(CHAIN).row_count
    assert total > 10_000  # the output dwarfs every input relation
    result_set = engine.select(CHAIN, limit=16)
    rows = result_set.to_rows()
    assert len(rows) == 16
    stream = result_set.result.stream
    assert stream is not None
    assert stream.emitted == 16
    # One initial chunk of the calibrated root was enough for k=16.
    assert stream.chunks_scanned == 1
    # The sink's trace records tuples actually emitted, not the output.
    enumerate_ops = [
        op
        for op in result_set.result.execution.operators
        if op.kind == "enumerate"
    ]
    assert len(enumerate_ops) == 1
    assert enumerate_ops[0].rows_out == 16
    # No operator materialized anything close to the full output: the
    # reducer passes are bounded by the inputs, the sink by k.
    largest_input = max(len(database[name]) for name in ("R", "S", "T"))
    for op in result_set.result.execution.operators:
        assert op.rows_out <= largest_input, op.label


def test_sorted_limit_runs_ranked_instead_of_full_sorting():
    database = _chain_database(600)
    engine = QueryEngine(database)
    full = engine.select(CHAIN, order="sorted").to_rows()
    result_set = engine.select(CHAIN, limit=4, order="sorted")
    assert result_set.to_rows() == full[:4]
    result = result_set.result
    # The run was served by the ranked any-k cursor (no full output
    # relation was materialized in the VM) and emitted exactly k tuples —
    # never the whole output.
    assert result.stream is not None
    assert result.stream.order == "ranked"
    assert result.relation is None
    assert result.row_count is None
    assert result.stream.emitted == 4
    assert result_set.streaming
    # The sink's trace carries the frontier-heap accounting.
    enumerate_ops = [
        op for op in result.execution.operators if op.kind == "enumerate"
    ]
    assert len(enumerate_ops) == 1
    assert enumerate_ops[0].rows_out == 4
    assert enumerate_ops[0].heap_pops >= 4
    assert enumerate_ops[0].heap_peak >= 1


def test_first_fetch_pulls_one_chunk_only():
    database = _chain_database(2000)
    engine = QueryEngine(database)
    result_set = engine.select(CHAIN, order="stream")
    first = result_set.fetch(8)
    assert len(first) == 8
    stream = result_set.result.stream
    assert stream is not None and not stream.exhausted
    assert stream.chunks_scanned == 1
    # Draining afterwards still yields the exact distinct output.
    total = engine.count(CHAIN).row_count
    assert len(result_set.to_rows()) == total


def test_answer_is_free_on_streams():
    database = _chain_database(500)
    engine = QueryEngine(database)
    result_set = engine.select(CHAIN, limit=3)
    result_set.fetch(0)  # execute without pulling rows
    result = result_set.result
    assert result.answer is True  # calibrated root nonempty <=> output nonempty
    assert result.stream.emitted == 0


# ----------------------------------------------------------------------
# Lowering / options plumbing
# ----------------------------------------------------------------------
def test_streaming_lowering_has_frontiers_and_contract():
    program = lower_yannakakis(
        CHAIN, verb="select", select_options=SelectOptions(limit=7, order="stream")
    )
    root = program.root
    assert isinstance(root, Enumerate)
    assert root.streaming
    assert root.limit == 7 and root.order == "stream"
    assert len(root.frontiers) == 2  # chain3: root + two frontier levels
    # Default lowering stays the materialized sorted sink.
    sorted_program = lower_yannakakis(CHAIN, verb="select")
    assert isinstance(sorted_program.root, Enumerate)
    assert not sorted_program.root.streaming


def test_apply_select_options_stamps_only_the_root():
    program = lower_yannakakis(CHAIN, verb="select")
    stamped = apply_select_options(program, SelectOptions(limit=3, order="stream"))
    assert isinstance(stamped.root, Enumerate)
    assert stamped.root.limit == 3 and stamped.root.order == "stream"
    assert stamped.root.child is program.root.child  # children shared
    # Idempotent when the root already carries the options.
    again = apply_select_options(stamped, SelectOptions(limit=3, order="stream"))
    assert again is stamped

    options = SelectOptions(limit=None, order="sorted")
    assert not options.streaming
    with pytest.raises(ValueError, match="order"):
        SelectOptions(order="shuffled")
    with pytest.raises(ValueError, match="limit"):
        SelectOptions(limit=-1)


def test_batches_honor_engine_morsel_size():
    database = _chain_database(200)
    engine = QueryEngine(database)
    result_set = engine.select(CHAIN, limit=10)
    assert result_set.batch_size == engine.dispatcher.morsel_size
    explicit = engine.select(CHAIN, limit=10, batch_size=4)
    assert explicit.batch_size == 4
    assert all(len(batch) <= 4 for batch in explicit.batches())


# ----------------------------------------------------------------------
# Cancellation: mid-enumeration, caches stay clean
# ----------------------------------------------------------------------
def test_cancellation_mid_enumeration_and_cache_stays_clean():
    database = _chain_database(2000)
    engine = QueryEngine(database)
    token = CancellationToken()
    result_set = engine.select(CHAIN, order="stream", token=token)
    first = result_set.fetch(8)
    assert len(first) == 8
    assert not result_set.result.stream.exhausted
    token.cancel()
    with pytest.raises(QueryCancelledError):
        result_set.fetch(10_000_000)
    # A fresh run over the (warm) caches is complete and correct.
    total = engine.count(CHAIN).row_count
    fresh = engine.select(CHAIN, order="stream").to_rows()
    assert len(fresh) == total
    assert engine.select(CHAIN, limit=3).to_rows() != []


def test_timeout_fires_during_streamed_pull():
    database = _chain_database(2000)
    engine = QueryEngine(database)
    token = CancellationToken.with_deadline(0.0)
    result_set = engine.select(CHAIN, order="stream", token=token)
    with pytest.raises(QueryTimeout):
        result_set.to_rows()


# ----------------------------------------------------------------------
# Server + REPL front ends
# ----------------------------------------------------------------------
def _run(coro):
    return asyncio.run(coro)


def test_server_streams_limited_select_with_first_row_timing():
    async def scenario():
        database = _chain_database(400)
        server = await QueryServer(
            database=database, batch_size=8
        ).start()
        try:
            async with await QueryClient.connect("127.0.0.1", server.port) as client:
                document = await client.execute(
                    "SELECT Q(X, W) :- R(X, Y), S(Y, Z), T(Z, W) LIMIT 5"
                )
                assert document["kind"] == "select"
                assert len(document["rows"]) == 5
                payload = document["payload"]
                assert payload["row_count"] == 5
                assert payload["order"] == "stream"
                assert payload["limit"] == 5
                assert payload["time_to_first_row"] >= 0.0
                # Incremental consumption: batches arrive before the final
                # result document.
                kinds = []
                async for doc in client.execute_stream(
                    "SELECT Q(X, W) :- R(X, Y), S(Y, Z), T(Z, W) LIMIT 20"
                ):
                    kinds.append(doc["type"])
                assert kinds[-1] == "result"
                assert kinds.count("batch") >= 2  # batch_size=8, k=20
        finally:
            await server.shutdown(drain_timeout=1.0)

    _run(scenario())


def test_repl_select_prints_rows_and_timing_line():
    database = _chain_database(200)
    out = io.StringIO()
    run_repl(
        Session(database),
        input_stream=io.StringIO(
            textwrap.dedent(
                """\
                SELECT Q(X, W) :- R(X, Y), S(Y, Z), T(Z, W) LIMIT 3
                \\quit
                """
            )
        ),
        output=out,
        prompt="",
        banner=False,
    )
    text = out.getvalue()
    assert "(X, W)" in text
    assert "3 rows" in text
    assert "Time: first row" in text
    assert "ms" in text
