"""The asyncio query server: concurrency, admission control, deadlines, drain.

Tests drive a real :class:`QueryServer` on an ephemeral loopback port
through :class:`QueryClient` (or raw sockets for protocol-level checks).
Load is made deterministic with gated/delayed engine subclasses rather
than wall-clock races: the gate holds executor threads inside ``_ask``
until the test has observed the state it wants.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.api.engine import PROTOCOL_VERSION, QueryEngine
from repro.db import Database, Relation
from repro.db.query import parse_query
from repro.server import QueryClient, QueryServer, ServerError, encode_message

EDGES = [(1, 2), (2, 3), (3, 1), (2, 1), (3, 4)]
COUNT_CHAIN = "COUNT Q(X, Z) :- R(X, Y), S(Y, Z)"


def make_database():
    db = Database()
    for name in ("R", "S"):
        db[name] = Relation.from_pairs(("a", "b"), EDGES, name)
    return db


@pytest.fixture(scope="module")
def expected_count():
    query = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
    return QueryEngine(make_database()).count(query).row_count


def run_async(coroutine):
    return asyncio.run(coroutine)


async def started_server(**kwargs):
    kwargs.setdefault("engine", QueryEngine(make_database()))
    server = QueryServer(**kwargs)
    await server.start()
    return server


async def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        await asyncio.sleep(0.01)


class GatedEngine(QueryEngine):
    """Holds every ``_ask`` inside the executor until the gate opens."""

    def __init__(self, database, **kwargs):
        super().__init__(database, **kwargs)
        self.entered = threading.Event()
        self.gate = threading.Event()

    def _ask(self, *args, **kwargs):
        self.entered.set()
        if not self.gate.wait(timeout=10):
            raise RuntimeError("test gate never opened")
        return super()._ask(*args, **kwargs)


class DelayEngine(QueryEngine):
    """Sleeps inside the executor before running (drain-window filler)."""

    def __init__(self, database, delay, **kwargs):
        super().__init__(database, **kwargs)
        self.delay = delay
        self.entered = threading.Event()

    def _ask(self, *args, **kwargs):
        self.entered.set()
        time.sleep(self.delay)
        return super()._ask(*args, **kwargs)


# ----------------------------------------------------------------------
# Basic round trips
# ----------------------------------------------------------------------
class TestRoundTrips:
    def test_exists_count_select(self, expected_count):
        async def scenario():
            server = await started_server()
            try:
                async with await QueryClient.connect("127.0.0.1", server.port) as c:
                    exists = await c.execute("EXISTS Q() :- R(X, Y), S(Y, X)")
                    assert exists["kind"] == "exists"
                    assert exists["protocol_version"] == PROTOCOL_VERSION
                    assert exists["payload"]["answer"] is True

                    count = await c.execute(COUNT_CHAIN)
                    assert count["kind"] == "count"
                    assert count["payload"]["row_count"] == expected_count

                    select = await c.execute(
                        "SELECT Q(X, Z) :- R(X, Y), S(Y, Z)"
                    )
                    assert select["kind"] == "select"
                    rows = {tuple(row) for row in select["rows"]}
                    assert len(rows) == expected_count
                    assert select["payload"]["row_count"] == expected_count
            finally:
                await server.shutdown(drain_timeout=1.0)
            assert server.stats["served"] == 3

        run_async(scenario())

    def test_meta_and_explain_over_the_wire(self):
        async def scenario():
            server = await started_server()
            try:
                async with await QueryClient.connect("127.0.0.1", server.port) as c:
                    relations = await c.execute("\\relations")
                    names = {r["name"] for r in relations["payload"]["relations"]}
                    assert names == {"R", "S"}
                    explain = await c.execute("EXPLAIN " + COUNT_CHAIN)
                    assert explain["kind"] == "explain"
                    assert explain["payload"]["strategy"]
            finally:
                await server.shutdown(drain_timeout=1.0)

        run_async(scenario())

    def test_load_over_the_wire(self, tmp_path, expected_count):
        (tmp_path / "t.csv").write_text("a,b\n1,2\n2,3\n3,1\n2,1\n3,4\n")

        async def scenario():
            server = await started_server(
                engine=QueryEngine(Database()), base_dir=str(tmp_path)
            )
            try:
                async with await QueryClient.connect("127.0.0.1", server.port) as c:
                    for name in ("R", "S"):
                        loaded = await c.execute(f"LOAD {name} FROM 't.csv'")
                        assert loaded["kind"] == "loaded"
                        assert loaded["payload"]["rows"] == 5
                    count = await c.execute(COUNT_CHAIN)
                    assert count["payload"]["row_count"] == expected_count
            finally:
                await server.shutdown(drain_timeout=1.0)

        run_async(scenario())

    def test_loads_are_visible_across_connections(self):
        async def scenario():
            server = await started_server()
            try:
                a = await QueryClient.connect("127.0.0.1", server.port)
                b = await QueryClient.connect("127.0.0.1", server.port)
                # One shared engine: both connections see both relations.
                for client in (a, b):
                    doc = await client.execute("\\relations")
                    assert len(doc["payload"]["relations"]) == 2
                await a.close()
                await b.close()
            finally:
                await server.shutdown(drain_timeout=1.0)

        run_async(scenario())


# ----------------------------------------------------------------------
# Wire protocol details (raw sockets)
# ----------------------------------------------------------------------
class TestWireDetails:
    def test_select_streams_in_batches(self, expected_count):
        async def scenario():
            server = await started_server(batch_size=2)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    encode_message(
                        {
                            "id": 1,
                            "statement": "SELECT Q(X, Z) :- R(X, Y), S(Y, Z)",
                        }
                    )
                )
                await writer.drain()
                batches, rows = [], []
                while True:
                    line = await reader.readline()
                    document = json.loads(line)
                    if document["type"] == "batch":
                        batches.append(document["seq"])
                        rows.extend(tuple(r) for r in document["rows"])
                        assert len(document["rows"]) <= 2
                        continue
                    assert document["type"] == "result"
                    assert document["payload"]["batches"] == len(batches)
                    assert document["payload"]["row_count"] == expected_count
                    break
                assert batches == list(range(len(batches)))
                assert len(batches) >= 2  # actually streamed, not one blob
                assert len(set(rows)) == expected_count
                writer.close()
                await writer.wait_closed()
            finally:
                await server.shutdown(drain_timeout=1.0)

        run_async(scenario())

    def test_bad_requests(self):
        async def scenario():
            server = await started_server()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"this is not json\n")
                writer.write(encode_message({"id": 7}))  # no statement
                await writer.drain()
                first = json.loads(await reader.readline())
                second = json.loads(await reader.readline())
                assert first["type"] == "error"
                assert first["code"] == "bad_request"
                assert second["code"] == "bad_request"
                assert second["id"] == 7
                # The connection survives malformed lines.
                writer.write(encode_message({"id": 8, "statement": "\\stats"}))
                await writer.drain()
                third = json.loads(await reader.readline())
                assert third["type"] == "result" and third["id"] == 8
                writer.close()
                await writer.wait_closed()
            finally:
                await server.shutdown(drain_timeout=1.0)

        run_async(scenario())

    def test_parse_error_carries_caret_diagnostic(self):
        async def scenario():
            server = await started_server()
            try:
                async with await QueryClient.connect("127.0.0.1", server.port) as c:
                    with pytest.raises(ServerError) as exc:
                        await c.execute("COUNT Q(X :- R(X, Y)")
                    assert exc.value.code == "parse_error"
                    diagnostic = exc.value.document["diagnostic"]
                    assert "^" in diagnostic
                    assert "COUNT Q(X :- R(X, Y)" in diagnostic
            finally:
                await server.shutdown(drain_timeout=1.0)

        run_async(scenario())

    def test_missing_relation_is_an_engine_error(self):
        async def scenario():
            server = await started_server()
            try:
                async with await QueryClient.connect("127.0.0.1", server.port) as c:
                    with pytest.raises(ServerError) as exc:
                        await c.execute("COUNT Q(X, Y) :- Nope(X, Y)")
                    assert exc.value.code == "engine_error"
            finally:
                await server.shutdown(drain_timeout=1.0)

        run_async(scenario())


# ----------------------------------------------------------------------
# Deadlines over the wire
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_request_timeout_returns_structured_partial(self):
        async def scenario():
            server = await started_server()
            try:
                async with await QueryClient.connect("127.0.0.1", server.port) as c:
                    with pytest.raises(ServerError) as exc:
                        await c.execute(COUNT_CHAIN, timeout=0.0)
                    error = exc.value
                    assert error.code == "timeout"
                    assert error.partial is not None
                    assert error.partial["timed_out"] is True
                    assert error.partial["protocol_version"] == PROTOCOL_VERSION
                    # The session keeps working after a timeout.
                    ok = await c.execute(COUNT_CHAIN)
                    assert ok["payload"]["timed_out"] is False
            finally:
                await server.shutdown(drain_timeout=1.0)
            assert server.stats["timeouts"] == 1

        run_async(scenario())

    def test_default_timeout_applies_when_request_names_none(self):
        async def scenario():
            server = await started_server(default_timeout=0.0)
            try:
                async with await QueryClient.connect("127.0.0.1", server.port) as c:
                    with pytest.raises(ServerError) as exc:
                        await c.execute(COUNT_CHAIN)
                    assert exc.value.code == "timeout"
            finally:
                await server.shutdown(drain_timeout=1.0)

        run_async(scenario())

    def test_max_timeout_clamps_greedy_requests(self):
        async def scenario():
            server = await started_server(max_timeout=0.0)
            try:
                async with await QueryClient.connect("127.0.0.1", server.port) as c:
                    with pytest.raises(ServerError) as exc:
                        await c.execute(COUNT_CHAIN, timeout=3600.0)
                    assert exc.value.code == "timeout"
            finally:
                await server.shutdown(drain_timeout=1.0)

        run_async(scenario())


# ----------------------------------------------------------------------
# Admission control and concurrency
# ----------------------------------------------------------------------
class TestAdmission:
    def test_overloaded_rejection_carries_retry_after(self, expected_count):
        async def scenario():
            engine = GatedEngine(make_database())
            server = await started_server(
                engine=engine, max_concurrency=1, max_queue_depth=0
            )
            try:
                a = await QueryClient.connect("127.0.0.1", server.port)
                first = asyncio.ensure_future(a.execute(COUNT_CHAIN))
                await wait_for(engine.entered.is_set)
                b = await QueryClient.connect("127.0.0.1", server.port)
                with pytest.raises(ServerError) as exc:
                    await b.execute(COUNT_CHAIN)
                assert exc.value.code == "overloaded"
                assert exc.value.retry_after > 0
                engine.gate.set()
                document = await first
                assert document["payload"]["row_count"] == expected_count
                await a.close()
                await b.close()
            finally:
                engine.gate.set()
                await server.shutdown(drain_timeout=1.0)
            assert server.stats["rejected_overloaded"] == 1
            assert server.stats["served"] == 1

        run_async(scenario())

    def test_sixteen_sessions_under_admission_control(self, expected_count):
        """16 concurrent sessions against 4 workers + a 4-deep queue."""

        async def scenario():
            engine = GatedEngine(make_database())
            server = await started_server(
                engine=engine, max_concurrency=4, max_queue_depth=4
            )
            clients = []
            try:
                for _ in range(16):
                    clients.append(
                        await QueryClient.connect("127.0.0.1", server.port)
                    )
                tasks = [
                    asyncio.ensure_future(c.execute(COUNT_CHAIN)) for c in clients
                ]
                # 4 execute + 4 queue; the other 8 must be rejected.
                await wait_for(
                    lambda: server.stats["rejected_overloaded"] >= 8
                )
                engine.gate.set()
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                served = [o for o in outcomes if isinstance(o, dict)]
                rejected = [o for o in outcomes if isinstance(o, ServerError)]
                assert len(served) + len(rejected) == 16
                assert len(served) >= 8
                assert all(
                    doc["payload"]["row_count"] == expected_count for doc in served
                )
                assert all(e.code == "overloaded" for e in rejected)
                assert all(e.retry_after > 0 for e in rejected)

                # Round two, gate open: every session is served, retries
                # absorb any leftover contention.
                retried = await asyncio.gather(
                    *[c.execute_with_retry(COUNT_CHAIN, attempts=10) for c in clients]
                )
                assert all(
                    doc["payload"]["row_count"] == expected_count for doc in retried
                )
            finally:
                engine.gate.set()
                for client in clients:
                    await client.close()
                await server.shutdown(drain_timeout=1.0)
            assert server.stats["served"] >= 16 + 8

        run_async(scenario())

    def test_mixed_verbs_from_many_sessions(self, expected_count):
        statements = [
            ("EXISTS Q() :- R(X, Y), S(Y, X)", "exists", True),
            (COUNT_CHAIN, "count", None),
            ("SELECT Q(X, Z) :- R(X, Y), S(Y, Z) LIMIT 3", "select", None),
        ]

        async def one_session(port):
            async with await QueryClient.connect("127.0.0.1", port) as client:
                for statement, kind, answer in statements:
                    doc = await client.execute_with_retry(statement, attempts=10)
                    assert doc["kind"] == kind
                    if kind == "exists":
                        assert doc["payload"]["answer"] is answer
                    elif kind == "count":
                        assert doc["payload"]["row_count"] == expected_count
                    else:
                        assert len(doc["rows"]) == 3

        async def scenario():
            server = await started_server(max_concurrency=4, max_queue_depth=16)
            try:
                await asyncio.gather(
                    *[one_session(server.port) for _ in range(16)]
                )
            finally:
                await server.shutdown(drain_timeout=1.0)
            assert server.stats["served"] == 16 * 3

        run_async(scenario())


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_finishes_inflight_and_rejects_new(self, expected_count):
        async def scenario():
            engine = GatedEngine(make_database())
            server = await started_server(engine=engine, max_concurrency=2)
            a = await QueryClient.connect("127.0.0.1", server.port)
            b = await QueryClient.connect("127.0.0.1", server.port)
            inflight = asyncio.ensure_future(a.execute(COUNT_CHAIN))
            await wait_for(engine.entered.is_set)

            shutdown = asyncio.ensure_future(server.shutdown(drain_timeout=5.0))
            await wait_for(lambda: server._draining)
            # New statements on existing connections are turned away...
            with pytest.raises(ServerError) as exc:
                await b.execute(COUNT_CHAIN)
            assert exc.value.code == "shutting_down"
            # ...while the in-flight statement is allowed to finish.
            engine.gate.set()
            document = await inflight
            assert document["payload"]["row_count"] == expected_count
            await shutdown
            assert server.stats["rejected_draining"] == 1
            assert server.stats["served"] == 1
            await a.close()
            await b.close()

        run_async(scenario())

    def test_drain_cancels_overstaying_queries(self):
        async def scenario():
            engine = DelayEngine(make_database(), delay=0.4)
            server = await started_server(engine=engine)
            a = await QueryClient.connect("127.0.0.1", server.port)
            inflight = asyncio.ensure_future(a.execute(COUNT_CHAIN))
            await wait_for(engine.entered.is_set)
            # The drain window closes before the 0.4s sleep does: the
            # server fires the query's token, and the engine reports an
            # explicit cancellation (not a timeout).
            await server.shutdown(drain_timeout=0.05)
            with pytest.raises(ServerError) as exc:
                await inflight
            assert exc.value.code == "cancelled"
            await a.close()

        run_async(scenario())

    def test_no_new_connections_while_draining(self):
        async def scenario():
            server = await started_server()
            await server.shutdown(drain_timeout=0.1)
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", server.port)

        run_async(scenario())


# ----------------------------------------------------------------------
# Updates over the wire
# ----------------------------------------------------------------------
class TestUpdates:
    """INSERT/DELETE statements answer with the versioned update wire op."""

    def test_insert_delete_round_trip(self, expected_count):
        async def scenario():
            server = await started_server()
            try:
                async with await QueryClient.connect("127.0.0.1", server.port) as c:
                    before = await c.execute(COUNT_CHAIN)
                    assert before["payload"]["row_count"] == expected_count

                    # S(4, 9) pairs with R(3, 4): one brand-new (3, 9).
                    inserted = await c.execute("INSERT S(4, 9), (3, 1)")
                    assert inserted["type"] == "result"
                    assert inserted["kind"] == "inserted"
                    assert inserted["protocol_version"] == PROTOCOL_VERSION
                    assert inserted["payload"] == {
                        "relation": "S",
                        "rows_given": 2,
                        "rows_changed": 1,  # (3, 1) was already present
                        "rows_total": len(EDGES) + 1,
                    }

                    after = await c.execute(COUNT_CHAIN)
                    assert after["payload"]["row_count"] == expected_count + 1

                    deleted = await c.execute("DELETE S(4, 9)")
                    assert deleted["kind"] == "deleted"
                    assert deleted["payload"]["rows_changed"] == 1
                    assert deleted["payload"]["rows_total"] == len(EDGES)

                    restored = await c.execute(COUNT_CHAIN)
                    assert restored["payload"]["row_count"] == expected_count
            finally:
                await server.shutdown(drain_timeout=1.0)

        run_async(scenario())

    def test_update_message_matches_golden_document(self):
        from pathlib import Path

        golden = json.loads(
            (Path(__file__).parent / "golden" / "update_result_v1.json").read_text(
                encoding="utf-8"
            )
        )

        async def scenario():
            server = await started_server()
            try:
                async with await QueryClient.connect("127.0.0.1", server.port) as c:
                    live = await c.execute("INSERT R(1, 2), (8, 9)")
            finally:
                await server.shutdown(drain_timeout=1.0)
            # Same envelope and payload keys as the pinned v1 document —
            # extending the protocol with new result kinds must not
            # change the existing shapes (protocol 2 changed only the
            # query document).
            assert set(live) == set(golden)
            assert live["type"] == golden["type"]
            assert golden["protocol_version"] == 1
            assert live["protocol_version"] == PROTOCOL_VERSION == 2
            assert set(live["payload"]) == set(golden["payload"])
            assert live["kind"] == golden["kind"] == "inserted"

        run_async(scenario())

    def test_update_unknown_relation_is_a_parse_error(self):
        async def scenario():
            server = await started_server()
            try:
                async with await QueryClient.connect("127.0.0.1", server.port) as c:
                    with pytest.raises(ServerError) as exc:
                        await c.execute("INSERT Zed(1, 2)")
                    assert exc.value.code == "parse_error"
                    assert "unknown relation" in str(exc.value)
            finally:
                await server.shutdown(drain_timeout=1.0)

        run_async(scenario())

    def test_update_bad_syntax_carries_caret_diagnostic(self):
        async def scenario():
            server = await started_server()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(encode_message({"id": 1, "statement": "INSERT R 1"}))
                await writer.drain()
                document = json.loads(await reader.readline())
                assert document["type"] == "error"
                assert document["code"] == "parse_error"
                assert "^" in document["diagnostic"]
                writer.close()
                await writer.wait_closed()
            finally:
                await server.shutdown(drain_timeout=1.0)

        run_async(scenario())
