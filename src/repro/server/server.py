"""The concurrent asyncio query server.

One process, one shared :class:`~repro.api.engine.QueryEngine`, many
client connections.  Each connection gets its own
:class:`~repro.lang.session.Session` (engine caches are shared and
thread-safe; statement execution happens on a bounded thread pool so
the event loop never blocks on a join).

Three load-shedding layers keep the server honest under pressure:

* **admission control** — at most ``max_concurrency`` statements
  execute at once; up to ``max_queue_depth`` more may wait.  Beyond
  that, requests are *rejected immediately* with an ``overloaded``
  error carrying a ``retry_after`` estimate, instead of queueing
  unboundedly;
* **deadlines** — a per-query :class:`~repro.exec.vm.CancellationToken`
  (request ``timeout`` clamped by ``max_timeout``, else
  ``default_timeout``) threads into the VM's cooperative cancel path,
  so runaway queries stop within one operator or stream chunk;
* **graceful drain** — :meth:`shutdown` stops accepting connections,
  answers new statements with ``shutting_down``, waits for in-flight
  queries up to ``drain_timeout`` seconds, then fires their tokens.

``select`` responses stream as morsel-sized ``batch`` lines (one JSON
document per :meth:`~repro.api.results.ResultSet.batches` chunk)
followed by a final ``result`` line with the totals.  Batches are
pulled from the result set *incrementally* — a ``SELECT ... LIMIT k``
runs the engine's constant-delay streaming enumeration, so the first
batch leaves after O(k) work and the final payload records the
observed ``time_to_first_row``.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Dict, Optional, Set

from ..api.engine import QueryEngine
from ..api.errors import (
    EngineError,
    QueryCancelledError,
    QueryTimeout,
)
from ..db.database import Database
from ..db.query import QueryParseError
from ..exec.vm import CancellationToken
from ..lang.parser import caret_diagnostic
from ..lang.session import Session
from .protocol import PROTOCOL_VERSION, decode_line, encode_message

__all__ = ["QueryServer"]

#: Default rows per streamed ``select`` batch line (smaller than the
#: engine's in-memory morsel default: these are JSON-encoded).
DEFAULT_WIRE_BATCH = 1024


class QueryServer:
    """A line-JSON query server over one shared engine.

    Parameters
    ----------
    engine / database:
        Share an existing engine, or build one around a database (both
        ``None`` starts empty — clients ``LOAD`` their own data).
    host / port:
        Bind address; port ``0`` (the default) picks a free port,
        published as :attr:`port` after :meth:`start`.
    max_concurrency:
        Statements executing simultaneously on the thread pool.
    max_queue_depth:
        Admitted-but-waiting statements beyond which new requests are
        rejected with ``overloaded`` + ``retry_after``.
    default_timeout / max_timeout:
        Per-query deadline when the request names none, and the cap
        applied to requested timeouts (``None`` = unlimited).
    batch_size:
        Rows per streamed ``select`` batch line.
    base_dir:
        Directory ``LOAD`` paths resolve against.
    """

    def __init__(
        self,
        engine: Optional[QueryEngine] = None,
        database: Optional[Database] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_concurrency: int = 4,
        max_queue_depth: int = 8,
        default_timeout: Optional[float] = None,
        max_timeout: Optional[float] = None,
        batch_size: int = DEFAULT_WIRE_BATCH,
        base_dir: Optional[str] = None,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be at least 1")
        if max_queue_depth < 0:
            raise ValueError("max_queue_depth must be non-negative")
        if engine is None:
            engine = QueryEngine(database if database is not None else Database())
        self.engine = engine
        self.host = host
        self.port = port
        self.max_concurrency = max_concurrency
        self.max_queue_depth = max_queue_depth
        self.default_timeout = default_timeout
        self.max_timeout = max_timeout
        self.batch_size = batch_size
        self.base_dir = base_dir

        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._waiting = 0
        self._executing = 0
        self._draining = False
        self._tokens: Set[CancellationToken] = set()
        self._connections: Set[asyncio.StreamWriter] = set()
        self._handlers: Set["asyncio.Task[None]"] = set()
        #: EWMA of recent statement seconds, feeding retry_after estimates.
        self._recent_seconds = 0.05
        #: Served/rejected counters (observability + tests).
        self.stats: Dict[str, int] = {
            "served": 0,
            "rejected_overloaded": 0,
            "rejected_draining": 0,
            "timeouts": 0,
            "errors": 0,
        }

    # ------------------------------------------------------------------
    async def start(self) -> "QueryServer":
        """Bind the listening socket and thread pool; returns self."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_concurrency, thread_name_prefix="repro-serve"
        )
        self._semaphore = asyncio.Semaphore(self.max_concurrency)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - signal path
            pass

    async def shutdown(self, drain_timeout: float = 5.0) -> None:
        """Graceful drain: stop accepting, finish in-flight work, close.

        New statements (on existing connections) are answered with
        ``shutting_down`` the moment draining starts.  In-flight
        statements get ``drain_timeout`` seconds to finish before their
        cancellation tokens fire.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + drain_timeout
        while self._pending > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        if self._pending > 0:
            for token in tuple(self._tokens):
                token.cancel()
            while self._pending > 0 and time.monotonic() < deadline + 1.0:
                await asyncio.sleep(0.005)
        for writer in tuple(self._connections):
            writer.close()
        # Let the per-connection handlers observe the closed transports
        # and unwind; otherwise loop teardown cancels them mid-readline.
        if self._handlers:
            await asyncio.wait(tuple(self._handlers), timeout=1.0)
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    @property
    def _pending(self) -> int:
        return self._waiting + self._executing

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = Session(engine=self.engine, base_dir=self.base_dir)
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        self._connections.add(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = decode_line(line)
                except ValueError as error:
                    await self._send(
                        writer,
                        self._error(None, "bad_request", str(error)),
                    )
                    continue
                await self._process(request, session, writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
            if task is not None:
                self._handlers.discard(task)

    # ------------------------------------------------------------------
    async def _process(
        self,
        request: Dict[str, Any],
        session: Session,
        writer: asyncio.StreamWriter,
    ) -> None:
        request_id = request.get("id")
        statement = request.get("statement")
        if not isinstance(statement, str) or not statement.strip():
            await self._send(
                writer,
                self._error(
                    request_id, "bad_request", "requests need a 'statement' string"
                ),
            )
            return

        # -- admission control ------------------------------------------
        if self._draining:
            self.stats["rejected_draining"] += 1
            await self._send(
                writer,
                self._error(request_id, "shutting_down", "server is draining"),
            )
            return
        assert self._semaphore is not None
        if self._semaphore.locked() and self._waiting >= self.max_queue_depth:
            self.stats["rejected_overloaded"] += 1
            message = self._error(
                request_id,
                "overloaded",
                f"admission queue is full ({self._waiting} waiting, "
                f"{self._executing} executing); retry later",
            )
            message["retry_after"] = round(self._retry_after(), 4)
            await self._send(writer, message)
            return
        self._waiting += 1
        try:
            await self._semaphore.acquire()
        finally:
            self._waiting -= 1
        if self._draining:
            # Drain started while this request was queued.
            self._semaphore.release()
            self.stats["rejected_draining"] += 1
            await self._send(
                writer,
                self._error(request_id, "shutting_down", "server is draining"),
            )
            return

        # -- admitted: deadline token + executor-side execution ---------
        timeout = self._effective_timeout(request.get("timeout"))
        token = (
            CancellationToken.with_deadline(timeout)
            if timeout is not None
            else CancellationToken()
        )
        self._tokens.add(token)
        self._executing += 1
        started = time.monotonic()
        loop = asyncio.get_running_loop()
        try:
            outcome = await loop.run_in_executor(
                self._executor,
                partial(
                    session.execute,
                    statement,
                    token=token,
                    batch_size=self.batch_size,
                ),
            )
            if outcome.kind == "select":
                rows = outcome.result_set
                assert rows is not None
                # Pull batch by batch on the executor (execution happens
                # on the first pull, under the token): a limit-bounded
                # streaming SELECT ships its first wire batch after O(k)
                # work instead of draining the full ResultSet up front.
                batch_iter = rows.batches()
                batches = 0
                first_row_seconds: Optional[float] = None
                pull_started = time.monotonic()
                while True:
                    batch = await loop.run_in_executor(
                        self._executor, next, batch_iter, None
                    )
                    if batch is None:
                        break
                    if first_row_seconds is None:
                        first_row_seconds = time.monotonic() - pull_started
                    await self._send(
                        writer,
                        {
                            "id": request_id,
                            "type": "batch",
                            "seq": batches,
                            "rows": [list(row) for row in batch],
                        },
                    )
                    batches += 1
                payload = dict(outcome.payload)
                payload.update(rows.result.to_dict())
                payload["row_count"] = len(rows)
                payload["batches"] = batches
                payload["time_to_first_row"] = first_row_seconds
                await self._send(
                    writer, self._result(request_id, "select", payload)
                )
            else:
                await self._send(
                    writer, self._result(request_id, outcome.kind, outcome.payload)
                )
            self.stats["served"] += 1
        except QueryParseError as error:
            self.stats["errors"] += 1
            message = self._error(request_id, "parse_error", str(error))
            message["diagnostic"] = caret_diagnostic(error)
            await self._send(writer, message)
        except QueryTimeout as error:
            self.stats["timeouts"] += 1
            message = self._error(request_id, "timeout", str(error))
            message["timeout"] = timeout
            if error.result is not None:
                message["partial"] = error.result.to_dict()
            await self._send(writer, message)
        except QueryCancelledError as error:
            self.stats["errors"] += 1
            await self._send(
                writer, self._error(request_id, "cancelled", str(error))
            )
        except (EngineError, KeyError, ValueError, OSError) as error:
            self.stats["errors"] += 1
            detail = error.args[0] if error.args else error
            await self._send(
                writer, self._error(request_id, "engine_error", str(detail))
            )
        finally:
            self._tokens.discard(token)
            self._executing -= 1
            elapsed = time.monotonic() - started
            self._recent_seconds = 0.8 * self._recent_seconds + 0.2 * elapsed
            self._semaphore.release()

    # ------------------------------------------------------------------
    def _effective_timeout(self, requested: Any) -> Optional[float]:
        timeout = self.default_timeout
        if isinstance(requested, (int, float)) and not isinstance(requested, bool):
            timeout = float(requested)
        if self.max_timeout is not None:
            timeout = (
                self.max_timeout if timeout is None else min(timeout, self.max_timeout)
            )
        return timeout

    def _retry_after(self) -> float:
        """A rough backoff hint: queue drain time at recent throughput."""
        backlog = self._waiting + self._executing + 1
        return max(0.01, self._recent_seconds * backlog / self.max_concurrency)

    @staticmethod
    def _result(request_id: Any, kind: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "id": request_id,
            "protocol_version": PROTOCOL_VERSION,
            "type": "result",
            "kind": kind,
            "payload": payload,
        }

    @staticmethod
    def _error(request_id: Any, code: str, message: str) -> Dict[str, Any]:
        return {
            "id": request_id,
            "protocol_version": PROTOCOL_VERSION,
            "type": "error",
            "code": code,
            "message": message,
        }

    async def _send(
        self, writer: asyncio.StreamWriter, message: Dict[str, Any]
    ) -> None:
        try:
            writer.write(encode_message(message))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
