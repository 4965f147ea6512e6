"""The front door: REPL sessions, the socket server, and the client.

Run with::

    python examples/server_quickstart.py

The script starts a :class:`~repro.server.server.QueryServer` on an
ephemeral loopback port, drives it from several concurrent
:class:`~repro.server.client.QueryClient` sessions (mixed verbs, a
deliberately bad statement, a deliberately expired deadline), and shuts
it down gracefully.  Everything is in-process but travels over real
sockets — the same line-JSON protocol ``repro serve`` / ``repro client``
speak from the command line.
"""

from __future__ import annotations

import asyncio
import csv
import tempfile
from pathlib import Path

from repro.api.engine import QueryEngine
from repro.db import Database
from repro.server import QueryClient, QueryServer, ServerError

EDGES = [(1, 2), (2, 3), (3, 1), (2, 1), (3, 4), (4, 1)]


def write_edges_csv(directory: Path) -> Path:
    path = directory / "edges.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["src", "dst"])
        writer.writerows(EDGES)
    return path


async def one_session(port: int, label: str) -> None:
    async with await QueryClient.connect("127.0.0.1", port) as client:
        count = await client.execute_with_retry(
            "COUNT Q(X, Z) :- R(X, Y), S(Y, Z)"
        )
        # No LIMIT: the full answer arrives sorted, so its first rows do
        # not depend on the order the relations are stored in.
        rows = await client.execute_with_retry("SELECT Q(X, Z) :- R(X, Y), S(Y, Z)")
        print(
            f"[{label}] 2-paths: {count['payload']['row_count']} "
            f"(strategy {count['payload']['strategy']}), "
            f"first rows {[tuple(r) for r in rows['rows'][:3]]}"
        )


async def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = write_edges_csv(Path(tmp))

        # One shared engine behind the server; sessions LOAD into it.
        server = QueryServer(
            engine=QueryEngine(Database()),
            base_dir=tmp,
            max_concurrency=2,
            max_queue_depth=4,
        )
        await server.start()
        print(f"server listening on {server.address}")

        async with await QueryClient.connect("127.0.0.1", server.port) as admin:
            for name in ("R", "S"):
                loaded = await admin.execute(
                    f"LOAD {name} FROM '{csv_path.name}'"
                )
                print(
                    f"loaded {loaded['payload']['relation']} "
                    f"({loaded['payload']['rows']} rows)"
                )

            # Parse errors come back structured, with a caret diagnostic.
            try:
                await admin.execute("COUNT Q(X :- R(X, Y)")
            except ServerError as error:
                print(f"parse error as expected ({error.code}):")
                print("  " + error.document["diagnostic"].replace("\n", "\n  "))

            # An expired deadline yields a structured timeout with the
            # partial execution record, and the session keeps working.
            try:
                await admin.execute("COUNT Q(X, Z) :- R(X, Y), S(Y, Z)", timeout=0.0)
            except ServerError as error:
                partial = error.partial or {}
                print(
                    f"deadline enforced as expected ({error.code}); "
                    f"partial timed_out={partial.get('timed_out')}"
                )

        # Several concurrent sessions share the engine's caches.
        await asyncio.gather(
            *[one_session(server.port, f"session-{i}") for i in range(4)]
        )

        await server.shutdown(drain_timeout=2.0)
        print(f"served {server.stats['served']} statements; drained cleanly")


if __name__ == "__main__":
    asyncio.run(main())
