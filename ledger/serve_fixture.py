"""The server child of ``serve-hot``: one ``QueryServer`` over generated data.

Started by :mod:`ledger.serve` as ``python3 -m ledger.serve_fixture --seed S``.
Prints one JSON line with the port once it accepts connections, serves
until its stdin closes, drains, and prints one JSON line with what the
server counted and its peak memory.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys


async def serve(seed: int, smoke: bool) -> None:
    from repro.server import QueryServer

    from . import bench, instances
    from .inprocess import load

    engine = load(instances.generate("serve-hot", seed, smoke).tables)
    server = QueryServer(engine=engine, max_concurrency=2)
    await server.start()
    print(json.dumps({"port": server.port}), flush=True)
    try:
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.read)
    finally:
        await server.shutdown(drain_timeout=2.0)
    print(
        json.dumps(
            {
                "stats": server.stats,
                "peak_rss_mb": bench.peak_rss_mb(),
                "incremental": engine.incremental_info(),
            }
        ),
        flush=True,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    from .bench import pin_environment, use_repo_sources

    pin_environment()
    use_repo_sources()
    asyncio.run(serve(args.seed, args.smoke))


if __name__ == "__main__":
    main()
