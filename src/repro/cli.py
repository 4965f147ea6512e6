"""The ``repro`` console entry point.

* ``repro repl [files.csv ...]`` — interactive query shell; positional
  CSV/TSV files are pre-loaded as relations named after their stems.
* ``repro serve --port 7432`` — the concurrent line-JSON query server.
* ``repro client --port 7432 'COUNT R(X, Y)'`` — run statements against
  a server (from arguments, or stdin when none are given).
* ``repro verify 'Q(X) :- R(X, Y)'`` — lower the rule and statically
  verify the optimized program (exit 1 on violations).
* ``repro lint [paths ...]`` — run the repo-invariant linter (exit 1 on
  non-baselined findings).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Query-engine front door: REPL, server, and client.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    repl = commands.add_parser("repl", help="interactive query shell")
    repl.add_argument(
        "files", nargs="*", help="CSV/TSV files to pre-load as relations"
    )
    repl.add_argument(
        "--timeout", type=float, default=None, help="per-statement timeout (s)"
    )

    serve = commands.add_parser("serve", help="run the line-JSON query server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7432)
    serve.add_argument(
        "files", nargs="*", help="CSV/TSV files to pre-load as relations"
    )
    serve.add_argument(
        "--max-concurrency", type=int, default=4,
        help="statements executing at once",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=8,
        help="waiting statements before overload rejection",
    )
    serve.add_argument(
        "--timeout", type=float, default=None,
        help="default per-query deadline (s)",
    )
    serve.add_argument(
        "--max-timeout", type=float, default=None,
        help="cap on client-requested deadlines (s)",
    )

    client = commands.add_parser("client", help="send statements to a server")
    client.add_argument("statements", nargs="*", help="statements to run")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=7432)
    client.add_argument(
        "--timeout", type=float, default=None, help="per-query deadline (s)"
    )

    verify = commands.add_parser(
        "verify", help="statically verify a query's optimized program"
    )
    verify.add_argument("query", help="a rule, e.g. 'Q(X, Z) :- R(X, Y), S(Y, Z)'")
    verify.add_argument(
        "--verb", choices=("exists", "count", "select"), default=None,
        help="workload to lower (default: exists for Boolean heads, else select)",
    )
    verify.add_argument("--strategy", default="auto", help="strategy key")
    verify.add_argument(
        "--load", action="append", default=[], metavar="FILE",
        help="CSV/TSV file to load first (relations missing from the query "
        "are created empty)",
    )

    lint = commands.add_parser(
        "lint", help="run the repo-invariant linter (repro.analysis.lint)"
    )
    lint.add_argument(
        "paths", nargs="*", default=None,
        help="files/directories to lint (default: the src tree)",
    )
    lint.add_argument(
        "--baseline", default=None,
        help="baseline file of accepted fingerprints (default: the committed one)",
    )
    lint.add_argument(
        "--no-baseline", action="store_true",
        help="report every finding, ignoring the baseline",
    )
    lint.add_argument(
        "--output", default=None, metavar="FILE",
        help="also write the report to FILE (for CI artifacts)",
    )
    return parser


def _load_files(database, files: List[str]) -> None:
    for path in files:
        relation = database.load_csv(path)
        print(f"loaded {relation.name} ({len(relation)} rows)")


def _cmd_repl(args: argparse.Namespace) -> int:
    from .api.engine import QueryEngine
    from .db.database import Database
    from .lang.repl import run_repl
    from .lang.session import Session

    database = Database()
    _load_files(database, args.files)
    engine = QueryEngine(database)
    run_repl(Session(engine=engine), timeout=args.timeout)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .api.engine import QueryEngine
    from .db.database import Database
    from .server.server import QueryServer

    database = Database()
    _load_files(database, args.files)
    engine = QueryEngine(database)
    server = QueryServer(
        engine=engine,
        host=args.host,
        port=args.port,
        max_concurrency=args.max_concurrency,
        max_queue_depth=args.max_queue_depth,
        default_timeout=args.timeout,
        max_timeout=args.max_timeout,
    )

    async def run() -> None:
        await server.start()
        print(f"repro server listening on {server.address}")
        try:
            await server.serve_forever()
        finally:
            await server.shutdown()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("draining...")
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from .server.client import QueryClient, ServerError

    statements = args.statements
    if not statements:
        statements = [
            line.strip()
            for line in sys.stdin
            if line.strip() and not line.strip().startswith("#")
        ]

    async def run() -> int:
        failures = 0
        client = await QueryClient.connect(args.host, args.port)
        try:
            for statement in statements:
                try:
                    document = await client.execute(
                        statement, timeout=args.timeout
                    )
                except ServerError as error:
                    failures += 1
                    print(error.document.get("diagnostic") or f"error: {error}")
                    continue
                kind = document.get("kind")
                payload = document.get("payload", {})
                if kind == "exists":
                    print(str(payload.get("answer")).lower())
                elif kind == "count":
                    print(payload.get("row_count"))
                elif kind == "select":
                    for row in document.get("rows", []):
                        print(tuple(row))
                else:
                    print(payload.get("text", payload))
        finally:
            await client.close()
        return 1 if failures else 0

    return asyncio.run(run())


def _cmd_verify(args: argparse.Namespace) -> int:
    from .api.engine import QueryEngine
    from .db.database import Database
    from .lang.parser import parse_query_text

    query = parse_query_text(args.query)
    database = Database()
    _load_files(database, args.load)
    # Missing relations become empty ones of the right arity: static
    # verification needs schemas and arities, not rows.  Column names are
    # synthesized because an atom may repeat a variable.
    missing = {
        atom.relation: (
            tuple(f"c{index}" for index in range(len(atom.variables))),
            [],
        )
        for atom in query.atoms
        if atom.relation not in database
    }
    if missing:
        database.bulk_load(missing)
    verb = args.verb or ("exists" if query.is_boolean else "select")
    engine = QueryEngine(database)
    violations = engine.verify(query, args.strategy, verb=verb)
    explanation = engine.explain(query, args.strategy, verb=verb)
    print(explanation.describe())
    if violations:
        print(f"plan FAILS verification ({len(violations)} violations):")
        for violation in violations:
            print(f"  {violation.describe()}")
        return 1
    print("plan verifies (0 violations)")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import os

    from .analysis.lint import lint_paths

    paths = args.paths
    if not paths:
        # Default to the installed package's source tree, which is the
        # repo's src/ directory on a development checkout.
        paths = [os.path.dirname(os.path.abspath(__file__))]
    report = lint_paths(
        paths, baseline=args.baseline, use_baseline=not args.no_baseline
    )
    text = report.describe()
    print(text)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0 if report.clean else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "repl":
        return _cmd_repl(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "lint":
        return _cmd_lint(args)
    return _cmd_client(args)


if __name__ == "__main__":  # pragma: no cover - direct execution
    sys.exit(main())
