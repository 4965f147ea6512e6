"""Sessions: executing parsed statements against one engine.

A :class:`Session` is the shared execution layer behind the REPL and
the socket server: it parses statement text, dispatches to the
:class:`~repro.api.engine.QueryEngine` verb API, and packages what came
back as an :class:`Outcome` — a JSON-safe payload plus, for ``select``,
the lazy :class:`~repro.api.results.ResultSet` so callers choose how to
stream rows (the REPL prints a page, the server ships morsel-sized
batches).  Cancellation/timeout plumbing passes straight through to the
engine's ``timeout``/``token`` parameters.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..api.engine import QueryEngine, QueryResult
from ..api.results import ResultSet
from ..db.database import Database
from ..db.query import QueryParseError
from ..exec.vm import CancellationToken
from .ast import LoadStatement, MetaStatement, QueryStatement, UpdateStatement
from .parser import parse_statement

__all__ = ["Outcome", "Session"]

#: Rows the REPL prints before eliding (SELECT without LIMIT).
REPL_PREVIEW_ROWS = 20

_HELP = """\
statements:
  Q(X, Z) :- R(X, Y), S(Y, Z).       run a rule (exists for Boolean heads,
                                     select otherwise)
  EXISTS  <rule>                     satisfiability (true/false)
  COUNT   <rule-or-body>             count distinct output tuples
  SELECT  <rule-or-body> [LIMIT k]   enumerate output tuples
  EXPLAIN <statement>                show strategy and plan, don't execute
  EXPLAIN VERIFY <statement>         also statically verify the plan
  LOAD name FROM 'file.csv'          load a CSV/TSV file as a relation
  INSERT name(v, ...), (v, ...)      insert literal rows (incremental)
  DELETE name(v, ...), (v, ...)      delete literal rows (incremental)
meta commands:
  \\relations   \\strategies   \\stats   \\help   \\quit"""


@dataclass
class Outcome:
    """What one statement produced.

    ``kind`` is one of ``exists``/``count``/``select``/``explain``/
    ``loaded``/``inserted``/``deleted``/``meta``/``quit``.  ``payload``
    is JSON-safe throughout; ``select`` outcomes additionally carry the
    lazy ``result_set`` — rows are *not* in the payload, the caller
    streams them.
    """

    kind: str
    payload: Dict[str, object] = field(default_factory=dict)
    result: Optional[QueryResult] = None
    result_set: Optional[ResultSet] = None

    def describe(self) -> str:
        """Human-readable rendering (the REPL's output)."""
        if self.kind == "exists":
            result = self.result
            assert result is not None
            return (
                f"{str(result.answer).lower()}  "
                f"[{result.strategy}, {result.seconds * 1000:.2f} ms]"
            )
        if self.kind == "count":
            result = self.result
            assert result is not None
            return (
                f"{result.row_count}  "
                f"[{result.strategy}, {result.seconds * 1000:.2f} ms]"
            )
        if self.kind == "select":
            rows = self.result_set
            assert rows is not None
            shown = rows.fetch(REPL_PREVIEW_ROWS)
            total = len(rows)
            header = ", ".join(rows.columns)
            lines = [f"({header})"]
            lines.extend(f"  {row}" for row in shown)
            if total > len(shown):
                lines.append(f"  ... {total - len(shown)} more rows")
            result = rows.result
            lines.append(
                f"{total} row{'s' if total != 1 else ''}  "
                f"[{result.strategy}, {result.seconds * 1000:.2f} ms]"
            )
            return "\n".join(lines)
        if self.kind in ("explain", "meta"):
            return str(self.payload.get("text", ""))
        if self.kind == "loaded":
            return (
                f"loaded {self.payload['relation']} "
                f"({self.payload['rows']} rows, "
                f"columns {tuple(self.payload['columns'])})"
            )
        if self.kind in ("inserted", "deleted"):
            changed = self.payload["rows_changed"]
            given = self.payload["rows_given"]
            preposition = "into" if self.kind == "inserted" else "from"
            skipped = "" if changed == given else (
                f", {given - changed} already "
                + ("present" if self.kind == "inserted" else "absent")
            )
            return (
                f"{self.kind} {changed} row{'s' if changed != 1 else ''} "
                f"{preposition} {self.payload['relation']}{skipped} "
                f"({self.payload['rows_total']} total)"
            )
        return ""


class Session:
    """One front-door session over a shared engine.

    Parameters
    ----------
    database / engine:
        Either an existing engine, or a database to build one around
        (both ``None`` starts empty).  Servers share one engine across
        many sessions — the engine's caches are thread-safe, and
        per-session state here is only the default strategy and the
        load base directory.
    strategy:
        Strategy key passed to every verb call (default ``"auto"``).
    base_dir:
        Directory ``LOAD`` paths are resolved against (default: the
        process working directory).
    """

    def __init__(
        self,
        database: Optional[Database] = None,
        engine: Optional[QueryEngine] = None,
        *,
        strategy: str = "auto",
        base_dir: Optional[str] = None,
    ) -> None:
        if engine is None:
            engine = QueryEngine(database if database is not None else Database())
        self.engine = engine
        self.strategy = strategy
        self.base_dir = base_dir

    @property
    def database(self) -> Database:
        return self.engine.database

    # ------------------------------------------------------------------
    def execute(
        self,
        text: str,
        *,
        timeout: Optional[float] = None,
        token: Optional[CancellationToken] = None,
        batch_size: Optional[int] = None,
    ) -> Outcome:
        """Parse and run one statement.

        ``batch_size`` shapes ``select`` outcomes' ``result_set.batches()``
        (the server's streaming granularity).  Raises
        :class:`~repro.db.query.QueryParseError` for bad syntax and the
        engine's error types (:class:`~repro.api.errors.QueryTimeout`,
        :class:`~repro.api.errors.UnsupportedWorkload`, ...) for
        execution failures — callers render them; nothing is swallowed.
        """
        statement = parse_statement(text)
        if isinstance(statement, MetaStatement):
            return self._execute_meta(statement)
        if isinstance(statement, LoadStatement):
            return self._execute_load(statement)
        if isinstance(statement, UpdateStatement):
            return self._execute_update(statement)
        assert isinstance(statement, QueryStatement)
        return self._execute_query(
            statement, timeout=timeout, token=token, batch_size=batch_size
        )

    # ------------------------------------------------------------------
    def _execute_query(
        self,
        statement: QueryStatement,
        *,
        timeout: Optional[float],
        token: Optional[CancellationToken],
        batch_size: Optional[int] = None,
    ) -> Outcome:
        engine = self.engine
        query = statement.query
        if statement.explain:
            explanation = engine.explain(
                query, self.strategy, verb=statement.verb
            )
            payload: Dict[str, object] = {
                "verb": statement.verb,
                "strategy": explanation.strategy,
                "text": explanation.describe(),
            }
            if statement.verify:
                violations = engine.verify(
                    query, self.strategy, verb=statement.verb
                )
                payload["violations"] = [v.describe() for v in violations]
                if violations:
                    verdict = "\n".join(
                        [f"plan FAILS verification ({len(violations)} violations):"]
                        + [f"  {v.describe()}" for v in violations]
                    )
                else:
                    verdict = "plan verifies (0 violations)"
                payload["text"] = f"{verdict}\n{payload['text']}"
            return Outcome(kind="explain", payload=payload)
        if statement.verb == "exists":
            result = engine.exists(
                query, self.strategy, timeout=timeout, token=token
            )
            return Outcome(kind="exists", payload=result.to_dict(), result=result)
        if statement.verb == "count":
            result = engine.count(
                query, self.strategy, timeout=timeout, token=token
            )
            return Outcome(kind="count", payload=result.to_dict(), result=result)
        rows = engine.select(
            query,
            self.strategy,
            limit=statement.limit,
            batch_size=batch_size,
            timeout=timeout,
            token=token,
        )
        return Outcome(
            kind="select",
            payload={
                "verb": "select",
                "columns": list(rows.columns),
                "limit": statement.limit,
                # "stream" when a LIMIT bounds the statement (constant-
                # delay enumeration), "sorted" otherwise.
                "order": rows.order,
            },
            result_set=rows,
        )

    def _execute_load(self, statement: LoadStatement) -> Outcome:
        path = statement.path
        if self.base_dir is not None and not os.path.isabs(path):
            path = os.path.join(self.base_dir, path)
        relation = self.database.load_csv(path, statement.relation)
        return Outcome(
            kind="loaded",
            payload={
                "relation": relation.name,
                "rows": len(relation),
                "columns": list(relation.schema),
                "path": statement.path,
            },
        )

    def _execute_update(self, statement: UpdateStatement) -> Outcome:
        """Run an ``INSERT``/``DELETE`` through the engine's delta path.

        Strict about the target: updating a relation that was never
        loaded raises the database's ``KeyError`` (with its
        known-relations hint) rather than silently creating one — a
        typo'd name should not fork the data.  Row arity is validated by
        the storage layer against the relation's schema.
        """
        if statement.relation not in self.database:
            # Surface as a parse-level diagnostic with the statement text
            # (the server and REPL both render QueryParseError nicely).
            known = ", ".join(sorted(self.database)) or "(none loaded)"
            raise QueryParseError(
                f"unknown relation {statement.relation!r}; "
                f"known relations: {known}",
                statement.text,
                (0, len(statement.text)),
            )
        if statement.kind == "insert":
            changed = self.engine.insert(statement.relation, statement.rows)
        else:
            changed = self.engine.delete(statement.relation, statement.rows)
        return Outcome(
            kind="inserted" if statement.kind == "insert" else "deleted",
            payload={
                "relation": statement.relation,
                "rows_given": len(statement.rows),
                "rows_changed": changed,
                "rows_total": len(self.database[statement.relation]),
            },
        )

    def _execute_meta(self, statement: MetaStatement) -> Outcome:
        command = statement.command
        if command in ("quit", "q", "exit"):
            return Outcome(kind="quit", payload={"text": ""})
        if command in ("help", "h", "?"):
            return Outcome(kind="meta", payload={"command": "help", "text": _HELP})
        if command == "relations":
            lines: List[str] = []
            listing = []
            for name, relation in self.database.items():
                lines.append(
                    f"{name}({', '.join(relation.schema)}): {len(relation)} rows"
                )
                listing.append(
                    {
                        "name": name,
                        "columns": list(relation.schema),
                        "rows": len(relation),
                    }
                )
            text = "\n".join(lines) if lines else "(no relations loaded)"
            return Outcome(
                kind="meta",
                payload={"command": command, "relations": listing, "text": text},
            )
        if command == "strategies":
            names = list(self.engine.registry.names())
            return Outcome(
                kind="meta",
                payload={
                    "command": command,
                    "strategies": names,
                    "text": "\n".join(names),
                },
            )
        if command == "stats":
            plans = self.engine.cache_info()
            results = self.engine.result_cache_info()
            stats = {
                "database": {
                    "relations": len(self.database),
                    "tuples": self.database.size,
                },
                "plan_cache": {
                    "hits": plans.hits,
                    "misses": plans.misses,
                    "size": plans.size,
                    "maxsize": plans.maxsize,
                },
                "result_cache": {
                    "hits": results.hits,
                    "misses": results.misses,
                    "size": results.size,
                    "maxsize": results.maxsize,
                },
            }
            text = "\n".join(
                [
                    f"database:     {stats['database']['relations']} relations, "
                    f"{stats['database']['tuples']} tuples",
                    f"plan cache:   {plans.hits} hits / {plans.misses} misses "
                    f"({plans.size}/{plans.maxsize} entries)",
                    f"result cache: {results.hits} hits / {results.misses} misses "
                    f"({results.size}/{results.maxsize} entries)",
                ]
            )
            return Outcome(
                kind="meta",
                payload={"command": command, "stats": stats, "text": text},
            )
        raise QueryParseError(
            f"unknown meta command \\{command} "
            "(try \\help, \\relations, \\strategies, \\stats, \\quit)",
            statement.text,
            (0, len(statement.text)),
        )
