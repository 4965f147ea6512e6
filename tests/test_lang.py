"""The language front end: lexer, parser, differential parity, session, REPL."""

import io
import re
import textwrap
from pathlib import Path

import pytest

from repro.api.errors import QueryTimeout
from repro.db import Database, Relation
from repro.db.backends import ColumnarBackend
from repro.db.query import QueryParseError, parse_query
from repro.lang import (
    LoadStatement,
    MetaStatement,
    QueryStatement,
    Session,
    UpdateStatement,
    caret_diagnostic,
    parse_query_text,
    parse_statement,
    tokenize,
)
from repro.lang.repl import run_repl


def triangle_db():
    edges = [(1, 2), (2, 3), (3, 1), (2, 1)]
    db = Database()
    for name in ("R", "S", "T"):
        db[name] = Relation.from_pairs(("a", "b"), edges, name)
    return db


# ----------------------------------------------------------------------
# Lexer
# ----------------------------------------------------------------------
class TestLexer:
    def test_identifiers_with_primes(self):
        kinds = [(t.kind, t.value) for t in tokenize("R(Z, Z')")]
        assert kinds == [
            ("IDENT", "R"),
            ("LPAREN", "("),
            ("IDENT", "Z"),
            ("COMMA", ","),
            ("IDENT", "Z'"),
            ("RPAREN", ")"),
        ]

    def test_string_and_number(self):
        tokens = tokenize("LOAD R FROM 'a b.csv' LIMIT 10")
        assert [t.kind for t in tokens] == [
            "IDENT", "IDENT", "IDENT", "STRING", "IDENT", "NUMBER",
        ]
        assert tokens[3].value == "a b.csv"

    def test_unterminated_string(self):
        with pytest.raises(QueryParseError):
            tokenize("LOAD R FROM 'oops")

    def test_unexpected_character_has_span(self):
        with pytest.raises(QueryParseError) as info:
            tokenize("R(X) & S(Y)")
        assert info.value.span == (5, 6)
        assert info.value.fragment == "&"

    def test_implies_token(self):
        assert [t.kind for t in tokenize(":-")] == ["IMPLIES"]


# ----------------------------------------------------------------------
# Differential parity with parse_query (strict mode)
# ----------------------------------------------------------------------
def corpus_from_test_suite():
    """Every string literal passed to parse_query anywhere in tests/."""
    pattern = re.compile(r"""parse_query\(\s*[rbf]?(['"])(.*?)\1""")
    seen = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for match in pattern.finditer(path.read_text(encoding="utf-8")):
            text = match.group(2)
            if text and text not in seen:
                seen.append(text)
    return seen


HANDWRITTEN = [
    # accepted forms
    "Q(X, Z) :- R(X, Y), S(Y, Z)",
    "R(X, Y), S(Y, Z)",
    "Q() :- R(X, Y)",
    "Q :- R(X, Y)",
    ":- R(X, Y)",
    "Q(Z') :- R(Z, Z'), S(Z', W)",
    "q(x) :- r(x, y)",
    "Q(X) :- R( X , Y )",
    "R(_)",
    "T(A,B), U(B,C), V(C,A)",
    # rejected forms
    "R(X) S(Y)",
    "R(X),",
    ",R(X)",
    "R()",
    "R(X,)",
    "R(,X)",
    "Q(W) :- R(X)",
    "Q(X,X) :- R(X)",
    "R(X, X)",
    "R(X), R(Y)",
    "",
    "   ",
    "hello",
    "R((X))",
    "Q(X, Z) :- R(X, Y), S(Y, Z).",
    "foo Q(X) :- R(X)",
    "Q(X) extra :- R(X)",
    "Q(X), P(Y) :- R(X, Y)",
    "123 :- R(X)",
    "R(1,2)",
    "R(X Y)",
    "R(X,Y),, S(Y,Z)",
    "Q() :- ",
    "R(X :- S(Y)",
]


class TestDifferentialParity:
    """parse_query_text accepts/rejects exactly what strict parse_query does."""

    @pytest.mark.parametrize("text", HANDWRITTEN, ids=repr)
    def test_handwritten_corpus(self, text):
        self._check(text)

    def test_test_suite_corpus(self):
        corpus = corpus_from_test_suite()
        # The suite leans on parse_query heavily; make sure the scrape
        # actually found a real corpus rather than silently passing.
        assert len(corpus) >= 20
        for text in corpus:
            self._check(text)

    @staticmethod
    def _check(text):
        try:
            expected = parse_query(text)
        except QueryParseError:
            with pytest.raises(QueryParseError):
                parse_query_text(text)
            return
        got = parse_query_text(text)
        assert got.atoms == expected.atoms, text
        assert got.name == expected.name, text
        assert got.output_variables == expected.output_variables, text

    def test_name_override_matches(self):
        for text in ("R(X,Y)", "Q(X) :- R(X,Y)", "Old :- R(X,Y)"):
            assert (
                parse_query_text(text, name="New").name
                == parse_query(text, name="New").name
            )

    def test_errors_carry_spans(self):
        with pytest.raises(QueryParseError) as info:
            parse_query_text("Q(X) :- R(X,), S(X)")
        start, end = info.value.span
        assert "Q(X) :- R(X,), S(X)"[start:end]
        assert info.value.source == "Q(X) :- R(X,), S(X)"


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
class TestStatements:
    def test_plain_boolean_rule_defaults_to_exists(self):
        statement = parse_statement("Q() :- R(X, Y).")
        assert isinstance(statement, QueryStatement)
        assert statement.verb == "exists"
        assert not statement.explain

    def test_plain_output_rule_defaults_to_select(self):
        statement = parse_statement("Q(X) :- R(X, Y)")
        assert statement.verb == "select"

    def test_verb_keywords_case_insensitive(self):
        assert parse_statement("exists R(X, Y)").verb == "exists"
        assert parse_statement("Count R(X, Y)").verb == "count"
        assert parse_statement("SELECT R(X, Y)").verb == "select"

    def test_bare_body_count_gets_sorted_outputs(self):
        statement = parse_statement("COUNT S(B, A)")
        assert statement.query.output_variables == ("A", "B")

    def test_bare_body_exists_stays_boolean(self):
        statement = parse_statement("EXISTS S(B, A)")
        assert statement.query.output_variables == ()

    def test_explicit_head_is_never_rewritten(self):
        statement = parse_statement("COUNT Q() :- R(X, Y)")
        assert statement.query.output_variables == ()

    def test_select_limit(self):
        statement = parse_statement("SELECT Q(X) :- R(X, Y) LIMIT 5;")
        assert statement.limit == 5

    def test_limit_rejected_outside_select(self):
        with pytest.raises(QueryParseError, match="LIMIT"):
            parse_statement("COUNT R(X, Y) LIMIT 5")

    def test_explain_wraps_verbs(self):
        statement = parse_statement("EXPLAIN COUNT R(X, Y)")
        assert statement.explain and statement.verb == "count"
        statement = parse_statement("explain Q(X) :- R(X, Y)")
        assert statement.explain and statement.verb == "select"

    def test_load_statement(self):
        statement = parse_statement("LOAD edges FROM 'data/edges.tsv'.")
        assert isinstance(statement, LoadStatement)
        assert statement.relation == "edges"
        assert statement.path == "data/edges.tsv"

    def test_load_requires_quoted_path(self):
        with pytest.raises(QueryParseError, match="quoted file path"):
            parse_statement("LOAD edges FROM edges.csv")

    def test_meta_statement(self):
        statement = parse_statement(r"\stats extra arg")
        assert isinstance(statement, MetaStatement)
        assert statement.command == "stats"
        assert statement.arguments == ("extra", "arg")

    def test_keyword_named_relations_still_parse(self):
        # 'count(' opens an atom, not a verb: contextual keywords.
        statement = parse_statement("Count(X, Y), R(Y, Z)")
        assert statement.verb == "exists"
        assert statement.query.relation_names == ("Count", "R")

    def test_trailing_junk_rejected(self):
        with pytest.raises(QueryParseError):
            parse_statement("R(X, Y) wat")
        with pytest.raises(QueryParseError):
            parse_statement("R(X, Y).. ")

    def test_empty_statement_rejected(self):
        with pytest.raises(QueryParseError, match="empty"):
            parse_statement("   ")


class TestCaretDiagnostics:
    def test_caret_points_at_fragment(self):
        with pytest.raises(QueryParseError) as info:
            parse_statement("SELECT Q(X,Z) :- R(X,Y), S(Y Z)")
        rendered = caret_diagnostic(info.value)
        lines = rendered.splitlines()
        assert lines[0].startswith("parse error:")
        assert "(at characters" not in lines[0]
        assert lines[1] == "  SELECT Q(X,Z) :- R(X,Y), S(Y Z)"
        caret_column = lines[2].index("^") - 2
        assert "SELECT Q(X,Z) :- R(X,Y), S(Y Z)"[caret_column] == "Z"

    def test_caret_on_multiline_source(self):
        error = QueryParseError("boom", "first\nsecond line\nthird", (9, 13))
        rendered = caret_diagnostic(error)
        assert rendered.splitlines()[1] == "  second line"
        assert rendered.splitlines()[2] == "     ^^^^"

    def test_caret_at_end_of_statement(self):
        with pytest.raises(QueryParseError) as info:
            parse_statement("COUNT R(X,")
        rendered = caret_diagnostic(info.value)
        assert "^" in rendered


# ----------------------------------------------------------------------
# Session + REPL
# ----------------------------------------------------------------------
class TestSession:
    def test_exists_count_select(self):
        session = Session(triangle_db())
        outcome = session.execute("EXISTS R(X, Y), S(Y, Z)")
        assert outcome.kind == "exists"
        assert outcome.payload["answer"] is True
        outcome = session.execute("COUNT Q(X) :- R(X, Y)")
        assert outcome.kind == "count"
        assert outcome.payload["row_count"] == 3
        outcome = session.execute("SELECT Q(X, Z) :- R(X, Y), S(Y, Z) LIMIT 2")
        assert outcome.kind == "select"
        assert len(outcome.result_set.to_rows()) == 2

    def test_select_rows_are_deterministic(self):
        session = Session(triangle_db())
        first = session.execute("SELECT Q(X, Z) :- R(X, Y), S(Y, Z)")
        second = session.execute("SELECT Q(X, Z) :- R(X, Y), S(Y, Z)")
        assert first.result_set.to_rows() == second.result_set.to_rows()

    def test_load_resolves_against_base_dir(self, tmp_path):
        (tmp_path / "edges.csv").write_text("a,b\n1,2\n2,3\n", encoding="utf-8")
        session = Session(base_dir=str(tmp_path))
        outcome = session.execute("LOAD R FROM 'edges.csv'")
        assert outcome.kind == "loaded"
        assert outcome.payload["rows"] == 2
        assert session.execute("EXISTS R(X, Y)").payload["answer"] is True
        # The front door stores what every measured workload stores.
        assert type(session.engine.database["R"]._backend) is ColumnarBackend

    def test_explain_does_not_execute(self):
        session = Session(triangle_db())
        outcome = session.execute("EXPLAIN COUNT R(X, Y)")
        assert outcome.kind == "explain"
        assert "strategy" in outcome.payload
        assert "Count" in outcome.payload["text"]

    def test_meta_commands(self):
        session = Session(triangle_db())
        relations = session.execute(r"\relations")
        assert [r["name"] for r in relations.payload["relations"]] == ["R", "S", "T"]
        strategies = session.execute(r"\strategies")
        assert "yannakakis" in strategies.payload["strategies"]
        stats = session.execute(r"\stats")
        assert stats.payload["stats"]["database"]["relations"] == 3
        assert session.execute(r"\quit").kind == "quit"

    def test_unknown_meta_command(self):
        with pytest.raises(QueryParseError, match="unknown meta"):
            Session(triangle_db()).execute(r"\frobnicate")

    def test_timeout_threads_through(self):
        session = Session(triangle_db())
        with pytest.raises(QueryTimeout) as info:
            session.execute("COUNT R(X, Y)", timeout=0.0)
        assert info.value.result.timed_out

    def test_missing_relation_is_engine_error(self):
        with pytest.raises(KeyError):
            Session(Database()).execute("EXISTS Nope(X, Y)")

    def test_outcomes_render(self):
        session = Session(triangle_db())
        assert "true" in session.execute("EXISTS R(X, Y)").describe()
        assert session.execute("COUNT R(X, Y)").describe().startswith("4")
        assert "1 row" in session.execute("SELECT R(X, Y) LIMIT 1").describe()


class TestRepl:
    def run(self, script, session=None):
        out = io.StringIO()
        session = run_repl(
            session if session is not None else Session(triangle_db()),
            input_stream=io.StringIO(textwrap.dedent(script)),
            output=out,
            prompt="",
            banner=False,
        )
        return out.getvalue(), session

    def test_scripted_session(self):
        output, _ = self.run(
            """\
            EXISTS R(X, Y), S(Y, Z)
            COUNT R(X, Y)
            \\quit
            """
        )
        assert "true" in output
        assert "4" in output

    def test_parse_errors_render_carets_and_continue(self):
        output, _ = self.run(
            """\
            R(X oops
            COUNT R(X, Y)
            """
        )
        assert "parse error" in output
        assert "^" in output
        assert "4" in output  # the session survived the bad line

    def test_engine_errors_do_not_kill_the_loop(self):
        output, _ = self.run(
            """\
            EXISTS Missing(X, Y)
            COUNT R(X, Y)
            """
        )
        assert "error:" in output
        assert "4" in output

    def test_comments_and_blank_lines_skipped(self):
        output, _ = self.run("# hi\n\nCOUNT R(X, Y)\n")
        assert "4" in output


# ----------------------------------------------------------------------
# INSERT / DELETE statements
# ----------------------------------------------------------------------
class TestUpdateStatements:
    def test_parse_insert_multiple_tuples(self):
        statement = parse_statement("INSERT R(1, 2), (3, 'x')")
        assert isinstance(statement, UpdateStatement)
        assert statement.kind == "insert"
        assert statement.relation == "R"
        assert statement.rows == ((1, 2), (3, "x"))

    def test_parse_delete_single_tuple(self):
        statement = parse_statement("DELETE Edge(7, 8).")
        assert statement.kind == "delete"
        assert statement.relation == "Edge"
        assert statement.rows == ((7, 8),)

    def test_insert_as_relation_name_still_a_query(self):
        # Contextual keyword: followed by '(', INSERT is an atom.
        statement = parse_statement("EXISTS Q() :- INSERT(X, Y)")
        assert isinstance(statement, QueryStatement)

    @pytest.mark.parametrize(
        "bad",
        [
            "INSERT R(1, ",   # unterminated tuple
            "INSERT R 1, 2",  # missing parenthesis
            "DELETE R(1; 2)",  # bad separator
        ],
    )
    def test_malformed_updates_caret_diagnosed(self, bad):
        with pytest.raises(QueryParseError) as info:
            parse_statement(bad)
        rendered = caret_diagnostic(info.value)
        assert "^" in rendered

    def test_session_insert_delete_roundtrip(self):
        session = Session(triangle_db())
        count = session.execute("COUNT Q(X, Y, Z) :- R(X, Y), S(Y, Z)")
        base = count.payload["row_count"]
        outcome = session.execute("INSERT S(2, 99), (1, 2)")
        assert outcome.kind == "inserted"
        assert outcome.payload == {
            "relation": "S",
            "rows_given": 2,
            "rows_changed": 1,  # (1, 2) was already present
            "rows_total": 5,
        }
        assert "1 already present" in outcome.describe()
        after = session.execute("COUNT Q(X, Y, Z) :- R(X, Y), S(Y, Z)")
        assert after.payload["row_count"] == base + 1
        outcome = session.execute("DELETE S(2, 99)")
        assert outcome.kind == "deleted"
        assert outcome.payload["rows_changed"] == 1
        restored = session.execute("COUNT Q(X, Y, Z) :- R(X, Y), S(Y, Z)")
        assert restored.payload["row_count"] == base

    def test_session_rejects_unknown_relation(self):
        session = Session(triangle_db())
        with pytest.raises(QueryParseError, match="unknown relation"):
            session.execute("INSERT Zed(1, 2)")
        assert "Zed" not in session.database  # no silent auto-create
