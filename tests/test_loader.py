"""CSV/TSV loading: delimiter sniffing, header detection, type inference."""

import pytest

from repro.db import Database, Relation
from repro.db.backends import ColumnarBackend
from repro.db.loader import infer_column, load_table, sniff_delimiter


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestInference:
    def test_all_int_column_parses(self):
        assert infer_column(["1", "2", "-3"]) == [1, 2, -3]

    def test_mixed_column_stays_str(self):
        assert infer_column(["1", "2", "x"]) == ["1", "2", "x"]

    def test_empty_cell_blocks_int(self):
        assert infer_column(["1", ""]) == ["1", ""]

    def test_float_looking_values_stay_str(self):
        # Only integers are parsed; join keys are ints or strings.
        assert infer_column(["1.5", "2.5"]) == ["1.5", "2.5"]

    def test_sniff(self):
        assert sniff_delimiter("edges.csv") == ","
        assert sniff_delimiter("edges.tsv") == "\t"
        assert sniff_delimiter("edges.TAB") == "\t"
        assert sniff_delimiter("edges.txt") == ","


class TestLoadTable:
    def test_basic_csv_with_header(self, tmp_path):
        path = write(tmp_path, "edges.csv", "src,dst\n1,2\n2,3\n")
        relation = load_table(path)
        assert relation.name == "edges"
        assert relation.schema == ("src", "dst")
        assert sorted(relation) == [(1, 2), (2, 3)]

    def test_headerless_numeric_rows(self, tmp_path):
        path = write(tmp_path, "r.csv", "1,2\n3,4\n")
        relation = load_table(path)
        assert relation.schema == ("c0", "c1")
        assert sorted(relation) == [(1, 2), (3, 4)]

    def test_explicit_header_false_keeps_first_row(self, tmp_path):
        path = write(tmp_path, "r.csv", "x,y\na,b\n")
        relation = load_table(path, header=False)
        assert relation.schema == ("c0", "c1")
        assert sorted(relation) == [("a", "b"), ("x", "y")]

    def test_explicit_header_true(self, tmp_path):
        path = write(tmp_path, "r.csv", "a,b\n1,2\n")
        relation = load_table(path, header=True)
        assert relation.schema == ("a", "b")
        assert sorted(relation) == [(1, 2)]

    def test_tsv_delimiter_from_extension(self, tmp_path):
        path = write(tmp_path, "edges.tsv", "src\tdst\n1\t2\n")
        relation = load_table(path)
        assert relation.schema == ("src", "dst")
        assert sorted(relation) == [(1, 2)]

    def test_explicit_delimiter_overrides(self, tmp_path):
        path = write(tmp_path, "edges.csv", "src|dst\n1|2\n")
        relation = load_table(path, delimiter="|")
        assert sorted(relation) == [(1, 2)]

    def test_quoted_cells_keep_delimiter_and_stay_str(self, tmp_path):
        path = write(tmp_path, "names.csv", 'id,label\n1,"a,b"\n2,plain\n')
        relation = load_table(path)
        assert sorted(relation) == [(1, "a,b"), (2, "plain")]

    def test_mixed_type_column_is_all_str(self, tmp_path):
        # One non-numeric cell makes the whole column strings, so "1"
        # does not silently become an int that never joins against "x".
        path = write(tmp_path, "r.csv", "a,b\n1,1\n2,x\n")
        relation = load_table(path)
        assert sorted(relation) == [(1, "1"), (2, "x")]

    def test_header_only_file_is_empty_relation(self, tmp_path):
        path = write(tmp_path, "r.csv", "a,b\n")
        relation = load_table(path)
        assert relation.schema == ("a", "b")
        assert len(relation) == 0

    def test_empty_file_raises(self, tmp_path):
        path = write(tmp_path, "r.csv", "")
        with pytest.raises(ValueError, match="no rows"):
            load_table(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write(tmp_path, "r.csv", "a,b\n1,2\n\n3,4\n")
        assert sorted(load_table(path)) == [(1, 2), (3, 4)]

    def test_ragged_row_raises_with_line_number(self, tmp_path):
        path = write(tmp_path, "r.csv", "a,b\n1,2\n1,2,3\n")
        with pytest.raises(ValueError, match="line 3"):
            load_table(path)

    def test_duplicate_header_names_raise(self, tmp_path):
        path = write(tmp_path, "r.csv", "a,a\n1,2\n")
        with pytest.raises(ValueError):
            load_table(path)

    def test_name_override(self, tmp_path):
        path = write(tmp_path, "edges.csv", "a,b\n1,2\n")
        assert load_table(path, name="R").name == "R"

    def test_bad_header_argument(self, tmp_path):
        path = write(tmp_path, "r.csv", "a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            load_table(path, header="maybe")


class TestDatabaseLoadCsv:
    def test_load_stores_under_stem(self, tmp_path):
        path = write(tmp_path, "edges.csv", "src,dst\n1,2\n2,3\n")
        db = Database()
        relation = db.load_csv(path)
        assert "edges" in db
        assert db["edges"] is relation
        assert sorted(db["edges"]) == [(1, 2), (2, 3)]

    def test_load_bumps_version(self, tmp_path):
        path = write(tmp_path, "edges.csv", "src,dst\n1,2\n")
        db = Database()
        before = db.relation_version("edges")
        db.load_csv(path)
        assert db.relation_version("edges") > before

    def test_load_converts_to_database_backend(self, tmp_path):
        path = write(tmp_path, "edges.csv", "src,dst\n1,2\n")
        db = Database(backend="columnar")
        relation = db.load_csv(path)
        assert type(relation._backend) is ColumnarBackend
        assert relation.rows == {(1, 2)}

    def test_loaded_relation_joins_with_builtins(self, tmp_path):
        path = write(tmp_path, "R.csv", "a,b\n1,2\n2,3\n")
        db = Database()
        db.load_csv(path)
        db["S"] = Relation.from_pairs(("a", "b"), [(2, 4), (3, 5)], "S")
        from repro.api import QueryEngine
        from repro.db import parse_query

        engine = QueryEngine(db)
        assert engine.count(parse_query("Q(X,Z) :- R(X,Y), S(Y,Z)")).row_count == 2
