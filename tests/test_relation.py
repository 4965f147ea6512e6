"""Tests for the Relation data structure and its operators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.db import Relation
from repro.db.backends import ColumnarBackend


def small_relation(schema):
    values = st.integers(min_value=0, max_value=4)
    row = st.tuples(*([values] * len(schema)))
    return st.lists(row, max_size=25).map(lambda rows: Relation(schema, rows))


class TestBasics:
    def test_schema_validation(self):
        with pytest.raises(ValueError):
            Relation(("X", "X"), [])
        with pytest.raises(ValueError):
            Relation(("X", "Y"), [(1,)])

    def test_set_semantics(self):
        r = Relation(("X", "Y"), [(1, 2), (1, 2), (3, 4)])
        assert len(r) == 2
        assert (1, 2) in r

    def test_equality_is_schema_order_insensitive(self):
        a = Relation(("X", "Y"), [(1, 2)])
        b = Relation(("Y", "X"), [(2, 1)])
        assert a == b
        # Equal objects hash equal: a set keeps one of them.
        assert hash(a) == hash(b) and len({a, b}) == 1

    def test_project_gives_the_active_domain(self):
        r = Relation(("X", "Y"), [(1, 2), (3, 2)])
        assert r.project(["X"]).rows == {(1,), (3,)}
        assert r.project(["X"]).rows | r.project(["Y"]).rows == {(1,), (2,), (3,)}
        with pytest.raises(KeyError):
            r.project(["Z"])


class TestOperators:
    def test_project(self):
        r = Relation(("X", "Y"), [(1, 2), (1, 3)])
        assert r.project(["X"]).rows == {(1,)}
        assert r.project(["Y", "X"]).rows == {(2, 1), (3, 1)}

    def test_restrict_by_value_set(self):
        r = Relation(("X", "Y"), [(1, 2), (3, 4)])
        assert r.restrict("X", [1]).rows == {(1, 2)}
        assert r.restrict("X", [3]).restrict("Y", [4]).rows == {(3, 4)}
        assert r.restrict("X", [1]).restrict("Y", [4]).is_empty()
        assert r.restrict("X", [1, 3, 5]).rows == r.rows
        assert r.restrict("X", ["absent"]).is_empty()

    def test_rename(self):
        r = Relation(("X", "Y"), [(1, 2)])
        assert r.rename({"X": "A"}).schema == ("A", "Y")

    def test_join_matches_nested_loop(self):
        r = Relation(("X", "Y"), [(1, 2), (2, 3), (4, 4)])
        s = Relation(("Y", "Z"), [(2, 10), (3, 11), (3, 12)])
        joined = r.join(s)
        expected = {
            (x, y, z)
            for (x, y) in r.rows
            for (y2, z) in s.rows
            if y == y2
        }
        assert joined.rows == expected
        assert joined.schema == ("X", "Y", "Z")

    @given(small_relation(("X", "Y")), small_relation(("Y", "Z")))
    def test_join_property(self, r, s):
        joined = r.join(s)
        expected = {
            (x, y, z)
            for (x, y) in r.rows
            for (y2, z) in s.rows
            if y == y2
        }
        assert joined.rows == expected

    @given(small_relation(("X", "Y")), small_relation(("Y", "Z")))
    def test_semijoin_property(self, r, s):
        reduced = r.semijoin(s)
        y_values = {y for (y, _) in s.rows}
        assert reduced.rows == {(x, y) for (x, y) in r.rows if y in y_values}
        anti = r.antijoin(s)
        assert anti.rows == r.rows - reduced.rows

    def test_join_disjoint_schemas_is_cross(self):
        r = Relation(("X",), [(1,), (2,)])
        s = Relation(("Y",), [(5,)])
        assert r.join(s).rows == {(1, 5), (2, 5)}

    def test_full_schema_semijoin_intersects(self):
        a = Relation(("X", "Y"), [(1, 2)])
        b = Relation(("Y", "X"), [(2, 1), (5, 6)])
        assert a.semijoin(b).rows == {(1, 2)}

    def test_semijoin_no_shared_variables(self):
        r = Relation(("X",), [(1,)])
        s = Relation(("Y",), [(2,)])
        assert r.semijoin(s) == r
        assert r.semijoin(Relation(("Y",), [])).is_empty()


class TestDegreesAndPartitioning:
    def test_degree_definition_e9(self):
        r = Relation(("X", "Y"), [(1, 1), (1, 2), (1, 3), (2, 1)])
        assert r.stats.max_degree(["Y"], ["X"]) == 3
        # X = 1 has three Y values and X = 2 one: heavy past 0 and 1, only 1 past 2.
        assert r.heavy_part(["X"], 0).rows == {(1,), (2,)}
        assert r.heavy_part(["X"], 1).rows == r.heavy_part(["X"], 2).rows == {(1,)}
        assert r.heavy_part(["X"], 3).is_empty()
        assert r.stats.max_degree(["X"], []) == 2  # two distinct X values overall

    def test_heavy_light_split(self):
        rows = [(1, i) for i in range(5)] + [(2, 0), (3, 0)]
        r = Relation(("X", "Y"), rows)
        heavy, light = r.heavy_light_split(["X"], threshold=2)
        assert heavy.rows == {(1,)}
        assert light.rows == {(2, 0), (3, 0)}
        # Every original row is accounted for by exactly one part.
        heavy_keys = {row[0] for row in heavy.rows}
        assert all((row[0] in heavy_keys) != (row in light.rows) for row in rows)

    def test_heavy_light_split_threshold_extremes(self):
        r = Relation(("X", "Y"), [(1, 2), (3, 4)])
        heavy, light = r.heavy_light_split(["X"], threshold=0)
        assert light.is_empty() and len(heavy) == 2
        heavy, light = r.heavy_light_split(["X"], threshold=10)
        assert heavy.is_empty() and light == r


class TestBackends:
    def test_backend_selection_and_kind(self):
        # One store: every constructor builds a columnar backend, and there
        # is no backend to choose.
        for built in (
            Relation(("X", "Y"), [(1, 2)]),
            Relation.from_columns(("X", "Y"), ([1], [2])),
            Relation.from_pairs(("X", "Y"), [(1, 2)]),
            Relation.empty(("X", "Y")),
        ):
            assert type(built._backend) is ColumnarBackend
        with pytest.raises(TypeError):
            Relation(("X",), [(1,)], backend="columnar")

    def test_from_columns(self):
        r = Relation.from_columns(("X", "Y"), ([1, 2, 2], [5, 6, 6]))
        assert r.rows == {(1, 5), (2, 6)}  # duplicates collapse
        assert r.rows == Relation(("X", "Y"), [(1, 5), (2, 6)]).rows
        arr = np.array([3, 3, 4])
        via_numpy = Relation.from_columns(("X",), (arr,))
        assert via_numpy.rows == {(3,), (4,)}
        assert all(type(value) is int for (value,) in via_numpy.rows)
        with pytest.raises(ValueError):
            Relation.from_columns(("X", "Y"), ([1], [2, 3]))
        with pytest.raises(ValueError):
            Relation.from_columns(("X",), ([1], [2]))

    def test_validation_matches_reference(self):
        with pytest.raises(ValueError):
            Relation(("X", "X"), [])
        with pytest.raises(ValueError):
            Relation(("X", "Y"), [(1,)])
        with pytest.raises(KeyError):
            Relation(("X",), [(1,)]).restrict("Z", [1])

    def test_columnar_rename_shares_storage(self):
        c = Relation(("X", "Y"), [(1, 2), (3, 4)])
        renamed = c.rename({"X": "A"})
        assert renamed._backend._columns is c._backend._columns
        assert renamed.rows == {(1, 2), (3, 4)}

    def test_stats_views(self):
        stats = Relation(("X", "Y"), [(1, 2), (1, 3), (2, 3)]).stats
        assert stats.n_rows == 3
        assert stats.distinct("X") == 2 and stats.distinct("Y") == 2
        assert stats.distinct_counts == {"X": 2, "Y": 2}
        assert stats.max_degree(["Y"], ["X"]) == 2
        assert stats.max_degree(["X"]) == 2  # unconditional: V(X, r)
        assert stats.fingerprint() == (3, (2, 2))

    def test_restrict(self):
        r = Relation(("X", "Y"), [(1, 2), (3, 4), (5, 6)], name="R")
        kept = r.restrict("X", {1, 5, 99})
        assert kept.rows == {(1, 2), (5, 6)}
        assert kept.name == "R"
        assert r.restrict("X", set()).is_empty()

    def test_nullary_and_empty_edge_cases(self):
        empty_nullary = Relation((), [])
        unit = Relation((), [(), ()])
        assert len(empty_nullary) == 0 and len(unit) == 1
        assert list(unit) == [()]
        assert unit.semijoin(unit).rows == {()}
        assert unit.semijoin(empty_nullary).is_empty()
        empty = Relation(("X", "Y"), [])
        assert empty.project(["X"]).is_empty()
        assert empty.join(empty).is_empty()
        assert empty.stats.max_degree(["Y"], ["X"]) == 0
        assert empty.stats.fingerprint() == (0, (0, 0))

    def test_columnar_string_and_mixed_values(self):
        rows = [("a", 1), ("b", 2), ("a", 2)]
        c = Relation(("X", "Y"), rows)
        assert c.rows == set(rows)
        mixed = Relation(("X",), [(1,), ("one",)])
        assert mixed.rows == {(1,), ("one",)}
        assert mixed.restrict("X", {"one"}).rows == {("one",)}

    def test_nan_parity_with_reference_backend(self):
        rows = [(float("nan"),), (float("nan"),), (1.0,)]
        columnar = Relation(("X",), rows)
        # Distinct NaN objects stay distinct under set semantics; the
        # columnar encoder must not collapse them via np.unique.
        assert len(set(rows)) == len(columnar) == 3
        assert len({row[0] for row in rows}) == columnar.stats.distinct("X") == 3

    def test_sorted_composite_keys_cached_and_shared_across_renames(self):
        backend = ColumnarBackend.from_columns(
            ("X", "Y"), [[3, 1, 2, 1], [0, 1, 0, 1]]
        )
        first = backend.sorted_composite_keys((0, 1))
        assert first is not None
        again = backend.sorted_composite_keys((0, 1))
        assert again is first  # cached, not recomputed
        renamed = backend.rename(("A", "B"))
        assert renamed.sorted_composite_keys((0, 1)) is first  # shared cache

    def test_translation_table_cached_per_dictionary_pair(self):
        left = ColumnarBackend.from_columns(("X",), [[1, 2, 3, 4]])
        right = ColumnarBackend.from_columns(("X",), [[3, 4, 5]])
        table_one = left._columns[0].dictionary.translate_from(
            right._columns[0].dictionary
        )
        table_two = left._columns[0].dictionary.translate_from(
            right._columns[0].dictionary
        )
        assert table_one is table_two
        # Derived relations (projections, row slices) share the dictionary,
        # so they hit the same cached table.
        sliced = right.slice_rows(0, 2)
        assert (
            left._columns[0].dictionary.translate_from(sliced._columns[0].dictionary)
            is table_one
        )

    def test_lazy_index_shared_with_derived_columns(self):
        backend = ColumnarBackend.from_columns(("X",), [list(range(10))])
        derived = backend.take(np.arange(5))
        # Building the index through the derived column makes it visible to
        # the parent (one dictionary, one index).
        assert derived._columns[0].index is backend._columns[0].index
