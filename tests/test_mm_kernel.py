"""The matrix operators, looked at directly.

``GroupedMatMul``, grouped or a plain product, listed or gathered at a
mask's rows, evaluates through one kernel on dictionary codes
(:meth:`repro.db.backends.ColumnarBackend.matmul`).  These tests run every
form through the :class:`VirtualMachine` against an oracle made of set
comprehensions over plain tuples and pin everything the trace reports about
a product — ``rows_in``, ``matrix_shape``, ``group_count``, its kernel —
next to the row set and the schema, with each operand built through either
input form (``tests.conftest.LOAD_FORMS``).  The kernel's ranks come
from a presence table or, past its bound, one sort; both must agree.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import QueryEngine
from repro.db import Database, Relation, backends, parse_query
from repro.db.backends import ColumnarBackend, _ranks_within_groups
from repro.exec.ir import GroupedMatMul, Join, Program, Scan, Semijoin
from repro.exec.vm import VirtualMachine
from tests.conftest import LOAD_FORMS, load_database, load_relation

#: One NaN *object*: equal to itself by identity only, like any value a
#: relation stores twice.
NAN = float("nan")


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def _pick(row, schema, variables):
    return tuple(row[schema.index(v)] for v in variables)


def oracle(left_schema, left_rows, right_schema, right_rows, rows, inner, cols, group):
    """``(output rows, rows_in, matrix_shape, group_count)`` from plain tuples.

    The dims rule is the one the tuple-based operators had: a group's
    product is (distinct left row keys) × (distinct left inner keys) ×
    (distinct right col keys of the group, whether or not their inner key
    occurs on the left); the trace reports the shape with the most cells
    (ties: the larger shape) and how many group keys both sides share.
    """
    left_rows, right_rows = set(left_rows), set(right_rows)
    if not left_rows:
        return set(), 0, (0, 0, 0), 0  # the right side is never evaluated
    rows_in = len(left_rows) + len(right_rows)
    if not right_rows:
        return set(), rows_in, (0, 0, 0), 0
    output = {
        _pick(a, left_schema, rows) + _pick(b, right_schema, cols) + _pick(a, left_schema, group)
        for a in left_rows
        for b in right_rows
        if _pick(a, left_schema, group) == _pick(b, right_schema, group)
        and _pick(a, left_schema, inner) == _pick(b, right_schema, inner)
    }
    shared = {_pick(a, left_schema, group) for a in left_rows} & {
        _pick(b, right_schema, group) for b in right_rows
    }
    shapes = []
    for key in shared:
        mine = [a for a in left_rows if _pick(a, left_schema, group) == key]
        theirs = [b for b in right_rows if _pick(b, right_schema, group) == key]
        shapes.append(
            (
                len({_pick(a, left_schema, rows) for a in mine}),
                len({_pick(a, left_schema, inner) for a in mine}),
                len({_pick(b, right_schema, cols) for b in theirs}),
            )
        )
    shape = max(shapes, key=lambda s: (math.prod(s), s), default=(0, 0, 0))
    return output, rows_in, shape, len(shared)


def run_operator(left, right, rows, inner, cols, group, grouped=True):
    """Evaluate one MM operator over two relations; ``(relation, trace)``."""
    database = Database()
    database["A"], database["B"] = left, right
    scans = Scan("A", left.schema), Scan("B", right.schema)
    node = (
        GroupedMatMul(*scans, tuple(rows), tuple(inner), tuple(cols), tuple(group))
        if grouped
        else GroupedMatMul(*scans, tuple(rows), tuple(inner), tuple(cols))
    )
    result = VirtualMachine(database).run(Program(node))
    return result.relation, result.operators[-1]


def check_against_oracle(
    left_schema, left_rows, left_form, right_schema, right_rows, right_form,
    rows, inner, cols, group, grouped=True,
):  # fmt: skip
    left = load_relation(left_form, left_schema, left_rows)
    right = load_relation(right_form, right_schema, right_rows)
    relation, trace = run_operator(left, right, rows, inner, cols, group, grouped)
    expected, rows_in, shape, group_count = oracle(
        left_schema, left_rows, right_schema, right_rows, rows, inner, cols, group
    )
    assert relation.schema == tuple(rows) + tuple(cols) + tuple(group)
    assert relation.rows == expected
    assert len(relation) == len(expected)  # distinct by construction
    assert trace.kernel == "columnar"
    assert trace.rows_in == rows_in
    assert trace.matrix_shape == shape
    assert trace.group_count == group_count
    return relation, trace


# ----------------------------------------------------------------------
# Hypothesis differential
# ----------------------------------------------------------------------
VALUES = st.sampled_from([0, 1, 2, 3, "s0", "s1", NAN, None, (1, 2)])


@st.composite
def mm_cases(draw):
    counts = [draw(st.integers(0, 2)) for _ in range(4)]
    rows, inner, cols, group = (
        [f"{prefix}{i}" for i in range(count)] for prefix, count in zip("RKCG", counts)
    )
    left_schema = draw(st.permutations(rows + inner + group))
    right_schema = draw(st.permutations(inner + cols + group))

    def table(schema):
        if not schema:
            return draw(st.sampled_from([[], [()]]))
        # Small pools per column keep keys colliding: duplicate projections,
        # shared and one-sided inner values, shared and disjoint groups.
        row = st.tuples(*[VALUES for _ in schema])
        return draw(st.lists(row, max_size=14))

    grouped = bool(group) or draw(st.booleans())
    forms = draw(st.tuples(st.sampled_from(LOAD_FORMS), st.sampled_from(LOAD_FORMS)))
    return (
        tuple(left_schema), table(left_schema), forms[0],
        tuple(right_schema), table(right_schema), forms[1],
        rows, inner, cols, group, grouped,
    )  # fmt: skip


@settings(max_examples=400)
@given(mm_cases())
def test_mm_operators_match_the_tuple_oracle(case):
    check_against_oracle(*case)


# ----------------------------------------------------------------------
# The masked product: Join(mask, product) without listing the product
# ----------------------------------------------------------------------
def masked_oracle(left, right, mask, rows, inner, cols, group):
    """``(output rows, rows_in, matrix_shape, group_count)`` of a masked product.

    The mask is read first and an empty one decides the answer, as an
    empty left side decides a join's: nothing else is evaluated.
    """
    mask_schema, mask_rows = mask
    if not mask_rows:
        return set(), 0, (0, 0, 0), 0
    product, rows_in, shape, group_count = oracle(*left, *right, rows, inner, cols, group)
    out = tuple(rows) + tuple(cols) + tuple(group)
    kept = {m for m in mask_rows if _pick(m, mask_schema, out) in product}
    return kept, len(set(mask_rows)) + rows_in, shape, group_count


#: Values only a mask holds: lookups the operands' dictionaries miss.
MASK_VALUES = st.one_of(VALUES, st.sampled_from(["m0", 9, (3, 4)]))


@st.composite
def masked_cases(draw):
    counts = [draw(st.integers(0, 2)) for _ in range(4)]
    rows, inner, cols, group = (
        [f"{prefix}{i}" for i in range(count)] for prefix, count in zip("RKCG", counts)
    )
    extras = [f"W{i}" for i in range(draw(st.integers(0, 1)))]
    schemas = [
        tuple(draw(st.permutations(names)))
        for names in (rows + inner + group, inner + cols + group, rows + cols + group + extras)
    ]

    def table(schema, values=VALUES):
        if not schema:
            return draw(st.sampled_from([[], [()]]))
        return draw(st.lists(st.tuples(*[values for _ in schema]), max_size=14))

    tables = [table(schemas[0]), table(schemas[1]), table(schemas[2], MASK_VALUES)]
    forms = draw(st.tuples(*[st.sampled_from(LOAD_FORMS)] * 3))
    # A Semijoin keeps the left operand's dictionaries, now larger than its rows.
    restrict = bool(rows + inner) and draw(st.booleans())
    narrow, sort = draw(st.booleans()), draw(st.booleans())
    return schemas, tables, forms, (rows, inner, cols, group), restrict, narrow, sort


@settings(max_examples=400, deadline=None)
@given(masked_cases())
def test_masked_product_is_the_join_with_its_mask(case):
    schemas, tables, forms, dims, restrict, narrow, sort = case
    database = Database()
    for name, schema, rows, form in zip("ABM", schemas, tables, forms):
        database[name] = load_relation(form, schema, rows)
    left = Scan("A", schemas[0])
    left_rows = set(tables[0])
    if restrict:
        variable = schemas[0][0]
        kept = {row[0] for row in tables[0][::2]}
        database["F"] = load_relation(forms[0], (variable,), [(v,) for v in kept])
        left = Semijoin(left, Scan("F", (variable,)))
        left_rows = {row for row in left_rows if row[0] in kept}
    node = GroupedMatMul(left, Scan("B", schemas[1]), *map(tuple, dims), mask=Scan("M", schemas[2]))
    with pytest.MonkeyPatch.context() as patch:
        if narrow:  # wide keys: ranked on their code rows before any table
            patch.setattr(backends, "_COMPOSITE_LIMIT", 4)
        if sort:
            patch.setattr(backends, "_PRESENCE_CELLS_PER_ROW", 0)
        result = VirtualMachine(database).run(Program(node))
    relation, trace = result.relation, result.operators[-1]
    expected, rows_in, shape, group_count = masked_oracle(
        (schemas[0], left_rows), (schemas[1], tables[1]), (schemas[2], tables[2]), *dims
    )
    assert node.schema == relation.schema == schemas[2]
    assert relation.rows == expected
    assert trace.kernel == "columnar"
    assert (trace.rows_in, trace.matrix_shape) == (rows_in, shape)
    assert (trace.group_count or 0) == group_count


@pytest.mark.parametrize("group", [(), ("G",)])
@pytest.mark.parametrize("form", LOAD_FORMS)
def test_masked_output_follows_the_mask_rows_and_matches_the_join(form, group):
    """Bit for bit what ``Join(mask, product)`` returns, row order included."""
    rng = random.Random(4)
    tables = {
        "R": (("X", "Y", "G"), {tuple(rng.randrange(8) for _ in "XYG") for _ in range(40)}),
        "S": (("Y", "Z", "G"), {tuple(rng.randrange(8) for _ in "YZG") for _ in range(40)}),
        "T": (("Z", "W", "G", "X"), {tuple(rng.randrange(8) for _ in "ZWGX") for _ in range(80)}),
    }
    database = load_database(form, tables)
    r, s, t = (Scan(name, schema) for name, (schema, _) in tables.items())
    product = GroupedMatMul(r, s, ("X",), ("Y",), ("Z",), group)
    masked = GroupedMatMul(r, s, ("X",), ("Y",), ("Z",), group, mask=t)
    joined = VirtualMachine(database).run(Program(Join(t, product))).relation
    gathered = VirtualMachine(database).run(Program(masked)).relation
    assert gathered.schema == joined.schema and list(gathered) == list(joined)
    assert 0 < len(gathered) < len(tables["T"][1])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n_groups: st.tuples(
            st.just(n_groups),
            st.lists(st.tuples(st.integers(0, n_groups - 1), st.integers(-1, 12)), max_size=40),
            st.integers(0, 40),
        )
    )
)
def test_presence_ranks_equal_sorted_ranks(case):
    """The presence table and the sort return the same three arrays."""
    n_groups, pairs, n_ranked = case
    groups = np.array([g for g, _ in pairs], dtype=np.int64)
    keys = np.array([k for _, k in pairs], dtype=np.int64)
    n_ranked = min(n_ranked, len(pairs))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backends, "_PRESENCE_CELLS_PER_ROW", 1 << 40)
        presence = _ranks_within_groups(groups, keys, n_groups, n_ranked)
        patch.setattr(backends, "_PRESENCE_CELLS_PER_ROW", 0)
        sort = _ranks_within_groups(groups, keys, n_groups, n_ranked)
    for got, want in zip(presence, sort):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    if n_groups == 1:  # one group needs no group ids
        one = _ranks_within_groups(None, keys, 1, n_ranked)
        assert all(np.array_equal(a, b) for a, b in zip(one, sort))


# ----------------------------------------------------------------------
# The named corners, one example each
# ----------------------------------------------------------------------
@pytest.mark.parametrize("right_form", LOAD_FORMS)
@pytest.mark.parametrize("left_form", LOAD_FORMS)
class TestCorners:
    def check(self, left_form, right_form, left, right, rows, inner, cols, group, **kw):
        return check_against_oracle(
            left[0], left[1], left_form, right[0], right[1], right_form,
            rows, inner, cols, group, **kw,
        )  # fmt: skip

    def test_plain_product_is_one_group(self, left_form, right_form):
        left = (("X", "Y"), [(1, 10), (1, 11), (2, 11)])
        right = (("Y", "Z"), [(10, 5), (11, 6), (12, 7)])
        for grouped in (True, False):
            _, trace = self.check(
                left_form, right_form, left, right, ["X"], ["Y"], ["Z"], [], grouped=grouped
            )
            # Z = 7 hangs off an inner value the left side lacks: it still
            # counts as a column, as it always has.
            assert trace.matrix_shape == (2, 2, 3) and trace.group_count == 1

    def test_empty_sides(self, left_form, right_form):
        full = (("X", "Y"), [(1, 2)])
        empty = (("Y", "Z"), [])
        _, trace = self.check(left_form, right_form, full, empty, ["X"], ["Y"], ["Z"], [])
        assert trace.rows_in == 1 and trace.matrix_shape == (0, 0, 0)
        _, trace = self.check(
            left_form, right_form, (("X", "Y"), []), (("Y", "Z"), [(2, 3)]),
            ["X"], ["Y"], ["Z"], [],
        )  # fmt: skip
        assert trace.rows_in == 0 and trace.group_count == 0

    def test_disjoint_group_sets(self, left_form, right_form):
        left = (("X", "Y", "G"), [(1, 2, "a"), (3, 2, "b")])
        right = (("Y", "Z", "G"), [(2, 5, "c"), (2, 6, "d")])
        relation, trace = self.check(
            left_form, right_form, left, right, ["X"], ["Y"], ["Z"], ["G"]
        )
        assert relation.is_empty() and trace.matrix_shape == (0, 0, 0)
        assert trace.rows_in == 4 and trace.group_count == 0

    def test_inner_values_on_one_side_only(self, left_form, right_form):
        left = (("X", "Y", "G"), [(1, 2, 0), (1, 3, 0), (4, 9, 1)])
        right = (("Y", "Z", "G"), [(2, 5, 0), (8, 6, 0), (7, 6, 1)])
        relation, trace = self.check(
            left_form, right_form, left, right, ["X"], ["Y"], ["Z"], ["G"]
        )
        assert relation.rows == {(1, 5, 0)}
        assert trace.matrix_shape == (1, 2, 2) and trace.group_count == 2

    def test_duplicate_projections(self, left_form, right_form):
        # W rides along on neither dimension: rows that differ only there
        # fill the same matrix cell.
        left = (("X", "Y", "W"), [(1, 2, w) for w in range(5)])
        right = (("Y", "Z", "W2"), [(2, 3, w) for w in range(4)])
        relation, trace = self.check(
            left_form, right_form, left, right, ["X"], ["Y"], ["Z"], []
        )
        assert relation.rows == {(1, 3)} and trace.matrix_shape == (1, 1, 1)

    def test_nan_and_mixed_type_values(self, left_form, right_form):
        left = (("X", "Y", "G"), [(1, NAN, "g"), ("one", 2, "g"), (None, NAN, 7)])
        right = (("Y", "Z", "G"), [(NAN, "z", "g"), (2, 3.5, "g"), (float("nan"), 0, 7)])
        relation, _ = self.check(
            left_form, right_form, left, right, ["X"], ["Y"], ["Z"], ["G"]
        )
        # The shared NaN object joins with itself; a different NaN does not.
        assert relation.rows == {(1, "z", "g"), ("one", 3.5, "g")}

    def test_two_variables_per_dimension(self, left_form, right_form):
        rng = random.Random(5)
        left_schema = ("G1", "X1", "K1", "X2", "K2", "G2")
        right_schema = ("K2", "Z1", "G2", "K1", "Z2", "G1")
        left = (left_schema, [tuple(rng.randrange(3) for _ in left_schema) for _ in range(120)])
        right = (right_schema, [tuple(rng.randrange(3) for _ in right_schema) for _ in range(120)])
        self.check(
            left_form, right_form, left, right,
            ["X1", "X2"], ["K1", "K2"], ["Z1", "Z2"], ["G1", "G2"],
        )  # fmt: skip

    def test_nullary_dimensions(self, left_form, right_form):
        # No row and no column variables: the product is the 1 × K × 1
        # question "do the sides share an inner value".
        left = (("Y",), [(1,), (2,)])
        for right_rows, expected in ([(2,), (3,)], {()}), ([(4,)], set()):
            relation, trace = self.check(
                left_form, right_form, left, (("Y",), right_rows), [], ["Y"], [], []
            )
            assert relation.rows == expected and trace.matrix_shape == (1, 2, 1)


def test_past_the_composite_limit_keys_are_still_codes(monkeypatch):
    """Wide keys densify with ``np.unique(axis=0)``; there is no tuple fallback."""
    monkeypatch.setattr(backends, "_COMPOSITE_LIMIT", 4)
    rng = random.Random(11)
    left_schema = ("X1", "X2", "K1", "K2", "G1", "G2")
    right_schema = ("K1", "K2", "Z1", "Z2", "G1", "G2")
    left_rows = [tuple(rng.randrange(4) for _ in left_schema) for _ in range(200)]
    right_rows = [tuple(rng.randrange(4) for _ in right_schema) for _ in range(200)]
    _, trace = check_against_oracle(
        left_schema, left_rows, "columnar", right_schema, right_rows, "columnar",
        ["X1", "X2"], ["K1", "K2"], ["Z1", "Z2"], ["G1", "G2"],
    )  # fmt: skip
    assert trace.group_count > 1


def test_tombstoned_operands_are_compacted_first():
    left = Relation(("X", "Y"), [(x, y) for x in range(6) for y in range(6)])
    left, removed = left.delete_rows([(x, 3) for x in range(6)])
    assert len(removed) == 6
    right = Relation(("Y", "Z"), [(3, "gone"), (4, "kept")])
    relation, trace = run_operator(left, right, ["X"], ["Y"], ["Z"], [])
    assert relation.rows == {(x, "kept") for x in range(6)}
    assert trace.matrix_shape == (6, 5, 2)


def test_columnar_output_order_follows_codes_not_hashes():
    """Strings hash differently per process; the product's row order may not."""
    names = [f"v{i}" for i in range(9)]
    rng = random.Random(2)
    left_rows = {(rng.choice(names), rng.choice(names), rng.choice("ab")) for _ in range(60)}
    right_rows = {(rng.choice(names), rng.choice(names), rng.choice("bc")) for _ in range(60)}
    left = Relation(("X", "Y", "G"), left_rows)
    right = Relation(("Y", "Z", "G"), right_rows)
    relation, _ = run_operator(left, right, ["X"], ["Y"], ["Z"], ["G"])
    # Homogeneous columns are coded in value order, and the kernel emits
    # group by group, row-major within each product.
    assert len(relation) > 20
    assert list(relation) == sorted(relation.rows, key=lambda row: (row[2], row[0], row[1]))


@pytest.mark.parametrize("form", LOAD_FORMS)
def test_relation_matmul_is_total_on_empty_operands(form):
    """The VM never calls the kernel with an empty side; a direct caller may."""
    full = load_relation(form, ("X", "Y"), [(1, 2)])
    for left, right in (
        (full, load_relation(form, ("Y", "Z"), [])),
        (load_relation(form, ("W", "X"), []), full),
    ):
        rows, inner, cols = left.schema[:1], left.schema[1:], right.schema[1:]
        product, shape, group_count = left.matmul(right, rows, inner, cols, [])
        assert product.schema == rows + cols and product.is_empty()
        assert (shape, group_count) == ((0, 0, 0), 0)


def test_relation_matmul_rejects_a_duplicate_output_variable():
    left = Relation(("X", "Y"), [(1, 2)])
    right = Relation(("Y", "X"), [(2, 1)])
    with pytest.raises(ValueError, match="duplicate variables"):
        left.matmul(right, ["X"], ["Y"], ["X"], [])


# ----------------------------------------------------------------------
# Clock-free guard: the kernel never materialises a row tuple
# ----------------------------------------------------------------------
def test_columnar_product_materialises_no_row_tuples(monkeypatch):
    """The ``omega-triangle`` step, ``GroupedMatMul[Y ; X ; Z]`` over R(X,Y), T(X,Z).

    A timing bound cannot tell a code-array kernel from a tuple loop on a
    noisy box; this can: every way of turning a columnar relation into
    Python tuples (and tuples back into one) raises while the operator runs.
    """
    rng = random.Random(3)
    domain = 40
    r_rows = {(rng.randrange(domain), rng.randrange(domain)) for _ in range(600)}
    t_rows = {(rng.randrange(domain), rng.randrange(domain)) for _ in range(600)}
    left = Relation(("X", "Y"), r_rows)
    right = Relation(("X", "Z"), t_rows)

    def forbidden(*args, **kwargs):
        raise AssertionError("the MM kernel materialised row tuples")

    with monkeypatch.context() as patch:
        patch.setattr(ColumnarBackend, "iter_rows", forbidden)
        patch.setattr(ColumnarBackend, "row_set", forbidden)
        patch.setattr(ColumnarBackend, "from_rows", classmethod(forbidden))
        relation, trace = run_operator(left, right, ["Y"], ["X"], ["Z"], [])
        produced = len(relation)
    expected, rows_in, shape, _ = oracle(
        left.schema, r_rows, right.schema, t_rows, ["Y"], ["X"], ["Z"], []
    )
    assert produced == len(expected) and relation.rows == expected
    assert trace.kernel == "columnar"
    assert (trace.rows_in, trace.matrix_shape, trace.group_count) == (rows_in, shape, 1)


# ----------------------------------------------------------------------
# Regression: mixed-type columns through the ω strategy
# ----------------------------------------------------------------------
def _parity_triangle(rows, domain, seed):
    """A dense triangle instance with no triangle (a parity argument).

    R and S only join values of equal parity, T only values of unequal
    parity, so a triangle would need ``x ≡ y ≡ z ≢ x``.
    """
    rng = random.Random(seed)

    def pairs(same):
        found = set()
        while len(found) < rows:
            a, b = rng.randrange(domain), rng.randrange(domain)
            if (a % 2 == b % 2) == same:
                found.add((a, b))
        return found

    return {"R": pairs(True), "S": pairs(True), "T": pairs(False)}


@pytest.mark.parametrize("form", LOAD_FORMS)
def test_omega_strategy_on_mixed_type_columns(form):
    """Every seventh value is a string: a kernel on codes never compares values."""
    query = parse_query("Q() :- R(X, Y), S(Y, Z), T(X, Z)")
    schemas = {"R": ("X", "Y"), "S": ("Y", "Z"), "T": ("X", "Z")}
    witness_free = _parity_triangle(rows=500, domain=40, seed=7)
    planted = {
        name: rows | {extra}
        for (name, rows), extra in zip(witness_free.items(), [(0, 2), (2, 4), (0, 4)])
    }

    def mixed(value):
        return f"s{value}" if value % 7 == 0 else value

    for tables, answer in ((witness_free, False), (planted, True)):
        database = load_database(
            form,
            {
                name: (schemas[name], [(mixed(a), mixed(b)) for a, b in rows])
                for name, rows in tables.items()
            },
        )
        engine = QueryEngine(database)
        result = engine.exists(query, "omega")
        assert result.answer is answer
        assert engine.exists(query, "generic_join").answer is answer
        assert any(
            trace.kind == "groupedmatmul" and trace.group_count
            for trace in result.execution.operators
        )
