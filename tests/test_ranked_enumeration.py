"""Ranked (any-k) enumeration: the sorted-order frontier-heap cursor.

Pins the ranked select pipeline end to end:

* differential — a sorted ``limit=k`` select equals the brute-force
  sorted output's first ``k`` rows across strategies × input forms
  × limit boundaries (0, 1, mid, |output|, > |output|);
* the heap invariant — ranked batches arrive globally nondecreasing
  under :func:`~repro.db.ordering.row_order_key`, the cursor emits
  exactly ``min(k, |output|)`` tuples, and the trace carries the
  frontier-heap accounting;
* mid-enumeration cancellation maps to the API error and leaves the
  engine's caches unpoisoned;
* :meth:`ResultSet.rewind(restart=True) <repro.api.results.ResultSet.rewind>`
  re-executes cheaply: the calibrated reducer relations come back from
  the result cache (their traces show ``cache_hit``);
* the storage-layer order primitives (``sorted_order``,
  ``ordered_distinct_values``, ``ordered_rows``) agree with the keyed
  reference order for both input forms, including mixed-type and NaN
  columns;
* the dispatcher's ranked-vs-materialize routing decision.
"""

from __future__ import annotations

import math

import pytest

from repro.api import QueryEngine
from repro.api.errors import QueryCancelledError
from repro.db import parse_query, random_database
from repro.db.ordering import row_order_key, value_order_key
from repro.exec.dispatch import KernelDispatcher
from repro.exec.vm import CancellationToken

from test_output_queries import brute_force_outputs
from test_streaming_enumeration import CHAIN, SHAPES, _chain_database, _strategies
from tests.conftest import LOAD_FORMS, load_database, load_relation


def _norm(row):
    """NaN-tolerant row identity (NaN != NaN breaks plain equality)."""
    return tuple(
        "NaN" if isinstance(v, float) and math.isnan(v) else v for v in row
    )


# ----------------------------------------------------------------------
# Differential: ranked == brute-force sorted prefix, everywhere
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("seed", range(2))
def test_sorted_limits_equal_brute_force_prefix_everywhere(shape, seed):
    query = parse_query(SHAPES[shape])
    generated = random_database(query, 22, domain_size=5, seed=seed, plant_witness=True)
    for form in LOAD_FORMS:
        database = load_database(form, generated.items())
        expected = sorted(brute_force_outputs(query, database), key=row_order_key)
        total = len(expected)
        engine = QueryEngine(database)
        for strategy in _strategies(query):
            for k in (0, 1, min(3, total), total, total + 7):
                label = f"{shape}/{form}/{strategy}/k={k}"
                rows = engine.select(
                    query, strategy=strategy, limit=k, order="sorted"
                ).to_rows()
                assert rows == expected[:k], label


# ----------------------------------------------------------------------
# The heap invariant: batches pop in global order
# ----------------------------------------------------------------------
def test_ranked_batches_are_globally_nondecreasing():
    database = _chain_database(600)
    engine = QueryEngine(database)
    total = engine.count(CHAIN).row_count
    k = 200
    assert total > k  # the cursor stops well before the output ends
    result_set = engine.select(CHAIN, limit=k, order="sorted")
    batches = list(result_set.batches())
    rows = [row for batch in batches for row in batch]
    assert len(rows) == k
    keys = [row_order_key(row) for row in rows]
    assert keys == sorted(keys)  # nondecreasing across batch boundaries
    stream = result_set.result.stream
    assert stream is not None and stream.order == "ranked"
    assert stream.emitted == k
    ops = [
        op for op in result_set.result.execution.operators
        if op.kind == "enumerate"
    ]
    assert len(ops) == 1
    # Every emitted tuple is a full-depth pop; interior pops add more.
    assert ops[0].heap_pops >= k
    assert ops[0].heap_peak >= 1
    assert ops[0].rows_out == k


def test_ranked_emits_min_of_limit_and_output():
    database = _chain_database(300)
    engine = QueryEngine(database)
    total = engine.count(CHAIN).row_count
    full = engine.select(CHAIN, order="sorted").to_rows()
    assert len(full) == total
    over = engine.select(CHAIN, limit=total + 999, order="sorted")
    # Over the ranked cap this routes to materialize; either way the
    # contract is the full sorted output, no more.
    assert over.to_rows() == full


# ----------------------------------------------------------------------
# Cancellation mid-ranked-enumeration
# ----------------------------------------------------------------------
def test_ranked_cancellation_mid_enumeration_and_cache_stays_clean():
    database = _chain_database(2000)
    engine = QueryEngine(database)
    token = CancellationToken()
    result_set = engine.select(CHAIN, limit=30_000, order="sorted", token=token)
    first = result_set.fetch(8)
    assert len(first) == 8
    stream = result_set.result.stream
    assert stream is not None and stream.order == "ranked"
    assert not stream.exhausted
    token.cancel()
    with pytest.raises(QueryCancelledError):
        result_set.fetch(10_000_000)
    # A fresh run over the (warm) caches is complete and correct.
    total = engine.count(CHAIN).row_count
    fresh = engine.select(CHAIN, limit=16, order="sorted").to_rows()
    assert len(fresh) == 16
    assert total > 16
    assert fresh == engine.select(CHAIN, order="sorted").to_rows()[:16]


# ----------------------------------------------------------------------
# Rewind: cheap re-execution off the result cache
# ----------------------------------------------------------------------
def test_rewind_restart_reuses_calibrated_children():
    database = _chain_database(600)
    engine = QueryEngine(database)
    result_set = engine.select(CHAIN, limit=6, order="sorted")
    first_rows = result_set.to_rows()
    assert len(first_rows) == 6
    first_ops = result_set.result.execution.operators
    assert not any(op.cache_hit for op in first_ops)  # cold first run
    result_set.rewind(restart=True)
    assert not result_set.executed  # the run really was discarded
    assert result_set.to_rows() == first_rows
    second_ops = result_set.result.execution.operators
    # The calibrated reducer relations came back from the result cache;
    # only the enumeration itself (cache-exempt) re-ran.
    hits = [op for op in second_ops if op.cache_hit]
    assert hits, "restarted run re-executed the reducer from scratch"
    assert all(op.kind != "enumerate" for op in hits)

    # Plain rewind only resets the fetch cursor — no re-execution.
    result_set.rewind()
    assert result_set.executed
    assert result_set.fetch(3) == first_rows[:3]


# ----------------------------------------------------------------------
# Storage-layer order primitives
# ----------------------------------------------------------------------
MIXED_ROWS = [
    (2, "b"),
    (1, "a"),
    ("x", 3.5),
    (True, "a"),
    (float("nan"), 0),
    (1.5, "z"),
]


@pytest.mark.parametrize("form", LOAD_FORMS)
def test_sorted_order_matches_keyed_reference(form):
    relation = load_relation(form, ("A", "B"), MIXED_ROWS)
    ordered = relation.ordered_rows()
    reference = sorted(relation.rows, key=row_order_key)
    assert [_norm(r) for r in ordered] == [_norm(r) for r in reference]
    # sorted_order indexes the same permutation row_slice reads.
    order = list(relation.sorted_order(relation.schema))
    assert sorted(order) == list(range(len(relation)))
    via_indices = [
        next(iter(relation.row_slice(i, i + 1).rows)) for i in order
    ]
    assert [_norm(r) for r in via_indices] == [_norm(r) for r in reference]


@pytest.mark.parametrize("form", LOAD_FORMS)
def test_ordered_rows_limit_is_a_prefix(form):
    relation = load_relation(form, ("A", "B"), MIXED_ROWS)
    full = relation.ordered_rows()
    for k in (0, 1, 3, len(full), len(full) + 2):
        assert [_norm(r) for r in relation.ordered_rows(k)] == [
            _norm(r) for r in full[:k]
        ]


@pytest.mark.parametrize("form", LOAD_FORMS)
def test_ordered_distinct_values_mixed_types_and_nan(form):
    relation = load_relation(form, ("A", "B"), MIXED_ROWS)
    values = relation.ordered_distinct_values("A")
    reference = sorted(
        {row[0] for row in relation.rows}, key=value_order_key
    )
    assert [_norm((v,)) for v in values] == [_norm((v,)) for v in reference]
    # Type-aware order: floats first (NaN bucketed after every finite
    # float), then ints (bools rank with them), then strings.
    assert values[0] == 1.5
    assert isinstance(values[1], float) and math.isnan(values[1])
    assert list(values[2:]) == [1, 2, "x"]


def test_order_primitives_agree_across_backends():
    rows = [(i % 7, (i * 3) % 11) for i in range(40)]
    for form in LOAD_FORMS:
        relation = load_relation(form, ("A", "B"), rows)
        assert list(relation.ordered_rows()) == sorted(set(rows)), form
        assert list(relation.ordered_distinct_values("B")) == sorted({b for _, b in rows}), form


# ----------------------------------------------------------------------
# Dispatcher routing
# ----------------------------------------------------------------------
def test_dispatcher_ranked_enumeration_decision():
    dispatcher = KernelDispatcher()
    cap = dispatcher.ranked_limit_cap
    # Ranked needs sorted order and a bounded limit within the cap.
    assert dispatcher.ranked_enumeration(16, "sorted")
    assert dispatcher.ranked_enumeration(0, "sorted")  # trivially cheap
    assert dispatcher.ranked_enumeration(cap, "sorted")
    assert not dispatcher.ranked_enumeration(cap + 1, "sorted")
    assert not dispatcher.ranked_enumeration(None, "sorted")
    assert not dispatcher.ranked_enumeration(16, "stream")
    # The cap is configurable.
    tight = KernelDispatcher(ranked_limit_cap=4)
    assert tight.ranked_enumeration(4, "sorted")
    assert not tight.ranked_enumeration(5, "sorted")
