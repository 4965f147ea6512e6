"""Smoke test of the ledger at ``--smoke`` sizes (collected by the tier-1 ``pytest``).

Runs every workload in this process — end to end once, traced twice — and
checks the contract: every declared metric comes back with its unit,
equal seeds give equal op lists and equal counts, nothing fails, and a
wrong answer would have been caught.
"""

from __future__ import annotations

import re

import pytest

from ledger import bench, instances
from ledger.oracle import Oracle

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = bench.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = 0.3


@pytest.fixture(scope="module")
def runs():
    """``{workload: (end-to-end run, traced run, traced run again)}``.

    ``serve-hot`` is traced once: its counts depend on how two connections
    interleave, so they are not held to repeat.
    """
    bench.use_repo_sources()
    from ledger.run import run_workload

    return {
        name: tuple(
            run_workload(name, 7, SECONDS, trace, smoke=True)
            for trace in (False, True, True)[: 2 if name == "serve-hot" else 3]
        )
        for name in WORKLOADS
    }


def test_declaration_is_well_formed():
    assert WORKLOADS == list(instances.WORKLOADS)
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert all(m["unit"] and m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert len(SPEC["per_layer"]) <= 128
    for workload in WORKLOADS:
        for cls in instances.SHARES[workload]:
            assert f"class.{workload}.{cls}.p50_ms" in names


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_and_nothing_fails(runs, workload):
    end_to_end, traced = runs[workload][:2]
    for result, declared in ((end_to_end, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert all(cell["value"] > 0 for cell in end_to_end["metrics"].values())
    common = max(instances.SHARES[workload], key=instances.SHARES[workload].get)
    assert traced["metrics"][f"class.{workload}.{common}.p50_ms"]["value"] > 0
    assert traced["metrics"]["trace.overhead_share"]["value"] != 0


@pytest.mark.parametrize("workload", [w for w in WORKLOADS if w != "serve-hot"])
def test_counts_repeat_exactly(runs, workload):
    _, first, second = runs[workload]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }
    assert first["metrics"]["exec.lower.ops_emitted"]["value"] > 0
    assert first["metrics"]["exec.vm.ops_evaluated"]["value"] > 0


def test_each_workload_reaches_its_layer(runs):
    def value(workload, name):
        return runs[workload][1]["metrics"][name]["value"]

    assert value("omega-triangle", "exec.vm.self_ms.groupedmatmul") > 0
    assert value("wcoj-triangle", "exec.vm.self_ms.groupedmatmul") == 0
    assert value("wcoj-triangle", "exec.vm.self_ms.wcoj") > 0
    assert value("plan-cold", "core.planner.plan_ms") > 0
    assert value("plan-cold", "lang.parse_ms") > 0
    assert value("chain-adhoc", "exec.vm.heap_pops") > 0
    assert value("chain-adhoc", "api.results.ttfr_p50_ms") > 0
    assert value("updates-mix", "api.engine.incremental_fallbacks") > 0
    assert value("serve-hot", "server.protocol.bytes_per_op") > 0
    assert value("serve-hot", "server.server.ttfr_p50_ms") > 0
    assert value("omega-triangle", "scaling.predicted_omega_exponent") > 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_equal_seeds_give_equal_op_lists(workload):
    def tables(seed):
        return instances.generate(workload, seed, smoke=True).tables

    def digest(seed):
        instance = instances.generate(workload, seed, smoke=True)
        return instances.ops_digest(instances.take(instance, 200))

    assert digest(3) == digest(3)
    assert tables(3) == tables(3)
    assert tables(3) != tables(4)
    if not workload.endswith("-triangle"):  # the triangles repeat one op by design
        assert digest(3) != digest(4)


def test_witness_free_triangle_has_no_triangle():
    instances.self_check()


def test_a_wrong_answer_is_counted_as_a_failure():
    instance = instances.generate("chain-adhoc", 1, smoke=True)
    op = next(o for o in instance.ops() if o.verb == "count")
    truth = len(Oracle(instance.tables).expected(op))

    def judge(observed):
        return bench.judge(instance, [bench.Sample(op, observed, 0.001, 0)], 10)

    assert judge(truth)["failed"] == 0
    assert judge(truth + 1)["failed"] == 1
    raised = bench.Sample(op, None, 0.001, 0, error="QueryTimeout: too slow")
    assert bench.judge(instance, [raised], 10)["failed"] == 1
