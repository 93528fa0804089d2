"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = run.json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_runs_once(name):
    record = run.run_workload(name, seed=3, seconds=0, trace=False, scale="tiny")
    assert record["failures"] == []
    assert record["attempted"] == len(workloads.ops_for(name, 3, "tiny"))
    for metric, entry in record["metrics"].items():
        assert entry["value"] > 0, metric
    assert len(record["samples"]["setup_s"]) == run.SETUP_PROBES + 2
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {m: e["unit"] for m, e in record["metrics"].items()} == declared


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_outputs_match_untraced(name):
    record = run.run_workload(name, seed=4, seconds=0, trace=True, scale="tiny")
    # run_workload counts every traced digest that differs from its untraced
    # twin as a failure, next to the reference and cross-checks.
    assert record["failures"] == []
    assert record["attempted"] == 2 * len(workloads.ops_for(name, 4, "tiny"))
    metrics = record["metrics"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {m: e["unit"] for m, e in metrics.items()} == declared
    assert metrics["cli.main.calls"]["value"] > 0 or name == "window-counts"


def test_failures_are_counted():
    reference = {"a": {"sha256": "0" * 64, "exit": 0}}
    results = [
        {"key": "a", "sha256": "1" * 64, "exit": 0, "problems": []},
        {"key": "b", "sha256": "1" * 64, "exit": 0, "problems": []},
        {"key": "a", "sha256": "0" * 64, "exit": 0, "problems": ["wrong"]},
        {"key": "a", "error": "ValueError: boom"},
        {"key": "a", "sha256": "0" * 64, "exit": 0, "problems": []},
    ]
    assert len(run.check_results(results, reference)) == 4


def test_every_drawable_op_has_a_reference():
    reference = run.json.loads(run.REFERENCE.read_text())
    for scale in ("full", "tiny"):
        for op in workloads.all_ops(scale):
            assert op["key"] in reference, op["key"]


def test_seed_fixes_the_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.ops_for(name, 7) == workloads.ops_for(name, 7)
    assert workloads.ops_for("cli-queries", 7) != workloads.ops_for("cli-queries", 8)


def _package_bindings():
    modules = {
        name: module
        for name, module in sys.modules.items()
        if name == tracer.PACKAGE or name.startswith(tracer.PACKAGE + ".")
    }
    return {
        (name, function): getattr(module, function)
        for name, module in modules.items()
        for _, function in tracer.TARGETS
        if hasattr(module, function)
    }


def test_wrappers_are_restored():
    import worker

    worker.load_package(str(run.SRC))
    before = _package_bindings()
    ops = workloads.ops_for("verify-all", 1, "tiny")
    with tracer.Tracer() as active:
        assert _package_bindings() != before  # the wrappers are in place
        for op in ops:
            worker.run_op(op)
        with pytest.raises(ValueError):  # raised through two wrapped layers
            worker.run_op({"kind": "window", "M": 7, "r": 1, "n": -1})
    assert _package_bindings() == before
    functions = active.functions()
    assert functions["cli.main"][0] == len(ops)
    assert functions["verify.check_finitized"][0] > 0
    assert functions["families.rank_window_counts"][0] == 1  # the call that raised
    assert active.missing == []
