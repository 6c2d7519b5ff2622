"""tools/bench_pairs.py counts the pairs the change won in each metric's
own direction: lower for times and sizes, higher for fractions and
quality, as BENCHMARK.json declares."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("olala_bench_pairs_better", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(seed, side, **values):
    metrics = {name: {"value": v, "unit": "u"} for name, v in values.items()}
    return {
        "seed": seed, "side": side,
        "result": {"correct": True, "attempted": 4, "failed": 0, "metrics": metrics},
        "provenance": {"digests": {str(seed): "a"}},
    }


def test_directions_come_from_benchmark_json(bench_pairs):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert bench_pairs.BETTER == {m["name"]: m["better"] for m in declared}
    higher = {name for name, better in bench_pairs.BETTER.items() if better == "higher"}
    assert higher == {"ok_frac", "check_pass_frac", "final_accuracy", "final_snr_db"}


def test_change_better_follows_each_metrics_direction(bench_pairs):
    # (parent, change) per pair: the change is lower in pairs 0 and 2 of
    # both metrics, higher in pair 1, and ties in pair 3.
    parent = [(3.0, 0.8), (3.0, 0.8), (3.0, 0.8), (3.0, 0.8)]
    change = [(2.0, 0.7), (4.0, 0.9), (2.5, 0.6), (3.0, 0.8)]
    runs = []
    for k, ((rp, ap), (rc, ac)) in enumerate(zip(parent, change)):
        runs.append(_run(k, "parent", run_rel=rp, final_accuracy=ap))
        runs.append(_run(k, "change", run_rel=rc, final_accuracy=ac))
    summary = bench_pairs.summarize(runs)
    rel, acc = summary["run_rel"], summary["final_accuracy"]
    assert rel["change_lower"] == rel["change_better"] == 2 and rel["ties"] == 1
    assert acc["change_lower"] == 2 and acc["change_better"] == 1 and acc["ties"] == 1
