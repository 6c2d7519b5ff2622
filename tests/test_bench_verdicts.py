"""tools/bench_pairs.py's per-metric verdicts on canned runs: the parent's
interquartile range, the metric's bound from BENCHMARK.json, whether the
change's median is worse than the parent's beyond that bound, and whether
it shows a gain (better in 9 of 10 pairs, medians apart by more than the
parent's interquartile range)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("olala_bench_pairs_verdicts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _summary(bench_pairs, name, parent, change):
    runs = []
    for k, (p, c) in enumerate(zip(parent, change)):
        for side, v in (("parent", p), ("change", c)):
            runs.append({
                "seed": k, "side": side,
                "result": {"metrics": {name: {"value": v, "unit": "u"}}},
                "provenance": {"digests": {}},
            })
    return bench_pairs.summarize(runs)[name]


PARENT = [28.0, 29.0, 30.0, 31.0, 32.0, 28.5, 29.5, 30.5, 31.5, 30.0]


def test_bounds_come_from_benchmark_json(bench_pairs):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert bench_pairs.BOUND == {m["name"]: m["bound"] for m in declared}
    s = _summary(bench_pairs, "run_rel", PARENT, PARENT)
    assert s["bound"] == bench_pairs.BOUND["run_rel"]


def test_parent_iqr_is_q3_minus_q1(bench_pairs):
    s = _summary(bench_pairs, "run_rel", PARENT, PARENT)
    assert s["parent_iqr"] == pytest.approx(s["parent"]["q3"] - s["parent"]["q1"])
    assert s["parent_iqr"] == pytest.approx(30.875 - 29.125)
    assert not s["gain_shown"] and not s["worse_beyond_bound"]


def test_gain_shown_needs_nine_of_ten_and_a_gap_beyond_the_iqr(bench_pairs):
    faster = [p - 7.0 for p in PARENT]
    assert _summary(bench_pairs, "run_rel", PARENT, faster)["gain_shown"]
    nine = faster[:9] + [PARENT[9] + 1.0]
    s = _summary(bench_pairs, "run_rel", PARENT, nine)
    assert s["change_better"] == 9 and s["gain_shown"]
    eight = faster[:8] + [p + 1.0 for p in PARENT[8:]]
    s = _summary(bench_pairs, "run_rel", PARENT, eight)
    assert s["change_better"] == 8 and not s["gain_shown"]
    # Better in every pair, but the medians lie within the parent's spread.
    close = [p - 1.0 for p in PARENT]
    s = _summary(bench_pairs, "run_rel", PARENT, close)
    assert s["change_better"] == 10 and not s["gain_shown"]


def test_verdicts_follow_a_higher_is_better_metric(bench_pairs):
    parent = [0.80, 0.81, 0.79, 0.80, 0.82, 0.80, 0.81, 0.79, 0.80, 0.80]
    higher = [p + 0.1 for p in parent]
    s = _summary(bench_pairs, "final_accuracy", parent, higher)
    assert s["gain_shown"] and not s["worse_beyond_bound"]
    lower = [p - 0.1 for p in parent]
    s = _summary(bench_pairs, "final_accuracy", parent, lower)
    assert not s["gain_shown"] and not s["worse_beyond_bound"]  # 12.5% < the 0.24 bound
    s = _summary(bench_pairs, "final_accuracy", parent, [p * 0.7 for p in parent])
    assert s["worse_beyond_bound"]


def test_worse_beyond_bound_is_relative_to_the_parents_median(bench_pairs):
    median = 30.0  # PARENT's median; run_rel's bound is 0.25
    within = [p * 1.2 for p in PARENT]
    s = _summary(bench_pairs, "run_rel", PARENT, within)
    assert s["parent"]["median"] == median and not s["worse_beyond_bound"]
    beyond = [p * 1.3 for p in PARENT]
    assert _summary(bench_pairs, "run_rel", PARENT, beyond)["worse_beyond_bound"]
    # peak_rss_mb's bound is 0.1: 8% more memory is within it, 12% is not.
    rss = [80.0] * 10
    assert not _summary(bench_pairs, "peak_rss_mb", rss, [86.4] * 10)["worse_beyond_bound"]
    assert _summary(bench_pairs, "peak_rss_mb", rss, [89.6] * 10)["worse_beyond_bound"]
