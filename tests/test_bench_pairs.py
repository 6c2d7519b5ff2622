"""The summary step of tools/bench_pairs.py, on canned result lines."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("olala_bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(seed, side, run_rel, ok_frac=1.0, digest="a"):
    metrics = {
        "run_rel": {"value": run_rel, "unit": "ref"},
        "ok_frac": {"value": ok_frac, "unit": "ratio"},
    }
    return {
        "seed": seed, "side": side,
        "result": {"correct": True, "attempted": 4, "failed": 0, "metrics": metrics},
        "provenance": {"digests": {str(4 * seed): digest}},
    }


def test_summary_gives_quartiles_lower_pairs_and_ties(bench_pairs):
    parent = [3.6, 3.4, 3.9, 3.5, 3.7]
    change = [2.5, 3.4, 2.6, 3.6, 2.4]
    # Pairs alternate which side ran first; the order of the list is irrelevant.
    runs = []
    for k, (p, c) in enumerate(zip(parent, change)):
        pair = [_run(k, "parent", p), _run(k, "change", c)]
        runs += pair if k % 2 == 0 else pair[::-1]
    summary = bench_pairs.summarize(runs)
    rel = summary["run_rel"]
    assert rel["unit"] == "ref" and rel["pairs"] == 5
    assert rel["parent"] == {"q1": 3.5, "median": 3.6, "q3": 3.7}
    assert rel["change"] == {"q1": 2.5, "median": 2.6, "q3": 3.4}
    assert rel["change_lower"] == 3 and rel["ties"] == 1
    ok = summary["ok_frac"]
    assert ok["change_lower"] == 0 and ok["ties"] == 5
    assert ok["parent"] == ok["change"] == {"q1": 1.0, "median": 1.0, "q3": 1.0}


def test_single_pair_quartiles_are_its_values(bench_pairs):
    summary = bench_pairs.summarize([_run(7, "change", 2.0), _run(7, "parent", 3.0)])
    assert summary["run_rel"]["parent"] == {"q1": 3.0, "median": 3.0, "q3": 3.0}
    assert summary["run_rel"]["change_lower"] == 1 and summary["run_rel"]["ties"] == 0


def test_digests_agree_only_when_every_pair_matches(bench_pairs):
    runs = [_run(0, "parent", 3.0), _run(0, "change", 2.0), _run(1, "parent", 3.0)]
    assert not bench_pairs.digests_agree(runs)  # seed 1 has one side only
    runs.append(_run(1, "change", 2.0))
    assert bench_pairs.digests_agree(runs)
    runs.append(_run(2, "parent", 3.0))
    runs.append(_run(2, "change", 2.0, digest="b"))
    assert not bench_pairs.digests_agree(runs)
