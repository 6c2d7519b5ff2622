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


def _pairs(parent, change):
    return [
        run for k, (p, c) in enumerate(zip(parent, change))
        for run in (_run(k, "parent", p), _run(k, "change", c))
    ]


def test_unresolved_when_the_parent_spreads_wider_than_the_bound(bench_pairs):
    # run_rel's bound is 0.25: a parent IQR of 1.0 around a median of 3.0 is
    # wider than 0.75, one of 0.2 is not.
    wide = bench_pairs.summarize(_pairs([2.5, 3.0, 3.5, 2.0, 4.0], [3.1, 2.9, 3.0, 3.2, 2.8]))
    assert wide["run_rel"]["parent_iqr"] == pytest.approx(1.0)
    assert wide["run_rel"]["unresolved"]
    assert not wide["ok_frac"]["unresolved"]  # no spread at all
    narrow = bench_pairs.summarize(_pairs([2.9, 3.0, 3.1, 2.8, 3.2], [3.1, 2.9, 3.0, 3.2, 2.8]))
    assert not narrow["run_rel"]["unresolved"]
    # A wide spread is still resolved when every change run beats every
    # parent run, in the direction the metric is better in.
    apart = bench_pairs.summarize(_pairs([2.5, 3.0, 3.5, 2.0, 4.0], [1.0, 1.5, 1.2, 1.9, 0.8]))
    assert not apart["run_rel"]["unresolved"]
    worse = bench_pairs.summarize(_pairs([2.5, 3.0, 3.5, 2.0, 4.0], [5.0, 5.5, 5.2, 5.9, 4.8]))
    assert worse["run_rel"]["unresolved"]


def test_digests_agree_only_when_every_pair_matches(bench_pairs):
    runs = [_run(0, "parent", 3.0), _run(0, "change", 2.0), _run(1, "parent", 3.0)]
    assert not bench_pairs.digests_agree(runs)  # seed 1 has one side only
    runs.append(_run(1, "change", 2.0))
    assert bench_pairs.digests_agree(runs)
    runs.append(_run(2, "parent", 3.0))
    runs.append(_run(2, "change", 2.0, digest="b"))
    assert not bench_pairs.digests_agree(runs)


def test_verdict_line_names_medians_gain_worse_metrics_and_digests(bench_pairs):
    runs = []
    for k, (p, c, ok) in enumerate([(3.6, 2.5, 0.5), (3.4, 2.4, 0.5), (3.9, 2.6, 0.5)]):
        runs += [_run(k, "parent", p), _run(k, "change", c, ok_frac=ok)]
    line = bench_pairs.verdict_line("checks_suite", bench_pairs.summarize(runs), True)
    assert line == (
        "checks_suite: run_rel median 3.600 -> 2.500 over 3 pairs, gain_shown true, "
        "worse_beyond_bound ok_frac, digests_equal_parent_change true"
    )
    runs = [_run(0, "parent", 3.0), _run(0, "change", 3.1, digest="b")]
    line = bench_pairs.verdict_line("fl_olala_l2", bench_pairs.summarize(runs), False)
    assert line.endswith("gain_shown false, worse_beyond_bound none, "
                         "digests_equal_parent_change false")


CANNED = '''"""Module doc.

More."""

import os  # a trailing comment leaves a code line


# a full-line comment
def f():
    """One line."""
    return os.sep


class C:
    """Two
    lines."""

    x = "not a docstring"
'''


def _tree(root, modules):
    package = root / "src" / "olala"
    package.mkdir(parents=True)
    for name, text in modules.items():
        (package / name).write_text(text)
    return root


def test_line_counts_split_code_from_docstrings_on_two_trees(bench_pairs, tmp_path):
    parent = _tree(tmp_path / "parent", {"a.py": CANNED, "gone.py": "x = 1\n\ny = 2\n"})
    shorter = CANNED.replace('    x = "not a docstring"\n', "")
    change = _tree(tmp_path / "change", {"a.py": shorter, "b.py": '"""Only a docstring."""\n'})
    lines = {"parent": bench_pairs.line_counts(parent), "change": bench_pairs.line_counts(change)}
    assert lines["parent"] == {
        "a.py": {"total": 18, "code": 5, "docstring": 6},
        "gone.py": {"total": 3, "code": 2, "docstring": 0},
    }
    assert lines["change"] == {
        "a.py": {"total": 17, "code": 4, "docstring": 6},
        "b.py": {"total": 1, "code": 0, "docstring": 1},
    }
    assert bench_pairs.lines_line(lines) == (
        "src/olala lines: total 21 -> 18 (-3), code 7 -> 4 (-3), docstring 6 -> 7 (+1)"
    )
