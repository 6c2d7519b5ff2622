"""Paired benchmark runs of a change against its parent, summarized in a
BENCH file.

    python3 tools/bench_pairs.py --label lockstep --parent HEAD \\
        --workloads fl_olala_l2:10,fl_olala_l4 --pairs 3 --seed 100 \\
        --what "one line on what the change does"

The parent revision is checked out with ``git archive`` into a temporary
directory; the change is the working tree of this checkout.  A workload
runs --pairs pairs unless its name carries its own count (``name:count``).
Pair k runs
``bench/run.py --workload <w> --seed <seed + k> --seconds <s> --trace 0``
once on each side, the sides taking turns on which goes first, and every
run is printed as it ends.  The summary of each end-to-end metric gives
the quartiles of either side's values, the parent's interquartile range,
how many pairs the change was lower in, how many it was better in (lower
or higher, as the metric's ``better`` in BENCHMARK.json says) and how many
tied, the metric's ``bound`` from BENCHMARK.json, and three verdicts:
``worse_beyond_bound`` (the change's median is worse than the parent's by
more than the bound, relative to the parent's median), ``gain_shown``
(the change is better in at least 9 of 10 pairs and its median is better
than the parent's by more than the parent's interquartile range) and
``unresolved`` (the parent's interquartile range is wider than the bound,
relative to the parent's median, so the runs spread too widely to tell a
change within the bound, unless every change run is better than every
parent run).  After
each workload's pairs one verdict line is printed: the run_rel medians,
gain_shown, the metrics worse beyond their bound and whether every case
digest agreed.  The file also records each ``src/olala`` module's total,
code and docstring line counts on either side (``lines``), and the net
change of their sums is printed after the verdict lines.  The file goes
to ``BENCH_<label>.json`` at the root of this checkout.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 bench/run.py --workload <w> --seed <s> --seconds {seconds} --trace 0"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
# Metric name -> "lower" or "higher", the direction in which it is better.
BETTER = {m["name"]: m["better"] for m in DECLARED}
# Metric name -> how much worse than the parent's, relative to it, the
# change's median may be.
BOUND = {m["name"]: m["bound"] for m in DECLARED}


def parent_tree(rev: str, dest: Path) -> None:
    """Write the files of revision rev into dest."""
    blob = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py run in the checkout at root: its result line and
    the provenance line printed before it."""
    out = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True, cwd=root,
    ).stdout.strip().splitlines()
    return {"result": json.loads(out[-1]), "provenance": json.loads(out[-2])["provenance"]}


def quartiles(values: list[float]) -> dict[str, float]:
    """q1, median and q3, as statistics.quantiles' inclusive method gives
    them (every quartile of a single value is that value)."""
    if len(values) == 1:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    """Per end-to-end metric: unit, each side's quartiles and the parent's
    interquartile range, the number of pairs, the pairs in which the change
    was lower, better (per BETTER) or tied, the metric's bound and the
    worse_beyond_bound, gain_shown and unresolved verdicts.  runs holds one
    parent and one change run per seed, in any order."""
    by_seed: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run["result"]["metrics"]
    pairs = [(p["parent"], p["change"]) for _, p in sorted(by_seed.items())]
    summary = {}
    for name, first in pairs[0][0].items():
        parent = [p[name]["value"] for p, _ in pairs]
        change = [c[name]["value"] for _, c in pairs]
        sign = 1.0 if BETTER[name] == "higher" else -1.0
        p_q, c_q = quartiles(parent), quartiles(change)
        iqr = p_q["q3"] - p_q["q1"]
        gain = sign * (c_q["median"] - p_q["median"])  # > 0: the change's median is better
        better = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        summary[name] = {
            "unit": first["unit"],
            "parent": p_q,
            "change": c_q,
            "parent_iqr": iqr,
            "pairs": len(pairs),
            "change_lower": sum(c < p for p, c in zip(parent, change)),
            "change_better": better,
            "ties": sum(c == p for p, c in zip(parent, change)),
            "bound": BOUND[name],
            "worse_beyond_bound": -gain > BOUND[name] * abs(p_q["median"]),
            "gain_shown": 10 * better >= 9 * len(pairs) and gain > iqr,
            "unresolved": iqr > BOUND[name] * abs(p_q["median"])
            and not min(sign * c for c in change) > max(sign * p for p in parent),
        }
    return summary


def digests_agree(runs: list[dict]) -> bool:
    """Whether both sides reported the same digest for every case."""
    by_seed: dict[int, list[dict]] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], []).append(run["provenance"]["digests"])
    return all(len(d) == 2 and d[0] == d[1] for d in by_seed.values())


def verdict_line(workload: str, summary: dict, digests_equal: bool) -> str:
    """One line on a workload's pairs: the run_rel medians, gain_shown,
    the metrics worse beyond their bound and whether every digest agreed."""
    rel = summary["run_rel"]
    worse = [name for name, m in summary.items() if m["worse_beyond_bound"]]
    return (
        f"{workload}: run_rel median {rel['parent']['median']:.3f} -> "
        f"{rel['change']['median']:.3f} over {rel['pairs']} pairs, "
        f"gain_shown {str(rel['gain_shown']).lower()}, "
        f"worse_beyond_bound {', '.join(worse) if worse else 'none'}, "
        f"digests_equal_parent_change {str(digests_equal).lower()}"
    )


def line_counts(root: Path) -> dict[str, dict[str, int]]:
    """Each src/olala module's total, code and docstring line counts in the
    tree at root.  Docstring lines are those a module, class or function
    docstring spans; code lines are the non-blank lines outside docstrings
    and full-line comments."""
    counts = {}
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted((root / "src" / "olala").glob("*.py")):
        text = path.read_text()
        doc: set[int] = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
                doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        lines = [line.strip() for line in text.splitlines()]
        code = sum(
            1 for n, line in enumerate(lines, 1)
            if line and not line.startswith("#") and n not in doc
        )
        counts[path.name] = {"total": len(lines), "code": code, "docstring": len(doc)}
    return counts


def lines_line(lines: dict) -> str:
    """One line on the net change of src/olala's summed line counts, from
    the parent's (lines["parent"]) to the change's (lines["change"])."""
    sums = {
        side: {kind: sum(m[kind] for m in lines[side].values())
               for kind in ("total", "code", "docstring")}
        for side in ("parent", "change")
    }
    return "src/olala lines: " + ", ".join(
        f"{kind} {before} -> {sums['change'][kind]} ({sums['change'][kind] - before:+d})"
        for kind, before in sums["parent"].items()
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Paired bench/run.py runs, parent against change.")
    ap.add_argument("--label", required=True)
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--workloads", required=True,
                    help="comma-separated workload names, each optionally name:pairs")
    ap.add_argument("--pairs", type=int, default=5, help="pairs per workload without a count")
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--what", default="", help="what the change does, for the file")
    ap.add_argument("--machine", default="", help="the machine the runs were made on")
    args = ap.parse_args(argv)

    rev = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", args.parent],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    doc = {
        "label": args.label,
        "what": args.what,
        "command": COMMAND.format(seconds=args.seconds),
        "parent": f"{rev} (checked out with git archive, so its provenance reads git_commit unknown)",
        "change": f"the working tree of this change on top of {rev}",
        "machine": args.machine,
        "order": "pairs alternate which side runs first; every run made is listed",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        parent_root = Path(tmp)
        parent_tree(args.parent, parent_root)
        sides = {"parent": parent_root, "change": ROOT}
        doc["lines"] = {side: line_counts(root) for side, root in sides.items()}
        for item in args.workloads.split(","):
            workload, _, count = item.partition(":")
            runs = []
            for k in range(int(count) if count else args.pairs):
                seed = args.seed + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    run = {"seed": seed, "side": side,
                           **run_once(sides[side], workload, seed, args.seconds)}
                    runs.append(run)
                    metrics = run["result"]["metrics"]
                    print(f"{workload} seed {seed} {side}: run_rel "
                          f"{metrics['run_rel']['value']:.3f}", flush=True)
            summary, equal = summarize(runs), digests_agree(runs)
            doc["workloads"][workload] = {
                "summary": summary,
                "digests_equal_parent_change": equal,
                "runs": runs,
            }
            print(verdict_line(workload, summary, equal), flush=True)
    print(lines_line(doc["lines"]), flush=True)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
