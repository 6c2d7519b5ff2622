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
the quartiles of either side's values, how many pairs the change was
lower in, how many it was better in (lower or higher, as the metric's
``better`` in BENCHMARK.json says) and how many tied.  The file goes to
``BENCH_<label>.json`` at the root of this checkout.
"""

from __future__ import annotations

import argparse
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
# Metric name -> "lower" or "higher", the direction in which it is better.
BETTER = {
    m["name"]: m["better"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}


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
    """Per end-to-end metric: unit, each side's quartiles, the number of
    pairs, and the pairs in which the change was lower, better (per BETTER)
    or tied.  runs holds one parent and one change run per seed, in any
    order."""
    by_seed: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run["result"]["metrics"]
    pairs = [(p["parent"], p["change"]) for _, p in sorted(by_seed.items())]
    summary = {}
    for name, first in pairs[0][0].items():
        parent = [p[name]["value"] for p, _ in pairs]
        change = [c[name]["value"] for _, c in pairs]
        higher = BETTER[name] == "higher"
        summary[name] = {
            "unit": first["unit"],
            "parent": quartiles(parent),
            "change": quartiles(change),
            "pairs": len(pairs),
            "change_lower": sum(c < p for p, c in zip(parent, change)),
            "change_better": sum((c > p) if higher else (c < p) for p, c in zip(parent, change)),
            "ties": sum(c == p for p, c in zip(parent, change)),
        }
    return summary


def digests_agree(runs: list[dict]) -> bool:
    """Whether both sides reported the same digest for every case."""
    by_seed: dict[int, list[dict]] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], []).append(run["provenance"]["digests"])
    return all(len(d) == 2 and d[0] == d[1] for d in by_seed.values())


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
            doc["workloads"][workload] = {
                "summary": summarize(runs),
                "digests_equal_parent_change": digests_agree(runs),
                "runs": runs,
            }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
