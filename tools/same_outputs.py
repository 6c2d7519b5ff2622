"""Whether a change leaves the outputs of a fixed set of runs byte-identical
to its parent's.

    python3 tools/same_outputs.py --parent HEAD

The parent revision is checked out with ``git archive`` (as
tools/bench_pairs.py does); the change is the working tree of this
checkout.  Each side runs every case of CASES with its own ``src`` on
PYTHONPATH: ``olala run`` under each config (every quantizer kind, and the
variants that reach other code paths, all otherwise at the defaults, at
which each takes at most about 11 s on a 2-core machine), then ``olala
checks`` at master seeds 0-4.  The cases' rounds.csv, lattices.jsonl,
model.bin and checks.json are compared byte for byte, one printed line per
file.  The exit status is 0 when every file is equal on both sides, else
1, after a last line naming the first file that is not.

    python3 tools/same_outputs.py --parent HEAD --declared fixed_a2/model.bin ...

A change that alters some outputs on purpose declares them: each declared
path must then differ (a declared path that is equal, or missing on a
side, fails), and every other path must still be equal.  Declared paths
are marked on their lines.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, parent_tree

RUN_FILES = ("rounds.csv", "lattices.jsonl", "model.bin")
# Case name -> the olala CLI arguments it runs with.
CASES = {
    **{q: ["run", f"quantizer={q}"] for q in (
        "none", "fixed_identity", "fixed_hex", "fixed_a2", "fixed_d2",
        "static_global", "static_per_user", "olala",
    )},
    "static_per_user_heuristic_minus1": [
        "run", "quantizer=static_per_user", "overload_mode=heuristic_minus1",
    ],
    "olala_L4_U1": ["run", "L=4", "U=1"],
    "olala_neg_snr": ["run", "loss_kind=neg_snr"],
    "olala_task": ["run", "loss_kind=task"],
    "olala_L3_R2": ["run", "L=3", "R=2"],
    "olala_adapt_every2_R4": ["run", "adapt_every=2", "R=4"],
    "olala_L1_R4": ["run", "L=1", "R=4"],
    "olala_parallel2": ["run", "--parallel", "2"],
    **{f"checks_seed{s}": ["checks", "--seed", str(s)] for s in range(5)},
}


def outputs() -> list[str]:
    """Each case's output files, as paths relative to the output root."""
    return [
        f"{case}/{name}" for case, args in CASES.items()
        for name in (("checks.json",) if args[0] == "checks" else RUN_FILES)
    ]


def run_case(root: Path, case: str, out: Path) -> None:
    """One case's olala command on the tree at root, its files into out.
    A failing command leaves no files, which the comparison reports."""
    env = {k: v for k, v in os.environ.items() if k != "OLALA_SIM_SEED"}
    env["PYTHONPATH"] = str(root / "src")
    subprocess.run(
        [sys.executable, "-m", "olala.cli", *CASES[case], "--out", str(out)],
        cwd=root, env=env, capture_output=True, check=False,
    )


def compare(
    parent: Path, change: Path, paths: list[str], declared=frozenset()
) -> tuple[list[str], str | None]:
    """One line per relative path, its verdict on parent/<path> against
    change/<path> (equal, differs, or missing on a side), marked for a path
    of declared, and the first path whose verdict is not the one expected
    of it (differs for a declared path, else equal), or None."""
    lines, first = [], None
    for path in paths:
        missing = [side for side, root in (("parent", parent), ("change", change))
                   if not (root / path).exists()]
        if missing:
            verdict = f"missing on {' and '.join(missing)}"
        elif (parent / path).read_bytes() == (change / path).read_bytes():
            verdict = "equal"
        else:
            verdict = "differs"
        lines.append(f"{path}: {verdict}" + (" (declared)" if path in declared else ""))
        if verdict != ("differs" if path in declared else "equal") and first is None:
            first = path
    return lines, first


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Byte-compare run outputs, parent against change.")
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--declared", nargs="+", default=[], metavar="PATH",
                    help="output paths the change alters on purpose; each must differ")
    args = ap.parse_args(argv)
    declared = set(args.declared)
    unknown = sorted(declared - set(outputs()))
    if unknown:
        ap.error(f"not an output path: {unknown[0]}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        parent_tree(args.parent, tmp / "tree")
        outs = {"parent": tmp / "parent", "change": tmp / "change"}
        for case in CASES:
            for side, root in (("parent", tmp / "tree"), ("change", ROOT)):
                run_case(root, case, outs[side] / case)
            print(f"ran {case}", file=sys.stderr, flush=True)
        lines, first = compare(outs["parent"], outs["change"], outputs(), declared)
    print("\n".join(lines))
    if first is not None:
        what = "declared file that does not differ" if first in declared else "file that differs"
        print(f"first {what}: {first}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
