"""olala benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload fl_olala_l2 --seed 3 --seconds 24 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Each repetition is a fresh process (``worker.py``)
with one BLAS thread and ``parallel=1``, so setup is paid and timed every
time.  Repetitions continue while the next one fits in ``--seconds``, with
a floor of three, or one more than it takes to run every case once when a
repetition runs only some of them.  With ``--trace 1`` untraced and traced
repetitions alternate on the same cases, at least two of each; the traced
ones time every call of the public functions listed in ``tracing.py``, and
the difference in ``run_s`` is reported as the tracing overhead.  Each
worker also times a fixed reference computation before and after every
case, and the end-to-end run time is reported in units of its mean time
over the run (``run_rel``).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names and units come
from ``BENCHMARK.json``.  The line before it records provenance: library
versions, core count, git commit, the workload seed and the digest of
every case.  The raw figures of every repetition, and the spans of the last
traced one, go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
DEADLINE_S = 150.0  # the whole run must end well inside 180 s

# The FL quality metrics have no meaning for the check suite, nor the share
# of passing check verdicts for FL; a workload reports this fixed value for
# the metrics of the other kind so every workload prints every metric.
NOT_APPLICABLE = 1.0
FL_ONLY = ("final_accuracy", "final_snr_db", "uplink_bits_per_update")


def case_seeds(workload: str, seed: int) -> list[int]:
    """master_seed of each case: disjoint blocks of consecutive seeds."""
    k = WORKLOADS[workload]["cases"]
    return [seed * k + i for i in range(k)]


def rep_seeds(workload: str, seed: int, rep: int) -> list[int]:
    """The cases repetition ``rep`` runs; they take turns when a repetition
    runs fewer than all of them."""
    seeds = case_seeds(workload, seed)
    k = WORKLOADS[workload].get("per_rep", len(seeds))
    return [seeds[(rep * k + i) % len(seeds)] for i in range(k)]


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _run_worker(args, traced: bool, rep: int, timeout: float) -> dict | None:
    """One repetition in a fresh process; None if it did not report."""
    env = dict(
        os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--trace", str(int(traced)),
        "--master-seeds", ",".join(map(str, rep_seeds(args.workload, args.seed, rep))),
    ]
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        cmd + ["--spawned-at", repr(spawned_at)], stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"repetition {rep} timed out", file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"repetition {rep} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _case_median(reps: list[dict], key: str) -> float | None:
    """Median over repetitions of each case's figure, averaged over cases."""
    times: dict[int, list[float]] = {}
    for r in reps:
        for c in r["cases"]:
            if key in c:
                times.setdefault(c["master_seed"], []).append(c[key])
    per_case = [statistics.median(t) for t in times.values()]
    return sum(per_case) / len(per_case) if per_case else None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one olala benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "olala" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"{ROOT} lacks src/olala or BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    OUT_DIR.mkdir(exist_ok=True)

    start = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []
    lost = 0  # repetitions that did not report at all
    round_s = 0.0
    rounds = 0
    spec_wl = WORKLOADS[args.workload]
    n_cases = spec_wl["cases"]
    per_rep = spec_wl.get("per_rep", n_cases)
    # Untraced, every case runs at least once and, when the cases take
    # turns, the first runs twice, so its digest is compared across processes.
    min_rounds = 2 if args.trace else max(3, n_cases // per_rep + (per_rep < n_cases))
    while True:
        elapsed = time.monotonic() - start
        if rounds >= min_rounds and elapsed + round_s > args.seconds:
            break
        if rounds > 0 and elapsed + 1.5 * round_s > DEADLINE_S:
            break
        t0 = time.monotonic()
        for traced_rep in ((False, True) if args.trace else (False,)):
            res = _run_worker(args, traced_rep, rounds, DEADLINE_S - (time.monotonic() - start))
            if res is None:
                lost += 1
            else:
                (traced if traced_rep else untraced).append(res)
        rounds += 1
        round_s = time.monotonic() - t0

    reps = untraced + traced
    (OUT_DIR / f"{args.workload}.reps.json").write_text(json.dumps(reps))
    if not untraced or (args.trace and not traced):
        print("no repetition reported; nothing to measure", file=sys.stderr)
        return 1

    # Correctness: every case's own check, and one digest per case across
    # all repetitions, traced or not.  A repetition that did not report
    # counts as a failure of each of its cases.
    attempted = failed = lost * per_rep
    digests: dict[int, str] = {}
    for r in reps:
        for c in r["cases"]:
            attempted += c["attempted"]
            if "digest" in c:
                digests.setdefault(c["master_seed"], c["digest"])
            same = c.get("digest", digests.get(c["master_seed"])) == digests.get(c["master_seed"])
            failed += c["failed"] if same else c["attempted"]

    consistent = True
    for r in traced:
        total = sum(c.get("run_s", 0.0) for c in r["cases"])
        if r["layers"]["trace.self_s_total"] > total:
            print("traced self times exceed the traced run time", file=sys.stderr)
            consistent = False

    run_s = _case_median(untraced, "run_s")
    if run_s is None:
        print("every case failed; nothing to measure", file=sys.stderr)
        return 1
    # A case's outputs are fixed by its master seed, so each counts once.
    once = list(
        {c["master_seed"]: c for r in untraced for c in r["cases"] if "run_s" in c}.values()
    )
    if args.trace:
        layers = {
            key: statistics.median(r["layers"][key] for r in traced)
            for key in traced[0]["layers"]
        }
        # Layer figures cover all cases of a repetition, so these do too.
        layers["trace.run_s"] = per_rep * _case_median(traced, "run_s")
        layers["trace.overhead_s"] = layers["trace.run_s"] - per_rep * run_s
        names = [m["name"] for m in spec["per_layer"]]
        values = {name: layers[name] for name in names}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "run_rel": run_s / statistics.fmean(x for r in untraced for x in r["ref_s"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "ok_frac": 1.0 - failed / attempted,
        }
        if args.workload == "checks_suite":
            values.update({name: NOT_APPLICABLE for name in FL_ONLY})
            values["check_pass_frac"] = sum(c["verdicts_passed"] for c in once) / max(
                1, sum(c["verdicts"] for c in once)
            )
        else:
            values["check_pass_frac"] = NOT_APPLICABLE
            values["final_accuracy"] = statistics.fmean(c["final_accuracy"] for c in once)
            values["final_snr_db"] = statistics.fmean(c["final_snr_db"] for c in once)
            values["uplink_bits_per_update"] = sum(c["uplink_bits"] for c in once) / sum(
                c["client_updates"] for c in once
            )
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    provenance = dict(
        reps[0]["provenance"],
        git_commit=_git_commit(),
        workload=args.workload,
        seed=args.seed,
        case_master_seeds=case_seeds(args.workload, args.seed),
        untraced_reps=len(untraced),
        run_s=run_s,
        reference_s=statistics.fmean(x for r in untraced for x in r["ref_s"]),
        traced_reps=len(traced),
        digests={str(k): v for k, v in sorted(digests.items())},
        faulty_checks=sorted(
            {name for r in reps for c in r["cases"] for name in c.get("faulty_checks", [])}
        ),
        failed_verdicts={
            str(c["master_seed"]): c["failed_verdicts"]
            for r in untraced for c in r["cases"] if c.get("failed_verdicts")
        },
    )
    print(json.dumps({"provenance": provenance}))
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
