"""One repetition of a benchmark workload, in a fresh process.

Started by ``run.py``; not meant to be run by hand.  The process imports
olala from the checkout's ``src``, runs every case of the workload once,
checks the outputs, and prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Each FL workload is a parse_config override list; every case of a run
# uses the same overrides with its own master_seed.  ``cases`` is how many
# seeds one run averages over: the learner's cost and the final accuracy
# both depend on the data, so one seed alone would make run-to-run figures
# depend on which seed the run was given.
WORKLOADS = {
    "fl_olala_l2": {
        "overrides": ["quantizer=olala", "L=2", "R=3", "U=5", "rounds=6", "lattice_epochs=2"],
        "cases": 4,
    },
    # Here a case takes 2.5-4.5 s and its cost (l4) or its final SNR
    # (fixed_hex) varies much between seeds, so a run covers four seeds but
    # a repetition runs two of them and the cases take turns: ``per_rep`` is
    # how many cases a repetition runs (all of them when absent).
    "fl_olala_l4": {
        "overrides": ["quantizer=olala", "L=4", "R=3", "U=1", "rounds=4", "lattice_epochs=1"],
        "cases": 4,
        "per_rep": 2,
    },
    "fl_fixed_hex_r6": {
        "overrides": [
            "quantizer=fixed_hex", "model=mlp", "R=6", "local_steps=100", "rounds=16",
        ],
        "cases": 4,
        "per_rep": 2,
    },
    # One run_all_checks call takes 4-5 s, so a repetition runs one case.
    "checks_suite": {"overrides": [], "cases": 5, "per_rep": 1},
}


def _fl_digest(result) -> str:
    """Hash of the per-round log, the lattice log and the final parameters."""
    h = hashlib.sha256()
    for r in result.records:
        h.update(
            f"{r.t},{r.accuracy!r},{r.mean_snr_db!r},{r.mean_distortion!r},{r.total_bits}\n".encode()
        )
    h.update(json.dumps(result.lattice_log, sort_keys=True).encode())
    h.update(result.params.tobytes())
    return h.hexdigest()


def _redecode_mismatches(result, master_seed: int) -> int:
    """Payloads whose server-side decode differs from the client's recon.

    Rebuilds each client's transmit dither stream from its seed root, as a
    server would, and decodes the sent indices with the public codec.
    """
    import numpy as np
    from olala import rng
    from olala.lattice import build_lattice
    from olala.sdq import DitherStream, SdqCodec, decode_blocks, recombine

    bad = 0
    for rec in result.records:
        for p in rec.payloads:
            if p.kind == "none":
                continue
            root = rng.derive_seed(master_seed, rng.TAG_CLIENT_ROOT, p.uid)
            stream = DitherStream(rng.derive_seed(root, rec.t, rng.TAG_TRANSMIT_DITHER), p.gen)
            codec = SdqCodec(lattice=build_lattice(p.gen, 1.0), zeta=p.zeta, dither=stream)
            blocks = decode_blocks(codec, p.indices, stream.draw(p.indices.shape[0]))
            if not np.array_equal(recombine(blocks, p.pad), p.recon):
                bad += 1
    return bad


def _codeword_faults(result) -> int:
    """Payloads that send a point which is not a codeword of their lattice.

    Independent of the program's codec: a sent codeword must be an integer
    combination of the sent generator's columns with norm at most the
    support radius 1.
    """
    import numpy as np
    from olala.lattice import build_lattice

    bad = 0
    for rec in result.records:
        for p in rec.payloads:
            if p.kind == "none":
                continue
            words = build_lattice(p.gen, 1.0).codebook[p.indices]
            coords = np.linalg.solve(p.gen, words.T)
            on_lattice = np.allclose(coords, np.rint(coords), atol=1e-6)
            if not on_lattice or np.einsum("ij,ij->i", words, words).max() > 1.0 + 1e-9:
                bad += 1
    return bad


def _replays_average(result, cfg) -> bool:
    """Whether averaging the clients' reconstructions, round by round from
    the initial weights, gives the final parameters the server reported."""
    import numpy as np
    from olala import rng
    from olala.models import init_params

    w = init_params(cfg.arch(), rng.derive_seed(cfg.master_seed, rng.TAG_MODEL_INIT))
    for rec in result.records:
        total = np.zeros_like(w)
        for p in sorted(rec.payloads, key=lambda p: p.uid):
            total += p.recon
        w = w + total / len(rec.payloads)
    return bool(np.allclose(w, result.params, rtol=1e-9, atol=1e-12))


def _fl_case(cfg, timed):
    from olala.fl import run_fl

    result, run_s = timed(run_fl, cfg)
    tail = result.records[-5:]
    updates = sum(len(r.payloads) for r in result.records)
    faults = _redecode_mismatches(result, cfg.master_seed) + _codeword_faults(result)
    return {
        "run_s": run_s,
        "digest": _fl_digest(result),
        "attempted": 1,
        "failed": int(faults > 0 or not _replays_average(result, cfg)),
        "final_accuracy": sum(r.accuracy for r in tail) / len(tail),
        "final_snr_db": sum(r.mean_snr_db for r in tail) / len(tail),
        "uplink_bits": sum(r.total_bits for r in result.records),
        "client_updates": updates,
    }


# The non-control checks run_all_checks reports.  Their verdicts are
# statistical tests (a fitted slope in a window, 3-4 sigma matches) and
# some fail on some master seeds with the program working as written, so a
# verdict is not a correctness fault here: run.py reports the share that
# pass as check_pass_frac.  A check fails as an operation when it is
# missing, raises, reports a non-finite figure, states a verdict that its
# own inequalities contradict, or, for gamma_scaling, counts lattice points
# differently from the brute-force recount below.
SUITE_CHECKS = (
    "sdq_error_stats_identity", "sdq_error_stats_hexagonal", "sdq_error_stats_d2",
    "sdq_error_stats_a2", "distortion_bound_U1", "distortion_bound_U2",
    "distortion_bound_U4", "convergence_rate", "gamma_scaling_square",
    "gamma_scaling_hexagonal", "hexagonal_vs_square_distortion",
)


def _holds(ineq) -> bool:
    lhs, op, rhs = ineq["lhs"], ineq["op"], ineq["rhs"]
    if op == "in":
        return rhs[0] <= lhs <= rhs[1]
    return lhs <= rhs if op == "<=" else lhs >= rhs


def _finite(value) -> bool:
    import math

    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _count_fault(report) -> bool:
    """Whether a gamma_scaling report's lattice-point counts disagree with a
    brute-force count of integer points of its unit-determinant shape.

    The reported radius must be the smallest one that encloses ``budget``
    points, ``tied_count`` the points within it, and every per-gamma count
    the same number, since each generator is the shape scaled to put that
    radius at gamma.
    """
    import numpy as np
    from olala.lattice import GEN_HEXAGONAL

    shape = np.eye(2)
    if report.name.endswith("hexagonal"):
        shape = GEN_HEXAGONAL / np.sqrt(np.linalg.det(GEN_HEXAGONAL))
    m = report.measured
    r = m["minimal_radius"]
    k = int(np.ceil(r / np.linalg.svd(shape, compute_uv=False).min())) + 1
    grid = np.stack(np.meshgrid(*[np.arange(-k, k + 1)] * 2), -1).reshape(-1, 2)
    norms = np.linalg.norm(grid @ shape.T, axis=1)
    within = int(np.count_nonzero(norms <= r * (1.0 + 1e-9)))
    below = int(np.count_nonzero(norms < r * (1.0 - 1e-9)))
    return not (
        below < m["budget"] <= within
        and m["tied_count"] == within
        and all(c == within for c in m["counts"])
    )


def _checks_case(cfg, timed):
    from olala.checks import run_all_checks

    reports, run_s = timed(run_all_checks, cfg)
    blob = json.dumps([r.to_dict() for r in reports], sort_keys=True, default=repr)
    by_name = {r.name: r for r in reports if not r.negative_control}
    faults = [
        name for name in SUITE_CHECKS
        if name not in by_name
        or not _finite([by_name[name].inequalities, by_name[name].measured])
        or by_name[name].passed != all(_holds(q) for q in by_name[name].inequalities)
        or (name.startswith("gamma_scaling") and _count_fault(by_name[name]))
    ]
    verdicts = [by_name[name].passed for name in SUITE_CHECKS if name in by_name]
    return {
        "run_s": run_s,
        "digest": hashlib.sha256(blob.encode()).hexdigest(),
        "attempted": len(SUITE_CHECKS),
        "failed": len(faults),
        "faulty_checks": faults,
        "verdicts": len(verdicts),
        "verdicts_passed": sum(verdicts),
        "failed_verdicts": [n for n in SUITE_CHECKS if n in by_name and not by_name[n].passed],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--master-seeds", required=True,
                    help="comma-separated master_seed of each case to run")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="CLOCK_MONOTONIC reading taken just before this process was started")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # Setup, timed from process start: the modules the olala command loads,
    # then config parsing.  Dataset and shards are built inside run_fl,
    # which takes only a config, so they count toward run_s.
    sys.path.insert(0, str(ROOT / "src"))
    import olala
    import olala.checks  # noqa: F401
    import olala.config
    import olala.fl  # noqa: F401

    if Path(olala.__file__).resolve().parent != ROOT / "src" / "olala":
        raise SystemExit(f"imported olala from {olala.__file__}, not from the checkout")
    spec = WORKLOADS[args.workload]
    seeds = [int(v) for v in args.master_seeds.split(",")]
    configs = [
        olala.config.parse_config(
            overrides=spec["overrides"] + ["parallel=1", f"master_seed={s}"]
        )
        for s in seeds
    ]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at

    def timed(fn, cfg):
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = fn(cfg)
            return out, time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()

    run_case = _checks_case if args.workload == "checks_suite" else _fl_case
    cases = []
    ref_s = [_reference_s()]
    for s, cfg in zip(seeds, configs):
        try:
            case = run_case(cfg, timed)
        except Exception as exc:  # counted as one failed operation, not fatal
            print(f"case master_seed={s} raised {exc!r}", file=sys.stderr)
            case = {"error": repr(exc), "attempted": 1, "failed": 1}
        case["master_seed"] = s
        ref_s.append(_reference_s())
        cases.append(case)

    out = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cases": cases,
        "ref_s": ref_s,
    }
    if tracer is not None:
        out["layers"] = tracer.stats()
        tracer.save(str(ROOT / ".bench_out" / f"{args.workload}.spans.npz"))
    out["provenance"] = _provenance()
    print(json.dumps(out, allow_nan=True))
    return 0


def _reference_s() -> float:
    """Wall time of a fixed computation that does not use olala: small-array
    numpy calls in a Python loop, as in the learner, and a nearest-point
    scan over a few thousand rows, as in the codec and the checks."""
    import numpy as np

    g = np.array([[1.0, 0.5], [0.0, 0.8660254037844386]])
    g_inv = np.linalg.inv(g)
    small = np.linspace(-1.0, 1.0, 64).reshape(32, 2)
    rows = np.linspace(-3.0, 3.0, 8000).reshape(4000, 2)
    offsets = np.array([[i, j] for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=float)
    t0 = time.perf_counter()
    for i in range(2000):
        y = small @ g.T + 0.001 * i
        np.einsum("ij,ij->i", y, y).min()
    for i in range(60):
        xs = rows + 0.01 * i
        d = (np.rint(xs @ g_inv.T)[:, None, :] + offsets) @ g.T - xs[:, None, :]
        np.einsum("ijk,ijk->ij", d, d).argmin(axis=1)
    return time.perf_counter() - t0


def _provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", ""),
    }


if __name__ == "__main__":
    sys.exit(main())
