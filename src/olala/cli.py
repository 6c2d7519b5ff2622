"""Command-line entry point: run experiments, theory checks, rate sweeps."""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from .config import ExperimentConfig, config_defaults_text, parse_config
from .errors import ConfigError
from .fl import run_fl, save_model, write_lattices_jsonl, write_rounds_csv

SEED_ENV_VAR = "OLALA_SIM_SEED"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="olala",
        description="Lattice-quantized federated learning simulator.",
        epilog="Config keys and defaults:\n" + config_defaults_text(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("verb", choices=["run", "checks", "sweep"])
    parser.add_argument("overrides", nargs="*", help="inline key=value overrides")
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--parallel", type=int, help="worker processes")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    overrides = list(args.set) + list(args.overrides)
    cfg = parse_config(args.config, overrides)
    explicit = {item.split("=", 1)[0].strip() for item in overrides}
    if args.seed is not None:
        cfg.master_seed = args.seed
    elif "master_seed" not in explicit and args.config is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            try:
                cfg.master_seed = int(env)
            except ValueError:
                raise ConfigError(f"master_seed: {SEED_ENV_VAR}={env!r} is not an integer")
    if args.parallel is not None:
        cfg.parallel = args.parallel
    cfg.validate()
    return cfg


def _final_metrics(records) -> tuple[float, float]:
    """Accuracy / SNR averaged over the final five rounds (or fewer)."""
    if not records:
        return 0.0, 0.0
    tail = records[-min(5, len(records)):]
    acc = sum(r.accuracy for r in tail) / len(tail)
    snr = sum(r.mean_snr_db for r in tail) / len(tail)
    return acc, snr


def _do_run(cfg: ExperimentConfig, out_dir: Path, verbose: bool) -> int:
    result = run_fl(cfg)
    write_rounds_csv(result.records, str(out_dir / "rounds.csv"))
    write_lattices_jsonl(result.lattice_log, str(out_dir / "lattices.jsonl"))
    save_model(result.arch, result.params, str(out_dir / "model.bin"))
    if verbose and result.records:
        last = result.records[-1]
        print(f"final round {last.t}: accuracy {last.accuracy:.4f}", file=sys.stderr)
    return 0


def _do_checks(cfg: ExperimentConfig, out_dir: Path, verbose: bool) -> int:
    # Imported here: the checks pull in scipy.stats, which run and sweep never use.
    from .checks import all_non_control_passed, run_all_checks

    reports = run_all_checks(cfg)
    payload = {
        "all_passed": all_non_control_passed(reports),
        "checks": [r.to_dict() for r in reports],
    }
    with open(out_dir / "checks.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for r in reports:
        tag = "control " if r.negative_control else ""
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {tag}{r.name}", file=sys.stderr if verbose else sys.stdout)
    return 0 if payload["all_passed"] else 1


def _sweep_entry(task) -> tuple[str, float, float, float]:
    cfg, quantizer, rate = task
    entry_cfg = replace(cfg, quantizer=quantizer, rate=rate, parallel=1)
    result = run_fl(entry_cfg)
    acc, snr = _final_metrics(result.records)
    return quantizer, rate, acc, snr


def _do_sweep(cfg: ExperimentConfig, out_dir: Path, verbose: bool) -> int:
    tasks = [
        (cfg, quantizer, rate)
        for quantizer in cfg.sweep_quantizers()
        for rate in cfg.sweep_rates()
    ]
    # An entry the grid makes invalid (say fixed_hex at L=3) fails before any runs.
    for _, quantizer, rate in tasks:
        try:
            replace(cfg, quantizer=quantizer, rate=rate).validate()
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    if cfg.parallel > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(cfg.parallel, len(tasks))) as pool:
            rows = list(pool.map(_sweep_entry, tasks))
    else:
        rows = [_sweep_entry(t) for t in tasks]
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        import csv

        writer = csv.writer(fh)
        writer.writerow(["quantizer", "R", "final_accuracy", "final_snr_db"])
        for quantizer, rate, acc, snr in rows:
            writer.writerow([quantizer, repr(rate), repr(acc), repr(snr)])
    if verbose:
        for quantizer, rate, acc, snr in rows:
            print(f"{quantizer} R={rate}: acc {acc:.4f} snr {snr:.2f} dB", file=sys.stderr)
    return 0


_OUTPUT_FILES = {
    "run": ("rounds.csv", "lattices.jsonl", "model.bin"),
    "checks": ("checks.json",),
    "sweep": ("sweep.csv",),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    handler = {"run": _do_run, "checks": _do_checks, "sweep": _do_sweep}[args.verb]
    try:
        return handler(cfg, out_dir, cfg.verbosity > 0)
    except Exception as exc:
        # No partial outputs: a failed verb leaves nothing behind.
        for name in _OUTPUT_FILES[args.verb]:
            try:
                (out_dir / name).unlink(missing_ok=True)
            except OSError:
                pass
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
