"""Span tracing of olala's public functions, installed from outside the package.

Each traced function is wrapped once, and every ``olala.*`` module attribute
that holds the original function object is rebound to the wrapper, because
several modules import functions such as ``quantize_batch`` by name.  A
call records one span: function, start, end, parent span and, for the
batch functions, the number of rows it processed.  Spans stay in memory
until ``save`` writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

import numpy as np

# module -> public functions whose calls are timed.
TRACED = {
    "fl": ("client_round", "server_round", "local_train"),
    "models": ("loss_and_grad",),
    "learning": (
        "online_lattice_learning", "normalize_generator", "normalize_scale", "lattice_grad",
    ),
    "sdq": ("fit_scale", "dithers_at", "encode_blocks", "decode_blocks", "second_moment"),
    "lattice": (
        "build_lattice", "count_codewords_at_most", "nearest_point_batch",
        "quantize_batch", "check_generator",
    ),
    "rng": ("stream_unit_block",),
    "checks": (
        "check_sdq_error_stats", "check_distortion_bound", "check_convergence_rate",
        "check_gamma_scaling", "check_shape_comparison",
    ),
}

# Functions that process a batch: the argument that holds the batch, and
# whether it is a count (dithers_at) rather than an array of rows.
ROW_ARGS = {
    "nearest_point_batch": ("xs", False),
    "quantize_batch": ("xs", False),
    "dithers_at": ("count", True),
    "encode_blocks": ("blocks", False),
    "decode_blocks": ("indices", False),
}

LEARNER = "learning.online_lattice_learning"


class Tracer:
    """Rebinds the traced functions while installed and records their spans."""

    def __init__(self):
        self.names: list[str] = []
        self._originals: dict[str, object] = {}
        self._wrappers: dict[str, object] = {}
        for module, funcs in TRACED.items():
            mod = importlib.import_module(f"olala.{module}")
            for func in funcs:
                name = f"{module}.{func}"
                fn = getattr(mod, func)
                self._originals[name] = fn
                self._wrappers[name] = self._wrap(len(self.names), name, fn)
                self.names.append(name)
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.rows: list[int] = []
        self._stack: list[int] = []
        # (theta changed?) per learner call, in call order.
        self.learner_changed: list[bool] = []

    def _wrap(self, nid: int, name: str, fn):
        row_arg = ROW_ARGS.get(fn.__name__)
        sig = inspect.signature(fn) if row_arg else None
        is_learner = name == LEARNER
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(self.start)
            rows = 0
            if row_arg:
                value = sig.bind(*args, **kwargs).arguments[row_arg[0]]
                rows = int(value) if row_arg[1] else len(value)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.rows.append(rows)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if is_learner:
                self.learner_changed.append(not np.array_equal(out.theta, args[0].theta))
            return out

        return traced

    def _rebind(self, table_from: dict, table_to: dict) -> None:
        by_id = {id(fn): table_to[name] for name, fn in table_from.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "olala" or mod_name.startswith("olala.")):
                continue
            for attr, value in list(vars(mod).items()):
                repl = by_id.get(id(value))
                if repl is not None:
                    setattr(mod, attr, repl)

    def install(self) -> None:
        self._rebind(self._originals, self._wrappers)

    def uninstall(self) -> None:
        self._rebind(self._wrappers, self._originals)

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = end - start
        # Children nest strictly inside their parent on one thread, so the
        # part of a span covered by children is the sum of their durations.
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int64),
            "parent": parent,
            "start": start,
            "end": end,
            "rows": np.asarray(self.rows, dtype=np.int64),
            "self_s": dur - covered,
        }

    def stats(self) -> dict[str, float]:
        """Per-function calls, self time, rows, time per row and latency
        percentiles, named ``<module>.<function>.<stat>``."""
        spans = self.arrays()
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            sel = spans["name_id"] == nid
            calls = int(sel.sum())
            self_s = float(spans["self_s"][sel].sum())
            rows = int(spans["rows"][sel].sum())
            dur_ms = (spans["end"][sel] - spans["start"][sel]) * 1e3
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.rows"] = rows
            out[f"{name}.us_per_row"] = self_s / rows * 1e6 if rows else 0.0
            out[f"{name}.p50_ms"] = float(np.percentile(dur_ms, 50)) if calls else 0.0
            out[f"{name}.p90_ms"] = float(np.percentile(dur_ms, 90)) if calls else 0.0
        n_learn = len(self.learner_changed)
        out["learning.accept_ratio"] = sum(self.learner_changed) / n_learn if n_learn else 0.0
        out["trace.self_s_total"] = float(spans["self_s"].sum())
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())
