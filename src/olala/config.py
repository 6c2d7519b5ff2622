"""Experiment configuration: flat key=value files plus inline overrides.

Parsing is strict: unknown keys are rejected and every value is coerced to
the key's declared type before validation, so error messages always name
the offending key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .fl import FIXED_GENERATORS, QUANTIZER_KINDS
from .lattice import _ENUM_CAP_DEFAULT
from .learning import LOSS_KINDS, OVERLOAD_MODES
from .models import MODEL_KINDS, ModelArch
from .sdq import _MOMENT_MIN_SAMPLES

@dataclass
class ExperimentConfig:
    """All experiment knobs; defaults give a small synthetic run."""

    model: str = "linear"
    dataset: str = "synthetic"  # synthetic | idx
    n_users: int = 5
    lattice_dim: int = 2
    rate: float = 3.0
    rounds: int = 20
    local_steps: int = 50
    adapt_every: int = 1  # in rounds; lattice refresh cadence for olala
    quantizer: str = "olala"
    loss_kind: str = "mse"
    model_lr: float = 0.1
    lattice_lr: float | None = None  # None = per-loss default
    lattice_epochs: int = 20
    lattice_batches: int = 8
    overload_mode: str = "fraction"
    target_overload: float = 0.005
    heuristic_target: float = 0.003
    heuristic_filter_sigma: float = 3.0
    include_zeta_bits: bool = True
    reset_theta_each_round: bool = False
    master_seed: int = 0
    n_classes: int = 10
    synthetic_train_size: int = 3000
    synthetic_test_size: int = 1000
    synthetic_features: int = 16
    synthetic_noise: float = 0.12
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    mlp_hidden: str = "32,32"
    parallel: int = 1
    verbosity: int = 0
    rates: str = "2,3,4"  # sweep verb only
    quantizers: str = "olala,static_per_user,static_global,fixed_hex"  # sweep verb only
    check_sdq_samples: int = 100_000
    check_distortion_trials: int = 100_000
    check_convergence_rounds: int = 2000
    check_convergence_seeds: int = 20
    check_gamma_samples: int = 200_000
    input_dim: int = field(default=0, repr=False)  # run_fl resolves it from the dataset

    def arch(self) -> ModelArch:
        d = self.input_dim or self.synthetic_features
        if self.model == "linear":
            return ModelArch("linear", (d, self.n_classes))
        hidden = tuple(int(h) for h in self.mlp_hidden.split(","))
        return ModelArch("mlp", (d, *hidden, self.n_classes))

    def sweep_rates(self) -> list[float]:
        return [float(r) for r in self.rates.split(",") if r.strip()]

    def sweep_quantizers(self) -> list[str]:
        return [q.strip() for q in self.quantizers.split(",") if q.strip()]

    def validate(self) -> None:
        def bad(key, msg):
            raise ConfigError(f"{key}: {msg}")

        if self.model not in MODEL_KINDS:
            bad("model", f"must be one of {MODEL_KINDS}, got {self.model!r}")
        if self.dataset not in ("synthetic", "idx"):
            bad("dataset", f"must be synthetic or idx, got {self.dataset!r}")
        if self.n_users < 1:
            bad("U", f"must be >= 1, got {self.n_users}")
        if not 1 <= self.lattice_dim <= 8:
            bad("L", f"must be in [1, 8], got {self.lattice_dim}")
        if not self.rate > 0:
            bad("R", f"must be positive, got {self.rate}")
        if self.rounds < 0:
            bad("rounds", f"must be >= 0, got {self.rounds}")
        if self.local_steps < 1:
            bad("local_steps", f"must be >= 1, got {self.local_steps}")
        if self.adapt_every < 1:
            bad("adapt_every", f"must be >= 1, got {self.adapt_every}")
        if self.quantizer not in QUANTIZER_KINDS:
            bad("quantizer", f"must be one of {QUANTIZER_KINDS}, got {self.quantizer!r}")
        # A normalization enumerates budget + 1 = 2^(L*R) + 1 points, which
        # exceeds the cap exactly when L*R >= log2(cap); log2 cannot overflow.
        log2_budget = self.lattice_dim * self.rate
        if self.quantizer != "none" and log2_budget >= math.log2(_ENUM_CAP_DEFAULT):
            bad("R", f"the codeword budget 2^(L*R) + 1 = 2^{log2_budget:g} + 1 "
                     f"at L={self.lattice_dim} exceeds the enumeration cap {_ENUM_CAP_DEFAULT}")
        fixed = FIXED_GENERATORS.get(self.quantizer)
        if fixed is not None and self.lattice_dim != fixed.shape[0]:
            bad("L", f"quantizer={self.quantizer} is a {fixed.shape[0]}-D lattice, "
                     f"got L={self.lattice_dim}")
        if self.loss_kind not in LOSS_KINDS:
            bad("loss_kind", f"must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if self.loss_kind == "task" and self.quantizer == "static_global":
            bad("loss_kind", "task scores one client's update, but quantizer=static_global "
                             "learns one lattice from every client's update at once")
        if not self.model_lr > 0:
            bad("model_lr", f"must be positive, got {self.model_lr}")
        if self.lattice_lr is not None and not self.lattice_lr > 0:
            bad("lattice_lr", f"must be positive or auto, got {self.lattice_lr}")
        if self.lattice_epochs < 0:
            bad("lattice_epochs", f"must be >= 0, got {self.lattice_epochs}")
        if self.lattice_batches < 1:
            bad("lattice_batches", f"must be >= 1, got {self.lattice_batches}")
        if self.overload_mode not in OVERLOAD_MODES:
            bad("overload_mode", f"unknown mode {self.overload_mode!r}")
        if not 0 <= self.target_overload < 1:
            bad("target_overload", f"must be in [0, 1), got {self.target_overload}")
        if not 0 <= self.heuristic_target < 1:
            bad("heuristic_target", f"must be in [0, 1), got {self.heuristic_target}")
        if not self.heuristic_filter_sigma > 0:
            bad("heuristic_filter_sigma", f"must be positive, got {self.heuristic_filter_sigma}")
        if self.n_classes < 3:
            bad("n_classes", f"must be >= 3 for the class-window partition, got {self.n_classes}")
        if self.dataset == "idx":
            for key in ("train_images", "train_labels", "test_images", "test_labels"):
                if not getattr(self, key):
                    bad(key, "required when dataset=idx")
        else:
            if self.synthetic_train_size < 1 or self.synthetic_test_size < 1:
                bad("synthetic_train_size", "synthetic sizes must be >= 1")
            if self.synthetic_features < 1:
                bad("synthetic_features", f"must be >= 1, got {self.synthetic_features}")
        if self.model == "mlp":
            try:
                hidden = [int(h) for h in self.mlp_hidden.split(",")]
            except ValueError:
                bad("mlp_hidden", f"must be comma-separated ints, got {self.mlp_hidden!r}")
            if len(hidden) != 2 or any(h < 1 for h in hidden):
                bad("mlp_hidden", f"must list two positive widths, got {self.mlp_hidden!r}")
        if self.parallel < 1:
            bad("parallel", f"must be >= 1, got {self.parallel}")
        for key in (
            "check_sdq_samples", "check_distortion_trials", "check_convergence_rounds",
            "check_convergence_seeds",
        ):
            if getattr(self, key) < 1:
                bad(key, f"must be >= 1, got {getattr(self, key)}")
        if self.check_gamma_samples < _MOMENT_MIN_SAMPLES:
            bad("check_gamma_samples",
                f"must be >= {_MOMENT_MIN_SAMPLES}, got {self.check_gamma_samples}")
        try:
            rates = self.sweep_rates()
        except ValueError:
            bad("rates", f"must be comma-separated numbers, got {self.rates!r}")
        if any(not r > 0 or not math.isfinite(r) for r in rates):
            bad("rates", f"rates must be positive, got {self.rates!r}")
        for q in self.sweep_quantizers():
            if q not in QUANTIZER_KINDS:
                bad("quantizers", f"unknown quantizer {q!r}")
        for key, (name, kind) in CONFIG_KEYS.items():
            value = getattr(self, name)
            if kind in ("float", "lr") and value is not None and not math.isfinite(value):
                bad(key, f"must be finite, got {value}")


# File/override key -> (dataclass field, type tag): one key per field but
# input_dim, named after the field except for the short forms below.  Types
# are the fields' annotations, and lr (float or "auto") for lattice_lr.
_SHORT_KEYS = {"n_users": "U", "lattice_dim": "L", "rate": "R"}
CONFIG_KEYS = {
    _SHORT_KEYS.get(f.name, f.name): (f.name, "lr" if f.name == "lattice_lr" else f.type)
    for f in fields(ExperimentConfig)
    if f.name != "input_dim"
}


def _coerce(key: str, kind: str, text: str):
    text = text.strip()
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "bool":
            low = text.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(text)
        if kind == "lr":
            if text.lower() in ("auto", ""):
                return None
            return float(text)
        return text
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {text!r} as {kind}") from None


def _apply(cfg: ExperimentConfig, key: str, value: str) -> None:
    if key not in CONFIG_KEYS:
        raise ConfigError(f"{key}: unknown configuration key")
    field_name, kind = CONFIG_KEYS[key]
    setattr(cfg, field_name, _coerce(key, kind, value))


def parse_config(
    path: str | None = None, overrides: list[str] | None = None
) -> ExperimentConfig:
    """Build a validated config from an optional file plus key=value overrides.

    File format: one `key = value` per line, blank lines and #-comments
    ignored.  Overrides win over file values.
    """
    cfg = ExperimentConfig()
    if path is not None:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"config file {path!r}: {exc}") from exc
        for ln, line in enumerate(lines, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            _apply(cfg, key.strip(), value)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, value = item.split("=", 1)
        _apply(cfg, key.strip(), value)
    cfg.validate()
    return cfg


def config_defaults_text() -> str:
    """Render every key with its default, for --help and the README."""
    cfg = ExperimentConfig()
    lines = []
    for key, (field_name, kind) in CONFIG_KEYS.items():
        default = getattr(cfg, field_name)
        if kind == "lr" and default is None:
            default = "auto"
        lines.append(f"{key} = {default}")
    return "\n".join(lines)
