"""Declarative experiment configuration: JSON round-trip, method-flag
parsing, dotted-path overrides, and validation with field-path diagnostics."""

import dataclasses
import json
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .data import SyntheticTaskSpec
from .errors import ConfigError

METHOD_TOKENS = ("supervised", "akc", "arc", "pseudo_label", "mean_teacher")


@dataclass
class ExperimentConfig:
    """Full description of one run. Every field has a default; the run seed
    offsets the synthetic task seed so each seed sees fresh data."""

    task: SyntheticTaskSpec = field(default_factory=SyntheticTaskSpec)
    source_train_csv: str = ""
    target_train_csv: str = ""
    target_test_csv: str = ""
    method: str = "supervised"
    n_labeled: int = 40
    lambda_k: float = 1.0
    lambda_r: float = 30.0
    lambda_s: float = 1.0
    eps_k_scale: float = 0.7
    eps_r_scale: float = 0.7
    akc_mode: str = "mse"
    buffer_capacity: int = 256
    buffer_k: int = 256
    eta0: float = 0.001
    source_eta0: float = 0.01
    epochs: int = 60
    source_epochs: int = 30
    batch_labeled: int = 64
    batch_unlabeled: int = 64
    hidden_dims: tuple = (64, 64)
    feature_dim: int = 32
    imprint_head: bool = True
    pl_confidence: float = 0.95
    ema_alpha: float = 0.999
    noise_std: float = 0.1
    seed: int = 0
    out_dir: str = ""

    # ------------------------------------------------------------------ flags

    def method_parts(self):
        """The method's "+"-separated tokens: at least one, each known and
        named once."""
        parts = [p.strip() for p in self.method.split("+") if p.strip()]
        if not parts:
            raise ConfigError(f"method: no method token in {self.method!r}")
        for p in parts:
            if p not in METHOD_TOKENS:
                raise ConfigError(f"method: unknown token {p!r}")
        repeated = sorted({p for p in parts if parts.count(p) > 1})
        if repeated:
            raise ConfigError(f"method: token {repeated[0]!r} repeats in {self.method!r}")
        return parts

    # ------------------------------------------------------------- gates

    def eps_k(self, n_source_classes: int) -> float:
        """AKC entropy threshold in nats: eps_k_scale * ln C_source."""
        return self.eps_k_scale * np.log(n_source_classes)

    def eps_r(self, n_target_classes: int) -> float:
        """ARC entropy threshold in nats: eps_r_scale * ln C_target."""
        return self.eps_r_scale * np.log(n_target_classes)

    # ------------------------------------------------------------ validation

    def validate(self) -> "ExperimentConfig":
        fields = list(_fields(self, ExperimentConfig()))
        bad = [f"{k}={v!r}" for k, v, want in fields if not _has_type(v, want)]
        if bad:
            raise ConfigError("invalid config field types: " + ", ".join(bad))
        if {"pseudo_label", "mean_teacher"} <= set(self.method_parts()):
            raise ConfigError("method: at most one SSL baseline may be combined")
        checks = [
            ("n_labeled", self.n_labeled >= 2),
            ("lambda_k", self.lambda_k >= 0),
            ("lambda_r", self.lambda_r >= 0),
            ("lambda_s", self.lambda_s >= 0),
            ("eps_k_scale", 0 <= self.eps_k_scale <= 1),
            ("eps_r_scale", 0 <= self.eps_r_scale <= 1),
            ("akc_mode", self.akc_mode in ("mse", "kl")),
            ("buffer_capacity", self.buffer_capacity >= 2),
            ("buffer_k", self.buffer_k >= 2),
            ("eta0", self.eta0 > 0),
            ("source_eta0", self.source_eta0 > 0),
            ("epochs", self.epochs >= 0),
            ("source_epochs", self.source_epochs >= 0),
            ("batch_labeled", self.batch_labeled >= 1),
            ("batch_unlabeled", self.batch_unlabeled >= 1),
            ("feature_dim", self.feature_dim >= 1),
            ("pl_confidence", 0 < self.pl_confidence <= 1),
            ("ema_alpha", 0 <= self.ema_alpha < 1),
            ("noise_std", self.noise_std >= 0),
            ("seed", self.seed >= 0),
            ("task.seed", self.task.seed >= 0),
        ]
        bad = [name for name, ok in checks if not ok]
        bad += [k for k, v, want in fields if isinstance(want, float)
                and not math.isfinite(v) and k not in bad]
        if bad:
            raise ConfigError("invalid config fields: " + ", ".join(bad))
        if not self.target_train_csv:
            self.task.validate()
        return self

    # ------------------------------------------------------------- json i/o

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        task = raw.get("task", {})
        if not isinstance(task, dict):
            raise ConfigError(f"task: expected an object, got {task!r}")
        unknown = [k for k in sorted(raw) if k not in _field_names(cls)]
        unknown += [f"task.{k}" for k in sorted(task) if k not in _field_names(SyntheticTaskSpec)]
        if unknown:
            raise ConfigError("unknown config keys: " + ", ".join(unknown))
        kwargs = dict(raw, task=SyntheticTaskSpec(**task))
        if isinstance(kwargs.get("hidden_dims"), list):
            kwargs["hidden_dims"] = tuple(kwargs["hidden_dims"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        # accept both a bare config object and the wrapped form that
        # to_json writes ({"config": ..., "metadata": ...})
        if isinstance(raw, dict) and "config" in raw and "metadata" in raw:
            raw = raw["config"]
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path}: expected a JSON object, got {raw!r}")
        return cls.from_dict(raw)

    def to_json(self, path, extra_metadata):
        payload = self.to_dict()
        payload_meta = {
            "mmd_estimator": "biased_v_statistic",
            "non_paper_defaults": ["pl_confidence", "ema_alpha", "noise_std"],
            # byte-determinism holds per numpy version and BLAS thread count
            "numpy_version": np.__version__,
            "blas_thread_env": {var: os.environ.get(var) for var in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            **extra_metadata,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"config": payload, "metadata": payload_meta}, fh, indent=2)

    # ----------------------------------------------------------- overrides

    def with_overrides(self, assignments) -> "ExperimentConfig":
        """Apply "dotted.key=value" strings; each value is parsed as the type
        of the field's default (a JSON list for hidden_dims)."""
        d, defaults = self.to_dict(), ExperimentConfig().to_dict()
        for item in assignments:
            if "=" not in item:
                raise ConfigError(f"override {item!r} is not key=value")
            key, _, value = item.partition("=")
            node, default = d, defaults
            parts = key.split(".")
            for p in parts[:-1]:
                if p not in node or not isinstance(node[p], dict):
                    raise ConfigError(f"unknown config key: {key}")
                node, default = node[p], default[p]
            leaf = parts[-1]
            if leaf not in node:
                raise ConfigError(f"unknown config key: {key}")
            node[leaf] = _coerce(key, value, default[leaf])
        return ExperimentConfig.from_dict(d)

    def default_out_dir(self) -> str:
        if self.out_dir:
            return self.out_dir
        return os.path.join("runs", f"{self.method.replace('+', '_')}_seed{self.seed}")


def _field_names(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


def _has_type(value, default) -> bool:
    """Whether `value` has the type of the field default `default`: a bool
    for a bool, any int for an int and any real number for a float (a bool
    is neither), a str for a str, and ints >= 1 for the layer widths."""
    if isinstance(default, tuple):
        return isinstance(value, (tuple, list)) and all(
            _has_type(v, 1) and v >= 1 for v in value)
    kind = {int: numbers.Integral, float: numbers.Real}.get(type(default), type(default))
    return isinstance(value, kind) and isinstance(value, bool) == isinstance(default, bool)


def _fields(obj, default, prefix: str = ""):
    """(dotted name, value, default value) of each field of the dataclass
    `obj`, read against the same fields of `default`, nested dataclasses of
    the default's type included."""
    for f in dataclasses.fields(default):
        value, want = getattr(obj, f.name), getattr(default, f.name)
        if dataclasses.is_dataclass(want) and isinstance(value, type(want)):
            yield from _fields(value, want, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, value, want


def _coerce(key: str, text: str, current):
    if isinstance(current, bool):
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: cannot parse boolean from {text!r}")
    try:
        if isinstance(current, int):
            return int(text)
        if isinstance(current, float):
            return float(text)
        if isinstance(current, (list, tuple)):
            return json.loads(text)
    except ValueError as exc:
        raise ConfigError(
            f"{key}: cannot parse {text!r} as {type(current).__name__} ({exc})"
        ) from None
    return text
