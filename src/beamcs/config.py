"""Experiment configuration: profiles, JSON config files, validation.

A config document is plain JSON with sections channel / data / train /
recovery / metric plus sweep-level keys.  Documents start from a named
profile's defaults ("paper" = full scale, "ci" = desk scale) and
override fields; CLI flags override last.  The global seed cascades into
any section seed the document leaves unset.  Each section's dataclass
declares its keys and their types: an undeclared key, or a value not of
its field's JSON type, is an error.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, fields, is_dataclass
from enum import Enum
from typing import get_args, get_origin, get_type_hints

from .channels import ChannelConfig, split_sizes
from .evaluate import MetricConfig
from .matrices import MatrixKind
from .recovery import RecoveryConfig
from .training import TrainConfig


class ConfigError(Exception):
    """Invalid, unknown, or inconsistent configuration input."""


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


# Values both profiles share; each profile below adds its scale keys.
_SHARED: dict = {
    "data": {"ratios": [0.8, 0.1, 0.1]},
    "train": {"num_updates": 9, "alpha_init": 1.0, "dev_eval_every": 5},
    "recovery": {"feas_tol": 1e-10, "opt_tol": 1e-9, "max_iters": 200},
    "metric": {"exact_tol": 1e-8, "block_length": 200},
    "kinds": [k.value for k in MatrixKind],
    "seed": 0,
}

_PROFILES: dict[str, dict] = {
    name: _deep_merge(_SHARED, scale)
    for name, scale in {
        # Full-scale profile: 256 antennas, 3 paths, 20k samples, the five
        # compression sizes of the headline comparison.
        "paper": {
            "channel": {"num_antennas": 256, "num_paths": 3},
            # Plain [0, 1] rescaling: the minimum nonzero of each sample
            # lands on exactly 0, so recovery sees one entry fewer.  The
            # headline percentages are only reached with this map.
            "data": {"num_samples": 20000, "floor": 0.0},
            "train": {"learning_rate": 0.01, "batch_size": 128, "max_epochs": 1000},
            "m_values": [20, 25, 30, 35, 40],
            "out_dir": "runs/paper",
        },
        # Desk-scale profile: small enough for a laptop CPU in minutes; the
        # larger step size compensates for the tight epoch budget.
        "ci": {
            "channel": {"num_antennas": 32, "num_paths": 2},
            "data": {"num_samples": 2000, "floor": 0.1},
            "train": {"learning_rate": 0.02, "batch_size": 64, "max_epochs": 200},
            "m_values": [8, 12, 16],
            "out_dir": "runs/ci",
        },
    }.items()
}

PROFILE_NAMES = tuple(_PROFILES)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one pipeline run needs, validated."""

    channel: ChannelConfig
    num_samples: int
    ratios: tuple[float, float, float]
    floor: float
    train: TrainConfig
    recovery: RecoveryConfig
    metric: MetricConfig
    m_values: tuple[int, ...]
    kinds: tuple[MatrixKind, ...]
    seed: int
    out_dir: str

    def __post_init__(self) -> None:
        width = 2 * self.channel.num_antennas
        if not self.m_values:
            raise ConfigError("m_values must be nonempty")
        if any(m2 <= m1 for m1, m2 in zip(self.m_values, self.m_values[1:])):
            raise ConfigError("m_values must be strictly increasing")
        if self.m_values[0] < 1:
            raise ConfigError("m_values must be positive")
        if self.m_values[-1] >= width:
            raise ConfigError(
                f"every m must be < {width} (the stacked vector width)"
            )
        if self.m_values[-1] >= self.metric.block_length:
            raise ConfigError("block_length must exceed every swept m")
        if not self.kinds:
            raise ConfigError("kinds must be nonempty")
        if len(set(self.kinds)) != len(self.kinds):
            raise ConfigError("kinds must be distinct")
        if not 0.0 <= self.floor < 1.0:
            raise ConfigError("floor must lie in [0, 1)")
        if self.num_samples < 10:
            raise ConfigError("num_samples must be at least 10")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        try:
            split_sizes(self.num_samples, self.ratios)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def profile_defaults(name: str) -> dict:
    """Deep copy of a named profile's config document."""
    if name not in _PROFILES:
        raise ConfigError(
            f"unknown profile {name!r}; available: {', '.join(PROFILE_NAMES)}"
        )
    return copy.deepcopy(_PROFILES[name])


def load_document(
    config_path: str | None, profile: str | None, overrides: dict | None = None
) -> dict:
    """Profile defaults <- config file <- explicit overrides, merged."""
    doc: dict = {}
    if config_path is not None:
        try:
            with open(config_path) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
    base_name = profile or doc.get("profile") or "paper"
    if not isinstance(base_name, str):
        raise ConfigError("profile must be a string")
    merged = _deep_merge(profile_defaults(base_name), doc)
    if overrides:
        merged = _deep_merge(merged, overrides)
    merged.pop("profile", None)
    return merged


def _reject_unknown(doc: dict, known: set[str], prefix: str = "") -> None:
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(
            "unknown config key: " + ", ".join(f"{prefix}{k}" for k in unknown)
        )


# ExperimentConfig fields that the document holds in its data section.
_DATA_KEYS = ("num_samples", "ratios", "floor")
# Keys a document may leave out: config echoes omit out_dir.  A section
# seed falls back to the global seed.
_OPTIONAL = {"out_dir": "runs/out"}


def _typed(value, tp, key: str):
    """value read as the declared type tp, from that type's JSON form only."""
    args = get_args(tp)
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        if args[-1] is not Ellipsis and len(value) != len(args):
            raise ConfigError(f"{key} must have exactly {len(args)} entries")
        return tuple(_typed(v, args[0], key) for v in value)
    if issubclass(tp, Enum):
        if value not in [e.value for e in tp]:
            options = ", ".join(e.value for e in tp)
            raise ConfigError(f"{key} must be one of: {options}")
        return tp(value)
    json_types = {int: int, float: (int, float), str: str}[tp]
    if isinstance(value, bool) or not isinstance(value, json_types):
        raise ConfigError(f"{key} must be of type {tp.__name__}, got {value!r}")
    return tp(value)


def _read(doc, cls, names, prefix="", defaults=_OPTIONAL, also=()) -> dict:
    """The named fields of dataclass cls, read from doc with their types;
    doc may hold no other keys than those and also."""
    if not isinstance(doc, dict):
        raise ConfigError(f"section {prefix[:-1]!r} must be an object")
    _reject_unknown(doc, {*names, *also}, prefix)
    hints = get_type_hints(cls)
    out = {}
    for name in names:
        if name in doc:
            out[name] = _typed(doc[name], hints[name], prefix + name)
        elif name in defaults:
            out[name] = defaults[name]
        else:
            raise ConfigError(f"invalid configuration: missing key {prefix}{name}")
    return out


def build_experiment(doc: dict) -> ExperimentConfig:
    """Validates a merged document into typed configs.

    Every key is read as its dataclass field declares it; a section's
    constructor errors become ConfigError naming the section, so the CLI
    maps all bad input to one exit code.
    """
    hints = get_type_hints(ExperimentConfig)
    sections = {k: t for k, t in hints.items() if is_dataclass(t)}
    top = [k for k in hints if k not in sections and k not in _DATA_KEYS]
    kw = _read(doc, ExperimentConfig, top, also=("data", *sections))
    if kw["seed"] < 0:  # checked before it cascades into the sections
        raise ConfigError("seed must be nonnegative")
    kw.update(_read(doc.get("data", {}), ExperimentConfig, _DATA_KEYS, "data."))
    for name, cls in sections.items():
        names = [f.name for f in fields(cls)]
        defaults = {**_OPTIONAL, "seed": kw["seed"]}
        section = _read(doc.get(name, {}), cls, names, f"{name}.", defaults)
        try:
            kw[name] = cls(**section)
        except ValueError as exc:
            # a section's checks open their message with the field name
            raise ConfigError(f"invalid configuration: {name}.{exc}") from exc
    return ExperimentConfig(**kw)


def load_experiment(
    config_path: str | None, profile: str | None, overrides: dict | None = None
) -> ExperimentConfig:
    return build_experiment(load_document(config_path, profile, overrides))


def config_echo(cfg: ExperimentConfig) -> dict:
    """JSON-ready snapshot of a validated config, embedded in outputs so
    every artifact names its exact generating configuration.

    out_dir is deliberately omitted: it says where files land, not what
    they contain, and including it would break byte-identity of reruns
    pointed at different directories."""
    flat = asdict(cfg, dict_factory=lambda kv: {k: _plain(v) for k, v in kv})
    echo: dict = {}
    for key, value in flat.items():
        if key in _DATA_KEYS:
            echo.setdefault("data", {})[key] = value
        elif key != "out_dir":
            echo[key] = value
    return echo


def _plain(value):
    """A field value in JSON form: enums by value, tuples as lists."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value.value if isinstance(value, Enum) else value
