"""Experiment configuration: profiles, JSON config files, validation.

A config document is plain JSON with sections channel / data / train
plus sweep-level keys.  Documents start from a named profile's defaults
("paper" = full scale, "ci" = desk scale) and override fields; CLI flags
override last.  The one seed is the document's top-level seed, which
builds the channel and train configs.  Each section's dataclass declares
its keys and their types: an undeclared key, a section seed among them,
or a value not of its field's JSON type, is an error.  read_fields is
that one typed reader; the file trailers go through it too.  The sweep
grid must pass evaluate.check_sweep at the width 2N.  The dataset
split is generate_dataset's 0.8/0.1/0.1, the solver settings are the
RecoveryConfig defaults and the metric definitions are evaluate's
constants; no document sets them.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from typing import get_args, get_origin, get_type_hints

from .channels import ChannelConfig
from .evaluate import check_sweep
from .matrices import MatrixKind
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
    "train": {"num_updates": 9, "dev_eval_every": 5},
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
            # lands on exactly 0, so recovery sees one entry fewer.  Its
            # effect on the headline percentages against floor 0.1 is
            # unmeasured (ROADMAP item 1, probe c).
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
    floor: float
    train: TrainConfig
    m_values: tuple[int, ...]
    kinds: tuple[MatrixKind, ...]
    seed: int
    out_dir: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.floor < 1.0:
            raise ConfigError("floor must lie in [0, 1)")
        if self.num_samples < 10:
            raise ConfigError("num_samples must be at least 10")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        try:
            check_sweep(self.m_values, self.kinds, 2 * self.channel.num_antennas)
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
    base_name = profile if profile is not None else doc.get("profile", "paper")
    if not isinstance(base_name, str):
        raise ConfigError("profile must be a string")
    merged = _deep_merge(profile_defaults(base_name), doc)
    if overrides:
        merged = _deep_merge(merged, overrides)
    merged.pop("profile", None)
    return merged


# ExperimentConfig fields that the document holds in its data section.
_DATA_KEYS = ("num_samples", "floor")


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


def read_fields(doc, cls, names, prefix="", also=(), noun="config") -> dict:
    """The named fields of dataclass cls, read from the JSON object doc
    with their declared types; doc may hold no other keys than those and
    also.  Any other doc is a ConfigError; one that names a key the
    reader does not calls it an "unknown {noun} key", so a file trailer
    is read with noun="trailer"."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{prefix[:-1] or 'document'} must be an object, got {doc!r}")
    unknown = sorted(set(doc) - {*names, *also})
    if unknown:
        keys = ", ".join(prefix + k for k in unknown)
        raise ConfigError(f"unknown {noun} key: {keys}")
    hints = get_type_hints(cls)
    out = {}
    for name in names:
        if name not in doc:
            raise ConfigError(f"invalid configuration: missing key {prefix}{name}")
        out[name] = _typed(doc[name], hints[name], prefix + name)
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
    kw = read_fields(doc, ExperimentConfig, top, also=("data", *sections))
    if kw["seed"] < 0:  # checked by its own key, before the sections get it
        raise ConfigError("seed must be nonnegative")
    kw.update(read_fields(doc.get("data", {}), ExperimentConfig, _DATA_KEYS, "data."))
    for name, cls in sections.items():
        names = [f.name for f in fields(cls) if f.name != "seed"]
        section = read_fields(doc.get(name, {}), cls, names, f"{name}.")
        try:
            kw[name] = cls(**section, seed=kw["seed"])
        except ValueError as exc:
            # a section's checks open their message with the field name
            raise ConfigError(f"invalid configuration: {name}.{exc}") from exc
    return ExperimentConfig(**kw)


def load_experiment(
    config_path: str | None, profile: str | None, overrides: dict | None = None
) -> ExperimentConfig:
    return build_experiment(load_document(config_path, profile, overrides))

