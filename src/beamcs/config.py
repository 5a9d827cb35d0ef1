"""Experiment configuration: profiles, JSON config files, validation.

A config document is plain JSON with sections channel / data / train /
recovery / metric plus sweep-level keys.  Documents start from a named
profile's defaults ("paper" = full scale, "ci" = desk scale) and
override fields; CLI flags override last.  The global seed cascades into
any section seed the document leaves unset.  A key that no profile
holds (other than a channel or train seed) is an error.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass

from .channels import AngleMode, ChannelConfig, GainModel, split_sizes
from .evaluate import MetricConfig
from .matrices import MatrixKind
from .recovery import RecoveryConfig
from .training import TrainConfig


class ConfigError(Exception):
    """Invalid, unknown, or inconsistent configuration input."""


_PROFILES: dict[str, dict] = {
    # Full-scale profile: 256 antennas, 3 paths, 20k samples, the five
    # compression sizes of the headline comparison.
    "paper": {
        "channel": {
            "num_antennas": 256,
            "num_paths": 3,
            "angle_mode": "on_grid",
            "gain_model": "complex_gaussian",
        },
        "data": {
            "num_samples": 20000,
            "ratios": [0.8, 0.1, 0.1],
            # Plain [0, 1] rescaling: the minimum nonzero of each sample
            # lands on exactly 0, so recovery sees one entry fewer.  The
            # headline percentages are only reached with this map.
            "floor": 0.0,
            "zero_tol": 1e-12,
        },
        "train": {
            "learning_rate": 0.01,
            "batch_size": 128,
            "max_epochs": 1000,
            "init_stddev": None,
            "num_updates": 9,
            "alpha_init": 1.0,
            "dev_eval_every": 5,
            "early_stop_patience": 0,
        },
        "recovery": {
            "feas_tol": 1e-10,
            "opt_tol": 1e-9,
            "max_iters": 200,
        },
        "metric": {"exact_tol": 1e-8, "block_length": 200, "base_rate": 1.0},
        "m_values": [20, 25, 30, 35, 40],
        "kinds": [k.value for k in MatrixKind],
        "seed": 0,
        "out_dir": "runs/paper",
    },
    # Desk-scale profile: small enough for a laptop CPU in minutes; the
    # larger step size compensates for the tight epoch budget.
    "ci": {
        "channel": {
            "num_antennas": 32,
            "num_paths": 2,
            "angle_mode": "on_grid",
            "gain_model": "complex_gaussian",
        },
        "data": {
            "num_samples": 2000,
            "ratios": [0.8, 0.1, 0.1],
            "floor": 0.1,
            "zero_tol": 1e-12,
        },
        "train": {
            "learning_rate": 0.02,
            "batch_size": 64,
            "max_epochs": 200,
            "init_stddev": None,
            "num_updates": 9,
            "alpha_init": 1.0,
            "dev_eval_every": 5,
            "early_stop_patience": 0,
        },
        "recovery": {
            "feas_tol": 1e-10,
            "opt_tol": 1e-9,
            "max_iters": 200,
        },
        "metric": {"exact_tol": 1e-8, "block_length": 200, "base_rate": 1.0},
        "m_values": [8, 12, 16],
        "kinds": [k.value for k in MatrixKind],
        "seed": 0,
        "out_dir": "runs/ci",
    },
}

PROFILE_NAMES = tuple(_PROFILES)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one pipeline run needs, validated."""

    channel: ChannelConfig
    num_samples: int
    ratios: tuple[float, float, float]
    floor: float
    zero_tol: float
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
        if len(set(self.kinds)) != len(self.kinds):
            raise ConfigError("kinds must be distinct")
        if not 0.0 <= self.floor < 1.0:
            raise ConfigError("floor must lie in [0, 1)")
        if not self.zero_tol >= 0.0:
            raise ConfigError("zero_tol must be nonnegative")
        if self.num_samples < 10:
            raise ConfigError("num_samples must be at least 10")
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


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


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


def _profile_keys(section: str | None = None) -> set[str]:
    """Keys the profile documents hold at the top level or in a section."""
    return set().union(
        *(p if section is None else p[section] for p in _PROFILES.values())
    )


def _reject_unknown(doc: dict, known: set[str], prefix: str = "") -> None:
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(
            "unknown config key: " + ", ".join(f"{prefix}{k}" for k in unknown)
        )


def _section(doc: dict, name: str, seeded: bool = False) -> dict:
    """The named section; seeded sections may also set their own seed."""
    sec = doc.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"section {name!r} must be an object")
    known = _profile_keys(name) | ({"seed"} if seeded else set())
    _reject_unknown(sec, known, f"{name}.")
    return sec


def _enum(cls, value, what: str):
    try:
        return cls(value)
    except ValueError as exc:
        options = ", ".join(e.value for e in cls)
        raise ConfigError(f"{what} must be one of: {options}") from exc


def build_experiment(doc: dict) -> ExperimentConfig:
    """Validates a merged document into typed configs.

    Wraps every constructor error in ConfigError so the CLI can map all
    bad input to one exit code.
    """
    try:
        _reject_unknown(doc, _profile_keys())
        seed = int(doc["seed"])
        ch = _section(doc, "channel", seeded=True)
        channel = ChannelConfig(
            num_antennas=int(ch["num_antennas"]),
            num_paths=int(ch["num_paths"]),
            angle_mode=_enum(AngleMode, ch["angle_mode"], "angle_mode"),
            gain_model=_enum(GainModel, ch["gain_model"], "gain_model"),
            seed=int(ch.get("seed", seed)),
        )
        data = _section(doc, "data")
        num_samples = int(data["num_samples"])
        ratios_raw = data["ratios"]
        if len(ratios_raw) != 3:
            raise ConfigError("ratios must have exactly 3 entries")
        ratios = tuple(float(r) for r in ratios_raw)
        tr = _section(doc, "train", seeded=True)
        stddev = tr.get("init_stddev")
        train = TrainConfig(
            learning_rate=float(tr["learning_rate"]),
            batch_size=int(tr["batch_size"]),
            max_epochs=int(tr["max_epochs"]),
            init_stddev=None if stddev is None else float(stddev),
            num_updates=int(tr["num_updates"]),
            alpha_init=float(tr["alpha_init"]),
            seed=int(tr.get("seed", seed)),
            dev_eval_every=int(tr["dev_eval_every"]),
            early_stop_patience=int(tr["early_stop_patience"]),
        )
        rc = _section(doc, "recovery")
        recovery = RecoveryConfig(
            feas_tol=float(rc["feas_tol"]),
            opt_tol=float(rc["opt_tol"]),
            max_iters=int(rc["max_iters"]),
        )
        mc = _section(doc, "metric")
        metric = MetricConfig(
            exact_tol=float(mc["exact_tol"]),
            block_length=int(mc["block_length"]),
            base_rate=float(mc["base_rate"]),
        )
        m_values = tuple(int(m) for m in doc["m_values"])
        kinds = tuple(_enum(MatrixKind, k, "matrix kind") for k in doc["kinds"])
        # Config echoes leave out_dir out, so a rebuilt echo needs the fallback.
        out_dir = str(doc.get("out_dir", "runs/out"))
        return ExperimentConfig(
            channel=channel,
            num_samples=num_samples,
            ratios=ratios,  # type: ignore[arg-type]
            floor=float(data["floor"]),
            zero_tol=float(data["zero_tol"]),
            train=train,
            recovery=recovery,
            metric=metric,
            m_values=m_values,
            kinds=kinds,
            seed=seed,
            out_dir=out_dir,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


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
    return {
        "channel": {
            "num_antennas": cfg.channel.num_antennas,
            "num_paths": cfg.channel.num_paths,
            "angle_mode": cfg.channel.angle_mode.value,
            "gain_model": cfg.channel.gain_model.value,
            "seed": cfg.channel.seed,
        },
        "data": {
            "num_samples": cfg.num_samples,
            "ratios": list(cfg.ratios),
            "floor": cfg.floor,
            "zero_tol": cfg.zero_tol,
        },
        "train": asdict(cfg.train),
        "recovery": asdict(cfg.recovery),
        "metric": asdict(cfg.metric),
        "m_values": list(cfg.m_values),
        "kinds": [k.value for k in cfg.kinds],
        "seed": cfg.seed,
    }
