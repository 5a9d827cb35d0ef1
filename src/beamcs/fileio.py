"""Binary containers and text exports for datasets and checkpoints.

Layouts (all integers and floats little-endian):

  BCSL dataset     magic "BCSL", u32 version, u64 x6 (N, P, n, n_train,
                   n_dev, n_test), samples n x 2N f64 row-major, params
                   n x 4 f64, JSON echo trailer, u64 trailer length.
  BCSW checkpoint  magic "BCSW", u32 version, u64 x3 (m, width, L),
                   f64 x3 (alpha, bn eps, bn momentum), Phi m x width f64,
                   then gamma/beta/running-mean/running-var per layer,
                   JSON echo trailer, u64 length.

The trailer carries the full generating configuration in canonical JSON
(sorted keys, compact separators), so every artifact names its exact
origin and identical inputs write byte-identical files.
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import asdict

import numpy as np

from .channels import AngleMode, ChannelConfig, ChannelDataset, GainModel
from .evaluate import SweepReport, figure_table
from .network import BatchNormLayer, UnrolledAutoencoder
from .training import TrainConfig, TrainReport

DATASET_MAGIC = b"BCSL"
CHECKPOINT_MAGIC = b"BCSW"
FORMAT_VERSION = 1

_PREFIX = struct.Struct("<4sI")  # magic, version
_DATASET_FIXED = struct.Struct("<6Q")  # N, P, n, train, dev, test
_CHECKPOINT_FIXED = struct.Struct("<QQQddd")  # m, width, L, alpha, eps, mom
_TRAILER_LEN = struct.Struct("<Q")


class FileFormatError(Exception):
    """Corrupt or mismatched container: bad magic, version, or payload."""


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _f64(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _write_file(
    path: str, magic: bytes, fixed: bytes, arrays: list[np.ndarray], echo: dict
) -> None:
    trailer = _canonical_json(echo)
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(magic, FORMAT_VERSION))
        fh.write(fixed)
        for arr in arrays:
            fh.write(_f64(arr))
        fh.write(trailer)
        fh.write(_TRAILER_LEN.pack(len(trailer)))


def _read_file(path: str, magic: bytes, fixed: struct.Struct):
    """Returns (fixed fields tuple, array payload bytes, echo dict)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head = _PREFIX.size
    if len(blob) < head + fixed.size + _TRAILER_LEN.size:
        raise FileFormatError("truncated file: shorter than its fixed header")
    got_magic, version = _PREFIX.unpack_from(blob, 0)
    if got_magic != magic:
        raise FileFormatError(
            f"bad magic {got_magic!r}: expected a {magic.decode()} file"
        )
    if version != FORMAT_VERSION:
        raise FileFormatError(f"unsupported format version {version}")
    fields = fixed.unpack_from(blob, head)
    (trailer_len,) = _TRAILER_LEN.unpack_from(blob, len(blob) - _TRAILER_LEN.size)
    payload_end = len(blob) - _TRAILER_LEN.size - trailer_len
    if payload_end < head + fixed.size:
        raise FileFormatError("corrupt trailer length")
    try:
        echo = json.loads(blob[payload_end : len(blob) - _TRAILER_LEN.size])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"corrupt echo trailer: {exc}") from exc
    return fields, blob[head + fixed.size : payload_end], echo


def _take(payload: bytes, offset: int, shape: tuple[int, ...]) -> tuple[np.ndarray, int]:
    count = 1
    for dim in shape:
        count *= dim
    nbytes = count * 8
    if offset + nbytes > len(payload):
        raise FileFormatError("truncated file: incomplete array payload")
    arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
    return arr.reshape(shape).astype(float), offset + nbytes


def sniff_format(path: str) -> str:
    """Returns 'dataset' or 'checkpoint' from the file magic."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    names = {DATASET_MAGIC: "dataset", CHECKPOINT_MAGIC: "checkpoint"}
    if magic not in names:
        raise FileFormatError(f"unrecognized magic {magic!r}")
    return names[magic]


# ---------------------------------------------------------------- datasets


def save_dataset(
    path: str, dataset: ChannelDataset, extra_echo: dict | None = None
) -> None:
    cfg = dataset.config
    fixed = _DATASET_FIXED.pack(
        cfg.num_antennas,
        cfg.num_paths,
        dataset.num_samples,
        dataset.num_train,
        dataset.num_dev,
        dataset.num_test,
    )
    echo = {
        "angle_mode": cfg.angle_mode.value,
        "gain_model": cfg.gain_model.value,
        "seed": cfg.seed,
        "ratios": list(dataset.ratios),
        "floor": dataset.floor,
        "zero_tol": dataset.zero_tol,
        "config": extra_echo,
    }
    _write_file(
        path, DATASET_MAGIC, fixed, [dataset.samples, dataset.params], echo
    )


def load_dataset(path: str) -> tuple[ChannelDataset, dict]:
    fields, payload, echo = _read_file(path, DATASET_MAGIC, _DATASET_FIXED)
    num_antennas, num_paths, n, n_train, n_dev, n_test = fields
    if n_train + n_dev + n_test != n:
        raise FileFormatError("dataset split sizes do not sum to num_samples")
    try:
        cfg = ChannelConfig(
            num_antennas=int(num_antennas),
            num_paths=int(num_paths),
            angle_mode=AngleMode(echo["angle_mode"]),
            gain_model=GainModel(echo["gain_model"]),
            seed=int(echo["seed"]),
        )
        ratios = tuple(float(r) for r in echo["ratios"])
        floor = float(echo["floor"])
        zero_tol = float(echo["zero_tol"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"dataset echo trailer invalid: {exc}") from exc
    samples, off = _take(payload, 0, (int(n), 2 * int(num_antennas)))
    params, off = _take(payload, off, (int(n), 4))
    if off != len(payload):
        raise FileFormatError("trailing bytes after dataset payload")
    dataset = ChannelDataset(
        samples=samples,
        params=params,
        num_train=int(n_train),
        num_dev=int(n_dev),
        num_test=int(n_test),
        config=cfg,
        ratios=ratios,  # type: ignore[arg-type]
        floor=floor,
        zero_tol=zero_tol,
    )
    return dataset, echo


# -------------------------------------------------------------- checkpoints


def save_checkpoint(
    path: str, model: UnrolledAutoencoder, train_cfg: TrainConfig | None = None
) -> None:
    bn0 = model.bn_layers[0]
    fixed = _CHECKPOINT_FIXED.pack(
        model.num_measurements,
        model.width,
        model.num_updates,
        model.alpha,
        bn0.eps,
        bn0.momentum,
    )
    arrays = [model.phi]
    for layer in model.bn_layers:
        arrays += [layer.gamma, layer.beta, layer.running_mean, layer.running_var]
    echo = {
        "train_config": asdict(train_cfg) if train_cfg else None,
        "seed": train_cfg.seed if train_cfg else None,
    }
    _write_file(path, CHECKPOINT_MAGIC, fixed, arrays, echo)


def load_checkpoint(path: str) -> tuple[UnrolledAutoencoder, dict]:
    fields, payload, echo = _read_file(path, CHECKPOINT_MAGIC, _CHECKPOINT_FIXED)
    m, width, num_updates, alpha, eps, momentum = fields
    m, width, num_updates = int(m), int(width), int(num_updates)
    phi, off = _take(payload, 0, (m, width))
    layers = []
    for _ in range(num_updates + 1):
        gamma, off = _take(payload, off, (width,))
        beta, off = _take(payload, off, (width,))
        rmean, off = _take(payload, off, (width,))
        rvar, off = _take(payload, off, (width,))
        layers.append(
            BatchNormLayer(
                gamma=gamma,
                beta=beta,
                running_mean=rmean,
                running_var=rvar,
                eps=float(eps),
                momentum=float(momentum),
            )
        )
    if off != len(payload):
        raise FileFormatError("trailing bytes after checkpoint payload")
    model = UnrolledAutoencoder(
        phi=phi, alpha=float(alpha), num_updates=num_updates, bn_layers=layers
    )
    return model, echo


# ------------------------------------------------------------- text outputs


def save_training_csv(path: str, report: TrainReport) -> None:
    """Per-epoch loss curve; a log file, so wall-clock seconds are kept.
    dev_loss is blank on epochs the schedule skipped; epoch 0 is the
    untrained dev loss."""
    dev_by_epoch = dict(zip(report.dev_epochs.tolist(), report.dev_losses.tolist()))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "dev_loss", "seconds"])
        writer.writerow([0, "", repr(dev_by_epoch[0]), ""])
        for i, (loss, secs) in enumerate(
            zip(report.train_losses.tolist(), report.epoch_seconds.tolist()), start=1
        ):
            dev = dev_by_epoch.get(i)
            writer.writerow(
                [i, repr(loss), "" if dev is None else repr(dev), f"{secs:.3f}"]
            )


_REPORT_COLUMNS = [
    "kind",
    "m",
    "exact_rate",
    "mean_nrse",
    "nrse_excluded",
    "effective_rate",
    "num_samples",
    "seed",
    "solver_failures",
    "note",
]


def _report_cell(row, name: str) -> str:
    value = getattr(row, name)
    if value is None:
        return ""
    if isinstance(value, float):
        return "" if np.isnan(value) else repr(value)
    return str(value)


def save_report_csv(path: str, report: SweepReport) -> None:
    """One row per (kind, m).  Wall-clock is excluded so identical runs
    write identical bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_REPORT_COLUMNS)
        for row in report.rows:
            writer.writerow([_report_cell(row, c) for c in _REPORT_COLUMNS])


def save_report_json(path: str, report: SweepReport, config_echo: dict) -> None:
    doc = {
        "config": config_echo,
        "m_values": list(report.m_values),
        "kinds": list(report.kinds),
        "metric": asdict(report.metric_cfg),
        "recovery": asdict(report.recovery_cfg),
        "num_test_samples": report.num_test_samples,
        "rows": [{c: getattr(r, c) for c in _REPORT_COLUMNS} for r in report.rows],
        "notes": report.notes,
    }

    def _clean(obj):
        if isinstance(obj, float) and np.isnan(obj):
            return None
        if isinstance(obj, dict):
            return {k: _clean(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [_clean(v) for v in obj]
        return obj

    with open(path, "w") as fh:
        json.dump(_clean(doc), fh, sort_keys=True, indent=2)
        fh.write("\n")


def save_figure_csvs(prefix: str, report: SweepReport) -> list[str]:
    """One plot-ready CSV per metric: x = m, one column per kind.
    Returns the written paths."""
    written = []
    for metric in ("exact_rate", "mean_nrse", "effective_rate"):
        header, table = figure_table(report, metric)
        path = f"{prefix}_{metric}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in table:
                writer.writerow(
                    [int(row[0])] + ["" if np.isnan(v) else repr(v) for v in row[1:]]
                )
        written.append(path)
    return written


# ---------------------------------------------------------------- exporters


def export_checkpoint_json(path_in: str, path_out: str) -> None:
    """Model parameters as JSON: dims, alpha, config echo, BN vectors."""
    model, echo = load_checkpoint(path_in)
    doc = {
        "m": model.num_measurements,
        "width": model.width,
        "num_updates": model.num_updates,
        "alpha": model.alpha,
        "bn_eps": model.bn_layers[0].eps,
        "bn_momentum": model.bn_layers[0].momentum,
        "echo": echo,
        "bn_layers": [
            {
                "gamma": layer.gamma.tolist(),
                "beta": layer.beta.tolist(),
                "running_mean": layer.running_mean.tolist(),
                "running_var": layer.running_var.tolist(),
            }
            for layer in model.bn_layers
        ],
        "phi": model.phi.tolist(),
    }
    with open(path_out, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def export_dataset_csv(path_in: str, path_out: str) -> None:
    """Samples with their preprocess parameters, one row per sample."""
    dataset, _ = load_dataset(path_in)
    joined = np.hstack([dataset.samples, dataset.params])
    np.savetxt(path_out, joined, delimiter=",", fmt="%.17g")
