"""Binary containers and text exports for datasets and checkpoints.

Layouts (all integers and floats little-endian):

  BCSL dataset     magic "BCSL", u32 version 4, u64 x6 (N, P, n,
                   n_train, n_dev, n_test), samples n x 2N f64
                   row-major, JSON echo trailer (seed, split ratios,
                   floor, generating config), u64 trailer length.
  BCSW checkpoint  magic "BCSW", u32 version 2, u64 x3 (m, width, L), f64
                   alpha, Phi m x width f32 row-major, then gamma/beta/
                   running-mean/running-var f32 per layer, JSON echo
                   trailer, u64 length.  The f32 payload is the float32
                   model as training holds it.

The trailer carries the full generating configuration in canonical JSON
(sorted keys, compact separators), so every artifact names its exact
origin and identical inputs write byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import asdict

import numpy as np

from .channels import ChannelConfig, ChannelDataset
from .evaluate import SweepReport, figure_table
from .network import BatchNormLayer, UnrolledAutoencoder
from .training import TrainConfig, TrainReport

DATASET_MAGIC = b"BCSL"
CHECKPOINT_MAGIC = b"BCSW"

_PREFIX = struct.Struct("<4sI")  # magic, version
_DATASET_FIXED = struct.Struct("<6Q")  # N, P, n, train, dev, test
_CHECKPOINT_FIXED = struct.Struct("<QQQd")  # m, width, L, alpha
_TRAILER_LEN = struct.Struct("<Q")
# Per container: (format version, payload dtype).
_STORED = {
    DATASET_MAGIC: (4, np.dtype("<f8")),
    CHECKPOINT_MAGIC: (2, np.dtype("<f4")),
}


class FileFormatError(Exception):
    """Corrupt or mismatched container: bad magic, version, or payload."""


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _write_file(
    path: str, magic: bytes, fixed: bytes, arrays: list[np.ndarray], echo: dict
) -> None:
    trailer = _canonical_json(echo)
    version, stored = _STORED[magic]
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(magic, version))
        fh.write(fixed)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype=stored).tobytes())
        fh.write(trailer)
        fh.write(_TRAILER_LEN.pack(len(trailer)))


def _read_file(path: str, magic: bytes, fixed: struct.Struct):
    """Returns (fixed fields tuple, array payload values, echo dict)."""
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
    expected, stored = _STORED[magic]
    if version != expected:
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
    start = head + fixed.size
    count, ragged = divmod(payload_end - start, stored.itemsize)
    if ragged:
        raise FileFormatError("truncated file: incomplete array payload")
    return fields, np.frombuffer(blob, stored, count, start), echo


def _take(values: np.ndarray, offset: int, shape: tuple[int, ...]):
    """(native copy of the array at offset, the offset after it)."""
    end = offset + math.prod(shape)
    if end > values.size:
        raise FileFormatError("truncated file: incomplete array payload")
    return values[offset:end].reshape(shape).astype(values.dtype.type), end


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
        "seed": cfg.seed,
        "ratios": list(dataset.ratios),
        "floor": dataset.floor,
        "config": extra_echo,
    }
    _write_file(path, DATASET_MAGIC, fixed, [dataset.samples], echo)


def load_dataset(path: str) -> tuple[ChannelDataset, dict]:
    fields, values, echo = _read_file(path, DATASET_MAGIC, _DATASET_FIXED)
    num_antennas, num_paths, n, n_train, n_dev, n_test = fields
    if n_train + n_dev + n_test != n:
        raise FileFormatError("dataset split sizes do not sum to num_samples")
    try:
        cfg = ChannelConfig(
            num_antennas=int(num_antennas),
            num_paths=int(num_paths),
            seed=int(echo["seed"]),
        )
        ratios = tuple(float(r) for r in echo["ratios"])
        floor = float(echo["floor"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"dataset echo trailer invalid: {exc}") from exc
    samples, off = _take(values, 0, (int(n), 2 * int(num_antennas)))
    if off != values.size:
        raise FileFormatError("trailing bytes after dataset payload")
    dataset = ChannelDataset(
        samples=samples,
        num_train=int(n_train),
        num_dev=int(n_dev),
        num_test=int(n_test),
        config=cfg,
        ratios=ratios,  # type: ignore[arg-type]
        floor=floor,
    )
    return dataset, echo


# -------------------------------------------------------------- checkpoints


def save_checkpoint(
    path: str, model: UnrolledAutoencoder, train_cfg: TrainConfig | None = None
) -> None:
    """Writes a float32 model; any other dtype is a ValueError, since the
    f32 payload could not hold its values."""
    arrays = [model.phi]
    for layer in model.bn_layers:
        arrays += [layer.gamma, layer.beta, layer.running_mean, layer.running_var]
    dtypes = sorted({str(arr.dtype) for arr in arrays})
    if dtypes != ["float32"]:
        raise ValueError(f"checkpoints hold float32 models, got {dtypes}")
    fixed = _CHECKPOINT_FIXED.pack(
        model.num_measurements, model.width, model.num_updates, model.alpha
    )
    echo = {"train_config": asdict(train_cfg) if train_cfg else None}
    _write_file(path, CHECKPOINT_MAGIC, fixed, arrays, echo)


def load_checkpoint(path: str) -> tuple[UnrolledAutoencoder, dict]:
    fields, values, echo = _read_file(path, CHECKPOINT_MAGIC, _CHECKPOINT_FIXED)
    m, width, num_updates, alpha = fields
    m, width, num_updates = int(m), int(width), int(num_updates)
    phi, off = _take(values, 0, (m, width))
    # gamma, beta, running mean, running variance per layer
    stats, off = _take(values, off, (num_updates + 1, 4, width))
    if off != values.size:
        raise FileFormatError("trailing bytes after checkpoint payload")
    if not (np.isfinite(alpha) and np.isfinite(values).all()):
        raise FileFormatError("checkpoint holds a non-finite value")
    try:
        layers = [BatchNormLayer(*layer) for layer in stats]
        model = UnrolledAutoencoder(
            phi=phi, alpha=alpha, num_updates=num_updates, bn_layers=layers
        )
    except ValueError as exc:
        raise FileFormatError(f"invalid checkpoint: {exc}") from exc
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
    """The samples, one row each."""
    dataset, _ = load_dataset(path_in)
    np.savetxt(path_out, dataset.samples, delimiter=",", fmt="%.17g")
