"""Binary containers for datasets and checkpoints, and the text reports.

Layouts (all integers and floats little-endian):

  BCSL dataset     magic "BCSL", u32 version 4, u64 x6 (N, P, n,
                   n_train, n_dev, n_test), samples n x 2N f64
                   row-major, JSON trailer (seed, split ratios, floor),
                   u64 trailer length.
  BCSW checkpoint  magic "BCSW", u32 version 3, u64 x3 (m, width, L), f64
                   alpha, Phi m x width f32 row-major, then gamma/beta/
                   running-mean/running-var f32 per layer, JSON trailer
                   (the TrainConfig), u64 length.  The f32 payload is the
                   float32 model as training holds it.

Each artifact records its own inputs once, taken from the inputs
themselves: a dataset its dims, seed, split ratios and floor; a
checkpoint the TrainConfig it was trained with; report.json the m
values and kinds it swept, the metric constants and recovery defaults
it scored with, and the swept dataset's N, P, n and trailer.  Trailers
are canonical JSON (sorted keys, compact separators), so identical
inputs write byte-identical files.  Loaders read trailers with
config.read_fields: each value must have its field's JSON type, and a
key the reader does not name is an error, an "unknown trailer key".
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import asdict, fields

import numpy as np

from .channels import ChannelConfig, ChannelDataset, split_sizes
from .config import ConfigError, read_fields
from .evaluate import BLOCK_LENGTH, EXACT_TOL, SweepReport, figure_table
from .network import BatchNormLayer, UnrolledAutoencoder
from .recovery import RecoveryConfig
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
    CHECKPOINT_MAGIC: (3, np.dtype("<f4")),
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
    header = fixed.unpack_from(blob, head)
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
    return header, np.frombuffer(blob, stored, count, start), echo


def _take(values: np.ndarray, offset: int, shape: tuple[int, ...]):
    """(native copy of the array at offset, the offset after it)."""
    end = offset + math.prod(shape)
    if end > values.size:
        raise FileFormatError("truncated file: incomplete array payload")
    return values[offset:end].reshape(shape).astype(values.dtype.type), end


# ---------------------------------------------------------------- datasets


def _dataset_trailer(dataset: ChannelDataset) -> dict:
    """The dataset's inputs that its header does not hold."""
    return {
        "seed": dataset.config.seed,
        "ratios": list(dataset.ratios),
        "floor": dataset.floor,
    }


def save_dataset(path: str, dataset: ChannelDataset) -> None:
    cfg = dataset.config
    fixed = _DATASET_FIXED.pack(
        cfg.num_antennas,
        cfg.num_paths,
        dataset.num_samples,
        dataset.num_train,
        dataset.num_dev,
        dataset.num_test,
    )
    trailer = _dataset_trailer(dataset)
    _write_file(path, DATASET_MAGIC, fixed, [dataset.samples], trailer)


def load_dataset(path: str) -> ChannelDataset:
    """The dataset in a .bcsl file.  Its trailer must hold exactly seed,
    ratios and floor, read as the ChannelConfig and ChannelDataset fields
    of those names; the ratios must give the header's split sizes, and
    the floor must lie in [0, 1) and be no larger than any nonzero
    sample.  Its samples must be finite."""
    header, values, trailer = _read_file(path, DATASET_MAGIC, _DATASET_FIXED)
    num_antennas, num_paths, n, n_train, n_dev, n_test = map(int, header)
    sizes = (n_train, n_dev, n_test)
    try:
        kw = read_fields(
            trailer, ChannelDataset, ("ratios", "floor"), also=("seed",), noun="trailer"
        )
        kw |= read_fields(trailer, ChannelConfig, ("seed",), also=kw, noun="trailer")
        seed, ratios, floor = kw["seed"], kw["ratios"], kw["floor"]
        cfg = ChannelConfig(num_antennas=num_antennas, num_paths=num_paths, seed=seed)
        if not 0.0 <= floor < 1.0:
            raise ValueError(f"floor {floor!r} is not in [0, 1)")
        if split_sizes(n, ratios) != sizes:
            raise ValueError(f"ratios {ratios} do not give the split {sizes}")
    except (ConfigError, ValueError) as exc:
        raise FileFormatError(f"dataset trailer invalid: {exc}") from exc
    samples, off = _take(values, 0, (n, 2 * num_antennas))
    if off != values.size:
        raise FileFormatError("trailing bytes after dataset payload")
    if not np.isfinite(samples).all():
        raise FileFormatError("dataset holds a non-finite value")
    smallest = float(np.min(samples, initial=1.0, where=samples != 0.0))
    if floor > smallest:
        raise FileFormatError(
            f"dataset trailer invalid: floor {floor!r} exceeds the smallest "
            f"nonzero sample {smallest!r}"
        )
    return ChannelDataset(
        samples=samples,
        num_train=n_train,
        num_dev=n_dev,
        num_test=n_test,
        config=cfg,
        ratios=ratios,
        floor=floor,
    )


# -------------------------------------------------------------- checkpoints


def save_checkpoint(
    path: str, model: UnrolledAutoencoder, train_cfg: TrainConfig
) -> None:
    """Writes a float32 model; any other dtype is a ValueError, since the
    f32 payload could not hold its values, and so is a train_cfg whose
    num_updates is not the model's, which load_checkpoint would refuse."""
    if train_cfg.num_updates != model.num_updates:
        raise ValueError("train_cfg.num_updates must be the model's num_updates")
    arrays = [model.phi]
    for layer in model.bn_layers:
        arrays += [layer.gamma, layer.beta, layer.running_mean, layer.running_var]
    dtypes = sorted({str(arr.dtype) for arr in arrays})
    if dtypes != ["float32"]:
        raise ValueError(f"checkpoints hold float32 models, got {dtypes}")
    fixed = _CHECKPOINT_FIXED.pack(
        model.num_measurements, model.width, model.num_updates, model.alpha
    )
    echo = {"train_config": asdict(train_cfg)}
    _write_file(path, CHECKPOINT_MAGIC, fixed, arrays, echo)


def load_checkpoint(path: str) -> tuple[UnrolledAutoencoder, TrainConfig]:
    """The model in a .bcsw file and the TrainConfig it was trained with.
    The trailer must hold exactly a train_config whose keys are read as
    TrainConfig's fields, trained with the header's L; the payload must
    be finite."""
    header, values, echo = _read_file(path, CHECKPOINT_MAGIC, _CHECKPOINT_FIXED)
    m, width, num_updates, alpha = header
    m, width, num_updates = int(m), int(width), int(num_updates)
    phi, off = _take(values, 0, (m, width))
    # gamma, beta, running mean, running variance per layer
    stats, off = _take(values, off, (num_updates + 1, 4, width))
    if off != values.size:
        raise FileFormatError("trailing bytes after checkpoint payload")
    if not (np.isfinite(alpha) and np.isfinite(values).all()):
        raise FileFormatError("checkpoint holds a non-finite value")
    try:
        # an object whose one key, train_config, holds TrainConfig's fields
        read_fields(echo, TrainConfig, (), also=("train_config",), noun="trailer")
        names = [f.name for f in fields(TrainConfig)]
        kw = read_fields(
            echo.get("train_config"), TrainConfig, names, "train_config.", noun="trailer"
        )
        train_cfg = TrainConfig(**kw)
        if train_cfg.num_updates != num_updates:
            raise ValueError(
                f"num_updates {train_cfg.num_updates} is not the header's {num_updates}"
            )
    except (ConfigError, ValueError) as exc:
        raise FileFormatError(f"checkpoint trailer invalid: {exc}") from exc
    try:
        layers = [BatchNormLayer(*layer) for layer in stats]
        model = UnrolledAutoencoder(
            phi=phi, alpha=alpha, num_updates=num_updates, bn_layers=layers
        )
    except ValueError as exc:
        raise FileFormatError(f"invalid checkpoint: {exc}") from exc
    return model, train_cfg


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


def save_report_json(path: str, report: SweepReport, dataset: ChannelDataset) -> None:
    """The sweep's rows and notes, with the settings it ran under and the
    dataset it swept: N, P, n and the dataset file's trailer."""
    cfg = dataset.config
    doc = {
        "dataset": {
            "num_antennas": cfg.num_antennas,
            "num_paths": cfg.num_paths,
            "num_samples": dataset.num_samples,
            **_dataset_trailer(dataset),
        },
        "m_values": list(report.m_values),
        "kinds": list(report.kinds),
        "metric": {"exact_tol": EXACT_TOL, "block_length": BLOCK_LENGTH},
        "recovery": asdict(RecoveryConfig()),
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
