"""Command-line pipeline: gen-data, train, sweep, export.

Every command is deterministic given its config and seeds; data outputs
are byte-identical across reruns (wall-clock lives only in log columns
and stdout).  Exit codes: 0 success, 1 usage or config error, 2
numerical failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

import numpy as np

from .channels import generate_dataset
from .config import (
    ConfigError,
    ExperimentConfig,
    PROFILE_NAMES,
    config_echo,
    load_experiment,
)
from .evaluate import run_sweep
from .fileio import (
    FileFormatError,
    export_checkpoint_json,
    export_dataset_csv,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
    save_figure_csvs,
    save_report_csv,
    save_report_json,
    save_training_csv,
    sniff_format,
)
from .matrices import MatrixKind
from .training import TrainingDivergedError, extract_matrix, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


def checkpoint_name(m: int) -> str:
    return f"checkpoint_m{m}.bcsw"


def _parse_m_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"--m expects comma-separated integers: {exc}") from exc
    if not values:
        raise ConfigError("--m expects at least one value")
    return values


def _parse_kinds(text: str) -> tuple[str, ...]:
    values = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if not values:
        raise ConfigError("--kinds expects at least one kind")
    return values


@contextlib.contextmanager
def _input_errors():
    """The library's ValueErrors about its input become ConfigError;
    LinAlgError, a ValueError subclass, stays a numerical failure."""
    try:
        yield
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _experiment(args) -> ExperimentConfig:
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if getattr(args, "m", None):
        overrides["m_values"] = list(_parse_m_list(args.m))
    if getattr(args, "kinds", None):
        overrides["kinds"] = list(_parse_kinds(args.kinds))
    cfg = load_experiment(args.config, args.profile, overrides)
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg


def cmd_gen_data(args) -> int:
    cfg = _experiment(args)
    dataset = generate_dataset(
        cfg.channel,
        cfg.num_samples,
        ratios=cfg.ratios,
        floor=cfg.floor,
    )
    path = args.data or os.path.join(cfg.out_dir, "dataset.bcsl")
    save_dataset(path, dataset, extra_echo=config_echo(cfg))
    print(
        f"wrote {path}: {dataset.num_samples} samples, "
        f"N={cfg.channel.num_antennas} (width {dataset.width}), "
        f"P={cfg.channel.num_paths}, "
        f"split {dataset.num_train}/{dataset.num_dev}/{dataset.num_test}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _experiment(args)
    data_path = args.data or os.path.join(cfg.out_dir, "dataset.bcsl")
    dataset, _ = load_dataset(data_path)
    for m in cfg.m_values:
        if not m < dataset.width:
            raise ConfigError(f"m={m} must be < dataset width {dataset.width}")
        tic = time.perf_counter()
        with _input_errors():  # e.g. an empty train or dev split
            model, report = train(dataset, m, cfg.train)
        seconds = time.perf_counter() - tic
        ckpt = os.path.join(cfg.out_dir, checkpoint_name(m))
        save_checkpoint(ckpt, model, cfg.train)
        curve = os.path.join(cfg.out_dir, f"training_m{m}.csv")
        save_training_csv(curve, report)
        print(
            f"m={m}: best dev loss {report.best_dev_loss:.6g} at epoch "
            f"{report.best_epoch}, {seconds:.1f}s; wrote {ckpt}"
        )
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _experiment(args)
    data_path = args.data or os.path.join(cfg.out_dir, "dataset.bcsl")
    dataset, _ = load_dataset(data_path)
    ckpt_dir = args.checkpoints or cfg.out_dir

    learned = {}
    if any(k is MatrixKind.LEARNED for k in cfg.kinds):
        for m in cfg.m_values:
            path = os.path.join(ckpt_dir, checkpoint_name(m))
            if os.path.exists(path):
                model, _ = load_checkpoint(path)
                if model.phi.shape != (m, dataset.width):
                    raise FileFormatError(
                        f"{path} holds a Phi of shape {model.phi.shape}; "
                        f"m={m} on this dataset needs {(m, dataset.width)}"
                    )
                learned[m] = extract_matrix(model)
    # run_sweep checks the dataset against the config: an m too large for
    # the width, or an empty test split
    with _input_errors():
        report = run_sweep(
            dataset,
            cfg.kinds,
            cfg.m_values,
            cfg.recovery,
            cfg.metric,
            learned=learned,
            seed=cfg.seed,
        )
    save_report_csv(os.path.join(cfg.out_dir, "report.csv"), report)
    save_report_json(
        os.path.join(cfg.out_dir, "report.json"), report, config_echo(cfg)
    )
    figures = save_figure_csvs(os.path.join(cfg.out_dir, "figure"), report)
    for row in report.rows:
        rate = "--" if np.isnan(row.exact_rate) else f"{100 * row.exact_rate:6.2f}%"
        nrse = "--" if np.isnan(row.mean_nrse) else f"{row.mean_nrse:.4f}"
        extra = f"  [{row.note}]" if row.note else ""
        print(
            f"{row.kind:>15} m={row.m:<3} exact {rate}  nrse {nrse}  "
            f"({row.seconds:.1f}s){extra}"
        )
    for note in report.notes:
        print(f"note: {note}")
    print(f"wrote report.csv, report.json, {len(figures)} figure files in {cfg.out_dir}")
    gaps = [r for r in report.rows if r.note == "missing checkpoint"]
    if gaps:
        print(f"{len(gaps)} cell(s) missing checkpoints", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_export(args) -> int:
    kind = sniff_format(args.input)
    fmt = args.format
    if kind == "checkpoint":
        if fmt != "json":
            raise ConfigError("checkpoint files export to --format json")
        export_checkpoint_json(args.input, args.output)
    else:
        if fmt != "csv":
            raise ConfigError("dataset files export to --format csv")
        export_dataset_csv(args.input, args.output)
    print(f"exported {kind} {args.input} -> {args.output}")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file", default=None)
    parser.add_argument(
        "--profile",
        choices=list(PROFILE_NAMES),
        default=None,
        help="base profile for defaults (default: paper, or the config file's)",
    )
    parser.add_argument("--seed", type=int, default=None, help="global seed override")
    parser.add_argument("--out", default=None, help="output directory override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamcs",
        description=(
            "Learned compressed sensing of sparse beamspace channels: "
            "dataset generation, measurement-matrix training, and "
            "basis-pursuit recovery sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate and write a dataset file")
    _add_common(p)
    p.add_argument("--data", default=None, help="dataset output path")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train models and write checkpoints")
    _add_common(p)
    p.add_argument("--data", default=None, help="dataset file (default: out dir)")
    p.add_argument(
        "--m", default=None, help="comma-separated m values (default: all configured)"
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="evaluate matrices over the test split")
    _add_common(p)
    p.add_argument("--data", default=None, help="dataset file (default: out dir)")
    p.add_argument(
        "--checkpoints", default=None, help="checkpoint directory (default: out dir)"
    )
    p.add_argument("--m", default=None, help="comma-separated m values")
    p.add_argument("--kinds", default=None, help="comma-separated matrix kinds")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export", help="convert a binary artifact to CSV/JSON")
    p.add_argument("--in", dest="input", required=True, help="input file")
    p.add_argument("--format", choices=["csv", "json"], required=True)
    p.add_argument("--out", dest="output", required=True, help="output file")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; 2 means numerical
        # failure here, so usage problems are remapped to 1.
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingDivergedError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except FileFormatError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FileNotFoundError as exc:
        print(f"file error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
