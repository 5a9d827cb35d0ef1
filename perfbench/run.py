"""beamcs benchmark: one workload per run, one process, closed loop.

    python3 perfbench/run.py --workload train-paper --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  With
--trace 0 the run measures the end-to-end metrics of BENCHMARK.json with
no tracing installed; with --trace 1 it alternates untraced and traced
passes of a fixed amount of work and reports the per-layer metrics,
including the tracing overhead.  Human-readable lines (the environment,
each workload's own metrics with units and sample counts) come first;
the last line of standard output is one JSON object.  A run whose
outputs fail a correctness check prints "correct": false with no
numbers and exits 1; a run that cannot start exits 2 and prints no
result.  Spans and results are written under .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# One BLAS thread per workload: on the 2-core reference machine two
# OpenBLAS threads ran these small products no faster and less steadily,
# and one thread keeps a workload to one core.  Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("train-paper", "sweep-paper", "pipeline-ci")
SETUPS = 5  # set-up repeats; setup_s is their median plus the import time
SETUP_LAYERS = ("channels.", "matrices.")

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "quality_loss": "loss",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("paper", "toy"), default="paper",
        help="toy shrinks every shape, for the smoke test",
    )
    return parser.parse_args(argv)


def environment() -> dict:
    """Versions, BLAS build and thread counts the numbers were taken with."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def blas_threads():
    """Thread count numpy's bundled OpenBLAS will use, read from the
    library itself; None when it cannot be found."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def check_workers() -> str | None:
    raw = os.environ.get("BEAMCS_WORKERS")
    if raw is None:
        return None
    try:
        workers = int(raw)
    except ValueError:
        return f"BEAMCS_WORKERS must be an integer, got {raw!r}"
    if workers > 1:
        return (f"BEAMCS_WORKERS={workers}: every workload must stay one process; "
                "unset it or set it to 1")
    return None


def untraced(workload, seconds: float, import_s: float) -> tuple[dict, list]:
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    start = time.perf_counter()
    ops = 0
    # Closed loop; at least two ops, so that repeats can be compared.
    while ops < 2 or time.perf_counter() - start < seconds:
        workload.op()
        ops += 1
    generic, detail = workload.results()
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        **generic,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail.insert(0, ("setup_s", metrics["setup_s"], "s", SETUPS,
                      f"median of set-ups, plus {import_s:.3f} s import"))
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, detail


def traced(workload, name: str, seconds: float, spans_path: str) -> tuple[dict, list]:
    """Untraced and traced passes of the same fixed work, alternating; the
    per-layer numbers are medians over the traced passes.  The set-up
    layers (channels, matrices) come from a traced set-up when the pass
    itself does not call them."""
    tracer = spans.Tracer(f"{name}/setup")
    workload.setup()  # untraced first, so the traced set-up runs warm
    mark = tracer.mark()
    with spans.installed(tracer):
        workload.setup()
    setup = spans.layer_metrics(*tracer.since(mark))
    plain, timed, passes = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        tic = time.perf_counter()
        workload.op()
        plain.append(time.perf_counter() - tic)
        tracer.workload = f"{name}/pass{len(passes)}"
        mark = tracer.mark()
        with spans.installed(tracer):
            tic = time.perf_counter()
            workload.op()
            timed.append(time.perf_counter() - tic)
        pass_spans, pass_events = tracer.since(mark)
        layers = spans.layer_metrics(pass_spans, pass_events)
        for prefix in SETUP_LAYERS:
            keys = [k for k in layers if k.startswith(prefix)]
            if not any(layers[k] for k in keys):
                layers.update((k, setup[k]) for k in keys)
        layers["trace.spans"] = len(pass_spans)
        passes.append(layers)
    tracer.write(spans_path)
    # Fastest passes, as in the untraced metrics: the machine's slow
    # stretches would otherwise swamp the difference.
    overhead = min(timed) / min(plain) - 1.0
    metrics = {}
    for metric, unit, _better in spans.PER_LAYER:
        if metric == "trace.overhead_pct":
            metrics[metric] = (100.0 * overhead, unit)
        else:
            metrics[metric] = (statistics.median(p[metric] for p in passes), unit)
    detail = [
        ("pass_s_untraced", min(plain), "s", len(plain), "fastest"),
        ("pass_s_traced", min(timed), "s", len(timed), "fastest"),
    ]
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "beamcs", "__init__.py")):
        print(f"error: no beamcs package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    problem = check_workers()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.environ.pop("BEAMCS_WORKERS", None)  # pipeline-ci runs with it unset

    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import beamcs.cli  # noqa: F401  (imports every other layer)
    from beamcs.training import TrainingDivergedError

    import_s = time.perf_counter() - start

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=stem + "-", dir=OUT_DIR)
    workload = workloads.make(args.workload, args.seed, args.size, workdir)
    try:
        if args.trace:
            metrics, detail = traced(
                workload, args.workload, args.seconds,
                os.path.join(OUT_DIR, f"spans-{stem}.jsonl"),
            )
        else:
            metrics, detail = untraced(workload, args.seconds, import_s)
    except (workloads.BenchmarkFailure, TrainingDivergedError) as exc:
        attempted, failed = workload.attempted()
        print(f"correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = workload.attempted()
    for metric, value, unit, n, note in detail:
        print(f"{args.workload:<12} {metric:<26} {value:>14.6g} {unit:<10} n={n} ({note})")
    for metric, (value, unit) in metrics.items():
        print(f"{args.workload:<12} {metric:<40} {value:>14.6g} {unit}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w") as fh:
        json.dump({"environment": env, "detail": detail, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
