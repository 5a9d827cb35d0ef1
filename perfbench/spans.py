"""Layer tracing from outside the package.

Every public entry point of the beamcs layers (plus the scipy Cholesky
routines that beamcs.recovery imports) is wrapped by patching the names
in the beamcs modules that hold them; nothing under src/ is edited.  A
wrapper records one span per call -- (name, start_ns, end_ns, parent
index, workload id, m) -- in memory, plus counts taken at the same
boundary (bytes moved by file I/O, solver statuses, IPM iterations).
`layer_metrics` turns the spans of one pass into per-layer numbers, with
self time = span duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

import opcount

MATRIX_KINDS = ("gaussian", "bernoulli", "partial_fourier", "selection", "phase_shifter")
SPLIT_M = (20, 40)  # sweep-paper reports recovery.* per m for these
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "workload", "m")

_RECOVERY = (
    ("solver_init_ms", "ms", "lower"),
    ("solves", "count", "higher"),
    ("solve_self_ms", "ms", "lower"),
    ("cho_factor_calls", "count", "lower"),
    ("cho_factor_ms", "ms", "lower"),
    ("cho_factor_failures", "count", "lower"),
    ("cho_solve_calls", "count", "lower"),
    ("cho_solve_ms", "ms", "lower"),
    ("status_optimal", "count", "higher"),
    ("status_max_iters", "count", "lower"),
    ("status_infeasible", "count", "lower"),
    ("ipm_iters_mean", "count", "lower"),
    ("ipm_iters_max", "count", "lower"),
    ("flops_per_iter", "flop", "lower"),
    ("bytes_per_iter", "B", "lower"),
)

# (name, unit, better) of every per-layer metric, in report order.  Every
# workload reports all of them; a layer the workload does not use reads 0.
PER_LAYER = (
    [
        ("channels.generate_dataset_s", "s", "lower"),
        ("channels.samples_per_s", "1/s", "higher"),
    ]
    + [(f"matrices.generate_baseline_ms.{k}", "ms", "lower") for k in MATRIX_KINDS]
    + [
        ("network.forward_calls", "count", "lower"),
        ("network.forward_self_ms", "ms", "lower"),
        ("network.backward_self_ms", "ms", "lower"),
        ("network.bn_forward_ms", "ms", "lower"),
        ("network.bn_backward_ms", "ms", "lower"),
        ("network.bn_calls", "count", "lower"),
        ("network.flops_per_step", "flop", "lower"),
        ("network.bytes_per_step", "B", "lower"),
        ("training.steps", "count", "higher"),
        ("training.update_self_ms", "ms", "lower"),
        ("training.dev_loss_s", "s", "lower"),
        ("training.snapshots", "count", "higher"),
    ]
    + [(f"recovery.{n}", u, b) for n, u, b in _RECOVERY]
    + [(f"recovery.m{m}.{n}", u, b) for m in SPLIT_M for n, u, b in _RECOVERY]
    + [
        ("evaluate.recover_all_s", "s", "lower"),
        ("evaluate.metrics_ms", "ms", "lower"),
        ("fileio.save_s", "s", "lower"),
        ("fileio.load_s", "s", "lower"),
        ("fileio.bytes_written", "B", "lower"),
        ("fileio.bytes_read", "B", "lower"),
        ("config.load_experiment_ms", "ms", "lower"),
        ("trace.overhead_pct", "%", "lower"),
        ("trace.spans", "count", "lower"),
    ]
)


class Tracer:
    """Span and count recorder for one benchmark process.

    Spans are recorded only while `installed(tracer)` holds the layer
    wrappers in place, so untraced passes run the unpatched code.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []
        self.events: list[tuple] = []  # (name, m, amount)
        self._stack: list[int] = []
        self._m: int | None = None  # rows of the Phi the enclosing solver uses

    def mark(self) -> tuple[int, int]:
        """Position to slice one pass's spans and counts from."""
        return len(self.spans), len(self.events)

    def since(self, mark: tuple[int, int]) -> tuple[list[tuple], list[tuple]]:
        """(index, span) pairs and events recorded after mark."""
        first, events = mark
        return list(enumerate(self.spans[first:], first)), self.events[events:]

    def wrap(self, name, fn, after=None, m_of=None):
        """Wrapper recording a span around fn.

        after(result, args) adds counts once fn returns; m_of(args) sets
        the m that spans nested inside this call are attributed to.
        """
        tracer = self

        def traced(*args, **kwargs):
            outer_m = tracer._m
            if m_of is not None:
                tracer._m = m_of(args)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[index] = (
                    name, start, end, parent, tracer.workload, tracer._m
                )
                tracer._m = outer_m
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, amount=1, m: int | None = None) -> None:
        self.events.append((name, m, amount))

    def write(self, path: str) -> None:
        """Writes every span recorded in this process, one JSON row each."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _replace_everywhere(original, replacement, restore: list) -> None:
    """Points every beamcs module attribute bound to original at replacement."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "beamcs" or mod_name.startswith("beamcs.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                restore.append((mod, attr, value))
                setattr(mod, attr, replacement)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Installs the layer wrappers for the duration of the block."""
    import beamcs.channels as channels
    import beamcs.cli as cli
    import beamcs.config as config
    import beamcs.evaluate as evaluate
    import beamcs.fileio as fileio
    import beamcs.matrices as matrices
    import beamcs.network as network
    import beamcs.recovery as recovery
    import beamcs.training as training

    restore: list = []
    t = tracer

    def patch(original, replacement):
        _replace_everywhere(original, replacement, restore)

    def patch_function(mod, attr, name, after=None):
        original = getattr(mod, attr)
        patch(original, t.wrap(name, original, after))

    def patch_method(cls, attr, name, after=None, m_of=None):
        original = cls.__dict__[attr]
        restore.append((cls, attr, original))
        setattr(cls, attr, t.wrap(name, original, after, m_of))

    patch_function(
        channels, "generate_dataset", "channels.generate_dataset",
        lambda r, a: t.count("channels.samples", r.num_samples),
    )

    # One span name per matrix kind, so the split needs no lookup later.
    gen_baseline = matrices.generate_baseline
    by_kind = {
        k: t.wrap(f"matrices.generate_baseline.{k}", gen_baseline) for k in MATRIX_KINDS
    }
    patch(gen_baseline, lambda kind, *a, **kw: by_kind[kind.value](kind, *a, **kw))

    patch_function(network, "forward", "network.forward")
    patch_function(network, "backward", "network.backward")
    patch_method(network.BatchNormLayer, "forward", "network.bn_forward")
    patch_method(network.BatchNormLayer, "backward", "network.bn_backward")

    def after_train(result, args):
        dataset, _m, cfg = args
        model, report = result
        losses = report.dev_losses.tolist()
        t.count("training.snapshots", sum(
            losses[i] < min(losses[:i]) for i in range(1, len(losses))
        ))
        full, rest = divmod(dataset.num_train, cfg.batch_size)
        steps = len(report.train_losses) * (full + (rest >= 2))
        flops, nbytes = opcount.train_step(
            cfg.batch_size, model.num_measurements, model.width, model.num_updates
        )
        t.count("network.computed_steps", steps)
        t.count("network.computed_flops", steps * flops)
        t.count("network.computed_bytes", steps * nbytes)

    patch_function(training, "train", "training.train", after_train)
    patch_function(training, "dev_loss", "training.dev_loss")

    def after_solve(result, args):
        phi = args[0].phi
        m = phi.shape[0]
        t.count(f"recovery.status_{result.status.value}", 1, m)
        t.count("recovery.iters", result.iterations, m)
        flops, nbytes = opcount.ipm_iteration(m, 2 * phi.shape[1])
        t.count("recovery.computed_flops", result.iterations * flops, m)
        t.count("recovery.computed_bytes", result.iterations * nbytes, m)

    solver = recovery.BasisPursuitSolver
    patch_method(solver, "__init__", "recovery.solver_init",
                 m_of=lambda a: a[1].shape[0])
    patch_method(solver, "solve", "recovery.solve", after_solve,
                 m_of=lambda a: a[0].phi.shape[0])
    traced_factor = t.wrap("recovery.cho_factor", recovery.cho_factor)

    def cho_factor(*args, **kwargs):
        # A LinAlgError here is one regularization escalation.
        try:
            return traced_factor(*args, **kwargs)
        except recovery.LinAlgError:
            t.count("recovery.cho_factor_failures", 1, t._m)
            raise

    patch(recovery.cho_factor, cho_factor)
    patch_function(recovery, "cho_solve", "recovery.cho_solve")

    patch_function(evaluate, "recover_all", "evaluate.recover_all")
    patch_function(evaluate, "exact_recovery_rate", "evaluate.metrics")
    patch_function(evaluate, "mean_nrse", "evaluate.metrics")

    # File I/O bytes are the sizes of the files each call wrote or read.
    def wrote(result, args):
        paths = result if isinstance(result, list) else [args[0]]
        t.count("fileio.bytes_written", sum(os.path.getsize(p) for p in paths))

    for attr in ("save_dataset", "save_checkpoint", "save_training_csv",
                 "save_report_csv", "save_report_json", "save_figure_csvs"):
        patch_function(fileio, attr, "fileio.save", wrote)
    for attr in ("load_dataset", "load_checkpoint"):
        patch_function(fileio, attr, "fileio.load", lambda r, a: t.count(
            "fileio.bytes_read", os.path.getsize(a[0])
        ))

    patch_function(config, "load_experiment", "config.load_experiment")
    patch_function(cli, "main", "cli.main")

    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


def layer_metrics(spans: list[tuple], events: list[tuple]) -> dict:
    """Per-layer numbers from (index, span) pairs and count events.

    Times are totals over the spans given; self time subtracts the
    durations of a span's direct children, which never overlap on one
    thread.
    """
    child_ns: Counter = Counter()
    for _i, (_name, start, end, parent, _w, _m) in spans:
        child_ns[parent] += end - start
    total = defaultdict(float)  # (name, m) -> ns
    self_ns = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, start, end, _p, _w, m) in spans:
        total[(name, m)] += end - start
        self_ns[(name, m)] += end - start - child_ns[i]
        calls[(name, m)] += 1
    counts: Counter = Counter()
    iters_max: Counter = Counter()
    for name, m, amount in events:
        counts[(name, m)] += amount
        if name == "recovery.iters":
            iters_max[m] = max(iters_max[m], amount)

    def get(table, name, m="any"):
        return sum(v for (n, mm), v in table.items()
                   if n == name and (m == "any" or mm == m))

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    gen_s = get(total, "channels.generate_dataset") / 1e9
    out = {
        "channels.generate_dataset_s": gen_s,
        "channels.samples_per_s": per(get(counts, "channels.samples"), gen_s),
    }
    for k in MATRIX_KINDS:
        out[f"matrices.generate_baseline_ms.{k}"] = (
            get(total, f"matrices.generate_baseline.{k}") / 1e6
        )
    steps = get(counts, "network.computed_steps")
    out.update({
        "network.forward_calls": get(calls, "network.forward"),
        "network.forward_self_ms": get(self_ns, "network.forward") / 1e6,
        "network.backward_self_ms": get(self_ns, "network.backward") / 1e6,
        "network.bn_forward_ms": get(total, "network.bn_forward") / 1e6,
        "network.bn_backward_ms": get(total, "network.bn_backward") / 1e6,
        "network.bn_calls": (get(calls, "network.bn_forward")
                             + get(calls, "network.bn_backward")),
        "network.flops_per_step": per(get(counts, "network.computed_flops"), steps),
        "network.bytes_per_step": per(get(counts, "network.computed_bytes"), steps),
        "training.steps": get(calls, "network.backward"),
        "training.update_self_ms": get(self_ns, "training.train") / 1e6,
        "training.dev_loss_s": get(total, "training.dev_loss") / 1e9,
        "training.snapshots": get(counts, "training.snapshots"),
    })
    for prefix, m in [("recovery.", "any")] + [(f"recovery.m{v}.", v) for v in SPLIT_M]:
        solves = get(calls, "recovery.solve", m)
        iters = get(counts, "recovery.iters", m)
        out.update({
            prefix + "solver_init_ms": get(total, "recovery.solver_init", m) / 1e6,
            prefix + "solves": solves,
            prefix + "solve_self_ms": get(self_ns, "recovery.solve", m) / 1e6,
            prefix + "cho_factor_calls": get(calls, "recovery.cho_factor", m),
            prefix + "cho_factor_ms": get(total, "recovery.cho_factor", m) / 1e6,
            prefix + "cho_factor_failures": get(
                counts, "recovery.cho_factor_failures", m),
            prefix + "cho_solve_calls": get(calls, "recovery.cho_solve", m),
            prefix + "cho_solve_ms": get(total, "recovery.cho_solve", m) / 1e6,
            prefix + "status_optimal": get(counts, "recovery.status_optimal", m),
            prefix + "status_max_iters": get(counts, "recovery.status_max_iters", m),
            prefix + "status_infeasible": get(counts, "recovery.status_infeasible", m),
            prefix + "ipm_iters_mean": per(iters, solves),
            prefix + "ipm_iters_max": max(
                (v for mm, v in iters_max.items() if m == "any" or mm == m), default=0),
            prefix + "flops_per_iter": per(get(counts, "recovery.computed_flops", m), iters),
            prefix + "bytes_per_iter": per(get(counts, "recovery.computed_bytes", m), iters),
        })
    out.update({
        "evaluate.recover_all_s": get(total, "evaluate.recover_all") / 1e9,
        "evaluate.metrics_ms": get(total, "evaluate.metrics") / 1e6,
        "fileio.save_s": get(total, "fileio.save") / 1e9,
        "fileio.load_s": get(total, "fileio.load") / 1e9,
        "fileio.bytes_written": get(counts, "fileio.bytes_written"),
        "fileio.bytes_read": get(counts, "fileio.bytes_read"),
        "config.load_experiment_ms": get(total, "config.load_experiment") / 1e6,
    })
    return out
