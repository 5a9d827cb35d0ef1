"""Acceptance gates for the whole package.

Each test here is one pass/fail verdict.  The three full-scale gates read
the artifacts of a completed paper-profile run (about two and a half
hours on one CPU core; see the README) and skip with instructions when
those artifacts are absent.  Everything else runs from scratch in
minutes.
"""

import copy
import itertools
import json
import os
import time

import numpy as np
import pytest

from beamcs import (
    AngleMode,
    BasisPursuitSolver,
    BatchNormLayer,
    ChannelConfig,
    GainModel,
    MatrixKind,
    MatrixSpec,
    MetricConfig,
    Mode,
    RecoveryConfig,
    RecoveryStatus,
    TrainConfig,
    UnrolledAutoencoder,
    backward,
    dft_grid_matrix,
    effective_rate,
    extract_matrix,
    forward,
    generate_dataset,
    invert_preprocess,
    mse_loss,
    oracle_sparse_recover,
    preprocess,
    run_sweep,
    stack_real,
    steering_vector,
    train,
    unstack_real,
)
from beamcs.cli import EXIT_OK, main
from beamcs.network import decoder_update

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FULL_RUN_DIR = os.environ.get(
    "BEAMCS_PAPER_DIR", os.path.join(REPO_ROOT, "runs", "paper")
)
RUN_FULL_INLINE = os.environ.get("BEAMCS_RUN_FULL") == "1"

# Targets for the full-scale learned matrix, in percent, per m.
TARGET_LEARNED_PERCENT = {20: 95.90, 25: 98.70, 30: 99.60, 35: 100.0, 40: 100.0}
FULL_M_VALUES = [20, 25, 30, 35, 40]
BASELINES = ("partial_fourier", "selection", "bernoulli", "gaussian", "phase_shifter")


# ------------------------------------------------------- full-scale gates


@pytest.fixture(scope="module")
def full_scale_report():
    """Rates from a completed paper-profile run, keyed [kind][m]."""
    path = os.path.join(FULL_RUN_DIR, "report.json")
    if not os.path.exists(path):
        if RUN_FULL_INLINE:
            for sub in ("gen-data", "train", "sweep"):
                code = main(
                    [sub, "--profile", "paper", "--seed", "0", "--out", FULL_RUN_DIR]
                )
                assert code == EXIT_OK, f"{sub} failed with exit code {code}"
        else:
            pytest.skip(
                f"no full-scale report at {path}; generate one with\n"
                f"  python3 -m beamcs.cli gen-data --profile paper --seed 0 --out {FULL_RUN_DIR}\n"
                f"  python3 -m beamcs.cli train    --profile paper --seed 0 --out {FULL_RUN_DIR}\n"
                f"  python3 -m beamcs.cli sweep    --profile paper --seed 0 --out {FULL_RUN_DIR}\n"
                "(about two and a half hours), point BEAMCS_PAPER_DIR at an existing run, "
                "or set BEAMCS_RUN_FULL=1 to run it inside pytest"
            )
    with open(path) as fh:
        doc = json.load(fh)
    cfg = doc["config"]
    scale = (
        cfg["channel"]["num_antennas"],
        cfg["channel"]["num_paths"],
        cfg["data"]["num_samples"],
        cfg["data"]["floor"],
        list(doc["m_values"]),
    )
    if scale != (256, 3, 20000, 0.0, FULL_M_VALUES):
        pytest.skip(f"report at {path} is not a full-scale run: {scale}")
    rates: dict[str, dict[int, float]] = {}
    eff: dict[str, dict[int, float]] = {}
    for row in doc["rows"]:
        if row["exact_rate"] is None:
            pytest.skip(f"report at {path} has gaps ({row['kind']} m={row['m']})")
        rates.setdefault(row["kind"], {})[row["m"]] = 100.0 * row["exact_rate"]
        eff.setdefault(row["kind"], {})[row["m"]] = row["effective_rate"]
    missing = {"learned", *BASELINES} - rates.keys()
    if missing:
        pytest.skip(f"report at {path} lacks kinds: {sorted(missing)}")
    return rates, eff


def test_full_scale_learned_recovery_matches_targets(full_scale_report):
    rates, _ = full_scale_report
    for m, target in TARGET_LEARNED_PERCENT.items():
        got = rates["learned"][m]
        assert abs(got - target) <= 10.0, (
            f"learned at m={m}: {got:.2f}% vs target {target:.2f}% (tol 10)"
        )
    floor = rates["learned"][20] - 40.0
    for kind in BASELINES:
        assert rates[kind][20] <= floor, (
            f"{kind} at m=20 is {rates[kind][20]:.2f}%, within 40 points of "
            f"the learned {rates['learned'][20]:.2f}%"
        )


def test_full_scale_baseline_behavior(full_scale_report):
    rates, _ = full_scale_report
    assert rates["gaussian"][20] <= 15.0, f"gaussian at m=20: {rates['gaussian'][20]:.2f}%"
    assert rates["gaussian"][40] >= 85.0, f"gaussian at m=40: {rates['gaussian'][40]:.2f}%"
    for m in FULL_M_VALUES:
        others = {k: rates[k][m] for k in BASELINES if k != "phase_shifter"}
        weakest = min(others.values())
        assert rates["phase_shifter"][m] <= weakest, (
            f"phase_shifter at m={m} is {rates['phase_shifter'][m]:.2f}%, "
            f"not the weakest baseline ({others})"
        )


def test_full_scale_effective_rate_tradeoff(full_scale_report):
    _, eff = full_scale_report
    learned_peak = max(eff["learned"].values())
    assert eff["learned"][20] == learned_peak, (
        f"learned effective rate peaks at "
        f"m={max(eff['learned'], key=eff['learned'].get)}, not m=20: "
        f"{eff['learned']}"
    )
    for kind in ("selection", "bernoulli", "gaussian"):
        peak = max(eff[kind].values())
        assert learned_peak > peak, (
            f"learned peak {learned_peak:.4f} does not beat {kind} peak {peak:.4f}"
        )


# -------------------------------------------------------- gradient check


def _random_model(rng):
    width, m, updates = 16, 4, 3
    layers = [
        BatchNormLayer(
            gamma=rng.uniform(0.5, 1.5, width),
            beta=rng.uniform(-0.5, 0.5, width),
            running_mean=rng.uniform(-0.5, 0.5, width),
            running_var=rng.uniform(0.5, 1.5, width),
        )
        for _ in range(updates + 1)
    ]
    return UnrolledAutoencoder(
        phi=rng.standard_normal((m, width)) * 0.5,
        alpha=float(rng.uniform(0.5, 1.5)),
        num_updates=updates,
        bn_layers=layers,
    )


def _loss(model, h):
    out, _ = forward(model, h, Mode.TRAIN)
    return mse_loss(h, out)


def _fd_grad(model, h, getter, step=1e-5):
    target = getter(model)
    if np.ndim(target) == 0:
        setattr(model, "alpha", model.alpha + step)
        up = _loss(model, h)
        setattr(model, "alpha", model.alpha - 2 * step)
        down = _loss(model, h)
        setattr(model, "alpha", model.alpha + step)
        return (up - down) / (2 * step)
    flat = target.reshape(-1)
    grad = np.empty(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = _loss(model, h)
        flat[i] = orig - step
        down = _loss(model, h)
        flat[i] = orig
        grad[i] = (up - down) / (2 * step)
    return grad.reshape(target.shape)


def test_gradients_match_finite_differences_on_random_configs():
    root = np.random.SeedSequence(824)
    for trial, ss in enumerate(root.spawn(20)):
        rng = np.random.default_rng(ss)
        model = _random_model(rng)
        h = rng.uniform(0.1, 1.0, (4, 16))
        h[rng.random((4, 16)) < 0.6] = 0.0
        frozen = copy.deepcopy(model)

        _, trace = forward(model, h, Mode.TRAIN)
        grads = backward(model, trace, h)
        model = frozen  # finite differences probe untouched statistics

        def check(name, analytic, getter):
            fd = _fd_grad(model, h, getter)
            bad = np.abs(analytic - fd) > np.maximum(1e-7, 1e-4 * np.abs(fd))
            assert not np.any(bad), (
                f"trial {trial}, {name}: analytic {np.asarray(analytic)[bad]} "
                f"vs finite difference {np.asarray(fd)[bad]}"
            )

        check("alpha", np.array(grads.d_alpha), lambda mo: mo.alpha)
        check("phi", grads.d_phi, lambda mo: mo.phi)
        for i in range(len(model.bn_layers)):
            check(
                f"gamma[{i}]",
                grads.d_gammas[i],
                lambda mo, i=i: mo.bn_layers[i].gamma,
            )
            check(
                f"beta[{i}]",
                grads.d_betas[i],
                lambda mo, i=i: mo.bn_layers[i].beta,
            )


# ----------------------------------------------------- solver vs oracle


def _l1_min_by_enumeration(phi, y):
    """Global l1 minimum by scanning every candidate vertex.

    Any optimal basic solution of min ||x||_1 s.t. phi x = y lives on a
    column subset of size <= m with full column rank, where the feasible
    point is unique.  Scanning them all gives the exact optimum and a
    certificate of (non-)uniqueness.
    """
    m, n = phi.shape
    candidates = []
    for size in range(1, m + 1):
        for sup in itertools.combinations(range(n), size):
            sub = phi[:, sup]
            x_s, _, rank, _ = np.linalg.lstsq(sub, y, rcond=None)
            if rank < size:
                continue
            if np.linalg.norm(sub @ x_s - y) > 1e-8:
                continue
            x = np.zeros(n)
            x[list(sup)] = x_s
            candidates.append((float(np.sum(np.abs(x_s))), x))
    assert candidates, "planted instance must be feasible"
    best_obj, best_x = min(candidates, key=lambda c: c[0])
    unique = all(
        np.linalg.norm(x - best_x) <= 1e-8
        for obj, x in candidates
        if obj <= best_obj + 1e-9
    )
    return best_obj, best_x, unique


def test_basis_pursuit_matches_enumeration_on_random_instances():
    root = np.random.SeedSequence(2024)
    non_unique = 0
    for trial, ss in enumerate(root.spawn(200)):
        rng = np.random.default_rng(ss)
        n = int(rng.integers(6, 13))
        k = int(rng.integers(1, min(2, (n - 3) // 2) + 1))
        m = int(rng.integers(2 * k + 2, n))
        phi = rng.standard_normal((m, n)) / np.sqrt(m)
        x = np.zeros(n)
        support = rng.choice(n, size=k, replace=False)
        x[support] = rng.uniform(0.5, 2.0, size=k) * rng.choice([-1.0, 1.0], size=k)
        y = phi @ x

        lp = BasisPursuitSolver(phi).solve(y)
        assert lp.status is RecoveryStatus.OPTIMAL, f"trial {trial}: {lp.status}"
        obj, x_enum, unique = _l1_min_by_enumeration(phi, y)
        assert abs(lp.objective - obj) <= 1e-6, (
            f"trial {trial} (n={n}, k={k}, m={m}): "
            f"lp {lp.objective:.9f} vs enumeration {obj:.9f}"
        )
        if unique:
            gap = np.linalg.norm(lp.h_hat - x_enum)
            assert gap <= 1e-6, f"trial {trial}: minimizers differ by {gap:.2e}"
        else:
            non_unique += 1

        # the shipped sparse-support oracle can only see supports up to
        # k_max, so it bounds the lp objective from above
        sparse = oracle_sparse_recover(phi, y, 2)
        assert lp.objective <= sparse.objective + 1e-6

    assert non_unique <= 20  # uniqueness should be the norm on random draws


# --------------------------------------------- invariants and determinism


def _pipeline(out_dir, cfg_path):
    for sub in ("gen-data", "train", "sweep"):
        code = main(
            [sub, "--config", cfg_path, "--seed", "0", "--out", str(out_dir)]
        )
        assert code == EXIT_OK
    return {
        name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)
    }


def test_core_invariants_and_bitwise_determinism(tmp_path):
    rng = np.random.default_rng(5)

    for n in (8, 32, 256):
        u = dft_grid_matrix(n)
        assert np.max(np.abs(u @ u.conj().T - np.eye(n))) <= 1e-10

    for n in (4, 64, 256):
        for phi_dir in rng.uniform(-0.5, 0.5, 25):
            a = steering_vector(phi_dir, n)
            assert abs(np.linalg.norm(a) - 1.0) <= 1e-12

    for _ in range(50):
        vec = rng.standard_normal(24)
        vec[rng.random(24) < 0.5] = 0.0
        scaled, params = preprocess(vec)
        assert np.max(np.abs(invert_preprocess(scaled, params) - vec)) <= 1e-12

    for _ in range(25):
        z = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        assert np.array_equal(unstack_real(stack_real(z)), z)

    model = _random_model(np.random.default_rng(77))
    s = rng.standard_normal((6, 16))
    eye_minus = np.eye(16) - model.phi.T @ model.phi
    for t in (1, 2, 3):
        factored = decoder_update(model, s, t)
        explicit = s - (model.alpha / t) * np.sign(s) @ eye_minus.T
        assert np.max(np.abs(factored - explicit)) <= 1e-12

    for _ in range(50):
        p = float(rng.uniform(0.0, 1.0))
        m = int(rng.integers(1, 200))
        base = float(rng.uniform(0.1, 10.0))
        assert effective_rate(p, m, 200, base) == base * (1 - m / 200) * p

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "profile": "ci",
                "channel": {"num_antennas": 8, "num_paths": 2},
                "data": {"num_samples": 60},
                "train": {"batch_size": 16, "max_epochs": 3, "num_updates": 2},
                "m_values": [4, 6],
                "kinds": ["learned", "gaussian", "phase_shifter"],
            }
        )
    )
    first = tmp_path / "first"
    second = tmp_path / "second"
    blobs_a = _pipeline(first, str(cfg_path))
    blobs_b = _pipeline(second, str(cfg_path))
    assert blobs_a.keys() == blobs_b.keys()
    for name in blobs_a:
        if name.startswith("training_"):
            # wall-clock column is timing, not data; compare the rest
            strip = lambda blob: [
                line.rsplit(",", 1)[0] for line in blob.decode().splitlines()
            ]
            assert strip(blobs_a[name]) == strip(blobs_b[name]), name
        else:
            assert blobs_a[name] == blobs_b[name], f"{name} differs between runs"


# ------------------------------------------------- small-scale learning


def test_small_scale_training_beats_gaussian_baseline():
    t0 = time.perf_counter()
    m_values = (8, 12, 16)
    seeds = (0, 1, 2)
    totals = {"learned": dict.fromkeys(m_values, 0.0),
              "gaussian": dict.fromkeys(m_values, 0.0)}
    for seed in seeds:
        dataset = generate_dataset(
            ChannelConfig(
                num_antennas=32,
                num_paths=2,
                angle_mode=AngleMode.ON_GRID,
                gain_model=GainModel.COMPLEX_GAUSSIAN,
                seed=seed,
            ),
            2000,
        )
        learned = {}
        for m in m_values:
            model, _ = train(
                dataset,
                m,
                TrainConfig(
                    learning_rate=0.02,
                    batch_size=64,
                    max_epochs=200,
                    dev_eval_every=5,
                    seed=seed,
                ),
            )
            learned[m] = extract_matrix(model)
        report = run_sweep(
            dataset,
            [
                MatrixSpec(kind=MatrixKind.LEARNED, seed=seed),
                MatrixSpec(kind=MatrixKind.GAUSSIAN, seed=seed),
            ],
            m_values,
            RecoveryConfig(),
            MetricConfig(),
            learned=learned,
        )
        for row in report.rows:
            totals[row.kind][row.m] += row.exact_rate

    for m in m_values:
        mean_learned = totals["learned"][m] / len(seeds)
        mean_gauss = totals["gaussian"][m] / len(seeds)
        assert mean_learned > mean_gauss, (
            f"m={m}: learned {mean_learned:.3f} vs gaussian {mean_gauss:.3f}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0, f"took {elapsed:.0f}s, budget is 600s"
