"""Acceptance gate: one test per shipped claim, at the stated tolerances.

Every test prints a single pass line with the measured quantities; a
failed assertion is the fail line.  Monte Carlo runs use fixed master
seeds, so the whole gate is deterministic.
"""

import math
import time

import numpy as np
import pytest

from sfgof import ar as ar_mod
from sfgof import ergodic as erg_mod
from sfgof import poisson as po_mod
from sfgof import small_noise as sn_mod
from sfgof.cli import main as cli_main
from sfgof.harness import ExperimentConfig, run_power, run_size
from sfgof.inference_kit import RngStream, TimeGrid, two_sample_ks
from sfgof.limit_laws import (
    _bridge_values_batch,
    critical_value_cvm,
    critical_value_ks,
    default_critical_value,
    oracle_statistics,
)
from sfgof.score import delta_stat

from reference import bridge_sup_samples, occupation_tv, simulate_ar, simulate_ergodic, simulate_sde, step_value

SIZE_WINDOW = (0.03, 0.07)
SIZE_WINDOW_ERGODIC = (0.03, 0.08)


def report(line: str) -> None:
    print(line, flush=True)


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def small_noise_run():
    """Matched-replicate small-noise study: split and antiderivative routes
    computed from the same 2000 simulated paths at eps = 0.02."""
    model = sn_mod.linear_model()
    grid = TimeGrid(0.0, model.horizon, sn_mod.DEFAULT_NUM_STEPS)
    eps = 0.02
    n_reps = 2000
    stats_split = np.empty(n_reps)
    stats_ito = np.empty(n_reps)
    theta_hats = np.empty(n_reps)
    t0 = time.perf_counter()
    chunk = 500
    for start in range(0, n_reps, chunk):
        streams = [RngStream(101, i) for i in range(start, min(start + chunk, n_reps))]
        paths = sn_mod.simulate_sde_batch(model, 0.5, eps, grid, streams)
        for j in range(paths.shape[1]):
            traj = sn_mod.Trajectory(grid, paths[:, j], eps)
            theta_hat = sn_mod.mle_small_noise(model, traj)
            theta_bar = sn_mod.mde_preliminary(model, traj)
            stats_split[start + j] = delta_stat(
                sn_mod.score_path_split(model, traj, theta_bar, theta_hat), "cvm"
            )
            stats_ito[start + j] = delta_stat(sn_mod.score_path_ito(model, traj, theta_hat), "cvm")
            theta_hats[start + j] = theta_hat
    return {
        "stats_split": stats_split,
        "stats_ito": stats_ito,
        "theta_hats": theta_hats,
        "eps": eps,
        "wall": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def ergodic_report():
    config = ExperimentConfig(
        family="ergodic",
        knob="T",
        knob_value=1000,
        replicates=1000,
        alphas=(0.05,),
        model_params={"name": "ou", "theta0": 1.0},
        sim_params={"step": 0.01},
        master_seed=1,
        chunk_size=125,
    )
    return run_size(config)


@pytest.fixture(scope="module")
def poisson_report():
    config = ExperimentConfig(
        family="poisson",
        knob="n",
        knob_value=500,
        replicates=2000,
        alphas=(0.05,),
        model_params={"name": "linear-h", "theta0": 2.0},
        master_seed=1,
    )
    return run_size(config)


@pytest.fixture(scope="module")
def ar_report():
    config = ExperimentConfig(
        family="ar",
        knob="n",
        knob_value=2000,
        replicates=2000,
        alphas=(0.05,),
        model_params={"name": "linear-gaussian", "theta0": 0.5},
        master_seed=1,
    )
    return run_size(config)


# ---------------------------------------------------------------- criteria


def test_criterion_01_bridge_covariance():
    t0 = time.perf_counter()
    draws = _bridge_values_batch(1000, 20_000, RngStream(901, 0).generator())
    points = np.array([100, 300, 500, 700, 900])
    worst = 0.0
    for i in points:
        for j in points:
            s, t = i / 1000.0, j / 1000.0
            emp = float(np.mean(draws[:, i] * draws[:, j]))
            worst = max(worst, abs(emp - (min(s, t) - s * t)))
    wall = time.perf_counter() - t0
    assert worst <= 0.01
    assert wall < 10.0
    report(f"criterion 1 PASS: bridge covariance max error {worst:.4f} (<= 0.01), {wall:.1f}s")


def test_criterion_02_critical_value_cross_validation():
    t0 = time.perf_counter()
    worst_gap = 0.0
    for k, alpha in enumerate((0.01, 0.05, 0.10)):
        mc = critical_value_cvm(alpha, method="monte-carlo", rng=RngStream(902, k), n_paths=200_000)
        series = critical_value_cvm(alpha, method="series", rng=RngStream(903, k), n_paths=200_000)
        exact = default_critical_value(alpha, "cvm").value
        gap = max(abs(mc.value - series.value), abs(mc.value - exact))
        worst_gap = max(worst_gap, gap)
        assert gap <= 0.01
    d_series = critical_value_ks(0.05).value
    sups = bridge_sup_samples(1_000_000, 256, RngStream(904, 0))
    d_mc = float(np.quantile(sups, 0.95))
    sup_gap = abs(d_series - d_mc)
    wall = time.perf_counter() - t0
    assert sup_gap <= 0.005
    assert wall < 120.0
    report(
        f"criterion 2 PASS: quadratic MC route within {worst_gap:.4f} of series and exact (<= 0.01), "
        f"sup value {d_series:.4f} vs MC {d_mc:.4f} gap {sup_gap:.4f} (<= 0.005), {wall:.0f}s"
    )


def test_criterion_03_small_noise_size_and_law(small_noise_run):
    stats = small_noise_run["stats_split"]
    crit = default_critical_value(0.05, "cvm").value
    rate = float(np.mean(stats > crit))
    ks = two_sample_ks(stats, oracle_statistics("cvm"))
    assert SIZE_WINDOW[0] <= rate <= SIZE_WINDOW[1]
    assert ks <= 0.05
    assert small_noise_run["wall"] < 600.0
    report(
        f"criterion 3 PASS: small-noise size {rate:.4f} in [0.03, 0.07], "
        f"law distance {ks:.4f} (<= 0.05), {small_noise_run['wall']:.0f}s"
    )


def test_criterion_04_split_vs_antiderivative(small_noise_run):
    ks = two_sample_ks(small_noise_run["stats_split"], small_noise_run["stats_ito"])
    assert ks <= 0.05
    report(f"criterion 4 PASS: split vs antiderivative statistic distance {ks:.4f} (<= 0.05)")


def test_criterion_05_mle_asymptotic_variance(small_noise_run):
    eps = small_noise_run["eps"]
    scaled_var = float(np.var((small_noise_run["theta_hats"] - 0.5) / eps))
    target = 1.0 / (math.e - 1.0)
    assert abs(scaled_var - target) <= 0.15 * target
    report(
        f"criterion 5 PASS: scaled estimator variance {scaled_var:.4f} "
        f"within 15% of {target:.4f}"
    )


def test_criterion_06_ergodic_size_and_occupation(ergodic_report):
    rate = ergodic_report.rows[0].rate
    assert SIZE_WINDOW_ERGODIC[0] <= rate <= SIZE_WINDOW_ERGODIC[1]
    assert ergodic_report.ks_to_oracle <= 0.06
    assert not ergodic_report.exclusions_exceeded
    model = erg_mod.ou_model()
    traj = simulate_ergodic(model, 1.0, 1000.0, 0.01, RngStream(906, 0))
    tv = occupation_tv(traj, erg_mod.invariant_density(model, 1.0))
    assert tv <= 0.05
    assert ergodic_report.wall_clock < 1200.0
    report(
        f"criterion 6 PASS: ergodic size {rate:.4f} in [0.03, 0.08], occupation "
        f"distance {tv:.4f} (<= 0.05), {ergodic_report.wall_clock:.0f}s"
    )


def test_criterion_07_poisson_size_and_unbiasedness(poisson_report):
    rate = poisson_report.rows[0].rate
    assert SIZE_WINDOW[0] <= rate <= SIZE_WINDOW[1]
    assert poisson_report.ks_to_oracle <= 0.05
    assert not poisson_report.exclusions_exceeded
    theta_bars = poisson_report.theta_bar
    stderr = float(np.std(theta_bars) / math.sqrt(theta_bars.size))
    bias = abs(float(np.mean(theta_bars)) - 2.0)
    assert bias <= 2.0 * stderr
    assert poisson_report.wall_clock < 600.0
    report(
        f"criterion 7 PASS: poisson size {rate:.4f} in [0.03, 0.07], preliminary "
        f"estimate bias {bias:.4f} <= 2 x {stderr:.4f}, {poisson_report.wall_clock:.0f}s"
    )


def test_criterion_08_ar_size_and_score_covariance(ar_report):
    rate = ar_report.rows[0].rate
    assert SIZE_WINDOW[0] <= rate <= SIZE_WINDOW[1]
    assert ar_report.ks_to_oracle <= 0.05
    assert not ar_report.exclusions_exceeded

    model = ar_mod.linear_gaussian_ar()
    levels = np.array([-1.2, -0.5, 0.0, 0.5, 1.2])
    n, n_reps = 2000, 2000
    values = np.empty((n_reps, levels.size))
    taus = np.empty(levels.size)
    chunk = 500
    for start in range(0, n_reps, chunk):
        streams = [RngStream(908, i) for i in range(start, min(start + chunk, n_reps))]
        paths = ar_mod.simulate_ar_batch(model, 0.5, n, streams)
        for j in range(paths.shape[1]):
            sp = ar_mod.score_path_ar(model, ar_mod.SeriesSample(values=paths[:, j]), 0.5)
            for k, x in enumerate(levels):
                values[start + j, k] = step_value(sp, x)
    dens = ar_mod.stationary_density(model, 0.5)
    from sfgof.inference_kit import cumulative_trapezoid

    sens_sq = model.regression_dtheta(0.5, dens.x) ** 2 * dens.f
    tau_grid = cumulative_trapezoid(sens_sq, dens.dx)
    tau_grid /= tau_grid[-1]
    taus = np.interp(levels, dens.x, tau_grid)

    worst_sigma = 0.0
    for a in range(levels.size):
        for b in range(levels.size):
            prod = values[:, a] * values[:, b]
            target = min(taus[a], taus[b])
            stderr = float(prod.std() / math.sqrt(n_reps))
            worst_sigma = max(worst_sigma, abs(float(prod.mean()) - target) / stderr)
    assert worst_sigma <= 3.0
    report(
        f"criterion 8 PASS: ar size {rate:.4f} in [0.03, 0.07], score covariance "
        f"grid within {worst_sigma:.2f} standard errors (<= 3)"
    )


def test_criterion_09_power(small_noise_run, ergodic_report, poisson_report, ar_report):
    powers = {}
    powers["small-noise"] = run_power(
        ExperimentConfig(
            family="small-noise",
            knob="epsilon",
            knob_value=0.01,
            replicates=300,
            alphas=(0.05,),
            model_params={"name": "linear", "theta0": 0.5},
            alternative="sin-perturbed",
            alternative_params={"theta0": 0.5},
            master_seed=2,
        )
    ).rows[0].rate
    powers["ergodic"] = run_power(
        ExperimentConfig(
            family="ergodic",
            knob="T",
            knob_value=2000,
            replicates=500,
            alphas=(0.05,),
            model_params={"name": "ou", "theta0": 1.0},
            sim_params={"step": 0.01},
            alternative="tanh-perturbed",
            alternative_params={"base_theta": 1.0, "amplitude": 0.8},
            master_seed=7,
            chunk_size=100,
        )
    ).rows[0].rate
    powers["poisson"] = run_power(
        ExperimentConfig(
            family="poisson",
            knob="n",
            knob_value=1000,
            replicates=300,
            alphas=(0.05,),
            model_params={"name": "linear-h", "theta0": 2.0},
            alternative="step-bump",
            alternative_params={"theta0": 2.0, "bump": 0.5},
            master_seed=2,
        )
    ).rows[0].rate
    powers["ar"] = run_power(
        ExperimentConfig(
            family="ar",
            knob="n",
            knob_value=5000,
            replicates=300,
            alphas=(0.05,),
            model_params={"name": "linear-gaussian", "theta0": 0.5},
            alternative="cosine-perturbed",
            alternative_params={"base_theta": 0.5, "amplitude": 0.3},
            master_seed=2,
        )
    ).rows[0].rate

    crit = default_critical_value(0.05, "cvm").value
    sizes = {
        "small-noise": float(np.mean(small_noise_run["stats_split"] > crit)),
        "ergodic": ergodic_report.rows[0].rate,
        "poisson": poisson_report.rows[0].rate,
        "ar": ar_report.rows[0].rate,
    }
    for family, power in powers.items():
        assert power >= 0.8, f"{family} power {power}"
        assert power >= sizes[family], f"{family} power below size"
    summary = ", ".join(f"{k}={v:.3f}" for k, v in powers.items())
    report(f"criterion 9 PASS: power {summary} (all >= 0.8 and >= size)")


def test_criterion_10_thread_determinism(tmp_path):
    import json

    cfg_payload = {
        "family": "small-noise",
        "knob": "epsilon",
        "knob_value": 0.05,
        "replicates": 100,
        "alphas": [0.05],
        "model": {"name": "linear", "theta0": 0.5},
        "sim": {"num_steps": 2000},
        "chunk_size": 25,
        "label": "determinism",
    }
    cfg = tmp_path / "determinism.json"
    cfg.write_text(json.dumps(cfg_payload))
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert cli_main(["size", "--config", str(cfg), "--seed", "11", "--out", str(out1), "--threads", "1"]) == 0
    assert cli_main(["size", "--config", str(cfg), "--seed", "11", "--out", str(out2), "--threads", "2"]) == 0
    b1 = (out1 / "determinism.csv").read_bytes()
    b2 = (out2 / "determinism.csv").read_bytes()
    assert b1 == b2
    report("criterion 10 PASS: size report CSV bit-identical across thread counts")


def test_criterion_11_time_change_invariants():
    checked = 0

    def check(path):
        nonlocal checked
        assert path.time_change[-1] == 1.0
        assert np.all(np.diff(path.time_change) >= 0.0)
        checked += 1

    sn_model = sn_mod.linear_model()
    grid = TimeGrid(0.0, 1.0, 2000)
    for i in range(50):
        traj = simulate_sde(sn_model, 0.5, 0.05, grid, RngStream(911, i))
        theta_hat = sn_mod.mle_small_noise(sn_model, traj)
        check(sn_mod.score_path_split(sn_model, traj, sn_mod.mde_preliminary(sn_model, traj), theta_hat))
        check(sn_mod.score_path_ito(sn_model, traj, theta_hat))

    erg_model = erg_mod.ou_model()
    for i in range(50):
        traj = simulate_ergodic(erg_model, 1.0, 50.0, 0.01, RngStream(912, i))
        theta_hat = erg_mod.mle_ergodic(erg_model, traj)
        check(erg_mod.score_path_x_split(erg_model, traj, erg_mod.preliminary_moments(erg_model, traj), theta_hat))
        check(erg_mod.score_path_x_smoothed(erg_model, traj, theta_hat))

    po_model = po_mod.linear_intensity_model(po_mod.sin_profile(1.0), 1.0, 1.0, 0.5, 5.0)
    for i in range(50):
        events = po_mod.simulate_periodic_poisson(po_model, 2.0, 60, RngStream(913, i))
        theta_hat = po_mod.mle_poisson(po_model, events)
        theta_bar = po_model.theta_domain.clip(po_mod.mde_linear_intensity(po_model, events))
        check(po_mod.score_path_poisson(po_model, events, theta_bar, theta_hat))

    ar_model = ar_mod.linear_gaussian_ar()
    for i in range(50):
        sample = simulate_ar(ar_model, 0.5, 500, RngStream(914, i))
        check(ar_mod.score_path_ar(ar_model, sample, ar_mod.mle_ar(ar_model, sample)))

    assert checked == 300
    report(f"criterion 11 PASS: time change ends at exactly 1 and is nondecreasing on {checked}/300 paths")
