"""Distribution-level Monte Carlo properties that go beyond single paths.

These runs are heavier than the unit tests but lighter than the acceptance
gate; they witness convergence directions and the second score
construction's calibration.
"""

import math
from pathlib import Path

import numpy as np

from sfgof.harness import ExperimentConfig, run_power, run_size
from sfgof.inference_kit import RngStream, TimeGrid, two_sample_ks
from sfgof.limit_laws import oracle_statistics
from sfgof.score import delta_stat
from sfgof.small_noise import Trajectory, linear_model, mde_preliminary, mle_small_noise, score_path_split, simulate_sde_batch

THETA0 = 0.5


def _split_statistics(eps: float, n_reps: int, master_seed: int) -> np.ndarray:
    model = linear_model()
    grid = TimeGrid(0.0, model.horizon, 4000)
    stats = np.empty(n_reps)
    chunk = 500
    for start in range(0, n_reps, chunk):
        streams = [RngStream(master_seed, i) for i in range(start, min(start + chunk, n_reps))]
        paths = simulate_sde_batch(model, THETA0, eps, grid, streams)
        for j in range(paths.shape[1]):
            traj = Trajectory(grid, paths[:, j], eps)
            theta_hat = mle_small_noise(model, traj)
            theta_bar = mde_preliminary(model, traj)
            stats[start + j] = delta_stat(score_path_split(model, traj, theta_bar, theta_hat), "cvm")
    return stats


def test_small_noise_law_converges_as_noise_vanishes():
    # The fitted-statistic law approaches the limit law as the noise level
    # drops: Kolmogorov distance to the oracle strictly decreases, and so
    # does the mean inflation of the statistic.  The coarse level sits at
    # 0.25 because below that the residual distortion is already within the
    # two-sample noise floor of 2000 draws (about 0.03).
    oracle = oracle_statistics("cvm")
    coarse = _split_statistics(0.25, 2000, 304)
    fine = _split_statistics(0.01, 2000, 302)
    assert two_sample_ks(fine, oracle) < two_sample_ks(coarse, oracle)
    assert abs(fine.mean() - oracle.mean()) < abs(coarse.mean() - oracle.mean())


def test_ergodic_mle_asymptotic_variance():
    # Scaled estimator fluctuations match the inverse information integral.
    from sfgof.ergodic import mle_ergodic, ou_model, simulate_ergodic_batch

    from reference import fisher_ergodic

    model = ou_model()
    horizon, step, n_reps = 500.0, 0.01, 500
    estimates = np.empty(n_reps)
    chunk = 125
    for start in range(0, n_reps, chunk):
        streams = [RngStream(305, i) for i in range(start, min(start + chunk, n_reps))]
        paths = simulate_ergodic_batch(model, 1.0, horizon, step, streams)
        n = paths.shape[0] - 1
        grid = TimeGrid(0.0, n * step, n)
        for j in range(paths.shape[1]):
            estimates[start + j] = mle_ergodic(model, Trajectory(grid, paths[:, j], 1.0))
    scaled_var = horizon * np.var(estimates - 1.0)
    target = 1.0 / fisher_ergodic(model, 1.0)
    assert abs(scaled_var - target) <= 0.2 * target


def test_power_ladder_monotone_in_noise():
    # A small fixed perturbation gets easier to see as the noise shrinks;
    # the same seed ladder keeps the comparison deterministic.
    rates = []
    for eps in (0.1, 0.05, 0.01):
        config = ExperimentConfig(
            family="small-noise",
            knob="epsilon",
            knob_value=eps,
            replicates=200,
            alphas=(0.05,),
            model_params={"name": "linear", "theta0": 0.5},
            sim_params={"num_steps": 4000},
            alternative="sin-perturbed",
            alternative_params={"theta0": 0.5, "amplitude": 0.05},
            master_seed=306,
        )
        rates.append(run_power(config).rows[0].rate)
    assert rates[0] <= rates[1] <= rates[2]
    assert rates[2] >= rates[0] + 0.2


def test_ergodic_smoothed_route_is_calibrated():
    config = ExperimentConfig(
        family="ergodic",
        knob="T",
        knob_value=500,
        replicates=500,
        alphas=(0.05,),
        approach="smoothed",
        model_params={"name": "ou", "theta0": 1.0},
        sim_params={"step": 0.01},
        master_seed=3,
        chunk_size=125,
    )
    report = run_size(config)
    assert 0.02 <= report.rows[0].rate <= 0.09
    assert report.ks_to_oracle <= 0.10
    assert report.excluded == 0


def _binomial_window(n: int, p: float, mass: float) -> tuple[int, int]:
    """Smallest and largest count of the central `mass` interval of Binomial(n, p)."""
    cdf = np.cumsum([math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)])
    tail = 0.5 * (1.0 - mass)
    return int(np.searchsorted(cdf, tail, side="right")), int(np.searchsorted(cdf, 1.0 - tail))


def test_invisible_alternative_keeps_rejection_at_the_level():
    # The gated family's score ignores the early half of the horizon, so the
    # gated-early alternative, which differs only there, must be rejected
    # about as often as a true null.  The count must lie in the central 99%
    # interval of Binomial(300, 0.05), [6, 25]: a count outside it would be
    # a 1-in-100 draw for a test that holds its level.  Seed 0 rejects 15.
    config = ExperimentConfig.from_file(Path(__file__).resolve().parent.parent / "configs" / "invisible_alternative.json")
    report = run_power(config)
    assert report.excluded == 0
    row = report.rows[0]
    lo, hi = _binomial_window(config.replicates, row.alpha, 0.99)
    assert lo <= row.rejections <= hi
