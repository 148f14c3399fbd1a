import math

import numpy as np
import pytest

from sfgof.errors import ConfigError, ModelError, NumericalError
from sfgof.ergodic import (
    ErgodicModel,
    excursion_mask,
    invariant_density,
    mle_ergodic,
    mollifier_cdf,
    mollifier_pdf,
    ou_model,
    preliminary_moments,
    run_test_ergodic,
    score_path_x_smoothed,
    score_path_x_split,
    simulate_ergodic_batch,
    tanh_perturbed_drift,
    with_alternative_drift,
)
from sfgof.inference_kit import ParamInterval, RngStream, TimeGrid
from sfgof.score import delta_stat
from sfgof.small_noise import Trajectory

from reference import fisher_ergodic, occupation_tv, simulate_ergodic

THETA0 = 1.0


@pytest.fixture(scope="module")
def model():
    return ou_model()


@pytest.fixture(scope="module")
def long_traj(model):
    return simulate_ergodic(model, THETA0, 1000.0, 0.01, RngStream(31, 0))


class TestInvariantDensity:
    def test_ou_matches_gaussian(self, model):
        dens = invariant_density(model, THETA0)
        gauss = np.exp(-dens.x**2) / math.sqrt(math.pi)
        assert np.max(np.abs(dens.f - gauss)) <= 1e-4

    def test_normalized(self, model):
        dens = invariant_density(model, 0.7)
        total = np.trapezoid(dens.f, dens.x)
        assert abs(total - 1.0) <= 1e-6
        assert np.all(dens.f >= 0.0)

    def test_symmetric_drift_gives_even_density(self, model):
        dens = invariant_density(model, 1.3)
        assert np.max(np.abs(dens.f - dens.f[::-1])) <= 1e-10

    def test_grid_extends_for_flat_drift(self):
        wide = ou_model(theta_lo=0.05, theta_hi=0.4, x_lo=-3.0, x_hi=3.0)
        dens = invariant_density(wide, 0.1)
        # Variance 1/(2 theta) = 5 needs far more room than the starting box.
        assert dens.x[0] < -10.0 and dens.x[-1] > 10.0

    def test_non_ergodic_family_rejected(self):
        bad = ErgodicModel(
            name="explosive",
            drift=lambda theta, x: theta * np.asarray(x, dtype=float),
            drift_dtheta=lambda theta, x: np.asarray(x, dtype=float),
            diffusion=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            theta_domain=ParamInterval(0.5, 2.0),
        )
        with pytest.raises(ModelError):
            invariant_density(bad, 1.0)


class TestFisher:
    def test_ou_second_moment(self, model):
        assert fisher_ergodic(model, THETA0) == pytest.approx(0.5, abs=1e-3)

    def test_constant_sensitivity(self):
        m = ErgodicModel(
            name="shifted",
            drift=lambda theta, x: -np.asarray(x, dtype=float) + theta,
            drift_dtheta=lambda theta, x: np.ones_like(np.asarray(x, dtype=float)),
            diffusion=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            theta_domain=ParamInterval(-0.5, 0.5),
        )
        assert fisher_ergodic(m, 0.1) == pytest.approx(1.0, rel=1e-9)

    def test_positive_across_thetas(self, model):
        for theta in (0.5, 1.0, 2.0):
            assert fisher_ergodic(model, theta) > 0.0


class TestSimulate:
    def test_stationary_variance(self, long_traj):
        assert abs(long_traj.values.var() - 0.5) <= 0.05

    def test_negative_half_time(self, long_traj):
        assert abs(np.mean(long_traj.values < 0.0) - 0.5) <= 0.02

    def test_occupation_matches_invariant_law(self, model, long_traj):
        dens = invariant_density(model, THETA0)
        assert occupation_tv(long_traj, dens) <= 0.05

    def test_step_contracts(self, model):
        with pytest.raises(ConfigError):
            simulate_ergodic(model, THETA0, 10.0, 0.05, RngStream(32, 0))
        with pytest.raises(ConfigError):
            simulate_ergodic(model, THETA0, 0.5, 0.01, RngStream(32, 0))

    def test_excursion_guard(self):
        tight = ou_model(x_lo=-0.05, x_hi=0.05)
        with pytest.raises(NumericalError):
            simulate_ergodic(tight, THETA0, 50.0, 0.01, RngStream(33, 0))

    def test_excursion_mask_flags_bad_columns(self, model):
        paths = np.zeros((11, 2))
        paths[:, 1] = np.linspace(0.0, 1e9, 11)
        ok = excursion_mask(model, paths)
        assert ok[0] and not ok[1]

    def test_batch_column_matches_single(self, model):
        streams = [RngStream(34, i) for i in range(3)]
        batch = simulate_ergodic_batch(model, THETA0, 20.0, 0.01, streams)
        for j, stream in enumerate(streams):
            single = simulate_ergodic(model, THETA0, 20.0, 0.01, stream)
            assert np.array_equal(single.values, batch[:, j])


class TestMle:
    def test_matches_closed_form(self, model, long_traj):
        theta = mle_ergodic(model, long_traj)
        x = long_traj.values
        closed = -np.dot(x[:-1], np.diff(x)) / (np.dot(x[:-1], x[:-1]) * long_traj.grid.h)
        assert abs(theta - closed) <= 1e-4

    def test_longer_horizon_reduces_error(self, model):
        errors = {}
        for horizon, chunk in ((125.0, 40), (500.0, 40)):
            errs = []
            streams = [RngStream(35, i) for i in range(40)]
            paths = simulate_ergodic_batch(model, THETA0, horizon, 0.01, streams)
            n = paths.shape[0] - 1
            grid = TimeGrid(0.0, n * 0.01, n)
            for j in range(40):
                traj = Trajectory(grid, paths[:, j], 1.0)
                errs.append(abs(mle_ergodic(model, traj) - THETA0))
            errors[horizon] = np.median(errs)
        assert errors[500.0] < errors[125.0]


class TestPreliminaryMoments:
    def test_inverts_exact_moment(self, model):
        grid = TimeGrid(0.0, 100.0, 10_000)
        values = np.full(10_001, 1.0 / math.sqrt(2.0))
        traj = Trajectory(grid, values, 1.0)
        theta = preliminary_moments(model, traj, window_T=100.0)
        assert abs(theta - 1.0) <= 5e-3

    def test_constant_path_out_of_range_flags_boundary(self, model):
        grid = TimeGrid(0.0, 100.0, 10_000)
        traj = Trajectory(grid, np.full(10_001, 10.0), 1.0)
        theta = preliminary_moments(model, traj, window_T=100.0)
        assert theta == model.theta_domain.lower

    def test_consistency_over_window(self, model):
        streams = [RngStream(36, i) for i in range(200)]
        paths = simulate_ergodic_batch(model, THETA0, 100.0, 0.01, streams)
        n = paths.shape[0] - 1
        grid = TimeGrid(0.0, n * 0.01, n)
        misses = 0
        for j in range(200):
            traj = Trajectory(grid, paths[:, j], 1.0)
            if abs(preliminary_moments(model, traj, window_T=100.0) - THETA0) > 0.3:
                misses += 1
        assert misses / 200 <= 0.1

    def test_window_contract(self, model, long_traj):
        with pytest.raises(ConfigError):
            preliminary_moments(model, long_traj, window_T=2000.0)


class TestScorePathSplit:
    def test_zero_below_path_minimum(self, model, long_traj):
        theta_hat = mle_ergodic(model, long_traj)
        path = score_path_x_split(model, long_traj, theta_hat, theta_hat)
        below = path.times < long_traj.values.min()
        assert below.any()
        assert np.all(path.values[below] == 0.0)

    def test_terminal_variance_at_true_parameter(self, model):
        streams = [RngStream(37, i) for i in range(500)]
        paths = simulate_ergodic_batch(model, THETA0, 200.0, 0.01, streams)
        n = paths.shape[0] - 1
        grid = TimeGrid(0.0, n * 0.01, n)
        finals = []
        for j in range(500):
            traj = Trajectory(grid, paths[:, j], 1.0)
            sp = score_path_x_split(model, traj, THETA0, THETA0)
            finals.append(sp.values[-1])
        assert abs(np.var(finals) - 1.0) <= 0.15

    def test_time_change_invariants(self, model, long_traj):
        theta_hat = mle_ergodic(model, long_traj)
        theta_bar = preliminary_moments(model, long_traj)
        sp = score_path_x_split(model, long_traj, theta_bar, theta_hat)
        assert sp.time_change[-1] == 1.0
        assert np.all(np.diff(sp.time_change) >= 0.0)


class TestMollifier:
    def test_endpoints_and_monotone(self):
        u = np.linspace(-1.5, 1.5, 101)
        phi = mollifier_cdf(u)
        assert phi[0] == 0.0 and phi[-1] == 1.0
        assert mollifier_cdf(np.array([-1.0]))[0] == 0.0
        assert mollifier_cdf(np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(phi) >= 0.0)

    def test_pdf_integrates_to_one(self):
        u = np.linspace(-1.0, 1.0, 4001)
        total = np.trapezoid(mollifier_pdf(u), u)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestScorePathSmoothed:
    def test_matches_direct_mollified_sum(self, model):
        # Fine time step so the antiderivative reconstruction error (a
        # discrete quadratic-variation fluctuation) stays small.
        traj = simulate_ergodic(model, THETA0, 50.0, 0.002, RngStream(38, 0))
        theta_hat = mle_ergodic(model, traj)
        d = 0.15
        sm = score_path_x_smoothed(model, traj, theta_hat, d_T=d)
        x = traj.values
        xl = x[:-1]
        resid = np.diff(x) - model.drift(theta_hat, xl) * traj.grid.h
        weights = model.drift_dtheta(theta_hat, xl) / model.diffusion(xl) ** 2
        from sfgof.ergodic import _fisher_cached

        scale = 1.0 / math.sqrt(50.0 * _fisher_cached(model, theta_hat))
        for xq in np.linspace(-2.0, 2.0, 9):
            direct = scale * np.sum(weights * mollifier_cdf((xq - xl) / d) * resid)
            assembled = float(np.interp(xq, sm.times, sm.values))
            assert abs(assembled - direct) <= 0.2

    def test_delta_agreement_with_split_at_matched_inputs(self, model):
        gaps = []
        for seed in range(6):
            traj = simulate_ergodic(model, THETA0, 1000.0, 0.01, RngStream(39, seed))
            theta_hat = mle_ergodic(model, traj)
            sm = score_path_x_smoothed(model, traj, theta_hat)
            sp = score_path_x_split(model, traj, theta_hat, theta_hat, window_T=0.0)
            gaps.append(abs(delta_stat(sm, "cvm") - delta_stat(sp, "cvm")))
        assert np.median(gaps) <= 0.1
        assert max(gaps) <= 0.3

    def test_saturates_flat_for_huge_bandwidth(self, model):
        traj = simulate_ergodic(model, THETA0, 200.0, 0.01, RngStream(40, 0))
        theta_hat = mle_ergodic(model, traj)
        sm = score_path_x_smoothed(model, traj, theta_hat, d_T=1e4)
        assert np.max(np.abs(sm.values - sm.values[-1])) <= 0.01

    def test_bandwidth_floor(self, model, long_traj):
        with pytest.raises(ConfigError):
            score_path_x_smoothed(model, long_traj, THETA0, d_T=1e-4)

    def test_time_change_invariants(self, model, long_traj):
        theta_hat = mle_ergodic(model, long_traj)
        sm = score_path_x_smoothed(model, long_traj, theta_hat)
        assert sm.time_change[-1] == 1.0
        assert np.all(np.diff(sm.time_change) >= 0.0)


class TestRunTest:
    def test_split_outcome(self, model, long_traj):
        out = run_test_ergodic(model, long_traj, 0.05)
        assert out.reject == (out.statistic > out.critical.value)
        assert out.theta_bar is not None

    def test_smoothed_outcome(self, model, long_traj):
        out = run_test_ergodic(model, long_traj, 0.05, approach="smoothed")
        assert out.theta_bar is None
        assert math.isfinite(out.statistic)

    @pytest.mark.parametrize("approach", ["split", "smoothed"])
    def test_vanishing_information_is_a_model_error(self, model, approach):
        # The drift does not depend on theta here, so the score has no sensitivity.
        blind = ErgodicModel(
            name="blind-ou",
            drift=model.drift,
            drift_dtheta=lambda theta, x: np.zeros_like(np.asarray(x, dtype=float)),
            diffusion=model.diffusion,
            theta_domain=model.theta_domain,
        )
        traj = simulate_ergodic(model, THETA0, 50.0, 0.01, RngStream(42, 0))
        with pytest.raises(ModelError, match="information"):
            run_test_ergodic(blind, traj, 0.05, approach=approach)

    def test_unknown_approach(self, model, long_traj):
        with pytest.raises(ConfigError):
            run_test_ergodic(model, long_traj, 0.05, approach="wavelet")

    def test_alternative_wrapper(self, model):
        alt = with_alternative_drift(model, tanh_perturbed_drift())
        traj = simulate_ergodic(alt, THETA0, 100.0, 0.01, RngStream(41, 0))
        out = run_test_ergodic(model, traj, 0.05)
        assert math.isfinite(out.statistic)
