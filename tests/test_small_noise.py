import math
from dataclasses import replace

import numpy as np
import pytest

from sfgof.errors import ConfigError, ModelError, NumericalError
from sfgof.inference_kit import ParamInterval, RngStream, TimeGrid
from sfgof.score import ScorePath, delta_stat, time_change
from sfgof.small_noise import (
    DEFAULT_NUM_STEPS,
    SmallNoiseModel,
    Trajectory,
    default_mde_window,
    drift_flow,
    fisher_small_noise,
    gated_linear_model,
    linear_model,
    mde_preliminary,
    mle_small_noise,
    run_test_small_noise,
    score_path_ito,
    score_path_split,
    simulate_sde_batch,
    sin_perturbed_drift,
    with_alternative_drift,
    _fisher_cached,
    _fisher_table,
    _flow_information,
    _mde_neg_distance,
    _table_nodes,
    _window_table,
)

from reference import simulate_bridge, simulate_sde

THETA0 = 0.5


@pytest.fixture(scope="module")
def model():
    return linear_model()


@pytest.fixture(scope="module")
def coarse_grid(model):
    return TimeGrid(0.0, model.horizon, 2000)


@pytest.fixture(scope="module")
def traj(model):
    return simulate_sde(model, THETA0, 0.02, TimeGrid(0.0, model.horizon, DEFAULT_NUM_STEPS), RngStream(21, 0))


def constant_sensitivity_model(c: float = 2.0, sigma: float = 1.0) -> SmallNoiseModel:
    return SmallNoiseModel(
        name="affine",
        drift=lambda theta, t, x: theta * c + 0.0 * np.asarray(x, dtype=float),
        drift_dtheta=lambda theta, t, x: c * np.ones_like(np.asarray(x, dtype=float)),
        diffusion=lambda t, x: sigma * np.ones_like(np.asarray(x, dtype=float)),
        x0=0.0,
        horizon=1.0,
        theta_domain=ParamInterval(0.1, 0.9),
    )


class TestSimulate:
    def test_noise_free_limit_matches_flow(self, model):
        grid = TimeGrid(0.0, model.horizon, DEFAULT_NUM_STEPS)
        traj0 = simulate_sde(model, THETA0, 0.0, grid, RngStream(1, 0))
        assert traj0.values[-1] == pytest.approx(math.exp(0.5), abs=1e-3)

    def test_pure_wiener_moments(self):
        m = constant_sensitivity_model(c=0.0)
        grid = TimeGrid(0.0, 1.0, 200)
        eps = 0.3
        streams = [RngStream(2, i) for i in range(5000)]
        paths = simulate_sde_batch(m, 0.5, eps, grid, streams)
        finals = paths[-1] / eps
        assert abs(finals.mean()) <= 3.0 * math.sqrt(1.0 / 5000)
        assert abs(finals.var() - 1.0) <= 0.05

    def test_small_noise_deviation_bound(self, model, coarse_grid):
        eps = 0.05
        streams = [RngStream(3, i) for i in range(1000)]
        paths = simulate_sde_batch(model, THETA0, eps, coarse_grid, streams)
        flow = drift_flow(model, THETA0, coarse_grid)
        sup_dev = np.max(np.abs(paths - flow[:, None]), axis=0)
        assert sup_dev.mean() <= 5.0 * eps * math.exp(0.5)

    def test_single_path_bitwise_equals_batch_column(self, model, coarse_grid):
        streams = [RngStream(4, i) for i in range(3)]
        batch = simulate_sde_batch(model, THETA0, 0.1, coarse_grid, streams)
        for j, stream in enumerate(streams):
            single = simulate_sde(model, THETA0, 0.1, coarse_grid, stream)
            assert np.array_equal(single.values, batch[:, j])

    def test_epsilon_domain(self, model, coarse_grid):
        with pytest.raises(ConfigError):
            simulate_sde(model, THETA0, 1.5, coarse_grid, RngStream(5, 0))

    def test_blow_up_raises(self, coarse_grid):
        explosive = SmallNoiseModel(
            name="cubic",
            drift=lambda theta, t, x: theta * np.asarray(x, dtype=float) ** 3,
            drift_dtheta=lambda theta, t, x: np.asarray(x, dtype=float) ** 3,
            diffusion=lambda t, x: np.ones_like(np.asarray(x, dtype=float)),
            x0=50.0,
            horizon=1.0,
            theta_domain=ParamInterval(0.1, 0.9),
        )
        with pytest.raises(NumericalError):
            simulate_sde(explosive, 0.9, 0.1, coarse_grid, RngStream(6, 0))

    def test_scale_equivariance_bitwise(self, coarse_grid):
        # Halving eps while doubling sigma leaves every Euler path and the
        # statistic bitwise unchanged when the same streams drive both.
        m1 = linear_model(sigma=1.0)
        m2 = linear_model(sigma=2.0)
        stream = RngStream(7, 0)
        t1 = simulate_sde(m1, THETA0, 0.05, coarse_grid, stream)
        t2 = simulate_sde(m2, THETA0, 0.025, coarse_grid, stream)
        assert np.array_equal(t1.values, t2.values)
        th1 = mle_small_noise(m1, t1)
        th2 = mle_small_noise(m2, t2)
        assert th1 == th2
        s1 = score_path_split(m1, t1, THETA0, th1)
        s2 = score_path_split(m2, t2, THETA0, th2)
        assert np.array_equal(s1.values, s2.values)
        assert delta_stat(s1, "cvm") == delta_stat(s2, "cvm")


class TestFisher:
    def test_linear_closed_form(self, model):
        assert fisher_small_noise(model, THETA0) == pytest.approx(math.e - 1.0, abs=1e-4)

    def test_constant_sensitivity_exact(self):
        m = constant_sensitivity_model(c=2.0)
        assert fisher_small_noise(m, 0.5) == pytest.approx(4.0, rel=1e-12)

    def test_sigma_scaling(self):
        i1 = fisher_small_noise(constant_sensitivity_model(c=2.0, sigma=1.0), 0.5)
        i2 = fisher_small_noise(constant_sensitivity_model(c=2.0, sigma=2.0), 0.5)
        assert i1 / i2 == pytest.approx(4.0, rel=1e-12)

    def test_degenerate_sensitivity_rejected(self):
        m = constant_sensitivity_model(c=0.0)
        with pytest.raises(ModelError):
            fisher_small_noise(m, 0.5)

    def test_interpolation_table_accuracy(self, model):
        for theta in (0.17, 0.5, 0.83):
            assert _fisher_cached(model, theta) == pytest.approx(
                fisher_small_noise(model, theta), rel=1e-4
            )


def scalar_theta_model() -> SmallNoiseModel:
    """The linear model behind a plug-in drift that accepts only a scalar theta."""
    return replace(linear_model(), name="scalar-theta", drift=lambda theta, t, x: float(theta) * np.asarray(x, dtype=float))


def outer_theta_model() -> SmallNoiseModel:
    """The linear model behind a plug-in drift that answers a theta array with the wrong shape."""
    return replace(linear_model(), name="outer-theta", drift=lambda theta, t, x: np.multiply.outer(theta, np.asarray(x, dtype=float)))


@pytest.mark.parametrize(
    "build",
    [linear_model, gated_linear_model, scalar_theta_model, outer_theta_model],
    ids=["linear", "gated-linear", "scalar-only-plugin", "wrong-shape-plugin"],
)
def test_theta_tables_equal_scalar_solves(build):
    # The tables' grids: 512 steps over the horizon for the Fisher table, and
    # the default 5% window of a 10 000-step path for the window table.
    model = build()
    thetas = _table_nodes(model)
    fisher_grid = TimeGrid(0.0, model.horizon, 512)
    window_grid = TimeGrid(0.0, 500 * 1e-4, 500)
    scalar = {grid: np.array([drift_flow(model, theta, grid) for theta in thetas]) for grid in (fisher_grid, window_grid)}
    for grid, flows in scalar.items():
        assert np.array_equal(drift_flow(model, thetas, grid), flows)
    fisher = [_flow_information(model, theta, fisher_grid, xs) for theta, xs in zip(thetas, scalar[fisher_grid])]
    assert np.array_equal(_fisher_table(model)[1], fisher)
    _, idx, window_flows = _window_table(model, 500, 1e-4)
    assert np.array_equal(window_flows, scalar[window_grid][:, idx])


@pytest.mark.parametrize("build", [scalar_theta_model, outer_theta_model], ids=["scalar-only", "wrong-shape"])
def test_plugin_drift_without_theta_arrays_runs_the_linear_test(build, coarse_grid):
    # The drift equals the linear one, so the whole test must come out the same.
    traj = simulate_sde(linear_model(), THETA0, 0.05, coarse_grid, RngStream(25, 0))
    out = run_test_small_noise(build(), traj, 0.05)
    ref = run_test_small_noise(linear_model(), traj, 0.05)
    assert (out.statistic, out.theta_hat, out.theta_bar, out.reject) == (
        ref.statistic,
        ref.theta_hat,
        ref.theta_bar,
        ref.reject,
    )


class TestMle:
    def test_matches_linear_closed_form(self, model, traj):
        theta = mle_small_noise(model, traj)
        x = traj.values
        closed = np.dot(x[:-1], np.diff(x)) / (np.dot(x[:-1], x[:-1]) * traj.grid.h)
        assert abs(theta - closed) < 1e-4

    def test_vanishing_noise_consistency(self, model, coarse_grid):
        t = simulate_sde(model, THETA0, 1e-4, coarse_grid, RngStream(8, 0))
        assert abs(mle_small_noise(model, t) - THETA0) <= 1e-2


class TestMde:
    def test_window_default_floor(self, model):
        grid = TimeGrid(0.0, model.horizon, DEFAULT_NUM_STEPS)
        t = simulate_sde(model, THETA0, 0.02, grid, RngStream(9, 0))
        nu = default_mde_window(t)
        assert nu >= 50 * grid.h
        assert nu >= 0.05 * model.horizon

    def test_recovers_noise_free_path(self, model):
        grid = TimeGrid(0.0, model.horizon, DEFAULT_NUM_STEPS)
        t0 = simulate_sde(model, THETA0, 0.0, grid, RngStream(10, 0))
        assert abs(mde_preliminary(model, t0) - THETA0) < 1e-3

    def test_consistency_at_small_noise(self, model, coarse_grid):
        streams = [RngStream(11, i) for i in range(500)]
        paths = simulate_sde_batch(model, THETA0, 0.01, coarse_grid, streams)
        misses = 0
        for j in range(500):
            t = Trajectory(coarse_grid, paths[:, j], 0.01)
            if abs(mde_preliminary(model, t) - THETA0) > 0.2:
                misses += 1
        assert misses / 500 <= 0.1

    def test_error_median_decreases_with_noise(self, model, coarse_grid):
        medians = []
        for eps in (0.1, 0.01, 0.001):
            errors = []
            streams = [RngStream(12, i) for i in range(200)]
            paths = simulate_sde_batch(model, THETA0, eps, coarse_grid, streams)
            for j in range(200):
                t = Trajectory(coarse_grid, paths[:, j], eps)
                errors.append(abs(mde_preliminary(model, t) - THETA0))
            medians.append(np.median(errors))
        assert medians[0] > medians[1] > medians[2]

    def test_distance_strictly_monotone_next_to_each_end(self, model):
        # The fit to a flow at theta = 0.5 must still tell thetas apart within
        # 0.005 of either end, inside the outermost cells of the flow table.
        grid = TimeGrid(0.0, model.horizon, DEFAULT_NUM_STEPS)
        flow = simulate_sde(model, THETA0, 0.0, grid, RngStream(10, 0))
        neg_distance = _mde_neg_distance(model, flow, None)
        dom = model.theta_domain
        assert np.all(np.diff(neg_distance(np.linspace(dom.lower, dom.lower + 0.005, 16))) > 0.0)
        assert np.all(np.diff(neg_distance(np.linspace(dom.upper - 0.005, dom.upper, 16))) < 0.0)

    def test_window_too_small(self, model):
        grid = TimeGrid(0.0, 1.0, 100)
        t = simulate_sde(model, THETA0, 0.05, grid, RngStream(13, 0))
        with pytest.raises(ConfigError):
            mde_preliminary(model, t, nu_epsilon=0.03)


class TestScorePathSplit:
    def test_normalized_score_variance(self, model, coarse_grid):
        # With both estimates pinned at the true value the terminal score is
        # asymptotically standard normal.
        streams = [RngStream(14, i) for i in range(2000)]
        paths = simulate_sde_batch(model, THETA0, 0.02, coarse_grid, streams)
        finals = []
        for j in range(2000):
            t = Trajectory(coarse_grid, paths[:, j], 0.02)
            sp = score_path_split(model, t, THETA0, THETA0)
            finals.append(sp.values[-1])
        assert abs(np.var(finals) - 1.0) <= 0.1

    def test_noise_free_path_gives_zero_score(self, model):
        # Both increment terms cancel on a noise-free Euler path; what is
        # left is the rounding of x + h*S, at the 1e-16-per-step scale.
        grid = TimeGrid(0.0, model.horizon, DEFAULT_NUM_STEPS)
        flow = simulate_sde(model, THETA0, 0.0, grid, RngStream(15, 0))
        t = Trajectory(grid, flow.values, 1.0)
        sp = score_path_split(model, t, THETA0, THETA0)
        assert np.max(np.abs(sp.values)) <= 1e-9

    def test_time_change_invariants(self, model, traj):
        theta_hat = mle_small_noise(model, traj)
        theta_bar = mde_preliminary(model, traj)
        sp = score_path_split(model, traj, theta_bar, theta_hat)
        assert sp.time_change[-1] == 1.0
        assert np.all(np.diff(sp.time_change) >= 0.0)

    def test_zero_noise_level_rejected(self, model):
        grid = TimeGrid(0.0, model.horizon, DEFAULT_NUM_STEPS)
        flow = simulate_sde(model, THETA0, 0.0, grid, RngStream(16, 0))
        with pytest.raises(ConfigError):
            score_path_split(model, flow, THETA0, THETA0)


def time_varying_model() -> SmallNoiseModel:
    """Drift theta * (1 + t/2) * x, whose score weight (1 + t/2) * x varies in t."""
    return SmallNoiseModel(
        name="tv-linear",
        drift=lambda th, t, x: th * (1.0 + 0.5 * np.asarray(t)) * np.asarray(x, dtype=float),
        drift_dtheta=lambda th, t, x: (1.0 + 0.5 * np.asarray(t)) * np.asarray(x, dtype=float),
        diffusion=lambda t, x: np.ones_like(np.asarray(x, dtype=float)),
        x0=1.0,
        horizon=1.0,
        theta_domain=ParamInterval(0.1, 0.9),
        weight_factors=(lambda t: 1.0 + 0.5 * np.asarray(t), lambda th, x: np.asarray(x, dtype=float)),
    )


@pytest.mark.parametrize(
    "build", [linear_model, lambda: linear_model(sigma=0.7), gated_linear_model, time_varying_model]
)
def test_weight_factors_equal_the_drift_weight(build):
    # The declared a(t) * b(theta, x) is the score weight dS/dtheta / sigma^2.
    # The t grid holds the gated model's jump at t = 0.5 and steps over it.
    m = build()
    a, b = m.weight_factors
    theta, t, x = np.meshgrid(
        np.linspace(0.1, 0.9, 5), np.linspace(0.0, 1.0, 41), np.linspace(-2.0, 3.0, 11), indexing="ij"
    )
    weight = m.drift_dtheta(theta, t, x) / m.diffusion(t, x) ** 2
    np.testing.assert_allclose(a(t) * b(theta, x), weight, rtol=1e-15, atol=0.0)


class TestScorePathIto:
    def test_agrees_with_direct_integral_linear(self, model):
        grid = TimeGrid(0.0, model.horizon, DEFAULT_NUM_STEPS)
        t = simulate_sde(model, THETA0, 0.05, grid, RngStream(17, 0))
        theta_hat = mle_small_noise(model, t)
        ito = score_path_ito(model, t, theta_hat)
        direct = score_path_split(model, t, theta_hat, theta_hat, nu_epsilon=0.0)
        assert np.max(np.abs(ito.values - direct.values)) <= 0.05

    def test_agrees_with_direct_integral_time_varying(self):
        tv = time_varying_model()
        grid = TimeGrid(0.0, tv.horizon, DEFAULT_NUM_STEPS)
        t = simulate_sde(tv, THETA0, 0.05, grid, RngStream(18, 0))
        theta_hat = mle_small_noise(tv, t)
        ito = score_path_ito(tv, t, theta_hat)
        direct = score_path_split(tv, t, theta_hat, theta_hat, nu_epsilon=0.0)
        assert np.max(np.abs(ito.values - direct.values)) <= 0.05

    def test_noise_free_bracket_vanishes(self, model):
        grid = TimeGrid(0.0, model.horizon, DEFAULT_NUM_STEPS)
        flow = simulate_sde(model, THETA0, 0.0, grid, RngStream(19, 0))
        t = Trajectory(grid, flow.values, 1.0)
        ito = score_path_ito(model, t, THETA0)
        assert np.max(np.abs(ito.values)) <= 1e-2

    def test_terminal_value_small_at_mle(self, model, coarse_grid):
        finals = []
        for i in range(50):
            t = simulate_sde(model, THETA0, 0.02, coarse_grid, RngStream(20, i))
            theta_hat = mle_small_noise(model, t)
            finals.append(abs(score_path_ito(model, t, theta_hat).values[-1]))
        assert np.median(finals) <= 0.05

    def test_requires_derivative_field(self, model, traj):
        stripped = SmallNoiseModel(
            name="no-deriv",
            drift=model.drift,
            drift_dtheta=model.drift_dtheta,
            diffusion=model.diffusion,
            x0=model.x0,
            horizon=model.horizon,
            theta_domain=model.theta_domain,
            weight_factors=None,
        )
        with pytest.raises(ConfigError):
            score_path_ito(stripped, traj, THETA0)


class TestDeltaStat:
    def test_zero_score(self):
        times = np.linspace(0.0, 1.0, 11)
        sp = ScorePath(times, np.zeros(11), times.copy())
        assert delta_stat(sp, "cvm") == 0.0
        assert delta_stat(sp, "ks") == 0.0

    def test_step_function_is_keyword_only(self):
        times = np.linspace(0.0, 1.0, 11)
        with pytest.raises(TypeError):
            ScorePath(times, np.zeros(11), times.copy(), np.ones(11))

    def test_time_change_ends_at_one(self):
        tau = time_change(np.cumsum(np.linspace(0.1, 3.0, 999)))
        assert tau[-1] == 1.0 and np.all(np.diff(tau) >= 0.0)
        with pytest.raises(ModelError):
            time_change(np.zeros(11))

    def test_bridge_change_of_variables(self):
        # A score path whose values are a bridge read through tau must give
        # back the bridge functional of that bridge.
        bridge = simulate_bridge(1000, RngStream(22, 0))
        times = np.linspace(0.0, 2.0, 501)
        tau = (times / 2.0) ** 2
        tau /= tau[-1]
        values = np.interp(tau, bridge.times, bridge.values)
        sp = ScorePath(times, values, tau)

        assert delta_stat(sp, "cvm") == pytest.approx(delta_stat(bridge, "cvm"), abs=5e-3)
        assert delta_stat(sp, "ks") <= delta_stat(bridge, "ks") + 1e-12


class TestRunTest:
    def test_deterministic_outcome(self, model, coarse_grid):
        t1 = simulate_sde(model, THETA0, 0.05, coarse_grid, RngStream(23, 5))
        t2 = simulate_sde(model, THETA0, 0.05, coarse_grid, RngStream(23, 5))
        o1 = run_test_small_noise(model, t1, 0.05)
        o2 = run_test_small_noise(model, t2, 0.05)
        assert o1.statistic == o2.statistic
        assert o1.theta_hat == o2.theta_hat
        assert o1.reject == o2.reject

    def test_reject_flag_consistency(self, model, traj):
        out = run_test_small_noise(model, traj, 0.05, approach="ito")
        assert out.reject == (out.statistic > out.critical.value)
        assert out.theta_bar is None

    def test_unknown_approach(self, model, traj):
        with pytest.raises(ConfigError):
            run_test_small_noise(model, traj, 0.05, approach="bootstrap")

    def test_alternative_wrapper_changes_simulation_only(self, model, coarse_grid):
        alt = with_alternative_drift(model, sin_perturbed_drift(THETA0, model.horizon))
        t = simulate_sde(alt, THETA0, 0.05, coarse_grid, RngStream(24, 0))
        assert t.values.shape == (coarse_grid.num_steps + 1,)
        out = run_test_small_noise(model, t, 0.05)
        assert math.isfinite(out.statistic)


class TestGatedModel:
    def test_sensitivity_gate(self):
        gated = gated_linear_model()
        assert float(gated.drift_dtheta(0.5, 0.2, 1.0)) == 0.0
        assert float(gated.drift_dtheta(0.5, 0.8, 1.0)) == 1.0
        assert float(gated.drift(0.5, 0.2, 2.0)) == 2.0
        assert float(gated.drift(0.5, 0.8, 2.0)) == 1.0
