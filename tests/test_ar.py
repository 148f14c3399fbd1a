import math
from dataclasses import replace

import numpy as np
import pytest

from sfgof.ar import (
    ARModel,
    SeriesSample,
    cosine_perturbed_regression,
    linear_gaussian_ar,
    mle_ar,
    noise_information,
    run_test_ar,
    score_path_ar,
    simulate_ar_batch,
    stationary_density,
    with_alternative_regression,
)
from sfgof.errors import ConfigError, ModelError
from sfgof.inference_kit import ParamInterval, RngStream
from sfgof.score import delta_stat

from reference import simulate_ar, state_information, step_value

THETA0 = 0.5


@pytest.fixture(scope="module")
def model():
    return linear_gaussian_ar()


@pytest.fixture(scope="module")
def sample(model):
    return simulate_ar(model, THETA0, 2000, RngStream(71, 0))


def numeric_density_model(model: ARModel) -> ARModel:
    return ARModel(
        name="numeric",
        regression=model.regression,
        regression_dtheta=model.regression_dtheta,
        noise_logpdf=model.noise_logpdf,
        noise_logpdf_d1=model.noise_logpdf_d1,
        noise_sampler=model.noise_sampler,
        theta_domain=model.theta_domain,
        noise_support=model.noise_support,
        x_lo=-8.0,
        x_hi=8.0,
    )


class TestSimulate:
    def test_stationary_variance(self, model):
        s = simulate_ar(model, THETA0, 100_000, RngStream(72, 0))
        assert abs(s.values.var() - 1.0 / (1.0 - THETA0**2)) <= 0.05

    def test_independent_case_uncorrelated(self, model):
        s = simulate_ar(model, 0.0, 20_000, RngStream(73, 0))
        lag1 = np.corrcoef(s.values[:-1], s.values[1:])[0, 1]
        assert abs(lag1) <= 3.0 / math.sqrt(s.n)

    def test_lag_one_autocorrelation(self, model):
        s = simulate_ar(model, THETA0, 20_000, RngStream(74, 0))
        lag1 = np.corrcoef(s.values[:-1], s.values[1:])[0, 1]
        assert abs(lag1 - THETA0) <= 3.0 / math.sqrt(s.n)

    @pytest.mark.parametrize("sampler", [True, False], ids=["sampler-start", "density-start"])
    def test_batch_column_matches_single(self, model, sampler):
        if not sampler:
            model = replace(model, stationary_sampler=None)  # starts through the stationary density's CDF
        streams = [RngStream(75, i) for i in range(3)]
        batch = simulate_ar_batch(model, THETA0, 500, streams)
        for j, stream in enumerate(streams):
            single = simulate_ar(model, THETA0, 500, stream)
            assert np.array_equal(single.values, batch[:, j])

    def test_minimum_length(self, model):
        with pytest.raises(ConfigError):
            simulate_ar(model, THETA0, 5, RngStream(76, 0))


class TestStationaryDensity:
    def test_fixed_point_matches_closed_form(self, model):
        dens = stationary_density(numeric_density_model(model), THETA0, n_nodes=1025)
        var = 1.0 / (1.0 - THETA0**2)
        closed = np.exp(-0.5 * dens.x**2 / var) / math.sqrt(2.0 * math.pi * var)
        assert np.max(np.abs(dens.f - closed)) <= 1e-8

    def test_heavy_tails_rejected(self):
        heavy = ARModel(
            name="cauchy",
            regression=lambda theta, x: theta * np.asarray(x, dtype=float),
            regression_dtheta=lambda theta, x: np.asarray(x, dtype=float),
            noise_logpdf=lambda e: -np.log(math.pi * (1.0 + np.asarray(e, dtype=float) ** 2)),
            noise_logpdf_d1=lambda e: -2.0 * np.asarray(e, dtype=float) / (1.0 + np.asarray(e, dtype=float) ** 2),
            noise_sampler=lambda gen, size: gen.standard_cauchy(size),
            theta_domain=ParamInterval(-0.9, 0.9),
            noise_support=(-50.0, 50.0),
            x_lo=-20.0,
            x_hi=20.0,
        )
        with pytest.raises(ModelError):
            stationary_density(heavy, 0.5)


class TestMle:
    def test_close_to_regression_closed_form(self, model, sample):
        theta = mle_ar(model, sample)
        x = sample.values
        closed = np.dot(x[1:], x[:-1]) / np.dot(x[:-1], x[:-1])
        assert abs(theta - closed) <= 2.0 / sample.n

    def test_asymptotic_variance(self, model):
        n = 2000
        streams = [RngStream(77, i) for i in range(1000)]
        paths = simulate_ar_batch(model, THETA0, n, streams)
        estimates = [mle_ar(model, SeriesSample(values=paths[:, j])) for j in range(1000)]
        scaled_var = n * np.var(estimates)
        target = 1.0 - THETA0**2
        assert abs(scaled_var - target) <= 0.15 * target

    def test_noise_free_geometric_input(self, model):
        # Zero residuals pin the conditional fit at the true value exactly.
        # The stationary-start term cannot agree here: a noise-free decay
        # starts at an atypical level, and explaining it drags the full
        # likelihood to the boundary of the interval.
        values = 50.0 * THETA0 ** np.arange(60.0)
        conditional = mle_ar(model, SeriesSample(values=values), start_term=False)
        assert abs(conditional - THETA0) <= 1e-5
        full = mle_ar(model, SeriesSample(values=values))
        assert model.theta_domain.near_boundary(full, 1e-3)


class TestScorePath:
    def test_step_structure(self, model, sample):
        theta_hat = mle_ar(model, sample)
        sp = score_path_ar(model, sample, theta_hat)
        assert sp.step_function
        assert step_value(sp, sample.values.min() - 10.0) == 0.0
        assert sp.values[0] == 0.0
        # Jump locations are exactly the sorted lag values.
        assert np.array_equal(sp.times[1:-1], np.sort(sample.values[:-1]))

    def test_terminal_variance_at_true_parameter(self, model):
        streams = [RngStream(78, i) for i in range(2000)]
        paths = simulate_ar_batch(model, THETA0, 500, streams)
        finals = [score_path_ar(model, SeriesSample(values=paths[:, j]), THETA0).values[-1] for j in range(2000)]
        assert abs(np.var(finals) - 1.0) <= 0.1

    def test_terminal_value_small_at_mle(self, model):
        streams = [RngStream(79, i) for i in range(100)]
        paths = simulate_ar_batch(model, THETA0, 2000, streams)
        finals = []
        for j in range(100):
            s = SeriesSample(values=paths[:, j])
            finals.append(abs(score_path_ar(model, s, mle_ar(model, s)).values[-1]))
        assert np.median(finals) <= 0.05

    def test_time_change_invariants(self, model, sample):
        sp = score_path_ar(model, sample, mle_ar(model, sample))
        assert sp.time_change[-1] == 1.0
        assert np.all(np.diff(sp.time_change) >= 0.0)

    def test_continuity_modulus_stable_in_n(self, model):
        # Squared increments of the fixed-parameter score match the time
        # change gap in expectation, so the fitted modulus stays near one.
        ratios = {}
        levels = np.array([-1.2, -0.6, 0.0, 0.6, 1.2])
        for n in (500, 2000):
            streams = [RngStream(80 + n, i) for i in range(500)]
            paths = simulate_ar_batch(model, THETA0, n, streams)
            values = np.empty((500, levels.size))
            taus = np.empty((500, levels.size))
            for j in range(500):
                sp = score_path_ar(model, SeriesSample(values=paths[:, j]), THETA0)
                for k, x in enumerate(levels):
                    values[j, k] = step_value(sp, x)
                    idx = np.searchsorted(sp.times, x, side="right") - 1
                    taus[j, k] = sp.time_change[max(idx, 0)]
            fitted = []
            tau_bar = taus.mean(axis=0)
            for a in range(levels.size):
                for b in range(a + 1, levels.size):
                    gap = abs(tau_bar[b] - tau_bar[a])
                    if gap > 1e-3:
                        fitted.append(np.mean((values[:, b] - values[:, a]) ** 2) / gap)
            ratios[n] = max(fitted)
        assert 0.7 <= ratios[500] <= 1.4
        assert 0.7 <= ratios[2000] <= 1.4
        assert 0.5 <= ratios[500] / ratios[2000] <= 2.0


class TestInformation:
    def test_noise_information_gaussian(self, model):
        assert noise_information(model) == pytest.approx(1.0, abs=1e-9)

    def test_state_information_linear(self, model):
        assert state_information(model, THETA0) == pytest.approx(1.0 / (1.0 - THETA0**2), rel=1e-6)

    def test_second_derivative_identity(self, model):
        # The expected second derivative of the noise log-density, here the
        # central difference of its first derivative, equals the negative
        # noise information.
        lo, hi = model.noise_support
        grid = np.linspace(lo, hi, 4097)
        f = np.exp(model.noise_logpdf(grid))
        d2 = np.gradient(model.noise_logpdf_d1(grid), grid)
        value = np.trapezoid(d2 * f, grid)
        assert value == pytest.approx(-noise_information(model), abs=1e-9)


class TestDeltaAndRunTest:
    def test_zero_score(self, model, sample):
        sp = score_path_ar(model, sample, mle_ar(model, sample))
        zeroed = type(sp)(
            times=sp.times,
            values=np.zeros_like(sp.values),
            time_change=sp.time_change,
            step_function=True,
        )
        assert delta_stat(zeroed, "cvm") == 0.0

    def test_step_exact_quadrature(self):
        times = np.array([0.0, 1.0, 2.0, 3.0])
        tau = np.array([0.0, 0.25, 0.75, 1.0])
        values = np.array([0.0, 2.0, -1.0, -1.0])
        from sfgof.score import ScorePath

        sp = ScorePath(times, values, tau, step_function=True)
        assert delta_stat(sp, "cvm") == pytest.approx(0.0 * 0.25 + 4.0 * 0.5 + 1.0 * 0.25)
        assert delta_stat(sp, "ks") == 2.0

    def test_run_test_outcome(self, model, sample):
        out = run_test_ar(model, sample, 0.05)
        assert out.reject == (out.statistic > out.critical.value)
        assert out.theta_bar is None
        assert out.approach == "split"

    def test_alternative_wrapper(self, model):
        alt = with_alternative_regression(model, cosine_perturbed_regression())
        s = simulate_ar(alt, THETA0, 1000, RngStream(81, 0))
        out = run_test_ar(model, s, 0.05)
        assert math.isfinite(out.statistic)
