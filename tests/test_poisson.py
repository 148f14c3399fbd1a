import math
import warnings

import numpy as np
import pytest

from sfgof.errors import ConfigError, ModelError
from sfgof.inference_kit import ParamInterval, RngStream, integrate_1d
from sfgof.poisson import (
    _log_likelihood,
    PoissonModel,
    empirical_mean_measure,
    events_from_rows,
    fisher_poisson,
    linear_intensity_model,
    mde_linear_intensity,
    mle_poisson,
    run_test_poisson,
    score_path_poisson,
    simulate_periodic_poisson,
    sin_profile,
    step_bump_intensity,
)
from sfgof.score import delta_stat

from reference import mean_measure

THETA0 = 2.0
NO_EVENTS = np.empty((0, 2))


def period_rows(events):
    """The (period index, time) rows that events_from_rows reads back."""
    return np.column_stack([np.repeat(np.arange(events.n), np.diff(events.offsets)), events.times])


@pytest.fixture(scope="module")
def model():
    return linear_intensity_model(sin_profile(1.0), lam0=1.0, period=1.0, theta_lo=0.5, theta_hi=5.0)


@pytest.fixture(scope="module")
def events(model):
    return simulate_periodic_poisson(model, THETA0, 1000, RngStream(51, 0))


def constant_model(theta_lo=0.5, theta_hi=5.0) -> PoissonModel:
    return PoissonModel(
        name="const",
        intensity=lambda theta, t: theta * np.ones_like(np.asarray(t, dtype=float)),
        intensity_dtheta=lambda theta, t: np.ones_like(np.asarray(t, dtype=float)),
        period=1.0,
        theta_domain=ParamInterval(theta_lo, theta_hi),
    )


class TestSimulate:
    def test_homogeneous_total_count(self):
        ev = simulate_periodic_poisson(constant_model(), 2.0, 1000, RngStream(52, 0))
        total = ev.times.size
        assert abs(total - 2000.0) <= 3.0 * math.sqrt(2000.0)

    def test_period_count_mean(self, model, events):
        lam_total = float(mean_measure(model, THETA0, np.array([1.0]))[0])
        counts = np.diff(events.offsets)
        assert abs(counts.mean() - lam_total) <= 3.0 * math.sqrt(lam_total / events.n)

    def test_event_positions_follow_mean_measure(self, model):
        ev = simulate_periodic_poisson(model, THETA0, 3500, RngStream(53, 0))
        pooled = ev.pooled()
        assert pooled.size >= 10_000
        u = mean_measure(model, THETA0, pooled) / float(mean_measure(model, THETA0, np.array([1.0]))[0])
        ks = np.max(np.abs(np.arange(1, u.size + 1) / u.size - u))
        assert ks <= 0.02

    def test_needs_positive_periods(self, model):
        with pytest.raises(ConfigError):
            simulate_periodic_poisson(model, THETA0, 0, RngStream(54, 0))

    def test_positive_intensity_enforced(self):
        bad = PoissonModel(
            name="signed",
            intensity=lambda theta, t: np.sin(2.0 * np.pi * np.asarray(t, dtype=float)),
            intensity_dtheta=lambda theta, t: np.ones_like(np.asarray(t, dtype=float)),
            period=1.0,
            theta_domain=ParamInterval(0.5, 5.0),
        )
        with pytest.raises(ModelError):
            simulate_periodic_poisson(bad, 1.0, 10, RngStream(55, 0))


class TestMle:
    def test_constant_family_closed_form(self):
        m = constant_model()
        ev = simulate_periodic_poisson(m, 2.0, 500, RngStream(56, 0))
        theta = mle_poisson(m, ev)
        assert abs(theta - ev.times.size / 500.0) <= 1e-6

    def test_asymptotic_variance(self, model):
        info = fisher_poisson(model, THETA0)
        n = 500
        estimates = []
        for i in range(500):
            ev = simulate_periodic_poisson(model, THETA0, n, RngStream(57, i))
            estimates.append(mle_poisson(model, ev))
        scaled_var = n * np.var(estimates)
        assert abs(scaled_var - 1.0 / info) <= 0.2 / info

    def test_more_periods_reduce_error(self, model):
        med = {}
        for n in (200, 400):
            errs = [
                abs(mle_poisson(model, simulate_periodic_poisson(model, THETA0, n, RngStream(58 + n, i))) - THETA0)
                for i in range(120)
            ]
            med[n] = np.median(errs)
        assert med[400] < med[200]

    def test_needs_events(self, model):
        empty = events_from_rows(1.0, 5, NO_EVENTS)
        with pytest.raises(ConfigError):
            mle_poisson(model, empty)

    def test_batched_loglik_matches_scalar(self, model, events):
        loglik = _log_likelihood(model, events)
        thetas = np.linspace(0.5, 5.0, 66)[1:-1]
        batch = loglik(thetas)
        assert batch.shape == thetas.shape
        scalar = np.array([float(loglik(float(t))) for t in thetas])
        assert np.allclose(batch, scalar, rtol=1e-12, atol=0.0)

    def test_scalar_only_plugin_intensity(self):
        # A plugin written for scalar theta: math.exp rejects the grid array,
        # so the optimizer falls back to one call per theta, with a Python float.
        seen = []

        def intensity(theta, t):
            rate = math.exp(theta)
            seen.append(type(theta))
            return rate * (1.0 + 0.5 * np.sin(2.0 * np.pi * np.asarray(t, dtype=float)))

        plugin = PoissonModel(
            name="exp-plugin",
            intensity=intensity,
            intensity_dtheta=intensity,
            period=1.0,
            theta_domain=ParamInterval(-1.0, 2.0),
        )
        ev = simulate_periodic_poisson(plugin, math.log(2.0), 300, RngStream(59, 0))
        seen.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta = mle_poisson(plugin, ev)
        assert set(seen) == {float}
        # The profile integrates to 1 over the period, so exp(theta_hat) is the mean count.
        assert abs(theta - math.log(ev.times.size / 300.0)) <= 1e-6


class TestMde:
    def test_unbiased(self, model):
        estimates = [
            mde_linear_intensity(model, simulate_periodic_poisson(model, THETA0, 200, RngStream(59, i)))
            for i in range(500)
        ]
        stderr = np.std(estimates) / math.sqrt(len(estimates))
        assert abs(np.mean(estimates) - THETA0) <= 2.0 * stderr

    def test_deterministic_mean_path_recovers_parameter(self, model):
        # Feeding the exact mean path theta0 * H(t) + lam0 * t makes the
        # projection an identity in theta0.
        tg = np.linspace(0.0, 1.0, 4097)
        from sfgof.inference_kit import cumulative_simpson

        profile_cum = cumulative_simpson(model.profile(tg), tg[1] - tg[0])
        mean_path = THETA0 * profile_cum + model.lam0 * tg
        ev = events_from_rows(1.0, 2, np.array([[0, 0.5], [1, 0.25]]))
        theta = mde_linear_intensity(model, ev, N=1, mean_path=mean_path)
        assert theta == pytest.approx(THETA0, abs=1e-10)

    def test_flat_profile_reduces_to_moment_formula(self):
        flat = linear_intensity_model(lambda t: np.ones_like(np.asarray(t, dtype=float)), 0.0, 1.0, 0.5, 5.0)
        ev = simulate_periodic_poisson(flat, 2.0, 100, RngStream(60, 0))
        n_head = 10
        theta = mde_linear_intensity(flat, ev, N=n_head)
        tg = np.linspace(0.0, 1.0, 4097)
        lam_hat = empirical_mean_measure(ev, n_head, tg)
        direct = 3.0 * integrate_1d(lambda t: np.interp(t, tg, lam_hat) * t, 0.0, 1.0, n_panels=2048)
        assert abs(theta - direct) <= 1e-8

    def test_requires_linear_family(self):
        with pytest.raises(ConfigError):
            mde_linear_intensity(constant_model(), events_from_rows(1.0, 1, np.array([[0, 0.5]])))

    def test_head_bounds(self, model, events):
        with pytest.raises(ConfigError):
            mde_linear_intensity(model, events, N=0)
        with pytest.raises(ConfigError):
            mde_linear_intensity(model, events, N=events.n + 1)


class TestScorePath:
    def test_no_events_gives_minus_compensator(self, model):
        n, head = 8, 2
        ev = events_from_rows(1.0, n, NO_EVENTS)
        sp = score_path_poisson(model, ev, THETA0, THETA0, N=head)
        info = fisher_poisson(model, THETA0)
        scale = 1.0 / math.sqrt(info * n)
        ramp = (n - head) * integrate_1d(
            lambda t: model.intensity_dtheta(THETA0, t), 0.0, 1.0, n_panels=512
        )
        assert np.all(sp.values <= 0.0)
        assert sp.values[-1] == pytest.approx(-scale * ramp, rel=1e-6)

    def test_terminal_variance_at_true_parameter(self, model):
        n = 500
        finals = []
        for i in range(2000):
            ev = simulate_periodic_poisson(model, THETA0, n, RngStream(61, i))
            sp = score_path_poisson(model, ev, THETA0, THETA0)
            finals.append(sp.values[-1])
        assert abs(np.var(finals) - 1.0) <= 0.1

    def test_time_change_invariants(self, model, events):
        sp = score_path_poisson(model, events, THETA0, THETA0)
        assert sp.time_change[-1] == 1.0
        assert np.all(np.diff(sp.time_change) >= 0.0)

    def test_head_periods_do_not_enter(self, model):
        ev = simulate_periodic_poisson(model, THETA0, 60, RngStream(62, 0))
        head = 7
        rows = period_rows(ev)
        scrubbed = events_from_rows(ev.period, ev.n, rows[rows[:, 0] >= head])
        assert scrubbed.times.size < ev.times.size
        sp_full = score_path_poisson(model, ev, 1.9, 2.1, N=head)
        sp_scrubbed = score_path_poisson(model, scrubbed, 1.9, 2.1, N=head)
        assert np.array_equal(sp_full.values, sp_scrubbed.values)
        assert np.array_equal(sp_full.time_change, sp_scrubbed.time_change)

    def test_information_positivity_guard(self):
        degenerate = PoissonModel(
            name="flat-sens",
            intensity=lambda theta, t: 2.0 * np.ones_like(np.asarray(t, dtype=float)),
            intensity_dtheta=lambda theta, t: np.zeros_like(np.asarray(t, dtype=float)),
            period=1.0,
            theta_domain=ParamInterval(0.5, 5.0),
        )
        ev = events_from_rows(1.0, 2, np.array([[0, 0.1], [1, 0.2]]))
        with pytest.raises(ModelError):
            score_path_poisson(degenerate, ev, 2.0, 2.0, N=1)


class TestDeltaAndRunTest:
    def test_zero_score_zero_statistic(self, model):
        n = 4
        ev = events_from_rows(1.0, n, NO_EVENTS)
        sp = score_path_poisson(model, ev, THETA0, THETA0, N=1)
        zeroed = type(sp)(times=sp.times, values=np.zeros_like(sp.values), time_change=sp.time_change)
        assert delta_stat(zeroed, "cvm") == 0.0

    def test_run_test_outcome(self, model, events):
        out = run_test_poisson(model, events, 0.05)
        assert out.reject == (out.statistic > out.critical.value)
        assert out.theta_bar is not None

    def test_generic_family_uses_head_likelihood(self):
        m = constant_model()
        ev = simulate_periodic_poisson(m, 2.0, 100, RngStream(63, 0))
        out = run_test_poisson(m, ev, 0.05)
        assert math.isfinite(out.statistic)

    def test_alternative_intensity(self, model):
        lam_alt = step_bump_intensity(model, THETA0, bump=0.5)
        ev = simulate_periodic_poisson(model, THETA0, 300, RngStream(64, 0), intensity_fn=lam_alt)
        out = run_test_poisson(model, ev, 0.05)
        assert math.isfinite(out.statistic)


class TestEventsIO:
    def test_roundtrip(self):
        rows = np.array([[0, 0.25], [0, 0.75], [2, 0.5]])
        ev = events_from_rows(1.0, 3, rows)
        assert np.array_equal(ev.offsets, [0, 2, 2, 3])
        assert np.array_equal(ev.times, [0.25, 0.75, 0.5])

    def test_simulated_rows_read_back(self, model):
        ev = simulate_periodic_poisson(model, THETA0, 40, RngStream(65, 0))
        back = events_from_rows(ev.period, ev.n, period_rows(ev)[::-1])
        assert np.array_equal(back.times, ev.times)
        assert np.array_equal(back.offsets, ev.offsets)

    def test_validation(self):
        with pytest.raises(ConfigError):
            events_from_rows(1.0, 2, np.array([[0, 1.5]]))
        with pytest.raises(ConfigError):
            events_from_rows(1.0, 2, np.array([[5, 0.5]]))
        with pytest.raises(ConfigError):
            events_from_rows(1.0, 2, np.array([0.5, 0.25]))
        for bad_index in (0.7, -0.5):
            with pytest.raises(ConfigError, match="whole numbers"):
                events_from_rows(1.0, 2, np.array([[bad_index, 0.5]]))
        with pytest.raises(ConfigError, match="finite"):
            events_from_rows(1.0, 2, np.array([[0, np.nan]]))
