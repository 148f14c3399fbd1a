import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfgof.errors import ConfigError, DomainError
from sfgof.inference_kit import RngStream
from sfgof.limit_laws import (
    _bridge_values_batch,
    _cdf_and_density,
    bridge_cvm_samples,
    critical_value_cvm,
    critical_value_ks,
    default_critical_value,
    oracle_statistics,
)
from sfgof.score import ScorePath, delta_stat

from reference import bridge_sup_samples, simulate_bridge

# Frozen oracle quantiles of sup |B| from a 10^6-path Monte Carlo with
# conditionally exact segment extrema (see test_acceptance for the live run).
SUP_Q95 = 1.3581
SUP_Q50 = 0.8276

# Upper percentage points of the integral of B^2 (Anderson & Darling, 1952).
CVM_TABLE = {0.01: 0.74346, 0.05: 0.46136, 0.10: 0.34730}


@pytest.fixture(scope="module")
def bridge_batch():
    return _bridge_values_batch(1000, 20_000, RngStream(11, 1).generator())


class TestSimulateBridge:
    def test_endpoints_exactly_zero(self):
        for stream_id in range(5):
            path = simulate_bridge(500, RngStream(3, stream_id))
            assert path.values[0] == 0.0
            assert path.values[-1] == 0.0

    def test_grid_shape(self):
        path = simulate_bridge(100, RngStream(3, 0))
        assert path.times.size == 101
        assert path.times[0] == 0.0 and path.times[-1] == 1.0
        with pytest.raises(ConfigError):
            simulate_bridge(1, RngStream(3, 0))

    def test_midpoint_variance(self, bridge_batch):
        var = bridge_batch[:, 500].var()
        assert abs(var - 0.25) < 0.01

    def test_quarter_covariance(self, bridge_batch):
        cov = np.mean(bridge_batch[:, 250] * bridge_batch[:, 750])
        assert abs(cov - 0.0625) < 0.01

    def test_covariance_grid_within_three_stderr(self, bridge_batch):
        points = np.array([100, 300, 500, 700, 900])
        taus = points / 1000.0
        draws = bridge_batch[:, points]
        n = draws.shape[0]
        for i, s in enumerate(taus):
            for j, t in enumerate(taus):
                prod = draws[:, i] * draws[:, j]
                target = min(s, t) - s * t
                stderr = prod.std() / np.sqrt(n)
                assert abs(prod.mean() - target) <= 3.0 * stderr


class TestBridgeFunctional:
    """A bridge path is a score path in its own time, and its functionals are delta_stat."""

    def test_zero_path(self):
        taus = np.linspace(0.0, 1.0, 11)
        path = ScorePath(taus, np.zeros(11), taus)
        assert delta_stat(path, "cvm") == 0.0
        assert delta_stat(path, "ks") == 0.0

    def test_parabola_path(self):
        taus = np.linspace(0.0, 1.0, 1001)
        path = ScorePath(taus, taus * (1.0 - taus), taus)
        assert delta_stat(path, "cvm") == pytest.approx(1.0 / 30.0, abs=1e-6)
        assert delta_stat(path, "ks") == pytest.approx(0.25, abs=1e-12)

    def test_mean_quadratic_functional(self, bridge_batch):
        m = bridge_batch.shape[1] - 1
        values = np.sum(bridge_batch[:, 1:-1] ** 2, axis=1) / m
        assert abs(values.mean() - 1.0 / 6.0) < 0.005

    def test_unknown_kind(self):
        taus = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ConfigError):
            delta_stat(ScorePath(taus, np.zeros(11), taus), "sup2")

    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_quadratic_below_squared_sup(self, seed):
        path = simulate_bridge(256, RngStream(seed, 0))
        cvm = delta_stat(path, "cvm")
        ks = delta_stat(path, "ks")
        assert cvm <= ks * ks + 1e-12


class TestCriticalValues:
    def test_alpha_domain(self):
        for alpha in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                critical_value_cvm(alpha, method="series")
            with pytest.raises(DomainError):
                critical_value_ks(alpha)

    def test_quadratic_value_near_half(self):
        crit = critical_value_cvm(0.05, method="series", rng=RngStream(5, 0), n_paths=200_000)
        assert abs(crit.value - 0.461) < 0.01

    def test_series_and_mc_agree(self):
        mc = critical_value_cvm(0.05, method="monte-carlo", rng=RngStream(6, 0), n_paths=100_000)
        series = critical_value_cvm(0.05, method="series", rng=RngStream(6, 1), n_paths=100_000)
        assert abs(mc.value - series.value) <= 2.0 * (mc.mc_error + series.mc_error)

    def test_quadratic_value_decreasing_in_alpha(self):
        values = [
            critical_value_cvm(a, method="series", rng=RngStream(7, 0), n_paths=100_000).value
            for a in (0.01, 0.05, 0.1, 0.5)
        ]
        assert all(x > y for x, y in zip(values, values[1:]))
        exact = [default_critical_value(a, "cvm").value for a in (0.001, 0.01, 0.05, 0.1, 0.5, 0.999)]
        assert all(x > y for x, y in zip(exact, exact[1:]))

    def test_exact_quadratic_cdf_inverts_characteristic_function(self):
        # Gil-Pelaez: F(x) = 1/2 - (1/pi) int_0^inf Im(exp(-itx) phi(t)) / t dt with
        # phi(t) = (s / sin s)^(1/2), s = sqrt(2it); the log branch follows t continuously.
        x = np.array([0.03, 0.1, 0.2, 0.46136, 0.74346, 1.5])
        h = 0.02
        t = h * np.arange(1, 200_001)
        s = np.sqrt(2j * t)
        log_sin = np.log(np.sin(s))
        phi = np.exp(0.5 * (np.log(s) - log_sin.real - 1j * np.unwrap(log_sin.imag)))
        integrand = np.imag(np.exp(-1j * np.multiply.outer(x, t)) * phi) / t
        integral = h * (0.5 * (1.0 / 6.0 - x) + integrand[:, :-1].sum(axis=1) + 0.5 * integrand[:, -1])
        assert np.max(np.abs(_cdf_and_density(x, "cvm")[0] - (0.5 - integral / np.pi))) <= 1e-9

    def test_sup_critical_values_match_frozen_oracle(self):
        assert critical_value_ks(0.05).value == pytest.approx(SUP_Q95, abs=0.002)
        assert critical_value_ks(0.5).value == pytest.approx(SUP_Q50, abs=0.003)

    def test_sup_value_monotone(self):
        assert critical_value_ks(0.01).value > critical_value_ks(0.10).value

    def test_alpha_near_one_gives_small_value(self):
        assert critical_value_ks(0.999).value < 0.4
        crit = critical_value_cvm(0.999, method="series", rng=RngStream(8, 0), n_paths=100_000)
        assert crit.value < 0.05

    def test_survival_series_shape(self):
        survival = 1.0 - _cdf_and_density(np.array([0.1, 3.0]), "ks")[0]
        assert survival[0] == pytest.approx(1.0, abs=1e-6)
        assert survival[1] < 1e-6

    def test_alpha_beyond_table_range(self):
        # A root outside the exact-law table would come back as the table's end.
        for kind in ("cvm", "ks"):
            with pytest.raises(DomainError):
                default_critical_value(1e-13, kind)
        with pytest.raises(ConfigError):
            default_critical_value(0.05, "sup2")

    def test_mc_floor_contracts(self):
        with pytest.raises(ConfigError):
            critical_value_cvm(0.05, method="monte-carlo", rng=RngStream(5, 0), n_paths=50_000)
        with pytest.raises(ConfigError):
            critical_value_cvm(0.05, method="monte-carlo", rng=RngStream(5, 0), m=500)

    def test_default_critical_value_cached_and_deterministic(self):
        a = default_critical_value(0.05, "cvm")
        b = default_critical_value(0.05, "cvm")
        assert a is b
        assert default_critical_value(0.05, "ks") is critical_value_ks(0.05)
        assert (critical_value_ks(0.05).method, critical_value_ks(0.05).mc_error) == ("exact", 0.0)
        for alpha, value in CVM_TABLE.items():
            crit = default_critical_value(alpha, "cvm")
            assert (crit.method, crit.mc_error) == ("exact", 0.0)
            assert crit.value == pytest.approx(value, abs=5e-6)


class TestSupSampler:
    def test_refined_sampler_matches_series_quantile(self):
        sups = bridge_sup_samples(40_000, 256, RngStream(9, 0))
        q95 = np.quantile(sups, 0.95)
        assert abs(q95 - SUP_Q95) < 0.01

    def test_plain_sampler_biased_low(self):
        refined = bridge_sup_samples(20_000, 256, RngStream(10, 0))
        plain = bridge_sup_samples(20_000, 256, RngStream(10, 0), exact_extrema=False)
        assert plain.mean() < refined.mean()

    def test_oracle_statistics_cached(self):
        a = oracle_statistics("cvm", n_paths=100_000)
        b = oracle_statistics("cvm", n_paths=100_000)
        assert a is b
        assert a.size == 100_000
        assert abs(a.mean() - 1.0 / 6.0) <= 1e-4
        assert abs(oracle_statistics("ks").mean() - np.sqrt(np.pi / 2.0) * np.log(2.0)) <= 1e-4
        # The oracle is the grid of exact quantiles Q((i - 1/2) / n), sorted.
        for kind, n in (("cvm", 100_000), ("ks", 100_000), ("ks", 777)):
            q = oracle_statistics(kind, n_paths=n)
            assert q.size == n
            assert np.all(np.diff(q) > 0.0)
            levels = (np.arange(1, n + 1) - 0.5) / n
            assert np.max(np.abs(_cdf_and_density(q, kind)[0] - levels)) <= 1e-7
            assert not q.flags.writeable
        with pytest.raises(ConfigError):
            oracle_statistics("sup2")


class TestCvmSamples:
    def test_chunking_invariant(self):
        a = bridge_cvm_samples(5_000, 200, RngStream(12, 0), chunk=5_000)
        b = bridge_cvm_samples(5_000, 200, RngStream(12, 0), chunk=512)
        assert np.array_equal(a, b)
