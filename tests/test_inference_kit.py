import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfgof.errors import ConfigError, NumericalError
from sfgof.inference_kit import (
    ParamInterval,
    RngStream,
    TimeGrid,
    cumulative_simpson,
    cumulative_trapezoid,
    integrate_1d,
    maximize_1d,
    ode_solve,
    simpson_array,
    two_sample_ks,
)

UNIT = ParamInterval(0.0, 1.0)


def minimize_1d(objective, interval: ParamInterval, tol: float = 1e-8, grid_points: int = 64) -> float:
    """Minimize by maximizing the negated objective."""
    return maximize_1d(lambda t: -objective(t), interval, tol=tol, grid_points=grid_points)


def counted(objective):
    """The objective plus a list whose length is the number of calls made to it."""
    calls = []

    def wrapper(theta):
        calls.append(np.ndim(theta))
        return objective(theta)

    return wrapper, calls


class TestParamInterval:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ParamInterval(1.0, 0.5)
        with pytest.raises(ConfigError):
            ParamInterval(0.0, math.inf)

    def test_membership_and_clip(self):
        dom = ParamInterval(-1.0, 2.0)
        assert dom.contains(0.0) and not dom.contains(-1.0)
        assert dom.clip(5.0) == 2.0
        assert dom.near_boundary(-0.9999, 1e-3)


class TestTimeGrid:
    def test_points_uniform(self):
        grid = TimeGrid(0.0, 1.0, 10)
        pts = grid.points()
        assert pts.size == 11
        assert np.allclose(np.diff(pts), grid.h)
        assert pts[0] == 0.0 and pts[-1] == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            TimeGrid(1.0, 0.0, 10)
        with pytest.raises(ConfigError):
            TimeGrid(0.0, 1.0, 1)


class TestMaximize1d:
    def test_quadratic_peak(self):
        theta = maximize_1d(lambda t: -((t - 0.3) ** 2), UNIT, tol=1e-8)
        assert abs(theta - 0.3) < 1e-6

    def test_flat_objective_returns_lowest_grid_point(self):
        theta = maximize_1d(lambda t: 7.5, UNIT, tol=1e-8)
        lowest = np.linspace(0.0, 1.0, 66)[1]
        assert theta == pytest.approx(lowest, abs=1e-12)

    def test_multimodal_lowest_global_argmax(self):
        # Brute-force oracle: argmax over 1e6 grid points of sin(10 t) on (0, 2)
        # lands on the first of three equal peaks, pi/20.
        theta = maximize_1d(lambda t: math.sin(10.0 * t), ParamInterval(0.0, 2.0), tol=1e-8)
        assert abs(theta - math.pi / 20.0) < 1e-5

    def test_non_finite_objective(self):
        with pytest.raises(NumericalError):
            maximize_1d(lambda t: math.nan, UNIT)
        with pytest.raises(NumericalError):
            maximize_1d(lambda t: math.inf if t > 0.5 else 0.0, UNIT)

    def test_non_finite_broadcast_objective_names_theta(self):
        # Broadcasts over theta, so the whole grid is one call; the first
        # grid point above 0.5 is 33/65.
        with pytest.raises(NumericalError, match=r"theta=0\.5076923"):
            maximize_1d(lambda t: np.where(t > 0.5, np.nan, -t), UNIT)

    @pytest.mark.parametrize("peak", [0.3, 0.123456, 0.9876])
    def test_call_counts_on_a_quadratic(self, peak):
        # Scalar only: one rejected array call, 64 grid calls, then Brent.
        scalar, scalar_calls = counted(lambda t: -math.pow(t - peak, 2))
        assert abs(maximize_1d(scalar, UNIT, tol=1e-8) - peak) < 1e-8
        assert len(scalar_calls) <= 64 + 12
        # Broadcasting: the grid is one call on the theta array.
        vector, vector_calls = counted(lambda t: -((t - peak) ** 2))
        assert abs(maximize_1d(vector, UNIT, tol=1e-8) - peak) < 1e-8
        assert len(vector_calls) <= 1 + 12
        assert vector_calls[0] == 1 and set(vector_calls[1:]) == {0}

    def test_bad_tol(self):
        with pytest.raises(ConfigError):
            maximize_1d(lambda t: t, UNIT, tol=0.0)

    @given(
        peak=st.floats(0.05, 0.95),
        scale=st.floats(0.1, 50.0),
        shift=st.floats(-10.0, 10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_rescaling_invariance(self, peak, scale, shift):
        base = maximize_1d(lambda t: -((t - peak) ** 2), UNIT, tol=1e-9)
        scaled = maximize_1d(lambda t: scale * -((t - peak) ** 2) + shift, UNIT, tol=1e-9)
        assert abs(base - scaled) < 1e-6

    def test_minimize_wrapper(self):
        theta = minimize_1d(lambda t: (t - 0.7) ** 2, UNIT, tol=1e-8)
        assert abs(theta - 0.7) < 1e-6


class TestIntegrate1d:
    def test_constant(self):
        assert integrate_1d(lambda x: 1.0, 0.0, 1.0, n_panels=10) == pytest.approx(1.0, abs=1e-15)

    def test_polynomial_exactness(self):
        assert integrate_1d(lambda x: x**2, 0.0, 1.0, n_panels=50) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_exponential(self):
        value = integrate_1d(lambda t: math.exp(2.0 * 0.5 * t), 0.0, 1.0, n_panels=200)
        assert value == pytest.approx(math.e - 1.0, abs=1e-8)

    def test_vectorized_callables_accepted(self):
        value = integrate_1d(lambda x: np.sin(x), 0.0, math.pi, n_panels=100)
        assert value == pytest.approx(2.0, abs=1e-8)

    def test_non_finite_integrand(self):
        with np.errstate(divide="ignore"), pytest.raises(NumericalError):
            integrate_1d(lambda x: 1.0 / x, 0.0, 1.0, n_panels=10)

    def test_bad_bounds(self):
        with pytest.raises(ConfigError):
            integrate_1d(lambda x: x, 1.0, 0.0)
        with pytest.raises(ConfigError):
            integrate_1d(lambda x: x, 0.0, 1.0, n_panels=1)

    @given(
        a0=st.floats(-2.0, 2.0),
        a1=st.floats(-2.0, 2.0),
        b0=st.floats(-2.0, 2.0),
        b1=st.floats(-2.0, 2.0),
        c1=st.floats(-3.0, 3.0),
        c2=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, a0, a1, b0, b1, c1, c2):
        f = lambda x: a0 + a1 * x
        g = lambda x: b0 + b1 * x * x
        combo = integrate_1d(lambda x: c1 * f(x) + c2 * g(x), 0.0, 1.0, n_panels=16)
        parts = c1 * integrate_1d(f, 0.0, 1.0, n_panels=16) + c2 * integrate_1d(g, 0.0, 1.0, n_panels=16)
        assert combo == pytest.approx(parts, abs=1e-12, rel=1e-12)


class TestCumulativeRules:
    def test_simpson_array_matches_integrate(self):
        xs = np.linspace(0.0, 2.0, 201)
        direct = simpson_array(np.exp(xs), xs[1] - xs[0])
        assert direct == pytest.approx(math.e**2 - 1.0, abs=1e-9)

    def test_cumulative_simpson_quadratic_exact(self):
        xs = np.linspace(0.0, 1.0, 11)
        cum = cumulative_simpson(xs**2, xs[1] - xs[0])
        assert np.allclose(cum, xs**3 / 3.0, atol=1e-14)

    def test_cumulative_trapezoid_monotone_for_nonnegative(self):
        values = np.abs(np.sin(np.linspace(0.0, 7.0, 300)))
        cum = cumulative_trapezoid(values, 0.01)
        assert cum[0] == 0.0
        assert np.all(np.diff(cum) >= 0.0)


class TestOdeSolve:
    def test_constant_rhs_zero(self):
        grid = TimeGrid(0.0, 1.0, 50)
        path = ode_solve(lambda t, x: 0.0, 1.0, grid)
        assert np.all(path == 1.0)

    def test_exponential_growth(self):
        grid = TimeGrid(0.0, 1.0, 10_000)
        path = ode_solve(lambda t, x: 0.5 * x, 1.0, grid)
        assert path[-1] == pytest.approx(math.exp(0.5), abs=1e-9)

    def test_pure_time_integral_matches_quadrature(self):
        grid = TimeGrid(0.0, 1.0, 2_000)
        path = ode_solve(lambda t, x: math.cos(3.0 * t), 0.0, grid)
        oracle = integrate_1d(lambda t: math.cos(3.0 * t), 0.0, 1.0, n_panels=1000)
        assert path[-1] == pytest.approx(oracle, abs=1e-8)

    def test_fourth_order_convergence(self):
        exact = math.exp(0.5)
        errors = []
        for steps in (100, 200):
            grid = TimeGrid(0.0, 1.0, steps)
            errors.append(abs(ode_solve(lambda t, x: 0.5 * x, 1.0, grid)[-1] - exact))
        assert errors[0] / errors[1] >= 12.0

    def test_blow_up_reported(self):
        grid = TimeGrid(0.0, 5.0, 200)
        with pytest.raises(NumericalError):
            ode_solve(lambda t, x: x * x, 2.0, grid)

    def test_vector_state_columns_equal_scalar_solves(self):
        grid = TimeGrid(0.0, 1.0, 300)
        rates = np.array([0.3, -1.0, 2.0])
        path = ode_solve(lambda t, x: rates * x + math.cos(3.0 * t), np.ones(3), grid)
        assert path.shape == (grid.num_steps + 1, 3)
        for k, rate in enumerate(rates):
            assert np.array_equal(path[:, k], ode_solve(lambda t, x: rate * x + math.cos(3.0 * t), 1.0, grid))

    def test_vector_state_blow_up_reported(self):
        # Only the second component diverges; the whole solve stops there.
        grid = TimeGrid(0.0, 5.0, 200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=r"ODE state became non-finite at t="):
                ode_solve(lambda t, x: np.array([0.0, 1.0]) * x * x, np.array([2.0, 2.0]), grid)


class TestRngStream:
    def test_bit_identical_reproduction(self):
        a = RngStream(777, 3).generator().standard_normal(64)
        b = RngStream(777, 3).generator().standard_normal(64)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(777, 3).generator().standard_normal(64)
        b = RngStream(777, 4).generator().standard_normal(64)
        c = RngStream(778, 3).generator().standard_normal(64)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestTwoSampleKs:
    def test_identical_samples(self):
        x = np.arange(10.0)
        assert two_sample_ks(x, x) == 0.0

    def test_disjoint_samples(self):
        assert two_sample_ks(np.zeros(5), np.ones(5)) == 1.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_bounded(self, seed):
        gen = np.random.default_rng(seed)
        d = two_sample_ks(gen.normal(size=50), gen.normal(size=70))
        assert 0.0 <= d <= 1.0
