"""Goodness-of-fit pipeline for dynamical systems observed with small noise.

The observed path solves dX = S(theta, t, X) dt + eps * sigma(t, X) dW on
[0, T].  The test estimates theta, accumulates the normalized score along
the path, applies the empirical time change, and compares the quadratic or
sup functional against the Brownian-bridge critical value.  Two score
constructions are provided: a split construction that estimates theta on a
vanishing initial window so the stochastic integrand stays adapted, and an
antiderivative construction that removes the stochastic integral entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConfigError, ModelError, NumericalError
from .inference_kit import (
    ParamInterval,
    RngStream,
    TimeGrid,
    cumulative_simpson,
    cumulative_trapezoid,
    diffusion_loglik,
    maximize_1d,
    ode_solve,
    simpson_array,
)
from .score import ScorePath, TestOutcome, decide, time_change

DEFAULT_NUM_STEPS = 10_000
_THETA_TABLE_NODES = 129
_X_GRID_NODES = 2049
_MDE_MAX_CELLS = 64


@dataclass(frozen=True, eq=False)
class SmallNoiseModel:
    """Drift family S(theta, t, x) with known diffusion coefficient.

    Callables must broadcast over numpy arrays in x (and t).  The drift may
    also be called with a theta array shaped like x, when drift_flow solves
    the flows of many theta at once; a drift that cannot take one is solved
    theta by theta.  The optional weight_factors = (a, b) declares that the
    score weight separates, dS/dtheta(theta, t, x) / sigma(t, x)^2 =
    a(t) * b(theta, x), with a broadcasting over t and b over x; declaring it
    makes the model eligible for the antiderivative score construction.
    """

    name: str
    drift: Callable
    drift_dtheta: Callable
    diffusion: Callable
    x0: float
    horizon: float
    theta_domain: ParamInterval
    weight_factors: tuple[Callable, Callable] | None = None


@dataclass(frozen=True)
class Trajectory:
    """A sample path on a uniform grid, with its noise level."""

    grid: TimeGrid
    values: np.ndarray
    epsilon: float

    def __post_init__(self):
        if self.values.size != self.grid.num_steps + 1:
            raise ConfigError("trajectory length must match its grid")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError(f"epsilon must lie in [0, 1], got {self.epsilon}")


def simulate_sde_batch(
    model: SmallNoiseModel,
    theta0: float,
    epsilon: float,
    grid: TimeGrid,
    streams: list[RngStream],
) -> np.ndarray:
    """Euler paths for one stream per column; shape (num_steps + 1, len(streams)).

    Columns are advanced elementwise, so each column is bit-identical to a
    single-stream simulation with the same stream.  Non-finite columns are
    returned as-is for the caller to exclude.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigError(f"epsilon must lie in [0, 1], got {epsilon}")
    n = grid.num_steps
    h = grid.h
    ts = grid.points()
    ncol = len(streams)
    dw = np.empty((n, ncol))
    for j, stream in enumerate(streams):
        dw[:, j] = stream.generator().standard_normal(n)
    dw *= math.sqrt(h)
    out = np.empty((n + 1, ncol))
    x = np.full(ncol, float(model.x0))
    out[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            t = ts[i]
            x = x + h * model.drift(theta0, t, x) + epsilon * model.diffusion(t, x) * dw[i]
            out[i + 1] = x
    return out


def trajectory_at(paths: np.ndarray, grid: TimeGrid, epsilon: float, j: int) -> Trajectory:
    """Column j of `simulate_sde_batch` paths; NumericalError if it is not finite."""
    values = paths[:, j]
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise NumericalError(f"simulated state became non-finite at t={grid.points()[bad]!r}")
    return Trajectory(grid, values, epsilon)


def drift_flow(model: SmallNoiseModel, theta: float | np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Deterministic solution x_t(theta) of the noise-free drift equation.

    For a 1-D array of theta the flows are solved together in one RK4 loop,
    with the drift called on the theta array, and come back as one row per
    theta.  Each row equals the scalar solve bit for bit.  A drift that
    rejects a theta array, or answers it with the wrong shape, is solved
    theta by theta instead.
    """
    if np.ndim(theta) == 0:
        return ode_solve(lambda t, x: float(model.drift(theta, t, x)), model.x0, grid)
    thetas = np.asarray(theta, dtype=float)

    def rhs(t, x):
        dx = np.asarray(model.drift(thetas, t, x), dtype=float)
        if dx.shape != thetas.shape:
            raise ValueError(f"drift returned shape {dx.shape} for {thetas.size} theta values")
        return dx

    try:
        flows = ode_solve(rhs, np.full(thetas.shape, float(model.x0)), grid)
    except (TypeError, ValueError):
        return np.array([drift_flow(model, th, grid) for th in thetas])
    return np.ascontiguousarray(flows.T)


def _flow_information(model: SmallNoiseModel, theta: float, grid: TimeGrid, xs: np.ndarray) -> float:
    """Simpson integral of (dS/dtheta / sigma)^2 along the flow xs of theta on grid."""
    ts = grid.points()
    w = (np.asarray(model.drift_dtheta(theta, ts, xs), dtype=float) / np.asarray(model.diffusion(ts, xs), dtype=float)) ** 2
    info = simpson_array(w, grid.h)
    if not np.isfinite(info) or info <= 0.0:
        raise ModelError(f"information integral must be positive, got {info!r} at theta={theta}")
    return info


def fisher_small_noise(model: SmallNoiseModel, theta: float, num_steps: int = 1024) -> float:
    """Information integral of the drift sensitivity along the noise-free flow."""
    grid = TimeGrid(0.0, model.horizon, num_steps)
    return _flow_information(model, theta, grid, drift_flow(model, theta, grid))


# Per-model interpolation tables for quantities that are smooth in theta.
# They avoid re-solving the drift ODE inside every Monte Carlo replicate;
# agreement with the exact operations is covered by tests.  Each table is
# built once per model (window tables once per model, k_win and h) and kept
# in a bounded LRU cache of _TABLE_CACHE_SIZE entries, which holds its
# models alive until they are evicted.  Each table solves the flows of all
# its theta nodes in one drift_flow call.
_TABLE_CACHE_SIZE = 8


def _table_nodes(model: SmallNoiseModel) -> np.ndarray:
    """Theta nodes of both tables: an even grid on the parameter interval.

    It holds _THETA_TABLE_NODES interior points and both ends, so that
    interpolation never clamps inside the interval and the minimum-distance
    objective keeps its slope up to either end.
    """
    dom = model.theta_domain
    return np.linspace(dom.lower, dom.upper, _THETA_TABLE_NODES + 2)


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _fisher_table(model: SmallNoiseModel) -> tuple[np.ndarray, np.ndarray]:
    """Theta nodes and the information integral at each, on a 512-step grid."""
    thetas = _table_nodes(model)
    grid = TimeGrid(0.0, model.horizon, 512)
    flows = drift_flow(model, thetas, grid)
    return thetas, np.array([_flow_information(model, th, grid, xs) for th, xs in zip(thetas, flows)])


def _fisher_cached(model: SmallNoiseModel, theta: float) -> float:
    thetas, values = _fisher_table(model)
    return float(np.interp(theta, thetas, values))


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _window_table(model: SmallNoiseModel, k_win: int, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Noise-free window flows x_t(theta) tabulated on a dense theta grid."""
    stride = max(1, k_win // _MDE_MAX_CELLS)
    idx = np.arange(0, k_win + 1, stride)
    if idx[-1] != k_win:
        idx = np.append(idx, k_win)
    thetas = _table_nodes(model)
    flows = drift_flow(model, thetas, TimeGrid(0.0, k_win * h, k_win))[:, idx]
    return thetas, idx, flows


def _log_likelihood(model: SmallNoiseModel, traj: Trajectory) -> Callable[[float], float]:
    tl = traj.grid.points()[:-1]
    xl = traj.values[:-1]
    eps2 = max(traj.epsilon, 1e-300) ** 2
    inv_sig2 = 1.0 / (eps2 * np.asarray(model.diffusion(tl, xl), dtype=float) ** 2)
    return diffusion_loglik(lambda theta: model.drift(theta, tl, xl), np.diff(traj.values), inv_sig2, traj.grid.h)


def mle_small_noise(model: SmallNoiseModel, traj: Trajectory, tol: float = 1e-6) -> float:
    """Maximizer of the discretized log-likelihood over the parameter interval."""
    return maximize_1d(_log_likelihood(model, traj), model.theta_domain, tol=tol)


def default_mde_window(traj: Trajectory) -> float:
    """Initial-window length for the preliminary estimator.

    The eps^2 * ln(1/eps) rate is clamped from below to 50 grid steps and
    to 5% of the horizon: at realistic noise levels the asymptotic window
    holds too few observations to pin the preliminary estimate down, and a
    noisy preliminary estimate contaminates the statistic's scale.
    """
    eps = traj.epsilon
    h = traj.grid.h
    span = traj.grid.end - traj.grid.start
    base = eps * eps * math.log(1.0 / eps) if eps > 0.0 else 0.0
    return float(min(span, max(base, 50.0 * h, 0.05 * span)))


def mde_preliminary(
    model: SmallNoiseModel,
    traj: Trajectory,
    nu_epsilon: float | None = None,
    tol: float = 1e-5,
) -> float:
    """Minimum-distance estimate from the first observations on [0, nu].

    Minimizes the discretized L2 distance between the observed window and
    the noise-free flow x_t(theta); flows are interpolated from a dense
    theta table of window ODE solutions.
    """
    return maximize_1d(_mde_neg_distance(model, traj, nu_epsilon), model.theta_domain, tol=tol)


def _mde_neg_distance(model: SmallNoiseModel, traj: Trajectory, nu_epsilon: float | None) -> Callable:
    """Minus the window distance that mde_preliminary minimizes, as a function of theta."""
    if nu_epsilon is None:
        nu_epsilon = default_mde_window(traj)
    h = traj.grid.h
    span = traj.grid.end - traj.grid.start
    if not 0.0 < nu_epsilon <= span:
        raise ConfigError(f"window must lie in (0, T], got {nu_epsilon}")
    k_win = max(1, int(round(nu_epsilon / h)))
    k_win = min(k_win, traj.grid.num_steps)
    if k_win + 1 < 8:
        raise ConfigError(f"preliminary window holds only {k_win + 1} grid points; need at least 8")

    thetas, idx, flows = _window_table(model, k_win, h)
    x_obs = traj.values[idx]
    dt = np.diff(idx) * h
    n_nodes = thetas.size

    # Broadcasts over an array of thetas, one flow row per theta.
    def neg_distance(theta):
        pos = np.interp(theta, thetas, np.arange(n_nodes))
        i0 = np.minimum(np.asarray(pos).astype(int), n_nodes - 2)
        w = (pos - i0)[..., None]
        flow = (1.0 - w) * flows[i0] + w * flows[i0 + 1]
        resid2 = (x_obs - flow) ** 2
        return -np.sum(0.5 * dt * (resid2[..., 1:] + resid2[..., :-1]), axis=-1)

    return neg_distance


def _window_start_index(traj: Trajectory, nu_epsilon: float) -> int:
    k0 = int(round(nu_epsilon / traj.grid.h))
    return min(max(k0, 0), traj.grid.num_steps - 2)


def score_path_split(
    model: SmallNoiseModel,
    traj: Trajectory,
    theta_bar: float,
    theta_hat: float,
    nu_epsilon: float | None = None,
) -> ScorePath:
    """Score process on [nu, T] with the preliminary estimate in the integrand.

    The stochastic and compensating parts are accumulated as combined
    left-point increments w * (dX - S(theta_hat) dt), scaled by
    1 / (eps * sqrt(I(theta_bar))); the time change integrates the squared
    sensitivity weight and is renormalized to end at exactly 1.
    """
    if traj.epsilon <= 0.0:
        raise ConfigError("score path requires a positive noise level")
    if nu_epsilon is None:
        nu_epsilon = default_mde_window(traj)
    if nu_epsilon < 0.0:
        raise ConfigError(f"window must be nonnegative, got {nu_epsilon}")
    k0 = _window_start_index(traj, nu_epsilon)
    ts = traj.grid.points()
    x = traj.values
    h = traj.grid.h

    t_win = ts[k0:]
    x_win = x[k0:]
    tl = t_win[:-1]
    xl = x_win[:-1]
    dx = np.diff(x_win)

    info = _fisher_cached(model, theta_bar)
    sens = np.asarray(model.drift_dtheta(theta_bar, t_win, x_win), dtype=float)
    sig2 = np.asarray(model.diffusion(t_win, x_win), dtype=float) ** 2
    if not np.all(sig2 > 0.0):
        raise ModelError("diffusion coefficient must stay positive along the path")
    increments = (sens[:-1] / sig2[:-1]) * (dx - np.asarray(model.drift(theta_hat, tl, xl), dtype=float) * h)

    scale = 1.0 / (traj.epsilon * math.sqrt(info))
    values = np.empty(t_win.size)
    values[0] = 0.0
    np.cumsum(increments, out=values[1:])
    values *= scale

    tau = time_change(cumulative_trapezoid(sens**2 / (info * sig2), h))
    return ScorePath(times=t_win, values=values, time_change=tau)


def _x_grid(traj: Trajectory, x0: float) -> np.ndarray:
    lo = min(float(traj.values.min()), x0)
    hi = max(float(traj.values.max()), x0)
    pad = 0.02 * max(hi - lo, 1e-12)
    return np.linspace(lo - pad, hi + pad, _X_GRID_NODES)


def score_path_ito(model: SmallNoiseModel, traj: Trajectory, theta_hat: float) -> ScorePath:
    """Score path via the antiderivative of the sensitivity weight.

    With the declared weight a(t) * b(theta, x), H(t, x) = a(t) * B(x), where
    B integrates b(theta_hat, .) in x from x0 on one x-grid table.  The
    stochastic integral is replaced by H along the path minus the
    time-derivative compensator, whose rate is the central difference of a
    (one-sided at t_0) times B; the remaining noise-squared correction
    term is dropped as asymptotically negligible.
    """
    if model.weight_factors is None:
        raise ConfigError("antiderivative construction needs the model's weight_factors declaration")
    if traj.epsilon <= 0.0:
        raise ConfigError("score path requires a positive noise level")
    a, b = model.weight_factors
    ts = traj.grid.points()
    x = traj.values
    h = traj.grid.h
    n = traj.grid.num_steps

    info = _fisher_cached(model, theta_hat)
    scale = 1.0 / (traj.epsilon * math.sqrt(info))
    xg = _x_grid(traj, model.x0)
    anti = cumulative_simpson(np.asarray(b(theta_hat, xg), dtype=float), xg[1] - xg[0])
    anti -= np.interp(model.x0, xg, anti)
    b_path = np.interp(x, xg, anti)

    a_t = np.broadcast_to(np.asarray(a(ts), dtype=float), ts.shape)
    dn = np.maximum(np.arange(-1, n - 1), 0)
    a_rate = (a_t[1:] - a_t[dn]) / (ts[1:] - ts[dn])
    hs_cum = np.empty(n + 1)
    hs_cum[0] = 0.0
    np.cumsum(a_rate * b_path[:-1] * h, out=hs_cum[1:])

    tl = ts[:-1]
    xl = x[:-1]
    drift_hat = np.asarray(model.drift(theta_hat, tl, xl), dtype=float)
    sens_l = np.asarray(model.drift_dtheta(theta_hat, tl, xl), dtype=float)
    sig2_l = np.asarray(model.diffusion(tl, xl), dtype=float) ** 2
    riem = np.empty(n + 1)
    riem[0] = 0.0
    np.cumsum(sens_l * drift_hat / sig2_l * h, out=riem[1:])

    values = scale * (a_t * b_path - hs_cum - riem)

    sens = np.asarray(model.drift_dtheta(theta_hat, ts, x), dtype=float)
    sig2 = np.asarray(model.diffusion(ts, x), dtype=float) ** 2
    tau = time_change(cumulative_trapezoid(sens**2 / (info * sig2), h))
    return ScorePath(times=ts, values=values, time_change=tau)


def run_test_small_noise(
    model: SmallNoiseModel,
    traj: Trajectory,
    alpha: float,
    approach: str = "split",
    kind: str = "cvm",
) -> TestOutcome:
    """Estimate, build the score path, and test at level alpha."""
    theta_hat = mle_small_noise(model, traj)
    theta_bar: float | None = None
    if approach == "split":
        theta_bar = mde_preliminary(model, traj)
        path = score_path_split(model, traj, theta_bar, theta_hat)
    elif approach == "ito":
        path = score_path_ito(model, traj, theta_hat)
    else:
        raise ConfigError(f"unknown small-noise approach {approach!r}")
    return decide(path, alpha, kind, approach, theta_hat, theta_bar)


# Built-in model families and shipped alternatives.


def linear_model(
    theta_lo: float = 0.1,
    theta_hi: float = 0.9,
    x0: float = 1.0,
    sigma: float = 1.0,
    horizon: float = 1.0,
) -> SmallNoiseModel:
    """Drift theta * x with constant diffusion; the workhorse example."""
    return SmallNoiseModel(
        name="linear",
        drift=lambda theta, t, x: theta * x,
        drift_dtheta=lambda theta, t, x: x,
        diffusion=lambda t, x: sigma * np.ones_like(np.asarray(x, dtype=float)),
        x0=x0,
        horizon=horizon,
        theta_domain=ParamInterval(theta_lo, theta_hi),
        weight_factors=(lambda t: 1.0, lambda theta, x: np.asarray(x, dtype=float) / sigma**2),
    )


def gated_linear_model(
    theta_lo: float = 0.1,
    theta_hi: float = 0.9,
    x0: float = 1.0,
    sigma: float = 1.0,
    horizon: float = 1.0,
) -> SmallNoiseModel:
    """Family whose drift is theta-free on the early half of the horizon.

    Early-interval perturbations leave the score path unchanged, so tests
    built on it cannot see alternatives confined there; shipped to document
    that blind spot.
    """
    half = 0.5 * horizon

    def gate(t):
        return (np.asarray(t, dtype=float) > half) * 1.0

    def drift(theta, t, x):
        return np.asarray(x, dtype=float) * np.where(gate(t), theta, 1.0)

    def drift_dtheta(theta, t, x):
        return np.asarray(x, dtype=float) * gate(t)

    return SmallNoiseModel(
        name="gated-linear",
        drift=drift,
        drift_dtheta=drift_dtheta,
        diffusion=lambda t, x: sigma * np.ones_like(np.asarray(x, dtype=float)),
        x0=x0,
        horizon=horizon,
        theta_domain=ParamInterval(theta_lo, theta_hi),
        weight_factors=(gate, lambda theta, x: np.asarray(x, dtype=float) / sigma**2),
    )


def with_alternative_drift(model: SmallNoiseModel, drift_alt: Callable) -> SmallNoiseModel:
    """Simulation wrapper whose drift ignores theta; analysis keeps the family."""
    return replace(model, name=model.name + "+alt", drift=lambda theta, t, x: drift_alt(t, x))


def sin_perturbed_drift(theta0: float, horizon: float, amplitude: float = 2.0) -> Callable:
    """Family drift at theta0 plus a sinusoidal bump outside the family."""

    def drift_alt(t, x):
        return theta0 * np.asarray(x, dtype=float) + amplitude * np.sin(2.0 * np.pi * np.asarray(t) / horizon)

    return drift_alt


def gated_early_drift(theta_star: float, horizon: float, wobble: float = 0.5) -> Callable:
    """Alternative for the gated family that differs only where theta is inert."""
    half = 0.5 * horizon

    def drift_alt(t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        early = x * (1.0 + wobble * np.sin(4.0 * np.pi * t / horizon))
        late = theta_star * x
        return np.where(t > half, late, early)

    return drift_alt
