"""Goodness-of-fit pipeline for ergodic scalar diffusions on a long horizon.

The observed path solves dX = S(theta, X) dt + sigma(X) dW with a
positive-recurrent drift family.  The score process is indexed by the
state level x rather than time: it accumulates score increments over path
points below x, and the time change integrates the squared sensitivity
against the invariant density.  Two constructions are provided: a split
construction with a preliminary moment estimator from the first sqrt(T)
observations, and a smoothed-indicator construction that trades the
indicator for a compactly supported mollifier so the stochastic integral
can be rewritten through an antiderivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, lru_cache
from typing import Callable

import numpy as np

from .errors import ConfigError, ModelError, NumericalError
from .inference_kit import (
    GridDensity,
    ParamInterval,
    RngStream,
    TimeGrid,
    cumulative_simpson,
    cumulative_trapezoid,
    diffusion_loglik,
    maximize_1d,
    simpson_array,
)
from .score import ScorePath, TestOutcome, decide, time_change
from .small_noise import Trajectory

_X_NODES = 2049
_TAIL_MASS = 1e-8
_MAX_EXTENSIONS = 12
_THETA_TABLE_NODES = 65


@dataclass(frozen=True, eq=False)
class ErgodicModel:
    """Recurrent drift family S(theta, x) with known diffusion sigma(x).

    x_lo / x_hi give the starting truncation for state-space quadratures;
    they are widened automatically until the invariant mass outside is
    negligible.  moment maps a state to the statistic matched by the
    preliminary estimator (second moment by default).
    """

    name: str
    drift: Callable
    drift_dtheta: Callable
    diffusion: Callable
    theta_domain: ParamInterval
    x_lo: float = -8.0
    x_hi: float = 8.0
    moment: Callable = lambda x: np.asarray(x, dtype=float) ** 2

    def check_recurrence(self, theta: float) -> None:
        for edge in (self.x_lo, self.x_hi):
            value = math.copysign(1.0, edge) * float(self.drift(theta, edge)) / float(self.diffusion(edge)) ** 2
            if not value < 0.0:
                raise ModelError(
                    f"drift does not pull inward at x={edge} for theta={theta}; recurrence check failed"
                )


def invariant_density(model: ErgodicModel, theta: float, n_nodes: int = _X_NODES) -> GridDensity:
    """Invariant density exp(2 int S / sigma^2) / (G sigma^2) on the truncated grid.

    The inner integral is a cumulative Simpson rule anchored at 0 (or the
    left edge when 0 is outside the grid); the grid is widened until the
    estimated mass in both tails drops below 1e-8 of the total.
    """
    model.check_recurrence(theta)
    lo, hi = float(model.x_lo), float(model.x_hi)
    for _ in range(_MAX_EXTENSIONS):
        xg = np.linspace(lo, hi, n_nodes)
        dx = xg[1] - xg[0]
        ratio = np.asarray(model.drift(theta, xg), dtype=float) / np.asarray(model.diffusion(xg), dtype=float) ** 2
        inner = cumulative_simpson(ratio, dx)
        anchor = 0.0 if lo < 0.0 < hi else lo
        inner -= np.interp(anchor, xg, inner)
        sig2 = np.asarray(model.diffusion(xg), dtype=float) ** 2
        logw = 2.0 * inner - np.log(sig2)
        if not np.all(np.isfinite(logw)):
            raise ModelError(f"unnormalized density is non-finite on the grid at theta={theta}")
        shift = logw.max()
        w = np.exp(logw - shift)
        total = simpson_array(w, dx)
        if not np.isfinite(total) or total <= 0.0:
            raise ModelError(f"density normalizer is not finite at theta={theta}; family looks non-ergodic")
        # Exponential-tail estimate of the mass beyond each edge.
        slope_lo = (logw[1] - logw[0]) / dx
        slope_hi = (logw[-1] - logw[-2]) / dx
        mass_lo = w[0] / max(slope_lo, 1e-12)
        mass_hi = w[-1] / max(-slope_hi, 1e-12)
        if slope_lo > 0.0 and slope_hi < 0.0 and max(mass_lo, mass_hi) < _TAIL_MASS * total:
            return GridDensity(x=xg, f=w / total)
        span = hi - lo
        if slope_lo <= 0.0 or mass_lo >= _TAIL_MASS * total:
            lo -= 0.5 * span
        if slope_hi >= 0.0 or mass_hi >= _TAIL_MASS * total:
            hi += 0.5 * span
    raise ModelError(f"invariant density mass does not concentrate at theta={theta}; family looks non-ergodic")


# Built once per model, in a bounded LRU cache that holds its models alive
# until they are evicted.
_TABLE_CACHE_SIZE = 8


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _theta_tables(model: ErgodicModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense-theta tables of the information and moment maps (smooth in theta)."""
    dom = model.theta_domain
    thetas = np.linspace(dom.lower, dom.upper, _THETA_TABLE_NODES + 2)[1:-1]
    infos = np.empty(thetas.size)
    moments = np.empty(thetas.size)
    for i, theta in enumerate(thetas):
        dens = invariant_density(model, theta)
        sens = np.asarray(model.drift_dtheta(theta, dens.x), dtype=float)
        sig = np.asarray(model.diffusion(dens.x), dtype=float)
        infos[i] = simpson_array((sens / sig) ** 2 * dens.f, dens.dx)
        if not np.isfinite(infos[i]) or infos[i] <= 0.0:
            raise ModelError(f"information integral must be positive, got {infos[i]!r} at theta={theta}")
        moments[i] = simpson_array(np.asarray(model.moment(dens.x), dtype=float) * dens.f, dens.dx)
    return thetas, infos, moments


def _fisher_cached(model: ErgodicModel, theta: float) -> float:
    thetas, infos, _ = _theta_tables(model)
    return float(np.interp(theta, thetas, infos))


def simulate_ergodic_batch(
    model: ErgodicModel,
    theta0: float,
    T: float,
    step: float,
    streams: list[RngStream],
) -> np.ndarray:
    """Euler paths started from the invariant law, one stream per column.

    Each column draws one uniform (initial state through the inverse CDF)
    followed by its Gaussian increments, so columns are reproducible
    independently of the batch layout.  Columns that blow up are returned
    as-is for the caller to screen with `excursion_mask`.
    """
    if step > 1e-2:
        raise ConfigError(f"step must be <= 1e-2, got {step}")
    if T < 100.0 * step:
        raise ConfigError(f"horizon must cover at least 100 steps, got T={T}, step={step}")
    n = int(round(T / step))
    dens = invariant_density(model, theta0)
    cdf = dens.cdf()
    ncol = len(streams)
    out = np.empty((n + 1, ncol))
    dw = np.empty((n, ncol))
    for j, stream in enumerate(streams):
        gen = stream.generator()
        u0 = gen.uniform()
        out[0, j] = np.interp(u0, cdf, dens.x)
        dw[:, j] = gen.standard_normal(n)
    dw *= math.sqrt(step)
    x = out[0].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            x = x + step * model.drift(theta0, x) + model.diffusion(x) * dw[i]
            out[i + 1] = x
    return out


def excursion_mask(model: ErgodicModel, paths: np.ndarray) -> np.ndarray:
    """True for columns that stayed finite and within ten truncation widths."""
    width = model.x_hi - model.x_lo
    mid = 0.5 * (model.x_hi + model.x_lo)
    with np.errstate(invalid="ignore"):
        ok = np.all(np.isfinite(paths), axis=0) & (np.max(np.abs(paths - mid), axis=0) <= 10.0 * width)
    return ok


def trajectory_at(paths: np.ndarray, ok: np.ndarray, step: float, j: int) -> Trajectory:
    """Column j of `simulate_ergodic_batch` paths; NumericalError where `excursion_mask` put ok[j] False."""
    if not ok[j]:
        bad = np.flatnonzero(~np.isfinite(paths[:, j]) | (np.abs(paths[:, j]) > 1e12))
        where = bad[0] if bad.size else paths.shape[0] - 1
        raise NumericalError(f"path left the admissible region near t={where * step!r}")
    n = paths.shape[0] - 1
    return Trajectory(TimeGrid(0.0, n * step, n), paths[:, j], 1.0)


def mle_ergodic(model: ErgodicModel, traj: Trajectory, tol: float = 1e-6) -> float:
    """Maximizer of the discretized log-likelihood of the drift family."""
    xl = traj.values[:-1]
    inv_sig2 = 1.0 / np.asarray(model.diffusion(xl), dtype=float) ** 2
    loglik = diffusion_loglik(lambda theta: model.drift(theta, xl), np.diff(traj.values), inv_sig2, traj.grid.h)
    return maximize_1d(loglik, model.theta_domain, tol=tol)


def preliminary_moments(model: ErgodicModel, traj: Trajectory, window_T: float | None = None) -> float:
    """Moment-matching estimate from the first sqrt(T) observations.

    Matches the time average of the model's moment statistic over the
    window to its invariant-law expectation; the moment map is tabulated on
    a dense theta grid, checked for strict monotonicity, and inverted by
    interpolation.  Out-of-range averages return the nearest boundary of
    the parameter interval.
    """
    span = traj.grid.end - traj.grid.start
    if window_T is None:
        window_T = math.sqrt(span)
    if not 0.0 < window_T <= span:
        raise ConfigError(f"window must lie in (0, T], got {window_T}")
    kw = max(2, int(round(window_T / traj.grid.h)))
    sample = np.asarray(model.moment(traj.values[: kw + 1]), dtype=float)
    m_hat = float((0.5 * (sample[0] + sample[-1]) + sample[1:-1].sum()) / kw)

    thetas, _, moments = _theta_tables(model)
    diffs = np.diff(moments)
    if np.all(diffs > 0.0):
        lo_val, hi_val = moments[0], moments[-1]
        xs, ys = moments, thetas
    elif np.all(diffs < 0.0):
        lo_val, hi_val = moments[-1], moments[0]
        xs, ys = moments[::-1], thetas[::-1]
    else:
        raise ModelError("moment map is not strictly monotone on the parameter interval")
    if m_hat <= lo_val:
        return model.theta_domain.lower if moments[0] < moments[-1] else model.theta_domain.upper
    if m_hat >= hi_val:
        return model.theta_domain.upper if moments[0] < moments[-1] else model.theta_domain.lower
    return float(np.interp(m_hat, xs, ys))


def score_path_x_split(
    model: ErgodicModel,
    traj: Trajectory,
    theta_bar: float,
    theta_hat: float,
    window_T: float | None = None,
) -> ScorePath:
    """State-indexed score over (window, T] with the preliminary estimate in the integrand.

    V(x) sums sensitivity-weighted increments over path points below x and
    is evaluated on the invariant-density grid; the time change integrates
    the squared sensitivity against the density at theta_bar and is
    renormalized to end at exactly 1.
    """
    span = traj.grid.end - traj.grid.start
    if window_T is None:
        window_T = math.sqrt(span)
    if not 0.0 <= window_T < span:
        raise ConfigError(f"window must lie in [0, T), got {window_T}")
    k0 = int(round(window_T / traj.grid.h))
    x = traj.values
    h = traj.grid.h
    xl = x[k0:-1]
    dx = np.diff(x[k0:])

    info = _fisher_cached(model, theta_bar)
    sens = np.asarray(model.drift_dtheta(theta_bar, xl), dtype=float)
    sig2 = np.asarray(model.diffusion(xl), dtype=float) ** 2
    increments = (sens / sig2) * (dx - np.asarray(model.drift(theta_hat, xl), dtype=float) * h)
    scale = 1.0 / math.sqrt((span) * info)

    order = np.argsort(xl, kind="stable")
    sorted_x = xl[order]
    prefix = np.concatenate([[0.0], np.cumsum(increments[order])])

    dens = invariant_density(model, theta_bar)
    counts = np.searchsorted(sorted_x, dens.x, side="left")
    values = scale * prefix[counts]

    weight = (
        np.asarray(model.drift_dtheta(theta_bar, dens.x), dtype=float) ** 2
        * dens.f
        / (info * np.asarray(model.diffusion(dens.x), dtype=float) ** 2)
    )
    return ScorePath(times=dens.x, values=values, time_change=time_change(cumulative_trapezoid(weight, dens.dx)))


def _bump(u: np.ndarray) -> np.ndarray:
    """The standard compact bump exp(u^2 / (u^2 - 1)) on (-1, 1), zero outside."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(np.abs(u) < 1.0, np.exp(u**2 / (u**2 - 1.0)), 0.0)


@cache
def _mollifier() -> tuple[np.ndarray, np.ndarray, float]:
    """Grid, normalized antiderivative and mass of the standard compact bump on (-1, 1)."""
    u = np.linspace(-1.0, 1.0, 8193)
    cdf = cumulative_trapezoid(_bump(u), u[1] - u[0])
    norm = cdf[-1]
    return u, cdf / norm, float(norm)


def mollifier_cdf(u: np.ndarray) -> np.ndarray:
    """Smooth step phi with phi(-1) = 0, phi(1) = 1, monotone in between."""
    grid, cdf, _ = _mollifier()
    u = np.asarray(u, dtype=float)
    return np.interp(u, grid, cdf, left=0.0, right=1.0)


def mollifier_pdf(u: np.ndarray) -> np.ndarray:
    """Derivative of the smooth step: the normalized compact bump."""
    _, _, norm = _mollifier()
    return _bump(np.asarray(u, dtype=float)) / norm


def score_path_x_smoothed(
    model: ErgodicModel,
    traj: Trajectory,
    theta_hat: float,
    d_T: float | None = None,
) -> ScorePath:
    """State-indexed score with the indicator replaced by a mollified step.

    The stochastic integral is rewritten through the x antiderivative of
    the mollified sensitivity weight, which adds a second-derivative
    correction term (kept: it is cheap on the state grid).  Path
    occupation is binned on the density grid, so each smoothed integral
    becomes a prefix sum plus a short convolution with the mollifier
    kernel.  Bandwidth defaults to T^(-1/4).
    """
    span = traj.grid.end - traj.grid.start
    if d_T is None:
        d_T = span**-0.25
    if d_T <= 0.0:
        raise ConfigError(f"bandwidth must be positive, got {d_T}")
    info = _fisher_cached(model, theta_hat)
    dens = invariant_density(model, theta_hat)
    xg, dxg = dens.x, dens.dx
    n_in = 2 * int(math.floor(d_T / dxg)) + 1
    if n_in < 4:
        raise ConfigError(f"bandwidth {d_T} covers only {n_in} grid points; need at least 4")

    half = int(math.ceil(d_T / dxg))
    offsets = np.arange(-half, half + 1) * dxg / d_T
    psi_kernel = mollifier_cdf(offsets) - (offsets > 0.0)
    pdf_kernel = mollifier_pdf(offsets)

    nx = xg.size

    def smoothed_sum(node_weights: np.ndarray) -> np.ndarray:
        strict = np.concatenate([[0.0], np.cumsum(node_weights)[:-1]])
        window = np.convolve(node_weights, psi_kernel)[half : half + nx]
        return strict + window

    def bump_sum(node_weights: np.ndarray) -> np.ndarray:
        return np.convolve(node_weights, pdf_kernel)[half : half + nx]

    x = traj.values
    h = traj.grid.h
    xl = x[:-1]
    idx = np.clip(np.rint((xl - xg[0]) / dxg).astype(np.intp), 0, nx - 1)
    sens_path = np.asarray(model.drift_dtheta(theta_hat, xl), dtype=float)
    drift_path = np.asarray(model.drift(theta_hat, xl), dtype=float)
    sig2_path = np.asarray(model.diffusion(xl), dtype=float) ** 2
    occ_drift = np.bincount(idx, weights=sens_path * drift_path / sig2_path * h, minlength=nx)
    occ_sig2 = np.bincount(idx, weights=sig2_path * h, minlength=nx)

    r = np.asarray(model.drift_dtheta(theta_hat, xg), dtype=float) / np.asarray(model.diffusion(xg), dtype=float) ** 2
    rp = np.gradient(r, dxg)

    # Endpoint antiderivative: integral of r * phi((x - y)/d) for y from X_0 to X_T.
    lo, hi = sorted((float(x[0]), float(x[-1])))
    sgn = 1.0 if x[-1] >= x[0] else -1.0
    cell_lo = np.maximum(xg - 0.5 * dxg, lo)
    cell_hi = np.minimum(xg + 0.5 * dxg, hi)
    overlap = np.clip(cell_hi - cell_lo, 0.0, None)
    h_term = sgn * smoothed_sum(r * overlap)

    correction = 0.5 * (smoothed_sum(occ_sig2 * rp) - bump_sum(occ_sig2 * r) / d_T)
    compensator = smoothed_sum(occ_drift)

    scale = 1.0 / math.sqrt(span * info)
    values = scale * (h_term - correction - compensator)

    weight = (
        np.asarray(model.drift_dtheta(theta_hat, xg), dtype=float) ** 2
        * dens.f
        / (info * np.asarray(model.diffusion(xg), dtype=float) ** 2)
    )
    return ScorePath(times=xg, values=values, time_change=time_change(cumulative_trapezoid(weight, dxg)))


def run_test_ergodic(
    model: ErgodicModel,
    traj: Trajectory,
    alpha: float,
    approach: str = "split",
    kind: str = "cvm",
    d_T: float | None = None,
) -> TestOutcome:
    """Estimate, build the state-indexed score path, and test at level alpha."""
    theta_hat = mle_ergodic(model, traj)
    theta_bar: float | None = None
    if approach == "split":
        theta_bar = preliminary_moments(model, traj)
        path = score_path_x_split(model, traj, theta_bar, theta_hat)
    elif approach == "smoothed":
        path = score_path_x_smoothed(model, traj, theta_hat, d_T=d_T)
    else:
        raise ConfigError(f"unknown ergodic approach {approach!r}")
    return decide(path, alpha, kind, approach, theta_hat, theta_bar)


def ou_model(
    theta_lo: float = 0.3,
    theta_hi: float = 3.0,
    sigma: float = 1.0,
    x_lo: float = -8.0,
    x_hi: float = 8.0,
) -> ErgodicModel:
    """Mean-reverting family -theta * x with constant diffusion."""
    return ErgodicModel(
        name="ou",
        drift=lambda theta, x: -theta * np.asarray(x, dtype=float),
        drift_dtheta=lambda theta, x: -np.asarray(x, dtype=float),
        diffusion=lambda x: sigma * np.ones_like(np.asarray(x, dtype=float)),
        theta_domain=ParamInterval(theta_lo, theta_hi),
        x_lo=x_lo,
        x_hi=x_hi,
    )


def with_alternative_drift(model: ErgodicModel, drift_alt: Callable) -> ErgodicModel:
    """Simulation wrapper whose drift ignores theta; analysis keeps the family."""
    return replace(
        model,
        name=model.name + "+alt",
        drift=lambda theta, x: drift_alt(x),
        drift_dtheta=lambda theta, x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def tanh_perturbed_drift(base_theta: float = 1.0, amplitude: float = 0.8) -> Callable:
    """Mean reversion plus a bounded odd kink outside the linear family."""

    def drift_alt(x):
        x = np.asarray(x, dtype=float)
        return -base_theta * x + amplitude * np.tanh(x)

    return drift_alt
