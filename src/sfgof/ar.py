"""Goodness-of-fit pipeline for nonlinear AR(1) series with known noise law.

Observations satisfy X_j = S(theta, X_{j-1}) + eps_j with i.i.d. noise of
known density.  The score process is indexed by the lagged state: it sums
noise-score-weighted sensitivities over lags below x, producing a step
function whose quadratic functional is integrated exactly against the
empirical time change.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, ModelError, NumericalError
from .inference_kit import (
    ParamInterval,
    RngStream,
    cumulative_trapezoid,
    maximize_1d,
    simpson_array,
)
from .score import ScorePath, TestOutcome, decide

_X_NODES = 2049
_TAIL_MASS = 1e-8
_MAX_EXTENSIONS = 10
_FIXED_POINT_TOL = 1e-10
_FIXED_POINT_MAX_ITER = 500


@dataclass(frozen=True, eq=False)
class ARModel:
    """Regression family S(theta, x) driven by noise with known log-density.

    noise_logpdf and its first derivative are required; the second
    derivative is optional and only used for consistency diagnostics.
    invariant_logpdf, when supplied, gives the stationary law in closed
    form; otherwise it is computed by fixed-point iteration of the
    transition kernel on a state grid.  noise_support bounds the noise
    quadratures; state bounds give the starting truncation for the
    stationary law.
    """

    name: str
    regression: Callable
    regression_dtheta: Callable
    noise_logpdf: Callable
    noise_logpdf_d1: Callable
    noise_sampler: Callable
    theta_domain: ParamInterval
    noise_support: tuple = (-12.0, 12.0)
    x_lo: float = -10.0
    x_hi: float = 10.0
    noise_logpdf_d2: Callable | None = None
    invariant_logpdf: Callable | None = None
    stationary_sampler: Callable | None = None


@dataclass(frozen=True)
class SeriesSample:
    """Observed values X_0 .. X_n."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.size < 2:
            raise ConfigError("series sample needs at least two values")
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("series sample must be finite")

    @property
    def n(self) -> int:
        return self.values.size - 1


@dataclass(frozen=True)
class StationaryDensity:
    """Stationary density on a truncated state grid."""

    x: np.ndarray
    f: np.ndarray

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])


# Weakly keyed: the densities of a model go when the model does.
_DENSITY_CACHE: weakref.WeakKeyDictionary[ARModel, dict[tuple[float, int], StationaryDensity]] = (
    weakref.WeakKeyDictionary()
)


def _fixed_point_density(model: ARModel, theta: float, lo: float, hi: float, n_nodes: int) -> np.ndarray:
    xg = np.linspace(lo, hi, n_nodes)
    dx = xg[1] - xg[0]
    # Transition kernel rows: density of x_i given previous value y_j.
    kernel = np.exp(
        np.asarray(model.noise_logpdf(xg[:, None] - np.asarray(model.regression(theta, xg), dtype=float)[None, :]))
    )
    f = np.exp(np.asarray(model.noise_logpdf(xg), dtype=float))
    f = np.clip(f, 0.0, None)
    f /= max(f.sum() * dx, 1e-300)
    for _ in range(_FIXED_POINT_MAX_ITER):
        # einsum, not a BLAS gemv, so that the density (and mle_ar through it)
        # does not depend on the BLAS thread count.
        f_new = np.einsum("ij,j->i", kernel, f) * dx
        total = f_new.sum() * dx
        if not np.isfinite(total) or total <= 0.0:
            raise ModelError(f"stationary fixed point diverged at theta={theta}")
        f_new /= total
        change = float(np.sum(np.abs(f_new - f)) * dx)
        f = f_new
        if change < _FIXED_POINT_TOL:
            return f
    raise ModelError(f"stationary fixed point did not converge at theta={theta}")


def stationary_density(model: ARModel, theta: float, n_nodes: int = _X_NODES) -> StationaryDensity:
    """Stationary law on a grid wide enough that tail mass is below 1e-8.

    Uses the closed form when the model supplies one, the transition-kernel
    fixed point otherwise; fixed-point solutions are cached per theta and
    grid size for as long as the model lives.
    """
    numeric = model.invariant_logpdf is None
    key = (round(float(theta), 14), n_nodes)
    if numeric:
        cached = _DENSITY_CACHE.get(model, {}).get(key)
        if cached is not None:
            return cached
    lo, hi = float(model.x_lo), float(model.x_hi)
    for _ in range(_MAX_EXTENSIONS):
        xg = np.linspace(lo, hi, n_nodes)
        dx = xg[1] - xg[0]
        if model.invariant_logpdf is not None:
            logf = np.asarray(model.invariant_logpdf(theta, xg), dtype=float)
            f = np.exp(logf - logf.max())
            f /= simpson_array(f, dx)
        else:
            f = _fixed_point_density(model, theta, lo, hi, n_nodes)
        edge = max(f[0], f[-1]) * (hi - lo)
        if edge < _TAIL_MASS:
            dens = StationaryDensity(x=xg, f=f)
            _check_tails(dens)
            if numeric:
                _DENSITY_CACHE.setdefault(model, {})[key] = dens
            return dens
        span = hi - lo
        lo -= 0.5 * span
        hi += 0.5 * span
    raise ModelError(f"stationary density does not concentrate at theta={theta}")


def _check_tails(dens: StationaryDensity) -> None:
    """Numeric stand-in for the polynomial tail-decay requirement."""
    weighted = dens.f * (1.0 + dens.x**2)
    peak = weighted.max()
    edge = max(weighted[0], weighted[-1])
    if not edge <= 1e-6 * peak:
        raise ModelError("stationary density tails decay too slowly for the state-indexed score")


def simulate_ar(model: ARModel, theta0: float, n: int, rng: RngStream) -> SeriesSample:
    """Stationary-start sample of length n + 1."""
    return sample_at(simulate_ar_batch(model, theta0, n, [rng]), 0)


def sample_at(paths: np.ndarray, j: int) -> SeriesSample:
    """Column j of `simulate_ar_batch` paths; NumericalError if it is not finite."""
    values = paths[:, j]
    if not np.all(np.isfinite(values)):
        raise NumericalError("autoregression state became non-finite")
    return SeriesSample(values=values)


def simulate_ar_batch(model: ARModel, theta0: float, n: int, streams: list[RngStream]) -> np.ndarray:
    """Batched stationary-start samples, one stream per column."""
    if n < 10:
        raise ConfigError(f"need n >= 10 observations, got {n}")
    ncol = len(streams)
    out = np.empty((n + 1, ncol))
    noise = np.empty((n, ncol))
    for j, stream in enumerate(streams):
        gen = stream.generator()
        if model.stationary_sampler is not None:
            out[0, j] = model.stationary_sampler(theta0, gen)
        else:
            dens = stationary_density(model, theta0)
            cdf = cumulative_trapezoid(dens.f, dens.dx)
            cdf /= cdf[-1]
            out[0, j] = np.interp(gen.uniform(), cdf, dens.x)
        noise[:, j] = model.noise_sampler(gen, n)
    x = out[0].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            x = np.asarray(model.regression(theta0, x), dtype=float) + noise[i]
            out[i + 1] = x
    return out


def mle_ar(model: ARModel, sample: SeriesSample, tol: float = 1e-6, start_term: bool = True) -> float:
    """Maximizer of the log-likelihood over the parameter interval.

    The stationary-start density of X_0 is part of the likelihood by
    default; its effect is O(1/n) on stationary data.  start_term=False
    switches to the conditional likelihood, which is the right fit when
    the first observation is not a draw from the stationary law.
    """
    x = sample.values
    lags = x[:-1]
    heads = x[1:]

    def log_start(theta: float) -> float:
        if not start_term:
            return 0.0
        if model.invariant_logpdf is not None:
            return float(model.invariant_logpdf(theta, x[0]))
        dens = stationary_density(model, theta)
        f0 = float(np.interp(x[0], dens.x, dens.f))
        return math.log(max(f0, 1e-300))

    def loglik(theta: float) -> float:
        resid = heads - np.asarray(model.regression(theta, lags), dtype=float)
        return log_start(theta) + float(np.sum(np.asarray(model.noise_logpdf(resid), dtype=float)))

    return maximize_1d(loglik, model.theta_domain, tol=tol)


def noise_information(model: ARModel) -> float:
    """Integral of the squared noise score against the noise density."""
    lo, hi = model.noise_support
    grid = np.linspace(lo, hi, 2 * 2048 + 1)
    f = np.exp(np.asarray(model.noise_logpdf(grid), dtype=float))
    score = np.asarray(model.noise_logpdf_d1(grid), dtype=float)
    value = simpson_array(score**2 * f, grid[1] - grid[0])
    if not np.isfinite(value) or value <= 0.0:
        raise ModelError(f"noise information must be positive, got {value!r}")
    return float(value)


def state_information(model: ARModel, theta: float) -> float:
    """Stationary expectation of the squared regression sensitivity."""
    dens = stationary_density(model, theta)
    sens = np.asarray(model.regression_dtheta(theta, dens.x), dtype=float)
    value = simpson_array(sens**2 * dens.f, dens.dx)
    if not np.isfinite(value) or value <= 0.0:
        raise ModelError(f"state information must be positive, got {value!r} at theta={theta}")
    return float(value)


def score_path_ar(model: ARModel, sample: SeriesSample, theta_hat: float) -> ScorePath:
    """State-indexed score: a step function jumping at each lagged value.

    The jump at lag X_{j-1} carries the noise score of the fitted residual
    times the regression sensitivity; the time change integrates the
    squared sensitivity against the stationary law at theta_hat, and the
    quadratic statistic is exact on each step.
    """
    x = sample.values
    lags = x[:-1]
    resid = x[1:] - np.asarray(model.regression(theta_hat, lags), dtype=float)
    terms = np.asarray(model.noise_logpdf_d1(resid), dtype=float) * np.asarray(
        model.regression_dtheta(theta_hat, lags), dtype=float
    )

    dens = stationary_density(model, theta_hat)
    info_f = noise_information(model)
    sens_grid = np.asarray(model.regression_dtheta(theta_hat, dens.x), dtype=float)
    tau_raw = cumulative_trapezoid(sens_grid**2 * dens.f, dens.dx)
    info_theta = tau_raw[-1]
    if not info_theta > 0.0:
        raise ModelError("state information vanishes; regression sensitivity is degenerate")
    info = info_f * info_theta
    scale = -1.0 / math.sqrt(info * sample.n)

    order = np.argsort(lags, kind="stable")
    xs = lags[order]
    cum = scale * np.cumsum(terms[order])

    lo = min(float(dens.x[0]), float(xs[0]) - 1.0)
    hi = max(float(dens.x[-1]), float(xs[-1]) + 1.0)
    times = np.concatenate([[lo], xs, [hi]])
    values = np.concatenate([[0.0], cum, [cum[-1]]])
    tau = np.interp(times, dens.x, tau_raw / info_theta, left=0.0, right=1.0)
    tau[-1] = 1.0
    tau = np.maximum.accumulate(tau)
    tau /= tau[-1]
    weight = np.interp(times, dens.x, sens_grid**2 * dens.f / info_theta, left=0.0, right=0.0)
    return ScorePath(times=times, values=values, time_change=tau, weight=weight, step_function=True)


def run_test_ar(model: ARModel, sample: SeriesSample, alpha: float, kind: str = "cvm") -> TestOutcome:
    """Fit the regression family, build the step score path, and test."""
    theta_hat = mle_ar(model, sample)
    return decide(score_path_ar(model, sample, theta_hat), alpha, kind, "mle", model.theta_domain, theta_hat)


def linear_gaussian_ar(
    theta_lo: float = -0.95,
    theta_hi: float = 0.95,
    sigma: float = 1.0,
) -> ARModel:
    """Linear regression theta * x with centered Gaussian noise."""
    var = sigma * sigma

    def invariant_logpdf(theta, x):
        v = var / (1.0 - theta * theta)
        x = np.asarray(x, dtype=float)
        return -0.5 * x * x / v - 0.5 * math.log(2.0 * math.pi * v)

    return ARModel(
        name="linear-gaussian",
        regression=lambda theta, x: theta * np.asarray(x, dtype=float),
        regression_dtheta=lambda theta, x: np.asarray(x, dtype=float),
        noise_logpdf=lambda e: -0.5 * np.asarray(e, dtype=float) ** 2 / var - 0.5 * math.log(2.0 * math.pi * var),
        noise_logpdf_d1=lambda e: -np.asarray(e, dtype=float) / var,
        noise_logpdf_d2=lambda e: -np.ones_like(np.asarray(e, dtype=float)) / var,
        noise_sampler=lambda gen, size: sigma * gen.standard_normal(size),
        theta_domain=ParamInterval(theta_lo, theta_hi),
        noise_support=(-12.0 * sigma, 12.0 * sigma),
        x_lo=-10.0 * sigma,
        x_hi=10.0 * sigma,
        invariant_logpdf=invariant_logpdf,
        stationary_sampler=lambda theta, gen: sigma / math.sqrt(1.0 - theta * theta) * gen.standard_normal(),
    )


def with_alternative_regression(model: ARModel, regression_alt: Callable) -> ARModel:
    """Simulation wrapper whose regression ignores theta; analysis keeps the family.

    The stationary law of the alternative has no closed form, so the
    wrapper falls back to a burn-in start from the noise law.
    """

    def burn_in_sampler(theta, gen):
        x = float(model.noise_sampler(gen, 1)[0])
        for _ in range(200):
            x = float(regression_alt(x)) + float(model.noise_sampler(gen, 1)[0])
        return x

    return replace(
        model,
        name=model.name + "+alt",
        regression=lambda theta, x: regression_alt(x),
        invariant_logpdf=None,
        stationary_sampler=burn_in_sampler,
    )


def cosine_perturbed_regression(base_theta: float = 0.5, amplitude: float = 0.3) -> Callable:
    """Linear regression plus a bounded cosine kink outside the family."""

    def regression_alt(x):
        x = np.asarray(x, dtype=float)
        return base_theta * x + amplitude * np.cos(x)

    return regression_alt
