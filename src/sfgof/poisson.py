"""Goodness-of-fit pipeline for periodic inhomogeneous Poisson processes.

Observations are n periods of a counting process whose intensity has known
period; periods are i.i.d. copies.  Simulation is by thinning against a
dominating constant rate.  The score process accumulates event weights
minus the fitted compensator over the periods not used by the preliminary
estimator, keeping the integrand independent of the integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, ModelError
from .inference_kit import (
    ParamInterval,
    RngStream,
    cumulative_simpson,
    cumulative_trapezoid,
    integrate_1d,
    maximize_1d,
    simpson_array,
)
from .score import ScorePath, TestOutcome, decide, time_change

_T_GRID_NODES = 4097
_RATE_SCAN_NODES = 2048
_COMPENSATOR_PANELS = 256  # Simpson panels of the likelihood's compensator integral


@dataclass(frozen=True, eq=False)
class PoissonModel:
    """Periodic intensity family lambda(theta, t) on [0, period].

    Intensities must be strictly positive and broadcast over numpy arrays
    of times.
    """

    name: str
    intensity: Callable
    intensity_dtheta: Callable
    period: float
    theta_domain: ParamInterval

    def __post_init__(self):
        if self.period <= 0.0:
            raise ConfigError(f"period must be positive, got {self.period}")


@dataclass(frozen=True)
class LinearPoissonModel(PoissonModel):
    """Intensity theta * h(t) + lam0 with positive profile h and floor lam0."""

    profile: Callable = None  # type: ignore[assignment]
    lam0: float = 0.0


def linear_intensity_model(
    profile: Callable,
    lam0: float,
    period: float,
    theta_lo: float,
    theta_hi: float,
    name: str = "linear-h",
) -> LinearPoissonModel:
    if theta_lo <= 0.0:
        raise ConfigError("linear-intensity family needs a positive parameter interval")
    return LinearPoissonModel(
        name=name,
        intensity=lambda theta, t: theta * np.asarray(profile(t), dtype=float) + lam0,
        intensity_dtheta=lambda theta, t: np.asarray(profile(t), dtype=float),
        period=period,
        theta_domain=ParamInterval(theta_lo, theta_hi),
        profile=profile,
        lam0=lam0,
    )


@dataclass(frozen=True)
class PeriodicEvents:
    """Event times in [0, period), sorted by (period index, time).

    Period j holds times[offsets[j]:offsets[j + 1]], so offsets has n + 1 entries.
    """

    period: float
    times: np.ndarray
    offsets: np.ndarray

    @property
    def n(self) -> int:
        return self.offsets.size - 1

    def pooled(self, first: int = 0) -> np.ndarray:
        """Events of periods first..n-1 pooled into one sorted array."""
        return np.sort(self.times[self.offsets[first] :])


def _events(period: float, n: int, index: np.ndarray, times: np.ndarray) -> PeriodicEvents:
    """The record of events times[k] in period index[k], in any order."""
    offsets = np.concatenate([[0], np.cumsum(np.bincount(index, minlength=n))])
    return PeriodicEvents(period=period, times=times[np.lexsort((times, index))], offsets=offsets)


def simulate_periodic_poisson(
    model: PoissonModel,
    theta0: float,
    n: int,
    rng: RngStream,
    intensity_fn: Callable | None = None,
) -> PeriodicEvents:
    """Thinning simulation of n periods against a 1.01-padded dominating rate.

    intensity_fn overrides the simulated intensity (for alternatives); the
    dominating rate is scanned on a fine grid either way.
    """
    if n < 1:
        raise ConfigError(f"need at least one period, got {n}")
    lam = intensity_fn if intensity_fn is not None else (lambda t: model.intensity(theta0, t))
    tg = np.linspace(0.0, model.period, _RATE_SCAN_NODES)
    lam_values = np.asarray(lam(tg), dtype=float)
    if not np.all(np.isfinite(lam_values)) or not np.all(lam_values > 0.0):
        raise ModelError("simulated intensity must be finite and strictly positive")
    lam_max = 1.01 * float(lam_values.max())
    if not np.isfinite(lam_max * model.period * n):
        raise ModelError("dominating rate overflow")

    gen = rng.generator()
    counts = gen.poisson(lam_max * model.period, size=n)
    total = int(counts.sum())
    candidates = gen.uniform(0.0, model.period, size=total)
    accept = gen.uniform(size=total) * lam_max < np.asarray(lam(candidates), dtype=float)
    return _events(model.period, n, np.repeat(np.arange(n), counts)[accept], candidates[accept])


def _log_likelihood(model: PoissonModel, events: PeriodicEvents) -> Callable:
    """Periodic-sample log-likelihood; -inf where the intensity is not positive at an event.

    It broadcasts over an array of thetas, each a row against the pooled
    events and the compensator's Simpson nodes; a scalar theta is passed
    to the model as it is.
    """
    pooled = events.pooled()
    n = events.n
    nodes = np.linspace(0.0, model.period, 2 * _COMPENSATOR_PANELS + 1)
    dt = model.period / (2 * _COMPENSATOR_PANELS)

    def loglik(theta):
        rows = np.shape(theta)
        th = np.asarray(theta, dtype=float)[:, None] if rows else theta
        lam = np.broadcast_to(np.asarray(model.intensity(th, pooled), dtype=float), rows + pooled.shape)
        rate = np.broadcast_to(np.asarray(model.intensity(th, nodes), dtype=float), rows + nodes.shape)
        total = dt / 3.0 * (
            rate[..., 0] + rate[..., -1] + 4.0 * rate[..., 1:-1:2].sum(axis=-1) + 2.0 * rate[..., 2:-2:2].sum(axis=-1)
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.sum(np.log(lam), axis=-1) - n * total
        return np.where(np.any(lam <= 0.0, axis=-1), -np.inf, value)

    return loglik


def mle_poisson(model: PoissonModel, events: PeriodicEvents, tol: float = 1e-6) -> float:
    """Maximizer of the periodic-sample log-likelihood."""
    if events.times.size < 1:
        raise ConfigError("need at least one event to estimate the intensity")
    return maximize_1d(_log_likelihood(model, events), model.theta_domain, tol=tol)


def empirical_mean_measure(events: PeriodicEvents, n_first: int, t_grid: np.ndarray) -> np.ndarray:
    """Average counting path over the first n_first periods on a time grid."""
    if n_first < 1:
        raise ConfigError(f"need at least one period, got {n_first}")
    return np.searchsorted(np.sort(events.times[: events.offsets[n_first]]), t_grid, side="right") / n_first


def mde_linear_intensity(
    model: LinearPoissonModel,
    events: PeriodicEvents,
    N: int | None = None,
    mean_path: np.ndarray | None = None,
) -> float:
    """Minimum-distance estimate for the linear-intensity family.

    Projects the averaged counting path of the first N periods onto the
    integrated profile; unbiased for the linear family.  N defaults to
    floor(sqrt(n)).  mean_path substitutes a precomputed averaged counting
    path on the internal time grid (deterministic inputs recover their
    parameter exactly).
    """
    if not isinstance(model, LinearPoissonModel) or model.profile is None:
        raise ConfigError("minimum-distance estimator requires the linear-intensity family")
    if N is None:
        N = int(math.isqrt(events.n))
    if N < 1:
        raise ConfigError(f"need N >= 1 periods, got {N}")
    if N > events.n:
        raise ConfigError(f"N={N} exceeds the number of observed periods {events.n}")
    tg = np.linspace(0.0, model.period, _T_GRID_NODES)
    dt = tg[1] - tg[0]
    if mean_path is None:
        lam_hat = empirical_mean_measure(events, N, tg)
    else:
        lam_hat = np.asarray(mean_path, dtype=float)
        if lam_hat.shape != tg.shape:
            raise ConfigError(f"mean_path must have {tg.size} grid values")
    profile_cum = cumulative_simpson(np.asarray(model.profile(tg), dtype=float), dt)
    num = simpson_array((lam_hat - model.lam0 * tg) * profile_cum, dt)
    den = simpson_array(profile_cum**2, dt)
    return float(num / den)


def fisher_poisson(model: PoissonModel, theta: float) -> float:
    """Information integral of the squared relative intensity sensitivity."""
    value = integrate_1d(
        lambda t: np.asarray(model.intensity_dtheta(theta, t), dtype=float) ** 2
        / np.asarray(model.intensity(theta, t), dtype=float),
        0.0,
        model.period,
        n_panels=512,
    )
    if not np.isfinite(value) or value <= 0.0:
        raise ModelError(f"information integral must be positive, got {value!r} at theta={theta}")
    return value


def _head_size(events: PeriodicEvents, N: int | None) -> int:
    """The preliminary fit's period count N, floor(sqrt(n)) by default, leaving a held-out period."""
    N = int(math.isqrt(events.n)) if N is None else N
    if not 0 <= N < events.n:
        raise ConfigError(f"need 0 <= N < n, got N={N}, n={events.n}")
    return N


def score_path_poisson(
    model: PoissonModel,
    events: PeriodicEvents,
    theta_bar: float,
    theta_hat: float,
    N: int | None = None,
) -> ScorePath:
    """Score process over the periods after the first N, on the merged time set.

    Event weights use the preliminary estimate; the compensator uses the
    full-sample estimate.  The path is evaluated on the union of a fine
    grid and the event times so jumps are represented exactly.
    """
    N = _head_size(events, N)
    tg = np.linspace(0.0, model.period, _T_GRID_NODES)
    dt = tg[1] - tg[0]
    lam_bar = np.asarray(model.intensity(theta_bar, tg), dtype=float)
    if not np.all(lam_bar > 0.0):
        raise ModelError(f"intensity must be strictly positive on the period at theta={theta_bar}")
    info = fisher_poisson(model, theta_bar)
    scale = 1.0 / math.sqrt(info * events.n)
    lam_dot = np.asarray(model.intensity_dtheta(theta_bar, tg), dtype=float)
    comp_rate = lam_dot * np.asarray(model.intensity(theta_hat, tg), dtype=float) / lam_bar
    comp_cum = (events.n - N) * cumulative_simpson(comp_rate, dt)

    pooled = events.pooled(first=N)
    times = np.unique(np.concatenate([tg, pooled]))
    jump_weights = np.asarray(model.intensity_dtheta(theta_bar, pooled), dtype=float) / np.asarray(
        model.intensity(theta_bar, pooled), dtype=float
    )
    jumps = np.concatenate([[0.0], np.cumsum(jump_weights)])
    stoch = jumps[np.searchsorted(pooled, times, side="right")]
    values = scale * (stoch - np.interp(times, tg, comp_cum))

    tau_grid = cumulative_trapezoid(lam_dot**2 / (info * lam_bar), dt)
    return ScorePath(times=times, values=values, time_change=time_change(np.interp(times, tg, tau_grid)))


def run_test_poisson(
    model: PoissonModel,
    events: PeriodicEvents,
    alpha: float,
    approach: str = "split",
    kind: str = "cvm",
    N: int | None = None,
) -> TestOutcome:
    """Estimate, build the score path over the held-out periods, and test.

    The preliminary estimate is the minimum-distance projection for the
    linear family and a first-N-periods likelihood fit otherwise.
    """
    if approach != "split":
        raise ConfigError(f"unknown poisson approach {approach!r}")
    N = _head_size(events, N)
    theta_hat = mle_poisson(model, events)
    if isinstance(model, LinearPoissonModel) and model.profile is not None:
        theta_bar = model.theta_domain.clip(mde_linear_intensity(model, events, N=N))
    else:
        head = PeriodicEvents(events.period, events.times[: events.offsets[N]], events.offsets[: N + 1])
        theta_bar = mle_poisson(model, head)
    path = score_path_poisson(model, events, theta_bar, theta_hat, N=N)
    return decide(path, alpha, kind, approach, theta_hat, theta_bar)


def events_from_rows(period: float, n: int, rows: np.ndarray) -> PeriodicEvents:
    """Build PeriodicEvents from (period_index, time) rows, e.g. a CSV load."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise ConfigError("event rows must be two columns: period_index, time")
    if not np.all(np.isfinite(rows)):
        raise ConfigError("event rows must be finite")
    if np.any(rows[:, 0] != np.floor(rows[:, 0])):
        raise ConfigError("period indices must be whole numbers")
    if np.any((rows[:, 0] < 0) | (rows[:, 0] >= n)):
        raise ConfigError("period indices must lie in [0, n)")
    if np.any((rows[:, 1] < 0.0) | (rows[:, 1] >= period)):
        raise ConfigError("event times must lie in [0, period)")
    return _events(period, n, rows[:, 0].astype(int), rows[:, 1])


def sin_profile(period: float, amplitude: float = 0.5) -> Callable:
    """Positive periodic profile 1 + amplitude * sin(2 pi t / period)."""
    if not 0.0 <= amplitude < 1.0:
        raise ConfigError("profile amplitude must lie in [0, 1)")

    def profile(t):
        return 1.0 + amplitude * np.sin(2.0 * np.pi * np.asarray(t, dtype=float) / period)

    return profile


def step_bump_intensity(model: LinearPoissonModel, theta0: float, bump: float = 0.5) -> Callable:
    """Family intensity at theta0 plus a late-half step, outside the family."""
    if not isinstance(model, LinearPoissonModel):
        raise ConfigError("step-bump alternative needs the linear-intensity family")
    half = 0.5 * model.period

    def lam_alt(t):
        t = np.asarray(t, dtype=float)
        return theta0 * np.asarray(model.profile(t), dtype=float) + model.lam0 + bump * (t > half)

    return lam_alt
