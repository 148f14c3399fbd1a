"""Shared numerics used by every model pipeline.

Provides bounded scalar maximization (a coarse grid scan, in one call when
the objective broadcasts over theta, then Brent's parabolic-plus-golden
refinement of every sampled peak), composite Simpson quadrature, a
classical Runge-Kutta ODE integrator on uniform grids, the discretized
diffusion log-likelihood, densities tabulated on a state grid, and
counter-based random streams that make Monte Carlo replication
deterministic under any degree of parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0  # golden-section step as a share of the longer bracket side


@dataclass(frozen=True)
class ParamInterval:
    """Open scalar parameter interval (lower, upper)."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ConfigError(f"parameter interval must be finite, got ({self.lower}, {self.upper})")
        if not self.lower < self.upper:
            raise ConfigError(f"parameter interval needs lower < upper, got ({self.lower}, {self.upper})")

    def clip(self, theta: float) -> float:
        return float(min(max(theta, self.lower), self.upper))

    def contains(self, theta: float) -> bool:
        return self.lower < theta < self.upper

    def near_boundary(self, theta: float, tol: float) -> bool:
        return (theta - self.lower) <= tol or (self.upper - theta) <= tol


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [start, end] with num_steps steps (num_steps + 1 points)."""

    start: float
    end: float
    num_steps: int

    def __post_init__(self):
        if not self.start < self.end:
            raise ConfigError(f"grid needs start < end, got [{self.start}, {self.end}]")
        if self.num_steps < 2:
            raise ConfigError(f"grid needs num_steps >= 2, got {self.num_steps}")

    @property
    def h(self) -> float:
        return (self.end - self.start) / self.num_steps

    def points(self) -> np.ndarray:
        return np.linspace(self.start, self.end, self.num_steps + 1)


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream identified by (master_seed, stream_id).

    Two streams with identical fields yield bit-identical draw sequences,
    and distinct stream ids index independent Philox keys, so replicates
    can be generated in any order or batch layout without changing output.
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed % 2**64, self.stream_id % 2**64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class GridDensity:
    """Density values f on a uniform state grid x."""

    x: np.ndarray
    f: np.ndarray

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def cdf(self) -> np.ndarray:
        c = cumulative_trapezoid(self.f, self.dx)
        return c / c[-1]


def diffusion_loglik(drift: Callable, dx: np.ndarray, inv_sig2: np.ndarray, h: float) -> Callable[[float], float]:
    """Discretized diffusion log-likelihood theta -> sum S dX / sigma^2 - h/2 sum S^2 / sigma^2.

    drift(theta) gives S at the left points of the increments dx, and
    inv_sig2 holds 1 / sigma^2 there; h is the step.
    """
    w = inv_sig2 * dx

    # einsum, not np.dot: BLAS sums in an order that depends on its thread
    # count, and the optimizer's parabolic steps would carry that rounding
    # into theta_hat.
    def loglik(theta: float) -> float:
        s = np.asarray(drift(theta), dtype=float)
        return float(np.einsum("i,i->", s, w) - 0.5 * h * np.einsum("i,i,i->", s, s, inv_sig2))

    return loglik


def _eval_scalar(f: Callable[[float], float], x: float) -> float:
    v = float(f(x))
    if not np.isfinite(v):
        raise NumericalError(f"objective returned a non-finite value at theta={x!r}")
    return v


def _eval_array(f: Callable, xs: np.ndarray) -> np.ndarray:
    """Evaluate f on a node array, accepting vectorized or scalar-only callables.

    The array call is tried first; a callable that rejects it, or returns
    anything but one value per node, is called once per node with a Python
    float.
    """
    try:
        out = np.asarray(f(xs), dtype=float)
        if out.shape == xs.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(f(float(x))) for x in xs])


def _brent_max(f, lo: float, hi: float, x: float, fx: float, tol: float) -> tuple[float, float]:
    """Brent's parabolic-plus-golden maximization on [lo, hi], started at x with f(x) = fx.

    A trial point replaces the incumbent only when its value is strictly
    higher, so on a flat stretch the start point is kept.  The search stops
    once the incumbent lies within tol of both ends of the shrinking bracket
    and returns it with its value.  Brent (1973), Algorithms for
    Minimization without Derivatives, ch. 5.
    """
    a, b = lo, hi
    v = w = x
    fv = fw = fx
    d = e = 0.0  # last step and the step before it
    tol1 = 0.5 * tol
    while True:
        m = 0.5 * (a + b)
        if abs(x - m) <= tol - 0.5 * (b - a):
            return x, fx
        golden = True
        if abs(e) > tol1:
            # Vertex of the parabola through (x, fx), (w, fw), (v, fv).
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # Accept it only inside the bracket and if it moves less than half the step before last.
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                golden = False
                if (x + d) - a < tol or b - (x + d) < tol:
                    d = tol1 if m >= x else -tol1
        if golden:
            e = (a - x) if x >= m else (b - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else (tol1 if d >= 0.0 else -tol1))
        fu = _eval_scalar(f, u)
        if fu > fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


def maximize_1d(
    objective: Callable[[float], float],
    interval: ParamInterval,
    tol: float = 1e-8,
    grid_points: int = 64,
) -> float:
    """Maximize a scalar objective over an open interval.

    A coarse grid of interior points is scanned first, in one call on the
    grid array when the objective broadcasts over theta and one call per
    point otherwise.  Every sampled local maximum is refined by Brent's
    parabolic-plus-golden search in its bracketing cell, started from the
    grid point; the refined point is within tol of a maximizer of the cell
    when the objective is unimodal there.  Among candidates whose values tie
    within floating-point resolution the lowest theta wins, which makes the
    result deterministic for flat or multi-peaked objectives.  Non-finite
    objective values raise NumericalError.
    """
    if tol <= 0:
        raise ConfigError(f"tol must be positive, got {tol}")
    a, b = interval.lower, interval.upper
    xs = np.linspace(a, b, grid_points + 2)[1:-1]
    fs = _eval_array(objective, xs)
    bad = ~np.isfinite(fs)
    if bad.any():
        raise NumericalError(f"objective returned a non-finite value at theta={float(xs[bad][0])!r}")

    padded = np.concatenate([[-np.inf], fs, [-np.inf]])
    peaks = np.flatnonzero((fs >= padded[:-2]) & (fs >= padded[2:]))

    cand_x = list(xs)
    cand_f = list(fs)
    h = xs[1] - xs[0]
    for i in peaks:
        lo = max(a, float(xs[i] - h))
        hi = min(b, float(xs[i] + h))
        x_ref, f_ref = _brent_max(objective, lo, hi, float(xs[i]), float(fs[i]), tol)
        cand_x.append(x_ref)
        cand_f.append(f_ref)

    cand_x = np.asarray(cand_x)
    cand_f = np.asarray(cand_f)
    f_best = cand_f.max()
    spread = f_best - cand_f.min()
    tie = 64.0 * np.finfo(float).eps * max(abs(f_best), spread)
    return float(cand_x[cand_f >= f_best - tie].min())


def integrate_1d(f: Callable, a: float, b: float, n_panels: int = 256) -> float:
    """Composite Simpson quadrature with n_panels panels (2*n_panels+1 nodes)."""
    if not a < b:
        raise ConfigError(f"integration needs a < b, got [{a}, {b}]")
    if n_panels < 2:
        raise ConfigError(f"n_panels must be >= 2, got {n_panels}")
    xs = np.linspace(a, b, 2 * n_panels + 1)
    fx = _eval_array(f, xs)
    if not np.all(np.isfinite(fx)):
        bad = xs[~np.isfinite(fx)][0]
        raise NumericalError(f"integrand non-finite at x={bad!r}")
    h = (b - a) / (2 * n_panels)
    return float(h / 3.0 * (fx[0] + fx[-1] + 4.0 * fx[1:-1:2].sum() + 2.0 * fx[2:-2:2].sum()))


def simpson_array(values: np.ndarray, dx: float) -> float:
    """Composite Simpson on uniformly sampled values (odd point count required)."""
    values = np.asarray(values, dtype=float)
    if values.size < 3 or values.size % 2 == 0:
        raise ConfigError(f"simpson_array needs an odd number of points >= 3, got {values.size}")
    return float(dx / 3.0 * (values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-2:2].sum()))


def cumulative_trapezoid(values: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative trapezoid starting at 0; nondecreasing for nonnegative input."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    out[0] = 0.0
    np.cumsum(0.5 * dx * (values[1:] + values[:-1]), out=out[1:])
    return out


def cumulative_simpson(values: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral with local quadratic (Simpson-grade) increments.

    The increment over each interval integrates the parabola through the
    three surrounding samples, matching composite Simpson accuracy while
    providing a value at every node.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 3:
        raise ConfigError(f"cumulative_simpson needs >= 3 points, got {n}")
    inc = np.empty(n - 1)
    inc[0] = dx / 12.0 * (5.0 * values[0] + 8.0 * values[1] - values[2])
    inc[1:] = dx / 12.0 * (-values[:-2] + 8.0 * values[1:-1] + 5.0 * values[2:])
    out = np.empty(n)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    return out


def ode_solve(rhs: Callable, x0: float | np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Classical 4th-order Runge-Kutta on a uniform grid; first value is x0.

    x0 may also be an array of independent states, advanced together in one
    loop: rhs then takes and returns arrays of x0's shape, and row i of the
    result holds the states at grid point i.  Each component goes through
    the same floating-point operations as a scalar solve, so it matches one
    bit for bit; the solve stops as soon as any component is non-finite.
    """
    ts = grid.points()
    h = grid.h
    out = np.empty((ts.size,) + np.shape(x0))
    out[0] = x0
    x = float(x0) if out.ndim == 1 else out[0].copy()
    half = 0.5 * h
    for i in range(ts.size - 1):
        t = ts[i]
        k1 = rhs(t, x)
        k2 = rhs(t + half, x + half * k1)
        k3 = rhs(t + half, x + half * k2)
        k4 = rhs(t + h, x + h * k3)
        x = x + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not np.all(np.isfinite(x)):
            raise NumericalError(f"ODE state became non-finite at t={ts[i + 1]!r}")
        out[i + 1] = x
    return out


def two_sample_ks(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov distance sup |F_a - F_b|."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))
