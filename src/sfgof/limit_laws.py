"""Brownian-bridge limit laws and the critical values shared by every test.

The quadratic statistic of each model pipeline converges to
``integral of B(tau)^2 dtau`` and the sup statistic to ``sup |B|`` for a
single Brownian bridge B, so one table of critical values serves all
models.  Both laws are computed exactly with numpy alone: the quadratic
one from the Anderson & Darling (1952) series, whose Bessel factor
K_{1/4} is a trapezoid sum, and the sup one from the Kolmogorov series.
The default critical values solve the exact survival equations by
bisection, and the oracle sample for distribution comparisons is the grid
of exact quantiles, tabulated once per process.  The Monte Carlo routes
(discretized bridge paths, and the eigenvalue series with chi-square
weights) remain as independent cross-checks of the quadratic law.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError, NumericalError
from .inference_kit import RngStream

_DEFAULT_PATHS = 200_000
_DEFAULT_M = 1000
_SERIES_TERMS = 200
_QUANTILE_BATCHES = 20

# Exact-law tables: log-spaced x-nodes per kind, spanning tail probabilities
# below 1e-10 on both sides, and the trapezoid nodes of the K_{1/4} integral.
_TABLE_NODES = 1025
_TABLE_RANGE = {"cvm": (0.004, 5.0), "ks": (0.2, 3.5)}
_BESSEL_NODES = 64
_KS_TERMS = 100


@dataclass(frozen=True)
class BridgePath:
    """A discretized Brownian bridge on a uniform grid over [0, 1]."""

    taus: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.taus.shape != self.values.shape:
            raise ConfigError("bridge grid and values must have equal length")
        if self.values[0] != 0.0 or self.values[-1] != 0.0:
            raise ConfigError("bridge endpoints must be exactly zero")


@dataclass(frozen=True)
class CriticalValue:
    """Critical value c with P(limit statistic > c) = alpha."""

    alpha: float
    value: float
    method: str
    mc_error: float = 0.0


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")


def _bridge_values_batch(m: int, n_paths: int, gen: np.random.Generator) -> np.ndarray:
    """Simulate n_paths bridge skeletons, shape (n_paths, m + 1)."""
    dw = gen.standard_normal((n_paths, m)) * np.sqrt(1.0 / m)
    w = np.cumsum(dw, axis=1)
    taus = np.linspace(0.0, 1.0, m + 1)
    bridge = np.empty((n_paths, m + 1))
    bridge[:, 0] = 0.0
    bridge[:, 1:] = w - taus[1:] * w[:, -1:]
    bridge[:, -1] = 0.0
    return bridge


def simulate_bridge(m: int, rng: RngStream) -> BridgePath:
    """Draw one Brownian bridge as W(tau) - tau * W(1) on an m-step grid."""
    if m < 2:
        raise ConfigError(f"bridge grid needs m >= 2, got {m}")
    values = _bridge_values_batch(m, 1, rng.generator())[0]
    return BridgePath(np.linspace(0.0, 1.0, m + 1), values)


def _cvm_batch(values: np.ndarray) -> np.ndarray:
    # Trapezoid of B^2 on the uniform grid; endpoint terms vanish.
    m = values.shape[1] - 1
    return np.sum(values[:, 1:-1] ** 2, axis=1) / m


def bridge_functional(path: BridgePath, kind: str) -> float:
    """Quadratic (kind='cvm') or sup (kind='ks') functional of a bridge path."""
    if kind == "cvm":
        dt = np.diff(path.taus)
        sq = path.values**2
        return float(np.sum(0.5 * dt * (sq[1:] + sq[:-1])))
    if kind == "ks":
        return float(np.max(np.abs(path.values)))
    raise ConfigError(f"unknown functional kind {kind!r}")


def bridge_cvm_samples(n_paths: int, m: int, rng: RngStream, chunk: int = 20_000) -> np.ndarray:
    """Monte Carlo draws of the quadratic bridge functional."""
    gen = rng.generator()
    out = np.empty(n_paths)
    done = 0
    while done < n_paths:
        take = min(chunk, n_paths - done)
        out[done : done + take] = _cvm_batch(_bridge_values_batch(m, take, gen))
        done += take
    return out


def bridge_sup_samples(
    n_paths: int,
    m: int,
    rng: RngStream,
    chunk: int = 20_000,
    exact_extrema: bool = True,
) -> np.ndarray:
    """Monte Carlo draws of sup |B|.

    With exact_extrema the maximum and minimum of each between-grid segment
    are drawn from their exact conditional law given the skeleton (the
    segments are independent Brownian bridges), which removes the
    O(1/sqrt(m)) downward bias of the plain discrete supremum.
    """
    gen = rng.generator()
    h = 1.0 / m
    out = np.empty(n_paths)
    done = 0
    while done < n_paths:
        take = min(chunk, n_paths - done)
        b = _bridge_values_batch(m, take, gen)
        if exact_extrema:
            left = b[:, :-1]
            right = b[:, 1:]
            s = left + right
            d2 = (right - left) ** 2
            u_hi = gen.uniform(size=(take, m))
            u_lo = gen.uniform(size=(take, m))
            seg_max = 0.5 * (s + np.sqrt(d2 - 2.0 * h * np.log(u_hi)))
            seg_min = 0.5 * (s - np.sqrt(d2 - 2.0 * h * np.log(u_lo)))
            sup = np.maximum(seg_max.max(axis=1), -seg_min.min(axis=1))
        else:
            sup = np.abs(b).max(axis=1)
        out[done : done + take] = sup
        done += take
    return out


def _series_cvm_samples(n_paths: int, terms: int, rng: RngStream, chunk: int = 20_000) -> np.ndarray:
    """Draws of the truncated eigen-expansion sum_k Z_k^2 / (k pi)^2."""
    gen = rng.generator()
    weights = 1.0 / (np.pi * np.arange(1, terms + 1)) ** 2
    out = np.empty(n_paths)
    done = 0
    while done < n_paths:
        take = min(chunk, n_paths - done)
        z = gen.standard_normal((take, terms))
        out[done : done + take] = (z**2) @ weights
        done += take
    return out


def _quantile_with_error(samples: np.ndarray, level: float) -> tuple[float, float]:
    """Type-7 quantile plus a batch-means standard error."""
    value = float(np.quantile(samples, level))
    n_b = _QUANTILE_BATCHES
    usable = (samples.size // n_b) * n_b
    batches = samples[:usable].reshape(n_b, -1)
    bq = np.quantile(batches, level, axis=1)
    err = float(np.std(bq, ddof=1) / np.sqrt(n_b))
    return value, err


def _cvm_cdf_and_density(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CDF and density of the integral of B^2 at positive x (Anderson & Darling, 1952).

    P(W <= x) = (pi sqrt(x))^-1 sum_j c_j sqrt(4j+1) e^{-z_j} K_{1/4}(z_j) with
    c_j = Gamma(j+1/2) / (Gamma(1/2) j!) and z_j = (4j+1)^2 / (16x), where
    e^{-z} K_{1/4}(z) = int_0^inf exp(-z (1 + cosh t)) cosh(t/4) dt is a
    trapezoid sum.  The series stops at the first z_j >= 20 at the largest x
    (terms below e^{-40}); the t-range ends where the integrand at the
    smallest z falls below e^{-40}.
    """
    x_max = float(np.max(x))
    t = np.linspace(0.0, np.arccosh(1.0 + 640.0 * x_max), _BESSEL_NODES)
    weights = np.full(t.size, t[1] - t[0])
    weights[[0, -1]] *= 0.5
    weights *= np.cosh(0.25 * t)
    arg = 1.0 + np.cosh(t)
    cdf = np.zeros(x.shape)
    slope = np.zeros(x.shape)  # x^{3/2} times the density
    c = 1.0
    for j in range(int(np.sqrt(20.0 * x_max)) + 1):
        if j > 0:
            c *= (j - 0.5) / j
        z = (4 * j + 1) ** 2 / (16.0 * x)
        e = np.exp(-np.multiply.outer(z, arg))
        g = e @ weights  # e^{-z} K_{1/4}(z)
        g_dz = -(e @ (weights * arg))  # its derivative in z
        a = c * np.sqrt(4 * j + 1) / np.pi
        cdf += a * g
        slope -= a * (0.5 * g + z * g_dz)
    return cdf / np.sqrt(x), slope / x**1.5


def _ks_cdf_and_density(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CDF and density of sup |B| from the Kolmogorov series."""
    k = np.arange(1, _KS_TERMS + 1)
    signs = (-1.0) ** (k - 1)
    e = np.exp(-2.0 * np.multiply.outer(x**2, k**2))
    return 1.0 - 2.0 * (e @ signs), 8.0 * x * (e @ (signs * k**2))


def _cdf_and_density(x, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Exact CDF and density of the limit statistic at positive x."""
    x = np.asarray(x, dtype=float)
    if kind == "cvm":
        return _cvm_cdf_and_density(x)
    if kind == "ks":
        return _ks_cdf_and_density(x)
    raise ConfigError(f"unknown statistic kind {kind!r}")


def _bisect_survival(survival, alpha: float, lo: float, hi: float) -> float:
    """Root of survival(x) = alpha for a decreasing survival function on [lo, hi]."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if survival(mid) > alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def critical_value_cvm(
    alpha: float,
    method: str = "monte-carlo",
    rng: RngStream | None = None,
    n_paths: int = _DEFAULT_PATHS,
    m: int = _DEFAULT_M,
    terms: int = _SERIES_TERMS,
) -> CriticalValue:
    """Critical value of the quadratic bridge functional.

    method='monte-carlo' takes the empirical (1 - alpha)-quantile over
    simulated bridge paths; method='series' uses the eigen-expansion with
    standard normal coefficients truncated at ``terms``.  Both Monte Carlo
    routes draw from ``rng``, by default RngStream(0, 0).
    """
    _check_alpha(alpha)
    if rng is None:
        rng = RngStream(0, 0)
    if method in ("monte-carlo", "mc"):
        if n_paths < 100_000:
            raise ConfigError(f"monte-carlo route needs n_paths >= 100000, got {n_paths}")
        if m < 1000:
            raise ConfigError(f"monte-carlo route needs m >= 1000, got {m}")
        samples = bridge_cvm_samples(n_paths, m, rng)
        tag = "monte-carlo"
    elif method == "series":
        samples = _series_cvm_samples(n_paths, terms, rng)
        tag = "series"
    else:
        raise ConfigError(f"unknown critical-value method {method!r}")
    value, err = _quantile_with_error(samples, 1.0 - alpha)
    return CriticalValue(alpha=alpha, value=value, method=tag, mc_error=err)


def kolmogorov_survival(x: float, terms: int = 100) -> float:
    """P(sup |B| > x) by the alternating exponential series."""
    if x <= 0.0:
        return 1.0
    k = np.arange(1, terms + 1)
    return float(2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k**2 * x**2)))


def critical_value_ks(alpha: float, terms: int = 100) -> CriticalValue:
    """Critical value of sup |B|, solving the series survival equation by bisection."""
    _check_alpha(alpha)
    value = _bisect_survival(lambda x: kolmogorov_survival(x, terms), alpha, 0.04, 4.0)
    return CriticalValue(alpha=alpha, value=value, method="series", mc_error=0.0)


@lru_cache(maxsize=64)
def default_critical_value(alpha: float, kind: str) -> CriticalValue:
    """Process-wide cached critical values used by the run_test helpers.

    Both are exact: the root of the limit law's survival function, found by
    bisection (method 'exact' for cvm, 'series' for ks, mc_error 0).
    """
    _check_alpha(alpha)
    if kind == "cvm":
        value = _bisect_survival(lambda x: 1.0 - float(_cdf_and_density(x, "cvm")[0]), alpha, *_TABLE_RANGE["cvm"])
        return CriticalValue(alpha=alpha, value=value, method="exact", mc_error=0.0)
    if kind == "ks":
        return critical_value_ks(alpha)
    raise ConfigError(f"unknown statistic kind {kind!r}")


@lru_cache(maxsize=2)
def _quantile_table(kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact CDF on log-spaced nodes u = log x, with its slope dF/du."""
    lo, hi = _TABLE_RANGE[kind]
    u = np.linspace(np.log(lo), np.log(hi), _TABLE_NODES)
    x = np.exp(u)
    cdf, density = _cdf_and_density(x, kind)
    if not np.all(np.diff(cdf) > 0.0):
        raise NumericalError(f"{kind} limit-law table is not increasing")
    return u, cdf, density * x


@lru_cache(maxsize=8)
def oracle_statistics(kind: str, n_paths: int = 100_000) -> np.ndarray:
    """Cached oracle sample of the limit statistic, for distribution comparisons.

    Returns the n_paths exact quantiles Q((i - 1/2) / n_paths), i = 1..n_paths,
    in increasing order, so a two-sample distance to it measures the distance
    to the limit law itself.  Each quantile inverts the tabulated CDF by
    cubic Hermite interpolation of log x against F, which keeps
    |F(Q(p)) - p| below 1e-9.  The array is shared and read-only.
    """
    if kind not in _TABLE_RANGE:
        raise ConfigError(f"unknown statistic kind {kind!r}")
    if n_paths < 1:
        raise ConfigError(f"oracle needs n_paths >= 1, got {n_paths}")
    u, cdf, slope = _quantile_table(kind)
    levels = (np.arange(n_paths) + 0.5) / n_paths
    if levels[0] < cdf[0] or levels[-1] > cdf[-1]:
        raise ConfigError(f"n_paths={n_paths} reaches past the {kind} quantile table")
    k = np.clip(np.searchsorted(cdf, levels, side="right") - 1, 0, cdf.size - 2)
    width = cdf[k + 1] - cdf[k]
    s = (levels - cdf[k]) / width
    # Cubic Hermite basis on [cdf[k], cdf[k+1]] with end slopes du/dF = 1 / slope.
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    out = np.exp(h00 * u[k] + h01 * u[k + 1] + width * (h10 / slope[k] + h11 / slope[k + 1]))
    out.setflags(write=False)
    return out
