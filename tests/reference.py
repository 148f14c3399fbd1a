"""Independent references and one-sample wrappers that only the tests use.

The library simulates and tests in batches and tabulates the small-noise
information over theta; these helpers draw one sample from a single
stream, solve the small-noise information at one theta, or recompute a
quantity by a route the library does not take (an information integral
straight from the invariant or stationary density, a mean measure by
cumulative Simpson, an occupation distance, a Monte Carlo sup sampler), so
that tests can check the library against them.
"""

import numpy as np

from sfgof.ar import ARModel, SeriesSample, sample_at, simulate_ar_batch, stationary_density
from sfgof.ergodic import ErgodicModel, excursion_mask, invariant_density, simulate_ergodic_batch
from sfgof.ergodic import trajectory_at as ergodic_trajectory_at
from sfgof.errors import ConfigError, ModelError
from sfgof.inference_kit import GridDensity, RngStream, TimeGrid, cumulative_simpson, simpson_array
from sfgof.limit_laws import _bridge_values_batch
from sfgof.poisson import _T_GRID_NODES, PoissonModel
from sfgof.score import ScorePath
from sfgof.small_noise import (
    SmallNoiseModel,
    Trajectory,
    _flow_information,
    drift_flow,
    simulate_sde_batch,
    trajectory_at,
)


def simulate_sde(
    model: SmallNoiseModel,
    theta0: float,
    epsilon: float,
    grid: TimeGrid,
    rng: RngStream,
) -> Trajectory:
    """Euler path of the model SDE; epsilon = 0 reproduces the drift ODE flow."""
    return trajectory_at(simulate_sde_batch(model, theta0, epsilon, grid, [rng]), grid, epsilon, 0)


def simulate_ergodic(model: ErgodicModel, theta0: float, T: float, step: float, rng: RngStream) -> Trajectory:
    """One stationary-start Euler path as a Trajectory (epsilon field unused, set to 1)."""
    paths = simulate_ergodic_batch(model, theta0, T, step, [rng])
    return ergodic_trajectory_at(paths, excursion_mask(model, paths), step, 0)


def simulate_ar(model: ARModel, theta0: float, n: int, rng: RngStream) -> SeriesSample:
    """Stationary-start sample of length n + 1."""
    return sample_at(simulate_ar_batch(model, theta0, n, [rng]), 0)


def simulate_bridge(m: int, rng: RngStream) -> ScorePath:
    """One Brownian bridge W(tau) - tau * W(1) on an m-step grid, as a score path in its own time."""
    if m < 2:
        raise ConfigError(f"bridge grid needs m >= 2, got {m}")
    taus = np.linspace(0.0, 1.0, m + 1)
    return ScorePath(taus, _bridge_values_batch(m, 1, rng.generator())[0], taus)


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


def fisher_small_noise(model: SmallNoiseModel, theta: float, num_steps: int = 1024) -> float:
    """Information integral of the drift sensitivity along the noise-free flow."""
    grid = TimeGrid(0.0, model.horizon, num_steps)
    return _flow_information(model, theta, grid, drift_flow(model, theta, grid))


def fisher_ergodic(model: ErgodicModel, theta: float) -> float:
    """Information integral of the squared drift sensitivity under the invariant law."""
    dens = invariant_density(model, theta)
    w = (
        np.asarray(model.drift_dtheta(theta, dens.x), dtype=float)
        / np.asarray(model.diffusion(dens.x), dtype=float)
    ) ** 2 * dens.f
    info = simpson_array(w, dens.dx)
    if not np.isfinite(info) or info <= 0.0:
        raise ModelError(f"information integral must be positive, got {info!r} at theta={theta}")
    return info


def occupation_tv(traj: Trajectory, dens: GridDensity, n_bins: int = 32) -> float:
    """Total-variation distance between the path occupation and the invariant law.

    Bins span the central 99.8% invariant mass; the two tails form one bin
    each so both measures are compared as full distributions.
    """
    cdf = dens.cdf()
    lo = float(np.interp(0.001, cdf, dens.x))
    hi = float(np.interp(0.999, cdf, dens.x))
    edges = np.linspace(lo, hi, n_bins + 1)
    p_model = np.diff(np.interp(edges, dens.x, cdf))
    p_model = np.concatenate([[np.interp(edges[0], dens.x, cdf)], p_model, [1.0 - np.interp(edges[-1], dens.x, cdf)]])
    counts, _ = np.histogram(traj.values, bins=np.concatenate([[-np.inf], edges, [np.inf]]))
    p_path = counts / traj.values.size
    return float(0.5 * np.sum(np.abs(p_path - p_model)))


def state_information(model: ARModel, theta: float) -> float:
    """Stationary expectation of the squared regression sensitivity."""
    dens = stationary_density(model, theta)
    sens = np.asarray(model.regression_dtheta(theta, dens.x), dtype=float)
    value = simpson_array(sens**2 * dens.f, dens.dx)
    if not np.isfinite(value) or value <= 0.0:
        raise ModelError(f"state information must be positive, got {value!r} at theta={theta}")
    return float(value)


def mean_measure(model: PoissonModel, theta: float, t: np.ndarray) -> np.ndarray:
    """Cumulative intensity evaluated at times t by cumulative Simpson."""
    tg = np.linspace(0.0, model.period, _T_GRID_NODES)
    cum = cumulative_simpson(np.asarray(model.intensity(theta, tg), dtype=float), tg[1] - tg[0])
    return np.interp(t, tg, cum)


def step_value(score: ScorePath, x: float) -> float:
    """Value of a step-function score path at index level x."""
    if not score.step_function:
        raise ConfigError("step_value only applies to step-function score paths")
    idx = int(np.searchsorted(score.times, x, side="right")) - 1
    if idx < 0:
        return 0.0
    return float(score.values[min(idx, score.values.size - 1)])
