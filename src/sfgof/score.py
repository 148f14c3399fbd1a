"""Score-path container and the statistics computed from it.

Every model pipeline produces a ScorePath: the normalized score process
sampled along its index (time for the diffusion and Poisson models, state
level for the ergodic and autoregressive ones) together with the empirical
time change tau.  The quadratic statistic integrates the squared score
against d tau, so after the time change all four pipelines share one limit
law and one critical-value table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .inference_kit import ParamInterval
from .limit_laws import CriticalValue, default_critical_value


@dataclass(frozen=True)
class ScorePath:
    """Normalized score process with its empirical time change.

    values[i] is the score at times[i]; for step_function paths values[i]
    holds on [times[i], times[i+1]).  time_change is nondecreasing with
    final value exactly 1 after renormalization.
    """

    times: np.ndarray
    values: np.ndarray
    time_change: np.ndarray
    weight: np.ndarray
    step_function: bool = False

    def __post_init__(self):
        n = self.times.size
        if not (self.values.size == n and self.time_change.size == n and self.weight.size == n):
            raise ConfigError("score path arrays must have equal length")
        if self.time_change[-1] != 1.0:
            raise ConfigError("time change must end at exactly 1")
        if np.any(np.diff(self.time_change) < 0.0):
            raise ConfigError("time change must be nondecreasing")


def delta_stat(score: ScorePath, kind: str) -> float:
    """Quadratic (d tau weighted) or sup statistic of a score path."""
    if kind == "ks":
        return float(np.max(np.abs(score.values)))
    if kind != "cvm":
        raise ConfigError(f"unknown statistic kind {kind!r}")
    dtau = np.diff(score.time_change)
    sq = score.values**2
    if score.step_function:
        # Piecewise-constant score: the integral is exact on each step.
        return float(np.sum(sq[:-1] * dtau))
    return float(np.sum(0.5 * dtau * (sq[1:] + sq[:-1])))


def step_value(score: ScorePath, x: float) -> float:
    """Value of a step-function score path at index level x."""
    if not score.step_function:
        raise ConfigError("step_value only applies to step-function score paths")
    idx = int(np.searchsorted(score.times, x, side="right")) - 1
    if idx < 0:
        return 0.0
    return float(score.values[min(idx, score.values.size - 1)])


@dataclass(frozen=True)
class TestOutcome:
    """Result of one goodness-of-fit test."""

    statistic: float
    critical: CriticalValue
    alpha: float
    reject: bool
    kind: str
    approach: str
    theta_hat: float
    theta_bar: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.reject != (self.statistic > self.critical.value):
            raise ConfigError("reject flag must equal statistic > critical value")


def decide(
    path: ScorePath,
    alpha: float,
    kind: str,
    approach: str,
    domain: ParamInterval,
    theta_hat: float,
    theta_bar: float | None = None,
    **diagnostics,
) -> TestOutcome:
    """The test at level alpha on a score path, against the exact critical value.

    The outcome's diagnostics start with mle_boundary (theta_hat within a
    thousandth of the interval's width of an end), then the given ones.
    """
    stat = delta_stat(path, kind)
    crit = default_critical_value(alpha, kind)
    return TestOutcome(
        statistic=stat,
        critical=crit,
        alpha=alpha,
        reject=stat > crit.value,
        kind=kind,
        approach=approach,
        theta_hat=theta_hat,
        theta_bar=theta_bar,
        diagnostics={"mle_boundary": domain.near_boundary(theta_hat, 1e-3 * domain.width), **diagnostics},
    )
