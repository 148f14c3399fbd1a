"""Monte Carlo experiment engine: size and power studies for every family.

Replicates are indexed by a counter-based substream of the master seed, so
reports are bit-identical for a given (config, master_seed) regardless of
chunking or thread count.  Replicates that blow up numerically are
excluded and counted; a run with more than 1% exclusions is flagged as
failed.  An ``oracle`` pseudo-family draws the limit statistic directly
and serves as a calibration hook for the harness itself.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ar, catalog, ergodic, limit_laws, poisson, small_noise
from .errors import ConfigError, ModelError, NumericalError
from .inference_kit import RngStream, TimeGrid, two_sample_ks
from .score import delta_stat

_EXCLUSION_CEILING = 0.01
_REPORT_QUANTILES = (0.5, 0.9, 0.95, 0.99)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one size or power experiment."""

    family: str
    knob: str
    knob_value: float
    replicates: int
    alphas: tuple = (0.05,)
    kind: str = "cvm"
    approach: str = "split"
    master_seed: int = 0
    model_params: dict = field(default_factory=dict)
    sim_params: dict = field(default_factory=dict)
    alternative: str | None = None
    alternative_params: dict = field(default_factory=dict)
    threads: int = 1
    chunk_size: int = 250
    label: str = ""

    def __post_init__(self):
        if self.replicates < 100:
            raise ConfigError(f"need at least 100 replicates, got {self.replicates}")
        for alpha in self.alphas:
            if not 0.0 < alpha < 1.0:
                raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
        if self.threads < 1 or self.chunk_size < 1:
            raise ConfigError("threads and chunk_size must be positive")

    def name(self) -> str:
        if self.label:
            return self.label
        mode = "power" if self.alternative else "size"
        return f"{self.family}-{mode}-{self.kind}"


@dataclass
class ReplicateBlock:
    """Per-replicate results for a contiguous block; nan marks exclusion."""

    statistics: np.ndarray
    theta_hat: np.ndarray
    theta_bar: np.ndarray


@dataclass(frozen=True)
class AlphaRow:
    alpha: float
    rejections: int
    rate: float
    wilson_lo: float
    wilson_hi: float


@dataclass
class ExperimentReport:
    """Aggregated experiment results plus the full config echo."""

    config: ExperimentConfig
    rows: list
    statistics: np.ndarray
    theta_hat: np.ndarray
    theta_bar: np.ndarray
    excluded: int
    ks_to_oracle: float
    quantiles: dict
    wall_clock: float

    @property
    def exclusions_exceeded(self) -> bool:
        return self.excluded > _EXCLUSION_CEILING * self.config.replicates

    def csv_text(self) -> str:
        cfg = self.config
        model_name = cfg.model_params.get("name", cfg.family)
        model_id = f"{cfg.family}/{model_name}" + (f"+{cfg.alternative}" if cfg.alternative else "")
        lines = ["model,knob,knob_value,alpha,kind,approach,M,rejections,rate,wilson_lo,wilson_hi,ks_to_oracle,excluded"]
        for row in self.rows:
            lines.append(
                f"{model_id},{cfg.knob},{cfg.knob_value:.10g},{row.alpha:.10g},{cfg.kind},{cfg.approach},"
                f"{cfg.replicates},{row.rejections},{row.rate:.10g},{row.wilson_lo:.10g},{row.wilson_hi:.10g},"
                f"{self.ks_to_oracle:.10g},{self.excluded}"
            )
        return "\n".join(lines) + "\n"

    def sidecar_text(self) -> str:
        cfg_echo = json.dumps(dataclasses.asdict(self.config), indent=2, sort_keys=True, default=str)
        quant = json.dumps({f"{q:g}": v for q, v in self.quantiles.items()}, indent=2)
        return (
            f"config:\n{cfg_echo}\n"
            f"statistic_quantiles:\n{quant}\n"
            f"excluded: {self.excluded}\n"
            f"wall_clock_seconds: {self.wall_clock:.3f}\n"
        )

    def write(self, out_dir: str | Path) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{self.config.name()}.csv"
        csv_path.write_text(self.csv_text())
        (out / f"{self.config.name()}.meta.txt").write_text(self.sidecar_text())
        return csv_path


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ConfigError("Wilson interval needs at least one trial")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def compare_to_oracle(statistics: np.ndarray, kind: str) -> float:
    """Kolmogorov distance between a statistic sample and the limit law, via its exact quantile grid."""
    statistics = np.asarray(statistics, dtype=float)
    if statistics.size < 500:
        raise ConfigError(f"need at least 500 statistics, got {statistics.size}")
    return two_sample_ks(statistics, limit_laws.oracle_statistics(kind))


def _replicate_streams(config: ExperimentConfig, start: int, stop: int) -> list[RngStream]:
    return [RngStream(config.master_seed, i) for i in range(start, stop)]


def _empty_block(size: int) -> ReplicateBlock:
    return ReplicateBlock(np.full(size, np.nan), np.full(size, np.nan), np.full(size, np.nan))


def _prepare_small_noise(config: ExperimentConfig):
    model = catalog.build_small_noise_model(config.model_params)
    theta0 = config.model_params.get("theta0", 0.5)
    epsilon = float(config.knob_value)
    num_steps = int(config.sim_params.get("num_steps", small_noise.DEFAULT_NUM_STEPS))
    grid = TimeGrid(0.0, model.horizon, num_steps)
    sim_model = (
        catalog.small_noise_alternative(model, config.alternative, config.alternative_params)
        if config.alternative
        else model
    )

    def block_fn(start: int, stop: int) -> ReplicateBlock:
        paths = small_noise.simulate_sde_batch(
            sim_model, theta0, epsilon, grid, _replicate_streams(config, start, stop)
        )
        block = _empty_block(stop - start)
        for j in range(stop - start):
            column = paths[:, j]
            if not np.all(np.isfinite(column)):
                continue
            traj = small_noise.Trajectory(grid, column, epsilon)
            try:
                theta_hat = small_noise.mle_small_noise(model, traj)
                if config.approach == "split":
                    theta_bar = small_noise.mde_preliminary(model, traj)
                    path = small_noise.score_path_split(model, traj, theta_bar, theta_hat)
                    block.theta_bar[j] = theta_bar
                elif config.approach == "ito":
                    path = small_noise.score_path_ito(model, traj, theta_hat)
                else:
                    raise ConfigError(f"unknown small-noise approach {config.approach!r}")
                block.statistics[j] = delta_stat(path, config.kind)
                block.theta_hat[j] = theta_hat
            except (NumericalError, ModelError):
                continue
        return block

    return block_fn


def _prepare_ergodic(config: ExperimentConfig):
    model = catalog.build_ergodic_model(config.model_params)
    theta0 = config.model_params.get("theta0", 1.0)
    horizon = float(config.knob_value)
    step = float(config.sim_params.get("step", 0.01))
    d_t = config.sim_params.get("d_T")
    sim_model = (
        catalog.ergodic_alternative(model, config.alternative, config.alternative_params)
        if config.alternative
        else model
    )

    def block_fn(start: int, stop: int) -> ReplicateBlock:
        paths = ergodic.simulate_ergodic_batch(
            sim_model, theta0, horizon, step, _replicate_streams(config, start, stop)
        )
        ok = ergodic.excursion_mask(sim_model, paths)
        n = paths.shape[0] - 1
        grid = TimeGrid(0.0, n * step, n)
        block = _empty_block(stop - start)
        for j in range(stop - start):
            if not ok[j]:
                continue
            traj = small_noise.Trajectory(grid, paths[:, j], 1.0)
            try:
                theta_hat = ergodic.mle_ergodic(model, traj)
                if config.approach == "split":
                    theta_bar = ergodic.preliminary_moments(model, traj)
                    path = ergodic.score_path_x_split(model, traj, theta_bar, theta_hat)
                    block.theta_bar[j] = theta_bar
                elif config.approach == "smoothed":
                    path = ergodic.score_path_x_smoothed(model, traj, theta_hat, d_T=d_t)
                else:
                    raise ConfigError(f"unknown ergodic approach {config.approach!r}")
                block.statistics[j] = delta_stat(path, config.kind)
                block.theta_hat[j] = theta_hat
            except (NumericalError, ModelError):
                continue
        return block

    return block_fn


def _prepare_poisson(config: ExperimentConfig):
    model = catalog.build_poisson_model(config.model_params)
    theta0 = config.model_params.get("theta0", 2.0)
    n_periods = int(config.knob_value)
    n_head = config.sim_params.get("N")
    intensity_fn = (
        catalog.poisson_alternative(model, config.alternative, config.alternative_params)
        if config.alternative
        else None
    )

    def block_fn(start: int, stop: int) -> ReplicateBlock:
        block = _empty_block(stop - start)
        for j, stream in enumerate(_replicate_streams(config, start, stop)):
            try:
                events = poisson.simulate_periodic_poisson(
                    model, theta0, n_periods, stream, intensity_fn=intensity_fn
                )
                outcome = poisson.run_test_poisson(model, events, config.alphas[0], kind=config.kind, N=n_head)
                block.statistics[j] = outcome.statistic
                block.theta_hat[j] = outcome.theta_hat
                block.theta_bar[j] = outcome.theta_bar
            except (NumericalError, ModelError):
                continue
        return block

    return block_fn


def _prepare_ar(config: ExperimentConfig):
    model = catalog.build_ar_model(config.model_params)
    theta0 = config.model_params.get("theta0", 0.5)
    n = int(config.knob_value)
    sim_model = (
        catalog.ar_alternative(model, config.alternative, config.alternative_params) if config.alternative else model
    )

    def block_fn(start: int, stop: int) -> ReplicateBlock:
        paths = ar.simulate_ar_batch(sim_model, theta0, n, _replicate_streams(config, start, stop))
        block = _empty_block(stop - start)
        for j in range(stop - start):
            column = paths[:, j]
            if not np.all(np.isfinite(column)):
                continue
            sample = ar.SeriesSample(values=column)
            try:
                theta_hat = ar.mle_ar(model, sample)
                path = ar.score_path_ar(model, sample, theta_hat)
                block.statistics[j] = delta_stat(path, config.kind)
                block.theta_hat[j] = theta_hat
            except (NumericalError, ModelError):
                continue
        return block

    return block_fn


def _prepare_oracle(config: ExperimentConfig):
    """Calibration hook: draw the limit statistic itself, one path per replicate."""
    m = int(config.sim_params.get("m", 1000))

    def block_fn(start: int, stop: int) -> ReplicateBlock:
        block = _empty_block(stop - start)
        for j, stream in enumerate(_replicate_streams(config, start, stop)):
            if config.kind == "ks":
                block.statistics[j] = limit_laws.bridge_sup_samples(1, m, stream)[0]
            else:
                path = limit_laws.simulate_bridge(m, stream)
                block.statistics[j] = limit_laws.bridge_functional(path, "cvm")
        return block

    return block_fn


_FAMILY_PREPARERS = {
    "small-noise": _prepare_small_noise,
    "ergodic": _prepare_ergodic,
    "poisson": _prepare_poisson,
    "ar": _prepare_ar,
    "oracle": _prepare_oracle,
}


def _execute(config: ExperimentConfig) -> ExperimentReport:
    if config.family not in _FAMILY_PREPARERS:
        raise ConfigError(f"unknown family {config.family!r}")
    block_fn = _FAMILY_PREPARERS[config.family](config)
    t_start = time.perf_counter()

    m_total = config.replicates
    statistics = np.full(m_total, np.nan)
    theta_hat = np.full(m_total, np.nan)
    theta_bar = np.full(m_total, np.nan)
    blocks = [(s, min(s + config.chunk_size, m_total)) for s in range(0, m_total, config.chunk_size)]

    def work(bounds):
        start, stop = bounds
        block = block_fn(start, stop)
        statistics[start:stop] = block.statistics
        theta_hat[start:stop] = block.theta_hat
        theta_bar[start:stop] = block.theta_bar

    if config.threads == 1:
        for bounds in blocks:
            work(bounds)
    else:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            list(pool.map(work, blocks))

    finite = np.isfinite(statistics)
    excluded = int(m_total - finite.sum())
    kept = statistics[finite]
    rows = []
    for alpha in config.alphas:
        crit = limit_laws.default_critical_value(alpha, config.kind).value
        rejections = int(np.sum(kept > crit))
        if kept.size:
            lo, hi = wilson_interval(rejections, kept.size)
            rate = rejections / kept.size
        else:
            lo, hi, rate = 0.0, 1.0, float("nan")
        rows.append(AlphaRow(alpha=alpha, rejections=rejections, rate=rate, wilson_lo=lo, wilson_hi=hi))
    ks = compare_to_oracle(kept, config.kind) if kept.size >= 500 else float("nan")
    quantiles = {q: float(np.quantile(kept, q)) for q in _REPORT_QUANTILES} if kept.size else {}
    return ExperimentReport(
        config=config,
        rows=rows,
        statistics=kept,
        theta_hat=theta_hat[finite],
        theta_bar=theta_bar[finite],
        excluded=excluded,
        ks_to_oracle=ks,
        quantiles=quantiles,
        wall_clock=time.perf_counter() - t_start,
    )


def run_size(config: ExperimentConfig) -> ExperimentReport:
    """Size study: replicates are simulated under the hypothesized family."""
    if config.alternative:
        raise ConfigError("size runs must not declare an alternative")
    return _execute(config)


def run_power(config: ExperimentConfig) -> ExperimentReport:
    """Power study: replicates are simulated under the configured alternative."""
    if not config.alternative:
        raise ConfigError("power runs need an alternative")
    return _execute(config)
