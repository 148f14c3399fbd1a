"""Monte Carlo experiment engine: size and power studies for every family.

Replicates are indexed by a counter-based substream of the master seed, so
reports are bit-identical for a given (config, master_seed) regardless of
chunking or worker count.  A study with ``threads=K > 1`` runs its blocks
in up to K worker processes started by fork, so they inherit the prepared
models, lambdas included; each worker runs BLAS on one thread, so that the
workers do not fight BLAS's own threads for the cores.  Where fork is not
available the blocks run serially.  Replicates that blow up numerically are
excluded and counted; a run with more than 1% exclusions is flagged as
failed.  Every family runs the same block function: it draws the block's
replicates and tests each with the family's own run_test, through the
`catalog.Family` record that ``sfgof test`` uses too.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from . import catalog, limit_laws
from .errors import ConfigError, ModelError, NumericalError
from .inference_kit import RngStream, two_sample_ks

_EXCLUSION_CEILING = 0.01
_REPORT_QUANTILES = (0.5, 0.9, 0.95, 0.99)
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


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

    @classmethod
    def from_file(cls, path: str | Path, master_seed: int = 0, threads: int = 1) -> ExperimentConfig:
        """The experiment that a JSON config file describes (see configs/)."""
        cfg = catalog.read_config(path)
        family, knob, knob_value, replicates = (
            catalog.require(cfg, key, path) for key in ("family", "knob", "knob_value", "replicates")
        )
        return cls(
            family=family,
            knob=knob,
            knob_value=knob_value,
            replicates=int(replicates),
            alphas=tuple(cfg.get("alphas", [0.05])),
            kind=cfg.get("kind", "cvm"),
            approach=cfg.get("approach", "split"),
            master_seed=master_seed,
            model_params=dict(cfg.get("model", {})),
            sim_params=dict(cfg.get("sim", {})),
            alternative=cfg.get("alternative"),
            alternative_params=dict(cfg.get("alternative_params", {})),
            threads=threads,
            chunk_size=int(cfg.get("chunk_size", 250)),
            label=cfg.get("label", ""),
        )

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
    workers: str  # worker count and how they ran, as the sidecar prints it

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
            f"numpy: {np.__version__}\n"
            f"workers: {self.workers}\n"
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


def _prepare(config: ExperimentConfig):
    """The block function of a study: replicates [start, stop) of its family's draw, each tested."""
    family = catalog.family(config.family)
    model = family.build(config.model_params)
    alt = family.alternative(model, config.alternative, config.alternative_params) if config.alternative else None
    theta0 = config.model_params.get("theta0", family.theta0)
    knob = family.parse_knob(config.knob_value)

    def block_fn(start: int, stop: int) -> ReplicateBlock:
        drawn = family.draw(model, alt, theta0, knob, config.sim_params, _replicate_streams(config, start, stop))
        block = _empty_block(stop - start)
        for j in range(stop - start):
            try:
                sample = family.sample(drawn, j)
                outcome = family.test(model, sample, config.alphas[0], config.approach, config.kind, config.sim_params)
            except (NumericalError, ModelError):
                continue
            block.statistics[j] = outcome.statistic
            block.theta_hat[j] = outcome.theta_hat
            if outcome.theta_bar is not None:
                block.theta_bar[j] = outcome.theta_bar
        return block

    return block_fn


@cache
def _blas_thread_setter():
    """The thread-count setter of the OpenBLAS that numpy loaded, or None if there is none."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libraries = {fields[5] for fields in (line.split(None, 5) for line in maps.splitlines()) if len(fields) == 6}
    for library in sorted(lib for lib in libraries if "openblas" in lib.lower()):
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(handle, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                return setter
    return None


# Set in each worker process by _init_worker; the parent never sets it.
_worker_block_fn = None


def _init_worker(block_fn, blas_thread_setter) -> None:
    global _worker_block_fn
    _worker_block_fn = block_fn
    if blas_thread_setter is not None:
        blas_thread_setter(1)


def _run_block(bounds: tuple[int, int]) -> ReplicateBlock:
    return _worker_block_fn(*bounds)


def _run_blocks(block_fn, blocks: list, threads: int) -> tuple[list, str]:
    """Results of block_fn on every block, in block order, and how they ran.

    With threads > 1 and fork available, the blocks run in at most
    min(threads, len(blocks)) forked worker processes, which inherit
    block_fn instead of pickling it.  Otherwise they run in this process.
    """
    workers = min(threads, len(blocks))
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            setter = _blas_thread_setter()
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker,
                initargs=(block_fn, setter),
            ) as pool:
                results = list(pool.map(_run_block, blocks))
            blas = "1 BLAS thread each" if setter is not None else "BLAS threads unchanged"
            return results, f"{workers} (fork, {blas})"
    return [block_fn(start, stop) for start, stop in blocks], "1 (serial)"


def _execute(config: ExperimentConfig) -> ExperimentReport:
    block_fn = _prepare(config)
    t_start = time.perf_counter()

    m_total = config.replicates
    blocks = [(s, min(s + config.chunk_size, m_total)) for s in range(0, m_total, config.chunk_size)]
    results, workers = _run_blocks(block_fn, blocks, config.threads)
    statistics = np.concatenate([block.statistics for block in results])
    theta_hat = np.concatenate([block.theta_hat for block in results])
    theta_bar = np.concatenate([block.theta_bar for block in results])

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
        workers=workers,
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
