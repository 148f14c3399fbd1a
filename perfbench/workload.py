"""Run one benchmark workload in this (fresh) interpreter and print its result as JSON.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1 [--part P]

Set-up is timed from before ``import sfgof`` until every process-wide
cache is filled: the default critical value, the oracle draws and, through
one run_test call on a generated sample, the per-model tables.  With
``--trace 0`` the process then runs its part (``--part``, one of
``PARTS``) of the workload's rounds of studies at one and two threads (one
master seed per round), with its share of single run_test calls on
pre-generated samples between them, until ``--seconds`` have passed, and
reports the raw times.  With ``--trace 1`` it runs one untraced and two
traced studies and reports per-layer figures.  The last stdout line is one
JSON object; ``perfbench/run.py`` turns it into the benchmark result.
"""

import time

_T0 = time.perf_counter()  # set-up starts here, before numpy and sfgof are imported

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer, root_time, self_times, total, wrapper_costs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ALPHA = 0.05
PARTS = 2  # processes that share an untraced run, each with its own set-up
SAMPLE_STREAM = 1_000_000  # stream ids of test samples; study replicates use 0..replicates-1
ROUND_SEEDS = 1_000  # round r of seed s studies master seed s * ROUND_SEEDS + r
WINDOW_TAIL = 1e-4  # chance, per side, that a correct program fails a distribution check
# Allowed Kolmogorov distance between the finite-sample law of a size
# statistic and the limit law.  Long size studies measured 0.014 (ar-size,
# 4000 replicates, master seed 777001), 0.039 and 0.018 (poisson-size, 2000
# and 4000, seeds 777001 and 777002) and 0.031 (ergodic-size, 600, 777001),
# sampling noise included.
KS_GAP = 0.06

# Functions of each family module that make up its layers.
FAMILY_LAYERS = {
    "small-noise": ("small_noise", {
        "simulate": ["simulate_sde_batch"],
        "mle": ["mle_small_noise"],
        "prelim": ["mde_preliminary"],
        "score_path": ["score_path_split", "score_path_ito"],
        "model": ["fisher_small_noise", "drift_flow"],
    }),
    "ergodic": ("ergodic", {
        "simulate": ["simulate_ergodic_batch", "excursion_mask"],
        "mle": ["mle_ergodic"],
        "prelim": ["preliminary_moments"],
        "score_path": ["score_path_x_split", "score_path_x_smoothed"],
        "model": ["invariant_density"],
    }),
    "poisson": ("poisson", {
        "simulate": ["simulate_periodic_poisson"],
        "mle": ["mle_poisson"],
        "prelim": ["mde_linear_intensity"],
        "score_path": ["score_path_poisson"],
        "model": ["fisher_poisson"],
    }),
    "ar": ("ar", {
        "simulate": ["simulate_ar_batch"],
        "mle": ["mle_ar"],
        "prelim": [],
        "score_path": ["score_path_ar"],
        "model": ["stationary_density", "noise_information"],
    }),
}


def base_config(spec):
    """The workload's shipped config as the CLI reads it, with the benchmark's study size and kind."""
    from sfgof import cli

    path = ROOT / spec["config"]
    mode = "power" if json.loads(path.read_text()).get("alternative") else "size"
    config = cli._experiment_config(argparse.Namespace(config=str(path), seed=0, threads=1), mode)
    return dataclasses.replace(
        config, replicates=spec["replicates"], chunk_size=spec["chunk_size"], kind=spec.get("kind", config.kind)
    )


class Family:
    """The workload's model, sample generator and single-test call, built from its study config.

    ``samples(streams)`` draws one test sample per stream the way the
    harness draws replicates, batched where the family has a batch simulator.
    Batch columns are copied to contiguous arrays, as a sample read from a
    file or drawn alone would be.
    """

    def __init__(self, config):
        import numpy as np
        from sfgof import ar, catalog, ergodic, poisson, small_noise
        from sfgof.inference_kit import TimeGrid

        params, sim, knob = config.model_params, config.sim_params, config.knob_value
        theta0, kind, approach = params["theta0"], config.kind, config.approach
        alt, alt_params = config.alternative, config.alternative_params
        if config.family == "small-noise":
            model = catalog.build_small_noise_model(params)
            sim_model = catalog.small_noise_alternative(model, alt, alt_params) if alt else model
            grid = TimeGrid(0.0, model.horizon, int(sim.get("num_steps", small_noise.DEFAULT_NUM_STEPS)))
            self.samples = lambda streams: [
                small_noise.Trajectory(grid, np.ascontiguousarray(col), knob)
                for col in small_noise.simulate_sde_batch(sim_model, theta0, knob, grid, streams).T
            ]
            self.test = lambda s: small_noise.run_test_small_noise(model, s, ALPHA, approach=approach, kind=kind)
        elif config.family == "ergodic":
            model = catalog.build_ergodic_model(params)
            sim_model = catalog.ergodic_alternative(model, alt, alt_params) if alt else model
            step = float(sim.get("step", 0.01))

            def samples(streams):
                paths = ergodic.simulate_ergodic_batch(sim_model, theta0, float(knob), step, streams)
                if not ergodic.excursion_mask(sim_model, paths).all():
                    raise RuntimeError("a test sample left the admissible region")
                n = paths.shape[0] - 1
                grid = TimeGrid(0.0, n * step, n)
                return [small_noise.Trajectory(grid, np.ascontiguousarray(col), 1.0) for col in paths.T]

            self.samples = samples
            self.test = lambda s: ergodic.run_test_ergodic(
                model, s, ALPHA, approach=approach, kind=kind, d_T=sim.get("d_T")
            )
        elif config.family == "poisson":
            model = catalog.build_poisson_model(params)
            fn = catalog.poisson_alternative(model, alt, alt_params) if alt else None
            self.samples = lambda streams: [
                poisson.simulate_periodic_poisson(model, theta0, int(knob), r, intensity_fn=fn) for r in streams
            ]
            self.test = lambda s: poisson.run_test_poisson(model, s, ALPHA, kind=kind, N=sim.get("N"))
        elif config.family == "ar":
            model = catalog.build_ar_model(params)
            sim_model = catalog.ar_alternative(model, alt, alt_params) if alt else model
            self.samples = lambda streams: [
                ar.SeriesSample(values=np.ascontiguousarray(col)) for col in ar.simulate_ar_batch(sim_model, theta0, int(knob), streams).T
            ]
            self.test = lambda s: ar.run_test_ar(model, s, ALPHA, kind=kind)
        else:
            raise ValueError(f"unknown family {config.family!r}")
        self.model = model


def trace_targets(family):
    import importlib

    from sfgof import inference_kit, limit_laws, score

    module_name, layers = FAMILY_LAYERS[family]
    module = importlib.import_module(f"sfgof.{module_name}")
    targets = [
        (f"family.{layer}", module, fn, "span+count" if layer == "model" else "span")
        for layer, fns in layers.items()
        for fn in fns
    ]
    return targets + [
        ("score.delta_stat", score, "delta_stat", "span"),
        ("inference_kit.maximize_1d", inference_kit, "maximize_1d", "span+evals"),
        ("inference_kit.integrate_1d", inference_kit, "integrate_1d", "count"),
        ("limit_laws.default_critical_value", limit_laws, "default_critical_value", "span"),
        ("limit_laws.oracle_statistics", limit_laws, "oracle_statistics", "span"),
    ]


def check_outcome(outcome, model, kind) -> list[str]:
    """Problems with one run_test result (empty when it is correct)."""
    from sfgof import limit_laws

    problems = []
    if not math.isfinite(outcome.statistic):
        problems.append(f"statistic {outcome.statistic!r} is not finite")
    if not model.theta_domain.contains(outcome.theta_hat):
        problems.append(f"theta_hat {outcome.theta_hat!r} outside the parameter interval")
    if outcome.critical != limit_laws.default_critical_value(ALPHA, kind):
        problems.append(f"critical value {outcome.critical!r} is not the default one")
    if outcome.reject != (outcome.statistic > outcome.critical.value):
        problems.append("reject flag disagrees with statistic > critical")
    return problems


def binomial_window(n: int, p_lo: float, p_hi: float, tail: float = WINDOW_TAIL) -> tuple[int, int]:
    """Counts [lo, hi] that a Binomial(n, p) count leaves with chance at most tail per side, for p in [p_lo, p_hi]."""

    def pmf(p):
        if p <= 0.0 or p >= 1.0:
            return [float(k == (n if p >= 1.0 else 0)) for k in range(n + 1)]
        log_c = math.lgamma(n + 1)
        return [
            math.exp(log_c - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * math.log(p) + (n - k) * math.log1p(-p))
            for k in range(n + 1)
        ]

    lo, mass = 0, 0.0
    for k, q in enumerate(pmf(p_lo)):
        if mass + q > tail:
            lo = k
            break
        mass += q
    hi, mass, upper = n, 0.0, pmf(p_hi)
    for k in range(n, -1, -1):
        if mass + upper[k] > tail:
            hi = k
            break
        mass += upper[k]
    return lo, hi


def ks_limit(n: int, m: int, gap: float = KS_GAP, tail: float = WINDOW_TAIL) -> float:
    """Largest two-sample Kolmogorov distance, between n statistics and m oracle draws, that passes.

    A sample whose own law lies within ``gap`` of the oracle's exceeds
    ``gap`` plus the Kolmogorov 1 - tail quantile (Stephens' small-sample
    scaling) with chance at most ``tail``.
    """
    from sfgof import limit_laws

    root = math.sqrt(n * m / (n + m))
    return gap + limit_laws.critical_value_ks(tail).value / (root + 0.12 + 0.11 / root)


class Bench:
    """One workload at one seed: set-up, checked studies and test calls, and the failures they found."""

    def __init__(self, name, seed):
        self.name, self.spec, self.seed = name, WORKLOADS[name], seed
        self.attempted = 0
        self.failures: list[str] = []
        self.reference_csv: dict[int, str] = {}
        self.pooled: list[float] = []  # kept statistics of first studies and test calls
        self.replicates = self.kept = 0
        self.samples = {}

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def set_up(self, tracer=None) -> float:
        """Fill every process-wide cache; returns seconds since before numpy and sfgof were imported."""
        from sfgof import harness, limit_laws
        from sfgof.inference_kit import RngStream

        self.config = base_config(self.spec)
        if tracer is not None:
            tracer.install(trace_targets(self.config.family))
        kind = self.config.kind
        limit_laws.default_critical_value(ALPHA, kind)
        limit_laws.oracle_statistics(kind)
        self.family = Family(self.config)
        (sample,) = self.family.samples([RngStream(self.seed, SAMPLE_STREAM)])
        outcome = self.family.test(sample)
        seconds = time.perf_counter() - _T0
        self.harness, self.RngStream = harness, RngStream
        self.attempted += 1
        for problem in check_outcome(outcome, self.family.model, kind):
            self.fail(f"set-up test: {problem}")
        self.pooled.append(outcome.statistic)
        return seconds

    def study(self, threads: int, round_: int, what: str):
        """Run one study of the given round and check it; returns its wall and calling-thread CPU seconds.

        The first study of a round is checked for exclusions and, within
        the workload's least rounds, adds its statistics to the pool; every
        later one must give the same CSV.
        """
        config = dataclasses.replace(self.config, master_seed=self.seed * ROUND_SEEDS + round_, threads=threads)
        run = self.harness.run_power if config.alternative else self.harness.run_size
        start, cpu = time.perf_counter(), time.thread_time()
        report = run(config)
        wall, cpu = time.perf_counter() - start, time.thread_time() - cpu
        self.attempted += 1
        csv = report.csv_text()
        if round_ not in self.reference_csv:
            self.reference_csv[round_] = csv
            self.replicates += config.replicates
            self.kept += config.replicates - report.excluded
            if report.exclusions_exceeded:
                self.fail(f"{what}: {report.excluded} replicates excluded")
            if round_ < self.spec["rounds"]:
                self.pooled.extend(float(s) for s in report.statistics)
        elif csv != self.reference_csv[round_]:
            self.fail(f"{what}: report CSV differs from the round's first study")
        return wall, cpu

    def latency(self, calls) -> tuple[list[float], list[float]]:
        """CPU and wall milliseconds of single run_test calls, one per (index, pre-generated sample)."""
        cpus, walls = [], []
        for i, sample in calls:
            start, cpu = time.perf_counter(), time.thread_time()
            outcome = self.family.test(sample)
            cpus.append(1e3 * (time.thread_time() - cpu))
            walls.append(1e3 * (time.perf_counter() - start))
            self.attempted += 1
            for problem in check_outcome(outcome, self.family.model, self.config.kind):
                self.fail(f"test call {i}: {problem}")
            self.pooled.append(outcome.statistic)
        return cpus, walls

    def check_distribution(self) -> None:
        """Pooled rejections inside the binomial window and, for size workloads, statistics close to the limit law."""
        from sfgof import inference_kit, limit_laws

        self.attempted += 1
        stats = [s for s in self.pooled if math.isfinite(s)]
        crit = limit_laws.default_critical_value(ALPHA, self.config.kind).value
        rejections = sum(s > crit for s in stats)
        lo, hi = binomial_window(len(stats), *self.spec["rate_band"])
        if not lo <= rejections <= hi:
            self.fail(f"{rejections} rejections of {len(stats)} outside the window [{lo}, {hi}]")
        if not self.config.alternative:
            oracle = limit_laws.oracle_statistics(self.config.kind)
            distance = inference_kit.two_sample_ks(stats, oracle)
            limit = ks_limit(len(stats), oracle.size)
            if distance > limit:
                self.fail(f"Kolmogorov distance {distance:.4f} of {len(stats)} statistics to the limit law > {limit:.4f}")

    def info(self, trace: int) -> dict:
        import numpy as np

        return {
            "workload": self.name,
            "config": self.spec["config"],
            "kind": self.config.kind,
            "seed": self.seed,
            "trace": trace,
            "threads": [1, 2],
            "replicates": self.config.replicates,
            "chunk_size": self.config.chunk_size,
            "test_calls": self.spec["test_calls"],
            "pooled_statistics": len(self.pooled),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
            "samples": self.samples,
        }

    def run_untraced(self, seconds: float, part: int) -> None:
        """This process's part of rounds of (study at 1 thread, test calls, study at 2 threads).

        An untraced run is shared by ``PARTS`` processes, one after another,
        each with its own set-up, which set-up time needs anyway.  Part p runs
        rounds p, p + PARTS, ... and test calls p, p + PARTS, ...; so the run
        samples the host over all of its length, not only after the first
        set-up: the host's speed drifts over tens of seconds.  Each part runs
        its share of the workload's ``rounds`` rounds, with its test calls
        split evenly over them (all at once where it has none), then further
        rounds, if it has run any, until ``seconds`` have passed.  Test calls
        follow the single-thread study only: in calls made just after a
        two-thread study, 1.3 to 4 times as many ran over 1.5 times the
        median, an after-effect that a lone ``sfgof test`` call does not have.

        The host is shared: for minutes at a time it runs other guests while
        this machine's CPUs have work (steal time), which stretches wall time
        by up to a fifth at one thread.  Work done at one thread runs in the
        calling thread, so studies at one thread and test calls are timed by
        the calling thread's CPU clock as well, which stops while the thread
        does not run: the wall time of a host that is not shared.  The raw
        times go to ``self.samples``; ``perfbench/run.py`` reduces them.
        """
        n, min_rounds = self.spec["test_calls"], self.spec["rounds"]
        mine = list(range(part, n, PARTS))
        calls = list(zip(mine, self.family.samples([self.RngStream(self.seed, SAMPLE_STREAM + 1 + i) for i in mine])))
        owed = len(range(part, min_rounds, PARTS))
        batches = [calls[k * len(calls) // max(owed, 1) : (k + 1) * len(calls) // max(owed, 1)] for k in range(max(owed, 1))]
        walls, cpus = {1: [], 2: []}, {1: [], 2: []}
        test_cpu, test_wall = [], []

        def test(batch):
            cpu_ms, wall_ms = self.latency(batch)
            test_cpu.extend(cpu_ms)
            test_wall.extend(wall_ms)

        if not owed:
            test(batches[0])
        deadline = time.perf_counter() + seconds
        k = 0
        while k < owed or (owed and time.perf_counter() < deadline):
            round_ = part + PARTS * k
            for threads in (1, 2):
                wall, cpu = self.study(threads, round_, f"round {round_} study at {threads} thread(s)")
                walls[threads].append(wall)
                cpus[threads].append(cpu)
                if threads == 1 and k < owed:
                    test(batches[k])
            k += 1
        self.check_distribution()
        self.samples = {
            "replicates_per_study": self.config.replicates,
            "replicates": self.replicates,
            "kept": self.kept,
            "study_cpu_s_t1": cpus[1],
            "study_s_t1": walls[1],
            "study_s_t2": walls[2],
            "test_cpu_ms": test_cpu,
            "test_wall_ms": test_wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def run_traced(self, tracer: Tracer) -> dict:
        setup_spans = list(tracer.spans)
        tracer.uninstall()
        wall_plain, _ = self.study(1, 0, "untraced study at 1 thread")

        tracer.install(trace_targets(self.config.family))
        mark = tracer.mark()
        wall_1, _ = self.study(1, 0, "traced study at 1 thread")
        spans_1, counts_1, _ = tracer.since(mark)
        mark = tracer.mark()
        wall_2, _ = self.study(2, 0, "traced study at 2 threads")
        spans_2, _, threads_2 = tracer.since(mark)
        tracer.uninstall()
        self.check_distribution()

        reps = self.config.replicates
        costs = wrapper_costs()
        count_calls = counts_1["inference_kit.integrate_1d"]
        model_calls = counts_1["family.model"]
        evals = counts_1["inference_kit.maximize_1d.evals"]
        counted_spans = model_calls + counts_1["inference_kit.maximize_1d"]
        overhead_s = (
            (len(spans_1) - counted_spans) * costs["span"]
            + counted_spans * costs["span+count"]
            + count_calls * costs["count"]
            + evals * costs["evals"]
        )

        def per_rep_ms(spans, name):
            return 1e3 * total(spans, name) / reps

        def first_ms(name):
            durations = [end - start for _, n, start, end, _, _ in sorted(setup_spans, key=lambda s: s[2]) if n == name]
            return 1e3 * durations[0] if durations else 0.0

        metrics = {
            "harness.speedup_t2": (wall_1 / wall_2, "x"),
            "harness.idle_share_t2": (1.0 - root_time(spans_2) / (2.0 * wall_2), "share"),
            "harness.os_threads_t2": (max(threads_2), "count"),
            "harness.overhead_ms_per_rep": (1e3 * (wall_1 - root_time(spans_1)) / reps, "ms"),
            "inference_kit.maximize_1d.calls_per_rep": (counts_1["inference_kit.maximize_1d"] / reps, "count"),
            "inference_kit.maximize_1d.evals_per_rep": (evals / reps, "count"),
            "inference_kit.maximize_1d.ms_per_rep": (per_rep_ms(spans_1, "inference_kit.maximize_1d"), "ms"),
            "inference_kit.integrate_1d.calls_per_rep": (count_calls / reps, "count"),
            "limit_laws.default_critical_value.ms": (first_ms("limit_laws.default_critical_value"), "ms"),
            "limit_laws.oracle_statistics.ms": (first_ms("limit_laws.oracle_statistics"), "ms"),
            "family.simulate.ms_per_rep": (per_rep_ms(spans_1, "family.simulate"), "ms"),
            "family.mle.ms_per_rep": (per_rep_ms(spans_1, "family.mle"), "ms"),
            "family.mle.ms_per_rep_t2": (per_rep_ms(spans_2, "family.mle"), "ms"),
            "family.prelim.ms_per_rep": (per_rep_ms(spans_1, "family.prelim"), "ms"),
            "family.score_path.ms_per_rep": (per_rep_ms(spans_1, "family.score_path"), "ms"),
            "family.model_calls_per_rep": (model_calls / reps, "count"),
            "family.setup_tables.ms": (1e3 * total(setup_spans, "family.model"), "ms"),
            "score.delta_stat.ms_per_rep": (per_rep_ms(spans_1, "score.delta_stat"), "ms"),
            "trace.overhead_ms_per_rep_t1": (1e3 * overhead_s / reps, "ms"),
        }
        self.write_trace(
            {"setup": setup_spans, "study_t1": spans_1, "study_t2": spans_2},
            {"untraced_t1_s": wall_plain, "traced_t1_s": wall_1, "traced_t2_s": wall_2},
            {"wrapper_cost_us": {k: 1e6 * v for k, v in costs.items()}, "os_threads_t2_reads": threads_2},
        )
        return metrics

    def write_trace(self, phases: dict, walls: dict, extra: dict) -> None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        doc = {
            "info": self.info(1),
            "family_module": FAMILY_LAYERS[self.config.family][0],
            "walls": walls,
            **extra,
            "self_ms": {k: {n: 1e3 * v for n, v in self_times(s).items()} for k, s in phases.items()},
            "span_fields": ["id", "name", "start_s", "end_s", "parent", "thread"],
            "spans": {k: [[i, n, a - _T0, b - _T0, p, t] for i, n, a, b, p, t in s] for k, s in phases.items()},
        }
        (out / f"trace-{self.name}-seed{self.seed}.json").write_text(json.dumps(doc))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, choices=range(PARTS), default=0)
    args = parser.parse_args()

    bench = Bench(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    result = {"setup_s": bench.set_up(tracer)}
    if tracer:
        result["metrics"] = bench.run_traced(tracer)
    else:
        bench.run_untraced(args.seconds, args.part)
    result.update(part=args.part, info=bench.info(args.trace), attempted=bench.attempted, failed=len(bench.failures))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
