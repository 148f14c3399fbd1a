import dataclasses
import multiprocessing
import os
from types import SimpleNamespace

import numpy as np
import pytest

from sfgof import ar, catalog, ergodic, harness, small_noise
from sfgof.errors import ConfigError
from sfgof.harness import (
    ExperimentConfig,
    compare_to_oracle,
    run_power,
    run_size,
    wilson_interval,
)
from sfgof.inference_kit import ParamInterval, RngStream
from sfgof.limit_laws import bridge_cvm_samples
from sfgof.score import delta_stat
from sfgof.small_noise import SmallNoiseModel

from reference import bridge_sup_samples, simulate_bridge


def explosive_model() -> SmallNoiseModel:
    """Plug-in used to force simulation blow-ups in exclusion tests."""
    return SmallNoiseModel(
        name="explosive",
        drift=lambda theta, t, x: theta * np.asarray(x, dtype=float) ** 3,
        drift_dtheta=lambda theta, t, x: np.asarray(x, dtype=float) ** 3,
        diffusion=lambda t, x: np.ones_like(np.asarray(x, dtype=float)),
        x0=60.0,
        horizon=1.0,
        theta_domain=ParamInterval(0.5, 0.9),
    )


def quick_config(**overrides) -> ExperimentConfig:
    base = dict(
        family="small-noise",
        knob="epsilon",
        knob_value=0.05,
        replicates=120,
        alphas=(0.05,),
        model_params={"name": "linear", "theta0": 0.5},
        sim_params={"num_steps": 2000},
        master_seed=5,
        chunk_size=40,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def ergodic_config(**overrides) -> ExperimentConfig:
    base = dict(
        knob="T",
        knob_value=50.0,
        replicates=100,
        model_params={"name": "ou", "theta0": 1.0},
        sim_params={"step": 0.01},
        chunk_size=50,
    )
    base.update(overrides)
    return quick_config(family="ergodic", **base)


def _oracle_test(model, stream, alpha, approach, kind, sim):
    m = int(sim.get("m", 1000))
    if kind == "ks":
        statistic = bridge_sup_samples(1, m, stream)[0]
    else:
        statistic = delta_stat(simulate_bridge(m, stream), "cvm")
    return SimpleNamespace(statistic=statistic, theta_hat=np.nan, theta_bar=None)


def _status_threads() -> int:
    """The Threads: count that /proc/self/status gives for this process."""
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("Threads:"))


_harness_run_block = harness._run_block


def _run_block_reporting_threads(bounds):
    """harness._run_block, plus the pid and thread count of the process that ran the block."""
    block = _harness_run_block(bounds)
    block.worker = (os.getpid(), _status_threads())
    return block


@pytest.fixture
def oracle_family(monkeypatch):
    """Registers family "oracle", whose replicate statistic is the limit statistic itself, one path each.

    It checks the harness's own calibration.
    """
    oracle = catalog.Family(
        knob="none",
        parse_knob=float,
        theta0=0.0,
        build=lambda params: None,
        alternative=None,
        draw=lambda model, alt, theta0, knob, sim, streams: streams,
        sample=lambda streams, j: streams[j],
        test=_oracle_test,
        approaches=("split",),
    )
    monkeypatch.setitem(catalog.FAMILIES, "oracle", oracle)


class TestWilson:
    def test_basic_interval(self):
        lo, hi = wilson_interval(5, 100)
        assert 0.0 <= lo < 0.05 < hi <= 1.0

    def test_edge_counts(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == pytest.approx(0.0, abs=1e-12) and hi > 0.0
        lo, hi = wilson_interval(50, 50)
        assert hi == pytest.approx(1.0, abs=1e-12) and lo < 1.0

    def test_needs_trials(self):
        with pytest.raises(ConfigError):
            wilson_interval(0, 0)

    @pytest.mark.usefixtures("oracle_family")
    def test_calibration_coverage(self):
        # Oracle-injection harness runs: the Wilson interval should cover
        # the nominal level in at least 93 of 100 runs.
        covered = 0
        for seed in range(100):
            cfg = ExperimentConfig(
                family="oracle",
                knob="none",
                knob_value=0.0,
                replicates=400,
                alphas=(0.05,),
                master_seed=1000 + seed,
                sim_params={"m": 512},
            )
            row = run_size(cfg).rows[0]
            if row.wilson_lo <= 0.05 <= row.wilson_hi:
                covered += 1
        assert covered >= 93


class TestOracleInjection:
    @pytest.mark.usefixtures("oracle_family")
    def test_rate_matches_level(self):
        cfg = ExperimentConfig(
            family="oracle",
            knob="none",
            knob_value=0.0,
            replicates=2000,
            alphas=(0.05, 0.10),
            master_seed=77,
        )
        report = run_size(cfg)
        for row in report.rows:
            assert row.wilson_lo <= row.alpha <= row.wilson_hi
        assert report.ks_to_oracle <= 0.03
        assert report.excluded == 0


class TestCompareToOracle:
    # 2000 simulated bridge functionals: a sample drawn from the limit law.
    @pytest.fixture(scope="class")
    def sample(self):
        return bridge_cvm_samples(2000, 1000, RngStream(21, 0))

    def test_self_comparison(self, sample):
        assert compare_to_oracle(sample, "cvm") <= 0.03

    def test_shift_detected(self, sample):
        assert compare_to_oracle(sample + 0.5, "cvm") >= 0.3

    def test_needs_samples(self):
        with pytest.raises(ConfigError):
            compare_to_oracle(np.ones(100), "cvm")


class TestDeterminism:
    def test_threads_do_not_change_output(self):
        # A reduction long enough to run on several BLAS threads in this
        # process: the worker processes must leave this process's BLAS alone.
        x, y = np.random.default_rng(3).standard_normal((2, 100_000))
        dot_before = np.dot(x, y)
        # The ergodic paths have 2e4 points.  A BLAS dot product over them
        # would round in an order that depends on the host's BLAS build and
        # thread count, and the optimizer's parabolic steps would carry that
        # into theta_hat.  So the likelihood sums use einsum.
        for config in (quick_config(), ergodic_config(knob_value=200.0)):
            r1 = run_size(dataclasses.replace(config, threads=1))
            r2 = run_size(dataclasses.replace(config, threads=2))
            assert r1.workers == "1 (serial)"
            if "fork" in multiprocessing.get_all_start_methods():
                assert r2.workers == "2 (fork)"
            assert r1.csv_text() == r2.csv_text()
            assert np.array_equal(r1.statistics, r2.statistics)
            assert np.array_equal(r1.theta_hat, r2.theta_hat)
            assert np.array_equal(r1.theta_bar, r2.theta_bar)
        assert np.dot(x, y) == dot_before

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods() or not os.path.exists("/proc/self/status"),
        reason="needs fork and /proc/self/status",
    )
    def test_workers_start_no_threads(self, monkeypatch):
        # No replicate makes a BLAS call, so a forked worker keeps the one
        # thread that fork gives it, whatever threads this process runs.
        monkeypatch.setattr(harness, "_run_block", _run_block_reporting_threads)
        returned = []
        run_blocks = harness._run_blocks

        def recording_run_blocks(block_fn, blocks, threads):
            results, workers = run_blocks(block_fn, blocks, threads)
            returned.extend(results)
            return results, workers

        monkeypatch.setattr(harness, "_run_blocks", recording_run_blocks)
        by_n = dict(knob="n", replicates=100, sim_params={}, chunk_size=50)
        configs = (
            quick_config(),
            ergodic_config(),
            quick_config(family="poisson", knob_value=60, model_params={"name": "linear-h", "theta0": 2.0}, **by_n),
            quick_config(family="ar", knob_value=200, model_params={"name": "linear-gaussian", "theta0": 0.5}, **by_n),
        )
        for config in configs:
            returned.clear()
            report = run_size(dataclasses.replace(config, threads=2))
            assert report.workers == "2 (fork)"
            pids = {block.worker[0] for block in returned}
            assert len(returned) >= 2 and os.getpid() not in pids
            assert [block.worker[1] for block in returned] == [1] * len(returned), config.family

    def test_chunk_size_does_not_change_output(self):
        r1 = run_size(quick_config(chunk_size=40))
        r2 = run_size(quick_config(chunk_size=120))
        assert r1.csv_text() == r2.csv_text()

    def test_seed_changes_output(self):
        r1 = run_size(quick_config(master_seed=5))
        r2 = run_size(quick_config(master_seed=6))
        assert not np.array_equal(r1.statistics, r2.statistics)


class TestModesAndValidation:
    def test_size_rejects_alternative(self):
        with pytest.raises(ConfigError):
            run_size(quick_config(alternative="sin-perturbed"))

    def test_power_requires_alternative(self):
        with pytest.raises(ConfigError):
            run_power(quick_config())

    def test_power_of_null_member_is_near_level(self):
        cfg = quick_config(
            replicates=400,
            alternative="sin-perturbed",
            alternative_params={"theta0": 0.5, "amplitude": 0.0},
            master_seed=8,
        )
        report = run_power(cfg)
        row = report.rows[0]
        assert row.rate <= 0.12

    def test_replicate_floor(self):
        with pytest.raises(ConfigError):
            quick_config(replicates=50)

    def test_alpha_domain(self):
        with pytest.raises(ConfigError):
            quick_config(alphas=(1.5,))

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            run_size(quick_config(family="garch"))

    def test_replicate_errors_reach_the_caller_from_workers(self):
        raised = []
        for threads in (1, 2):
            with pytest.raises(ConfigError) as info:
                run_size(quick_config(kind="bogus", threads=threads))
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1] == (ConfigError, "unknown statistic kind 'bogus'")


class TestExclusions:
    def test_blow_ups_counted_and_flagged(self):
        cfg = ExperimentConfig(
            family="small-noise",
            knob="epsilon",
            knob_value=0.1,
            replicates=100,
            alphas=(0.05,),
            model_params={"plugin": "test_harness:explosive_model", "theta0": 0.8},
            sim_params={"num_steps": 2000},
            master_seed=9,
            chunk_size=50,
        )
        report = run_size(cfg)
        assert report.excluded == 100
        assert report.exclusions_exceeded
        assert "100" in report.csv_text().splitlines()[1].split(",")[-1]


# The per-model table builders and the bound each cache keeps.
TABLE_CACHES = {
    "ergodic theta tables": (ergodic._theta_tables, ergodic._TABLE_CACHE_SIZE),
    "small-noise Fisher table": (small_noise._fisher_table, small_noise._TABLE_CACHE_SIZE),
    "small-noise window table": (small_noise._window_table, small_noise._TABLE_CACHE_SIZE),
    "AR fixed-point density": (ar._fixed_point_stationary_density, ar._DENSITY_CACHE_SIZE),
}


def _table_misses() -> dict[str, int]:
    return {name: cached.cache_info().misses for name, (cached, _) in TABLE_CACHES.items()}


def numeric_ar_model():
    """An AR model without a closed-form stationary law, so its densities are fixed points."""
    model = catalog.ar_alternative(
        catalog.build_ar_model({"name": "linear-gaussian"}), "cosine-perturbed", {"base_theta": 0.5, "amplitude": 0.3}
    )
    assert model.invariant_logpdf is None
    return model


class TestTableCaches:
    """Per-model tables are built once per model, and each cache stays at its fixed size.

    Misses are compared with those before the test, so that tables other
    tests built do not count.
    """

    def test_each_table_built_once_per_model(self):
        before = _table_misses()
        model = catalog.build_small_noise_model({"name": "linear"})
        ergodic_model = catalog.build_ergodic_model({"name": "ou"})
        ar_model = numeric_ar_model()
        for theta in (0.5, 0.7, 0.5):
            small_noise._fisher_cached(model, theta)
            small_noise._window_table(model, 100, 0.01)
            ergodic._fisher_cached(ergodic_model, 2.0 * theta)
            density = ar.stationary_density(ar_model, 0.5)
        assert ar.stationary_density(ar_model, 0.5) is density
        assert ar.stationary_density(ar_model, 0.5, n_nodes=1025).x.size == 1025  # keyed on the grid size too
        misses = _table_misses()
        assert {name: misses[name] - before[name] for name in misses} == {
            "ergodic theta tables": 1,
            "small-noise Fisher table": 1,
            "small-noise window table": 1,
            "AR fixed-point density": 2,
        }

    def test_study_builds_each_table_once(self):
        ar_power = ExperimentConfig(
            family="ar",
            knob="n",
            knob_value=200,
            replicates=100,
            model_params={"name": "linear-gaussian", "theta0": 0.5},
            alternative="cosine-perturbed",
            alternative_params={"base_theta": 0.5, "amplitude": 0.3},
            chunk_size=50,
        )
        before = _table_misses()
        # Serial studies (threads=1) of several blocks each.
        run_size(quick_config())
        run_size(ergodic_config())
        run_power(ar_power)
        misses = _table_misses()
        assert {name: misses[name] - before[name] for name in misses} == {
            "ergodic theta tables": 1,
            "small-noise Fisher table": 1,
            "small-noise window table": 1,
            # The null law has a closed form and the alternative starts from a burn-in draw.
            "AR fixed-point density": 0,
        }

    def test_caches_stay_at_their_size(self):
        for _ in range(small_noise._TABLE_CACHE_SIZE + 1):
            model = catalog.build_small_noise_model({"name": "linear"})
            small_noise._fisher_cached(model, 0.5)
            small_noise._window_table(model, 100, 0.01)
        for _ in range(ergodic._TABLE_CACHE_SIZE + 1):
            ergodic._fisher_cached(catalog.build_ergodic_model({"name": "ou"}), 1.0)
        ar_model = numeric_ar_model()
        for theta in np.linspace(0.1, 0.8, ar._DENSITY_CACHE_SIZE + 1):
            ar.stationary_density(ar_model, theta, n_nodes=129)
        for name, (cached, size) in TABLE_CACHES.items():
            info = cached.cache_info()
            assert info.maxsize == size and info.currsize == size, name


class TestReportOutput:
    def test_csv_schema(self, tmp_path):
        report = run_size(quick_config(label="smoke"))
        text = report.csv_text()
        header = text.splitlines()[0]
        assert header == (
            "model,knob,knob_value,alpha,kind,approach,M,rejections,rate,"
            "wilson_lo,wilson_hi,ks_to_oracle,excluded"
        )
        path = report.write(tmp_path)
        assert path.read_text() == text
        sidecar = (tmp_path / "smoke.meta.txt").read_text()
        assert "wall_clock_seconds" in sidecar
        assert "master_seed" in sidecar
