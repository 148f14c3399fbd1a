"""Checks on the benchmark itself: ``python3 -m pytest perfbench`` from the repository root (about a minute).

Count metrics must repeat exactly between two runs of the same seed, each
run must print exactly the metrics that BENCHMARK.json declares, and the
distribution check must catch statistics that have collapsed.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
COUNTS = (
    "harness.os_threads_t2",
    "inference_kit.maximize_1d.calls_per_rep",
    "inference_kit.maximize_1d.evals_per_rep",
    "inference_kit.integrate_1d.calls_per_rep",
    "family.model_calls_per_rep",
)


def run(trace: int, seed: int = 5) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "ar-size", "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(section: str) -> set:
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}


def test_counts_repeat_exactly_and_match_declaration():
    first, second = run(1), run(1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == declared("per_layer")
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_untraced_run_reports_end_to_end_metrics():
    result = run(0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_distribution_check_passes_limit_law_draws_and_fails_collapsed_statistics():
    import workload
    from sfgof import limit_laws
    from sfgof.inference_kit import RngStream

    def failures(pooled):
        bench = workload.Bench("ar-size", 1)
        bench.config = workload.base_config(bench.spec)
        bench.pooled = list(pooled)
        bench.check_distribution()
        return bench.failures

    draws = limit_laws.bridge_cvm_samples(600, 512, RngStream(12345, 0))
    assert failures(draws) == []
    assert failures(0.5 * draws) and failures([0.0] * 600) and failures(10.0 * draws)
    # In 100 statistics no rejection is a likely count, so only the distance can catch the shrink.
    assert [f for f in failures(0.5 * draws[:100]) if "rejections" in f] == []
    assert [f for f in failures(0.5 * draws[:100]) if "Kolmogorov" in f]
