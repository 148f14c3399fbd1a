"""sfgof benchmark: study throughput at 1 and 2 threads, set-up cost, single-test latency, per-layer traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/sfgof``.  Every workload
runs in fresh interpreters (``perfbench/workload.py``), because the
critical value, the oracle draws and the per-model tables are cached for
the life of a process.  With ``--trace 0`` a run is ``PARTS`` fresh
processes, one after another.  Each times its own set-up, and set-up time
is reported as their median; each then measures its part of the studies
and test calls for ``--seconds / PARTS``, and the end-to-end metrics are
computed here from the raw times of all parts.  Two processes, not more,
keep all runs of all workloads within the benchmark's time budget: one
set-up costs 5-8 s.  With ``--trace 1`` one process reports the per-layer
figures and writes its spans to ``perfbench/out/``.  The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics;
each metric is printed above it by name, with its unit.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

PARTS = 2  # as in workload.py
TAIL_GAP = 10  # the tail percentile keeps this many calls beyond it
CHILD_TIMEOUT_S = 150


def child(name: str, seed: int, seconds: float, trace: int, part: int = 0) -> dict:
    """Run workload.py in a fresh interpreter and return its final JSON line."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--part", str(part)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(parts: list[dict]) -> dict:
    """The end-to-end metrics from the raw times of all parts of an untraced run.

    Throughput is taken from the median study of a thread count, so that one
    study that the host slowed does not move it.  Latency is a mean and a
    tail, not a median: the host switches between two speeds about 1.6
    times apart, and the median of such a mixture jumps between them from
    run to run.
    """
    samples = [p["info"]["samples"] for p in parts]

    def pooled(key):
        return [x for s in samples for x in s[key]]

    reps = samples[0]["replicates_per_study"]
    ms = sorted(pooled("test_cpu_ms"))
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in parts), "s"),
        "reps_per_s_t1": (reps / statistics.median(pooled("study_cpu_s_t1")), "1/s"),
        "reps_per_s_t2": (reps / statistics.median(pooled("study_s_t2")), "1/s"),
        "test_ms_mean": (statistics.fmean(ms), "ms"),
        "test_ms_tail": (ms[len(ms) - 1 - TAIL_GAP], "ms"),
        "peak_rss_mb": (max(s["peak_rss_mb"] for s in samples), "MB"),
        "kept_share": (sum(s["kept"] for s in samples) / sum(s["replicates"] for s in samples), "share"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        parts = [child(name, seed, seconds, 1)]
        metrics = parts[0]["metrics"]
    else:
        parts = [child(name, seed, seconds / PARTS, 0, part) for part in range(PARTS)]
        metrics = end_to_end(parts)
    for p in parts:
        print(f"# {name} seed={seed} trace={trace} part={p['part']} setup_s={p['setup_s']} "
              f"info={json.dumps(p['info'], sort_keys=True)}")
    for key, (value, unit) in metrics.items():
        print(f"{name:22s} {key:42s} {value:14.6g} {unit}")
    failed = sum(p["failed"] for p in parts)
    return {
        "correct": failed == 0,
        "attempted": sum(p["attempted"] for p in parts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "sfgof" / "__init__.py").is_file():
        print(f"error: no sfgof sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        else:
            listed = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
            parts = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in listed}
            result = {
                "correct": all(p["correct"] for p in parts.values()),
                "attempted": sum(p["attempted"] for p in parts.values()),
                "failed": sum(p["failed"] for p in parts.values()),
                "metrics": {f"{n}/{k}": m for n, p in parts.items() for k, m in p["metrics"].items()},
            }
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
