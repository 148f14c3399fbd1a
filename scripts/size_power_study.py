#!/usr/bin/env python3
"""Run the shipped size and power experiments and collect one summary CSV.

Each config in the configs/ directory describes one experiment; size runs
check that rejection rates sit at the nominal level under the hypothesized
family, power runs check that the shipped alternatives are caught.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from sfgof.harness import ExperimentConfig, run_power, run_size

DEFAULT_CONFIGS = [
    "small_noise_size.json",
    "small_noise_power.json",
    "ergodic_size.json",
    "ergodic_power.json",
    "poisson_size.json",
    "poisson_power.json",
    "ar_size.json",
    "ar_power.json",
    "invisible_alternative.json",
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--configs-dir", default=Path(__file__).resolve().parent.parent / "configs")
    parser.add_argument("--only", nargs="*", help="config file names to run (default: the full ladder)")
    parser.add_argument("--out", default="reports")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    names = args.only if args.only else DEFAULT_CONFIGS
    failures = 0
    summary_lines = []
    for name in names:
        path = Path(args.configs_dir) / name
        config = ExperimentConfig.from_file(path, args.seed, args.threads)
        config = dataclasses.replace(config, label=config.label or path.stem)
        report = run_power(config) if config.alternative else run_size(config)
        report.write(args.out)
        text = report.csv_text().splitlines()
        if not summary_lines:
            summary_lines.append(text[0])
        summary_lines.extend(text[1:])
        for row in report.rows:
            mode = "power" if config.alternative else "size"
            print(f"{config.name():30s} alpha={row.alpha:<5g} {mode} rate={row.rate:.4f} "
                  f"[{row.wilson_lo:.4f}, {row.wilson_hi:.4f}] excluded={report.excluded}")
        if report.exclusions_exceeded:
            failures += 1
            print(f"error: {config.name()} excluded {report.excluded} replicates", file=sys.stderr)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.csv").write_text("\n".join(summary_lines) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
