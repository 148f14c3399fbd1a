"""Command-line interface.

Subcommands:
  crit   print a critical value of the limit statistic as CSV
  test   run one goodness-of-fit test from a JSON config (simulated or file data)
  size   Monte Carlo size study from a JSON config
  power  Monte Carlo power study from a JSON config
"""

from __future__ import annotations

import argparse
import sys

from . import catalog, limit_laws
from .errors import ConfigError, SfgofError
from .harness import ExperimentConfig, run_power, run_size
from .inference_kit import RngStream


def _print_test_row(knob_name: str, knob_value, model_name: str, outcome) -> None:
    theta_bar = f"{outcome.theta_bar:.10g}" if outcome.theta_bar is not None else ""
    print(f"model,{knob_name},approach,kind,theta_hat,theta_bar,statistic,critical,reject")
    print(
        f"{model_name},{knob_value:.10g},{outcome.approach},{outcome.kind},{outcome.theta_hat:.10g},"
        f"{theta_bar},{outcome.statistic:.10g},{outcome.critical.value:.10g},{int(outcome.reject)}"
    )


def _cmd_crit(args) -> int:
    if args.kind == "cvm" and args.method != "exact":
        method = "series" if args.method == "series" else "monte-carlo"
        crit = limit_laws.critical_value_cvm(args.alpha, method=method, rng=RngStream(args.seed, 0))
    else:
        crit = limit_laws.default_critical_value(args.alpha, args.kind)
    print("alpha,kind,method,value,mc_error")
    print(f"{crit.alpha:.10g},{args.kind},{crit.method},{crit.value:.10g},{crit.mc_error:.10g}")
    return 0


def _cmd_test(args) -> int:
    cfg = catalog.read_config(args.config)
    family = catalog.FAMILIES[args.family]
    model_cfg = dict(cfg.get("model", {}))
    model = family.build(model_cfg)
    recorded = getattr(args, family.data_flag) if family.data_flag else None
    if recorded:
        sample = family.load(model, cfg.get(family.knob), recorded)
        knob = sample.n
    else:
        knob = family.parse_knob(catalog.require(cfg, family.knob, args.config))
        theta0 = cfg.get("theta0", model_cfg.get("theta0"))
        if theta0 is None:
            raise ConfigError("simulating a sample needs theta0 in the config or its model section")
        sample = family.sample(family.draw(model, None, theta0, knob, cfg, [RngStream(args.seed, 0)]), 0)
    outcome = family.test(
        model, sample, cfg.get("alpha", 0.05), cfg.get("approach", "split"), cfg.get("kind", "cvm"), cfg
    )
    _print_test_row(family.knob, knob, model.name, outcome)
    return 0


def _experiment_config(args, mode: str) -> ExperimentConfig:
    config = ExperimentConfig.from_file(args.config, args.seed, args.threads)
    if mode == "size" and config.alternative:
        raise SfgofError("size config must not declare an alternative")
    if mode == "power" and not config.alternative:
        raise SfgofError("power config needs an alternative")
    return config


def _cmd_experiment(args, mode: str) -> int:
    config = _experiment_config(args, mode)
    report = run_size(config) if mode == "size" else run_power(config)
    if args.out:
        path = report.write(args.out)
        print(f"wrote {path}")
    else:
        sys.stdout.write(report.csv_text())
    if report.exclusions_exceeded:
        print(f"error: {report.excluded} replicates excluded (> 1% ceiling)", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sfgof", description="Distribution-free goodness-of-fit tests")
    sub = parser.add_subparsers(dest="command", required=True)

    p_crit = sub.add_parser("crit", help="critical value of the limit statistic")
    p_crit.add_argument("--alpha", type=float, required=True)
    p_crit.add_argument("--kind", choices=["cvm", "ks"], default="cvm")
    p_crit.add_argument(
        "--method",
        choices=["exact", "series", "mc"],
        default="exact",
        help="cvm only: the exact value that tests decide with, or a Monte Carlo cross-check drawn with --seed",
    )
    p_crit.add_argument("--seed", type=int, default=0)

    p_test = sub.add_parser("test", help="run one goodness-of-fit test")
    p_test.add_argument("family", choices=list(catalog.FAMILIES))
    p_test.add_argument("--config", required=True)
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--events", help="CSV of period_index,time rows (poisson)")
    p_test.add_argument("--data", help="one-column CSV of series values (ar)")

    for mode in ("size", "power"):
        p = sub.add_parser(mode, help=f"Monte Carlo {mode} study")
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output directory (CSV + sidecar)")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="run the replicate blocks in up to K forked worker processes, each with one BLAS thread "
            "(serially where fork is unavailable); reports do not depend on K",
        )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "crit":
            return _cmd_crit(args)
        if args.command == "test":
            return _cmd_test(args)
        if args.command in ("size", "power"):
            return _cmd_experiment(args, args.command)
        raise SfgofError(f"unknown command {args.command!r}")
    except SfgofError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
