"""Command-line interface.

Subcommands:
  crit   print a critical value of the limit statistic as CSV
  test   run one goodness-of-fit test from a JSON config (simulated or file data)
  size   Monte Carlo size study from a JSON config
  power  Monte Carlo power study from a JSON config
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import ar, catalog, ergodic, limit_laws, poisson, small_noise
from .errors import SfgofError
from .harness import ExperimentConfig, run_power, run_size
from .inference_kit import RngStream, TimeGrid


def _load_config(path: str) -> dict:
    return json.loads(Path(path).read_text())


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
    cfg = _load_config(args.config)
    family = args.family
    alpha = cfg.get("alpha", 0.05)
    kind = cfg.get("kind", "cvm")
    model_cfg = dict(cfg.get("model", {}))
    theta0 = cfg.get("theta0", model_cfg.get("theta0"))
    rng = RngStream(args.seed, 0)

    if family == "small-noise":
        model = catalog.build_small_noise_model(model_cfg)
        epsilon = cfg["epsilon"]
        grid = TimeGrid(0.0, model.horizon, int(cfg.get("num_steps", small_noise.DEFAULT_NUM_STEPS)))
        traj = small_noise.simulate_sde(model, theta0, epsilon, grid, rng)
        outcome = small_noise.run_test_small_noise(
            model, traj, alpha, approach=cfg.get("approach", "split"), kind=kind
        )
        _print_test_row("epsilon", epsilon, model.name, outcome)
    elif family == "ergodic":
        model = catalog.build_ergodic_model(model_cfg)
        horizon = cfg["T"]
        traj = ergodic.simulate_ergodic(model, theta0, horizon, cfg.get("step", 0.01), rng)
        outcome = ergodic.run_test_ergodic(
            model, traj, alpha, approach=cfg.get("approach", "split"), kind=kind, d_T=cfg.get("d_T")
        )
        _print_test_row("T", horizon, model.name, outcome)
    elif family == "poisson":
        model = catalog.build_poisson_model(model_cfg)
        n = int(cfg["n"])
        if args.events:
            rows = np.loadtxt(args.events, delimiter=",", ndmin=2)
            events = poisson.events_from_rows(model.period, n, rows)
        else:
            events = poisson.simulate_periodic_poisson(model, theta0, n, rng)
        outcome = poisson.run_test_poisson(model, events, alpha, kind=kind, N=cfg.get("N"))
        _print_test_row("n", n, model.name, outcome)
    elif family == "ar":
        model = catalog.build_ar_model(model_cfg)
        if args.data:
            values = np.loadtxt(args.data, ndmin=1)
            sample = ar.SeriesSample(values=np.asarray(values, dtype=float))
        else:
            sample = ar.simulate_ar(model, theta0, int(cfg["n"]), rng)
        outcome = ar.run_test_ar(model, sample, alpha, kind=kind)
        _print_test_row("n", sample.n, model.name, outcome)
    else:
        raise SfgofError(f"unknown family {family!r}")
    return 0


def _experiment_config(args, mode: str) -> ExperimentConfig:
    cfg = _load_config(args.config)
    alternative = cfg.get("alternative")
    if mode == "size" and alternative:
        raise SfgofError("size config must not declare an alternative")
    if mode == "power" and not alternative:
        raise SfgofError("power config needs an alternative")
    return ExperimentConfig(
        family=cfg["family"],
        knob=cfg["knob"],
        knob_value=cfg["knob_value"],
        replicates=int(cfg["replicates"]),
        alphas=tuple(cfg.get("alphas", [0.05])),
        kind=cfg.get("kind", "cvm"),
        approach=cfg.get("approach", "split"),
        master_seed=args.seed,
        model_params=dict(cfg.get("model", {})),
        sim_params=dict(cfg.get("sim", {})),
        alternative=alternative,
        alternative_params=dict(cfg.get("alternative_params", {})),
        threads=args.threads,
        chunk_size=int(cfg.get("chunk_size", 250)),
        label=cfg.get("label", ""),
    )


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
    p_test.add_argument("family", choices=["small-noise", "ergodic", "poisson", "ar"])
    p_test.add_argument("--config", required=True)
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--events", help="CSV of period_index,time rows (poisson)")
    p_test.add_argument("--data", help="one-column CSV of series values (ar)")

    for mode in ("size", "power"):
        p = sub.add_parser(mode, help=f"Monte Carlo {mode} study")
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output directory (CSV + sidecar)")
        p.add_argument("--threads", type=int, default=1)

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
