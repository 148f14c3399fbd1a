#!/usr/bin/env python3
"""Tabulate critical values of the two limit statistics.

Prints CSV rows for a ladder of levels, cross-checking the quadratic
statistic's Monte Carlo and series routes against each other and against
the exact value that the tests decide with.
"""

import argparse

from sfgof.inference_kit import RngStream
from sfgof.limit_laws import critical_value_cvm, critical_value_ks, default_critical_value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alphas", type=float, nargs="+", default=[0.01, 0.05, 0.10, 0.50])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--paths", type=int, default=200_000)
    args = parser.parse_args()

    print("alpha,cvm_exact,cvm_mc,cvm_mc_err,cvm_series,cvm_series_err,ks_series")
    for alpha in args.alphas:
        mc = critical_value_cvm(alpha, method="monte-carlo", rng=RngStream(args.seed, 1), n_paths=args.paths)
        series = critical_value_cvm(alpha, method="series", rng=RngStream(args.seed, 2), n_paths=args.paths)
        exact = default_critical_value(alpha, "cvm")
        ks = critical_value_ks(alpha)
        print(
            f"{alpha:.4g},{exact.value:.6f},{mc.value:.6f},{mc.mc_error:.6f},"
            f"{series.value:.6f},{series.mc_error:.6f},{ks.value:.6f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
