#!/usr/bin/env python3
"""Fitted rate of the corrector-expansion remainder against epsilon.

For sources f(x, t) = t g(x) on the unit interval the remainder
u_eps - u0 - corrector shrinks with epsilon; this script measures the
observed L2 and H1 rates against an independent layer-refined reference
solver.  Exits 2 on invalid input.
"""

import argparse
import sys

from blfem.analysis import epsilon_rate_study
from blfem.cli import EXIT_INVALID


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--epsilons", default="1e-3,1e-4,1e-5,1e-6", help="comma list of epsilon values"
    )
    ap.add_argument("--T", type=float, default=1.0)
    ap.add_argument("--n-steps", type=int, default=1000)
    args = ap.parse_args()

    try:
        eps = [float(tok) for tok in args.epsilons.split(",")]
        result = epsilon_rate_study(epsilons=eps, T=args.T, n_steps=args.n_steps)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(f"{'epsilon':>10s} {'L2 remainder':>14s} {'H1 remainder':>14s}")
    for e, l2, h1 in zip(result.epsilons, result.l2_errors, result.h1_errors):
        print(f"{e:10.1e} {l2:14.6g} {h1:14.6g}")
    print(f"L2 slope: {result.l2_slope:.4f}")
    print(f"H1 slope: {result.h1_slope:.4f}")
    print(f"monotone decrease: {result.monotone}")


if __name__ == "__main__":
    sys.exit(main())
