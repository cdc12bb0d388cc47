#!/usr/bin/env python3
"""Mesh-refinement study on the unit disk, SFEM vs NFEM, written to CSV
(with one `# error:` line per level that failed numerically).  Exits 3 when
a level failed."""

import argparse
import sys

from blfem.analysis import run_convergence_study, write_convergence_csv
from blfem.cli import EXIT_NUMERICAL


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilon", type=float, default=1e-8)
    ap.add_argument("--levels", default="26,52,104", help="comma list of boundary node counts")
    ap.add_argument("--dt", type=float, default=0.01)
    ap.add_argument("--T", type=float, default=1.0)
    ap.add_argument("--kind", default="phi_m1_lin")
    ap.add_argument("--no-timing", action="store_true", help="runtime as 0, so a rerun writes the same bytes")
    ap.add_argument("-o", "--output", default="convergence_2d.csv")
    args = ap.parse_args()

    levels = [int(tok) for tok in args.levels.split(",")]
    table = run_convergence_study(
        2, args.epsilon, levels, T=args.T, dt=args.dt, enrichment_kind=args.kind, timing=not args.no_timing
    )
    # every argument, so the file records how to reproduce itself
    write_convergence_csv(table, args.output, header_comments=[f"{k} = {v}" for k, v in sorted(vars(args).items())])
    for failure in table.failures:
        print(f"failed: {failure}")
    for scheme, (slope, resid) in sorted(table.slopes.items()):
        print(f"{scheme}: L2 slope {slope:.4f} (fit residual {resid:.3g})")
    print(f"wrote {args.output}")
    if table.failures:  # the table is written, but the study did not complete
        sys.exit(EXIT_NUMERICAL)


if __name__ == "__main__":
    main()
