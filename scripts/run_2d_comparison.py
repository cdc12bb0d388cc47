#!/usr/bin/env python3
"""SFEM vs NFEM on the unit-disk benchmark at one or more mesh levels.

The benchmark solution has a boundary layer of width sqrt(eps) along the
whole unit circle; the level is the boundary node count of the disk mesh.
"""

import argparse

from blfem.analysis import solve_scenario


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilon", type=float, default=1e-8)
    ap.add_argument("--levels", default="52,104", help="comma list of boundary node counts")
    ap.add_argument("--dt", type=float, default=0.01)
    ap.add_argument("--T", type=float, default=1.0)
    ap.add_argument("--kind", default="phi_m1_lin")
    ap.add_argument("--no-timing", action="store_true", help="runtime as 0, so a rerun writes the same bytes")
    args = ap.parse_args()

    levels = [int(tok) for tok in args.levels.split(",")]
    for key, value in sorted(vars(args).items()):
        print(f"# {key} = {value}")
    print(
        f"{'B':>5s} {'scheme':8s} {'dofs':>6s} {'rel_l2':>12s} "
        f"{'h1_err':>12s} {'osc_index':>12s} {'runtime_s':>10s}"
    )
    for level in levels:
        for scheme in ("sfem", "nfem"):
            report, _, _, _ = solve_scenario(
                2, args.epsilon, level, args.T, args.dt, scheme, enrichment_kind=args.kind
            )
            runtime = 0.0 if args.no_timing else report.runtime
            print(
                f"{level:5d} {scheme:8s} {report.dofs:6d} {report.rel_l2:12.6g} "
                f"{report.h1_seminorm_error:12.6g} {report.oscillation_index:12.6g} "
                f"{runtime:10.3f}"
            )


if __name__ == "__main__":
    main()
