#!/usr/bin/env python3
"""Side-by-side SFEM vs NFEM solve of the layered 1D benchmark on one mesh.

Prints the error report of both schemes and optionally dumps sampled
solution profiles for plotting.
"""

import argparse

from blfem.analysis import solve_scenario


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilon", type=float, default=1e-5)
    ap.add_argument("--n", type=int, default=50, help="element count")
    ap.add_argument("--dt", type=float, default=0.01)
    ap.add_argument("--T", type=float, default=1.0)
    ap.add_argument("--kind", default="phi_m1_lin")
    ap.add_argument("--no-timing", action="store_true", help="runtime as 0, so a rerun writes the same bytes")
    ap.add_argument("--dump-prefix", default="", help="write <prefix>_{sfem,nfem}.csv field samples")
    args = ap.parse_args()

    import numpy as np

    from blfem.assembly import evaluate_field_1d

    for key, value in sorted(vars(args).items()):
        print(f"# {key} = {value}")
    print(f"{'scheme':8s} {'dofs':>6s} {'rel_l2':>12s} {'h1_err':>12s} {'osc_index':>12s} {'runtime_s':>10s}")
    for scheme in ("sfem", "nfem"):
        report, fieldsol, space, exact = solve_scenario(
            1, args.epsilon, args.n, args.T, args.dt, scheme, enrichment_kind=args.kind
        )
        runtime = 0.0 if args.no_timing else report.runtime
        print(
            f"{scheme:8s} {report.dofs:6d} {report.rel_l2:12.6g} "
            f"{report.h1_seminorm_error:12.6g} {report.oscillation_index:12.6g} {runtime:10.3f}"
        )
        if args.dump_prefix:
            xs = np.linspace(0.0, 1.0, 2001)
            vals = evaluate_field_1d(space, fieldsol.final, xs, t=args.T)
            path = f"{args.dump_prefix}_{scheme}.csv"
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("x,u,u_exact\n")
                for x, v, e in zip(xs, vals, exact.u(xs, args.T)):
                    fh.write(f"{x:.10g},{v:.10g},{e:.10g}\n")
            print(f"  wrote {path}")


if __name__ == "__main__":
    main()
