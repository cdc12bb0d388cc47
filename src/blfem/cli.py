"""Command-line interface: single solves, convergence studies, layer-profile
sampling and the epsilon-rate study, all emitting plain-text artifacts.  Each
subcommand parses its flags and config, then hands the run to the library
(`solve_scenario`, `run_convergence_study`, `enrichment_profile`,
`epsilon_rate_study`).

Config precedence is flags > config file > defaults; the merged effective
configuration is echoed as `# key = value` header comments into every
output artifact so each file documents how to reproduce itself.

Exit codes: 0 success, 2 invalid input (a non-finite number included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


class CliError(Exception):
    """Invalid user input (maps to exit code 2)."""


def _apply_thread_cap():
    """Honor BLFEM_THREADS before the numerical stack spins up its pools."""
    cap = os.environ.get("BLFEM_THREADS")
    if not cap:
        return
    try:
        n = int(cap)
        if n < 1:  # OpenBLAS reads 0 and below as no cap
            raise ValueError
    except ValueError:
        raise CliError(f"BLFEM_THREADS must be an integer >= 1, got {cap!r}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


# ---------------------------------------------------------------------------
# configuration handling


def read_config_file(path):
    """Parse a `key = value` per line config file; '#' starts a comment."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
                key, val = line.split("=", 1)
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}")
    return values


def _convert(key, text, default):
    try:
        if isinstance(default, bool):
            low = text.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(text)
        if isinstance(default, int) and not isinstance(default, bool):
            return int(text)
        if isinstance(default, float):
            return float(text)
        return text
    except ValueError:
        raise CliError(f"config key {key}: cannot parse {text!r}")


def merge_config(defaults, file_values, flag_values):
    """Merged effective config: flags override file values override defaults.

    Unknown keys in the config file are rejected so typos fail loudly, and so
    is a float that is not finite, which no positivity check would catch."""
    merged = dict(defaults)
    for key, text in file_values.items():
        if key not in defaults:
            raise CliError(f"unknown config key {key!r}")
        merged[key] = _convert(key, text, defaults[key])
    for key, val in flag_values.items():
        if val is not None:
            merged[key] = val
    for key, val in merged.items():
        if isinstance(val, float) and not math.isfinite(val):
            raise CliError(f"{key} must be finite, got {val}")
    return merged


def config_header_lines(config):
    return [f"{k} = {config[k]}" for k in sorted(config)]


# ---------------------------------------------------------------------------
# subcommands


def _collect(args, defaults):
    file_values = read_config_file(args.config) if args.config else {}
    flag_values = {k: getattr(args, k, None) for k in defaults}  # a fixed key has no flag
    return merge_config(defaults, file_values, flag_values)


def _comma_list(cfg, key, convert):
    """The comma list cfg[key], each token converted; blank tokens are dropped."""
    try:
        values = [convert(tok.strip()) for tok in cfg[key].split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"cannot parse {key} {cfg[key]!r}")
    if any(isinstance(v, float) and not math.isfinite(v) for v in values):
        raise CliError(f"{key} must be finite, got {cfg[key]!r}")
    return values


SOLVE_DEFAULTS = {
    "problem": "exact1d",
    "epsilon": 1e-5,
    "n": 50,
    "dt": 0.01,
    "T": 1.0,
    "scheme": "nfem",
    "kind": "phi_m1_lin",
    "sigma": 0.0,  # 0 = mesh-derived default
    "quad_refine": 1,
    # FIXED_KEYS: header entries with no flag, the one solver; a config file may only restate them
    "solver": "direct_cholesky",
    "tol": 1e-10,
    "output": "",
    "dump_field": "",
    "dump_matrices": "",
    "no_timing": False,
    "seed": 0,
}
FIXED_KEYS = ("solver", "tol")


def _dump_matrix(matrix, path):
    import scipy.sparse as sp

    coo = sp.coo_matrix(matrix)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{i} {j} {v:.17g}\n")


def cmd_solve(args):
    from .analysis import PROBLEMS, ConvergenceTable, report_row, solve_scenario, write_convergence_csv

    cfg = _collect(args, SOLVE_DEFAULTS)
    for key in FIXED_KEYS:
        if cfg[key] != SOLVE_DEFAULTS[key]:
            raise CliError(f"config key {key}: only {SOLVE_DEFAULTS[key]!r} is supported, got {cfg[key]!r}")
    if cfg["problem"] not in PROBLEMS:
        raise CliError(f"unknown problem {cfg['problem']!r}")
    report, fieldsol, space, exact = solve_scenario(
        PROBLEMS[cfg["problem"]].dim,
        cfg["epsilon"],
        cfg["n"],
        cfg["T"],
        cfg["dt"],
        cfg["scheme"],
        enrichment_kind=cfg["kind"],
        sigma=cfg["sigma"] or None,
        refine=cfg["quad_refine"],
        problem=cfg["problem"],
    )
    timing = not cfg["no_timing"]
    for line in config_header_lines(cfg):
        print(f"# {line}")
    print(f"scheme      : {cfg['scheme']}")
    print(f"dofs        : {report.dofs}")
    print(f"h           : {report.h:.10g}")
    if math.isnan(report.rel_l2):
        print(f"abs_l2      : {report.abs_l2:.10g}")
        print("rel_l2      : undefined (exact solution has zero L2 norm)")
    else:
        print(f"rel_l2      : {report.rel_l2:.10g}")
        print(f"abs_l2      : {report.abs_l2:.10g}")
    print(f"h1_err      : {report.h1_seminorm_error:.10g}")
    print(f"osc_index   : {report.oscillation_index:.10g}")
    if timing:
        print(f"runtime_s   : {report.runtime:.3f}")

    if cfg["output"]:
        table = ConvergenceTable()
        table.rows.append(report_row(cfg["scheme"], cfg["epsilon"], cfg["dt"], cfg["T"], report, timing))
        write_convergence_csv(table, cfg["output"], header_comments=config_header_lines(cfg))
        print(f"wrote {cfg['output']}")

    if cfg["dump_field"]:
        _dump_field(space, fieldsol.final, exact, cfg)
        print(f"wrote {cfg['dump_field']}")

    if cfg["dump_matrices"]:
        from .assembly import _check_gram, assemble_standard
        from .linsolve import stack

        # the march's own level at T on the closed-form standard blocks,
        # stacked for the dump alone; its Gram block is checked as a level
        # built without a previous one is
        standard, level = assemble_standard(space, cfg["epsilon"]), fieldsol.level
        if space.n_enriched:
            _check_gram(level.mee)
        _dump_matrix(stack(standard.mss, level.msl, level.mee), cfg["dump_matrices"] + ".mass")
        _dump_matrix(stack(standard.ass, level.asl, level.aee), cfg["dump_matrices"] + ".stiffness")
        print(f"wrote {cfg['dump_matrices']}.mass / .stiffness")
    return EXIT_OK


def _dump_field(space, coeffs, exact, cfg):
    """The field u and the exact solution u_exact at T.  1D: at the mesh
    nodes and the points of the error report's layout, which resolve the
    sqrt(eps) layers.  2D: at the mesh nodes, i.e. the P1 coefficient (0 on
    the boundary) plus the enrichment, each node read as a vertex of its
    first, outermost, triangle (so a node on the support's inner ring takes
    the enrichment)."""
    import numpy as np

    from .assembly import _discrete_field, element_rules_1d, evaluate_field_1d

    if space.mesh.dim == 1:
        points = (np.union1d(space.mesh.nodes, element_rules_1d(space.mesh, cfg["epsilon"]).points),)
        vals = evaluate_field_1d(space, coeffs, *points, t=cfg["T"])
    else:
        points = tuple(space.mesh.nodes.T)
        _, first = np.unique(space.mesh.triangles, return_index=True)
        vals, _ = _discrete_field(space, coeffs, space.mesh.nodes, first // 3, np.eye(3)[first % 3], cfg["T"])
    with open(cfg["dump_field"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(f"# {line}" for line in config_header_lines(cfg)) + "\n")
        fh.write(",".join(("x", "y")[: len(points)] + ("u", "u_exact")) + "\n")
        for row in zip(*points, vals, exact.u(*points, cfg["T"])):
            fh.write(",".join(f"{v:.10g}" for v in row) + "\n")


DT_RULES = ("fixed", "h-squared")

CONVERGE_DEFAULTS = {
    "dim": 1,
    "problem": "",  # empty = the dimension's exact benchmark
    "epsilon": 1e-5,
    "levels": "25,50,100,200",
    "dt": 0.01,
    "T": 1.0,
    "schemes": "sfem,nfem",
    "kind": "phi_m1_lin",
    "sigma": 0.0,
    "dt_rule": "fixed",
    "output": "convergence.csv",
    "no_timing": False,
}


def cmd_converge(args):
    from .analysis import run_convergence_study, write_convergence_csv

    cfg = _collect(args, CONVERGE_DEFAULTS)
    levels = _comma_list(cfg, "levels", int)
    if cfg["dt_rule"] not in DT_RULES:
        raise CliError(f"dt-rule must be {' or '.join(map(repr, DT_RULES))}")
    table = run_convergence_study(
        cfg["dim"],
        cfg["epsilon"],
        levels,
        T=cfg["T"],
        dt=cfg["dt"],
        schemes=_comma_list(cfg, "schemes", str),
        enrichment_kind=cfg["kind"],
        sigma=cfg["sigma"] or None,
        timing=not cfg["no_timing"],
        dt_per_level=(lambda level: cfg["T"] / level**2) if cfg["dt_rule"] == "h-squared" else None,
        problem=cfg["problem"] or None,
    )
    header = config_header_lines(cfg)
    header += [f"slope[{s}] = {table.slopes[s][0]:.6g}" for s in sorted(table.slopes)]
    write_convergence_csv(table, cfg["output"], header_comments=header)
    for failure in table.failures:
        print(f"# error: {failure}", file=sys.stderr)
    for scheme, (slope, resid) in sorted(table.slopes.items()):
        print(f"{scheme}: L2 slope {slope:.4f} (fit residual {resid:.3g})")
    print(f"wrote {cfg['output']} ({len(table.rows)} rows)")
    return EXIT_NUMERICAL if table.failures and not table.rows else EXIT_OK


CORRECTOR_DEFAULTS = {
    "epsilon": 1e-5,
    "t": 1.0,
    "sigma": 0.1,
    "xi_max": 0.5,
    "points": 400,
    "output": "profiles.csv",
}


def cmd_corrector(args):
    import numpy as np

    from .corrector import ENRICHMENT_KINDS, EnrichmentSpec, enrichment_profile

    cfg = _collect(args, CORRECTOR_DEFAULTS)
    if cfg["epsilon"] <= 0.0:
        raise CliError("epsilon must be positive")
    if cfg["t"] <= 0.0:
        raise CliError("t must be positive (phi0 and phi0_tilde are time dependent)")
    if not 0.0 < cfg["sigma"] <= 0.5:
        raise CliError("sigma must lie in (0, 0.5]")
    if cfg["points"] < 2:
        raise CliError("need at least 2 sample points")
    if cfg["xi_max"] <= 0.0 or cfg["xi_max"] > 1.0:
        raise CliError("xi-max must lie in (0, 1]")

    xi_min = np.sqrt(cfg["epsilon"]) / 100.0
    xi = np.concatenate([[0.0], np.geomspace(xi_min, cfg["xi_max"], cfg["points"] - 1)])
    columns = {}
    for kind in ENRICHMENT_KINDS:
        spec = EnrichmentSpec(
            kind=kind,
            epsilon=cfg["epsilon"],
            sigma=cfg["sigma"] if kind == "phi_m1_lin" else None,
        )
        columns[kind] = enrichment_profile(spec, xi, cfg["t"])[0]

    with open(cfg["output"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(f"# {line}" for line in config_header_lines(cfg)) + "\n")
        fh.write(",".join(("xi",) + ENRICHMENT_KINDS) + "\n")
        for i, xv in enumerate(xi):
            vals = ",".join(f"{columns[k][i]:.10g}" for k in ENRICHMENT_KINDS)
            fh.write(f"{xv:.10g},{vals}\n")
    print(f"wrote {cfg['output']} ({len(xi)} rows)")
    return EXIT_OK


RATES_DEFAULTS = {"epsilons": "1e-3,1e-4,1e-5,1e-6", "T": 1.0, "n_steps": 1000}


def cmd_rates(args):
    from .analysis import epsilon_rate_study

    cfg = _collect(args, RATES_DEFAULTS)
    result = epsilon_rate_study(epsilons=_comma_list(cfg, "epsilons", float), T=cfg["T"], n_steps=cfg["n_steps"])
    for line in config_header_lines(cfg):
        print(f"# {line}")
    print(f"{'epsilon':>10s} {'L2 remainder':>14s} {'H1 remainder':>14s}")
    for e, l2, h1 in zip(result.epsilons, result.l2_errors, result.h1_errors):
        print(f"{e:10.1e} {l2:14.6g} {h1:14.6g}")
    print(f"L2 slope: {result.l2_slope:.4f}")
    print(f"H1 slope: {result.h1_slope:.4f}")
    print(f"monotone decrease: {result.monotone}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser():
    """A subcommand's flags are its defaults' keys but FIXED_KEYS, typed as
    the default (a bool is a switch) and None unless given."""
    # the library's names; main applies BLFEM_THREADS before numpy is imported here
    from .analysis import PROBLEMS, SCHEMES
    from .corrector import ENRICHMENT_KINDS

    # what the defaults cannot say: choices and help
    extra = {
        "problem": dict(choices=tuple(PROBLEMS)),
        "scheme": dict(choices=SCHEMES),
        "kind": dict(choices=ENRICHMENT_KINDS),
        "dim": dict(choices=(1, 2)),
        "dt_rule": dict(choices=DT_RULES),
        "n": dict(help="elements (1D) or boundary nodes (2D)"),
        "sigma": dict(help="phi_m1_lin taper width; in solve and converge 0 = mesh-derived default"),
        "levels": dict(help="comma-separated mesh levels"),
        "schemes": dict(help="comma list from sfem,nfem"),
        "epsilons": dict(help="comma list of epsilon values"),
        "output": dict(help="write the CSV here"),
        "dump_field": dict(help="write sampled solution and exact values here"),
        "dump_matrices": dict(help="prefix for i-j-value matrix dumps"),
        "seed": dict(help="reserved"),
    }
    parser = argparse.ArgumentParser(
        prog="blfem",
        description="Boundary-layer-enriched P1 finite elements for u_t - eps*Lap(u) = f",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, defaults, func, help_ in (
        ("solve", SOLVE_DEFAULTS, cmd_solve, "run one scenario and report errors"),
        ("converge", CONVERGE_DEFAULTS, cmd_converge, "mesh-refinement study, writes the error CSV"),
        ("corrector", CORRECTOR_DEFAULTS, cmd_corrector, "sample the four layer profiles to CSV"),
        ("rates", RATES_DEFAULTS, cmd_rates, "fit the corrector-expansion remainder's rate in epsilon"),
    ):
        p = sub.add_parser(name, help=help_)
        for key, default in defaults.items():
            if key in FIXED_KEYS:
                continue
            flags = ("-o", "--output") if key == "output" else ("--" + key.replace("_", "-"),)
            how = dict(action="store_const", const=True) if isinstance(default, bool) else dict(type=type(default))
            p.add_argument(*flags, dest=key, **how, **extra.get(key, {}))
        p.add_argument("--config", help="key = value config file; flags override its entries")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        _apply_thread_cap()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        from .assembly import AssemblyError
        from .linsolve import NotPositiveDefinite

        if isinstance(exc, (NotPositiveDefinite, AssemblyError)):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        raise


if __name__ == "__main__":
    sys.exit(main())
