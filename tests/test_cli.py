"""Command-line interface: exit codes, config precedence, artifact formats."""

import os

import numpy as np
import pytest

from blfem.analysis import PROBLEMS, solve_scenario
from blfem.assembly import element_rules_1d
from blfem.corrector import CUTOFF_INNER, ENRICHMENT_KINDS
from blfem.cli import (
    CONVERGE_DEFAULTS,
    CORRECTOR_DEFAULTS,
    DT_RULES,
    EXIT_INVALID,
    EXIT_NUMERICAL,
    EXIT_OK,
    FIXED_KEYS,
    SOLVE_DEFAULTS,
    CliError,
    build_parser,
    config_header_lines,
    main,
    merge_config,
    read_config_file,
)
from blfem.linsolve import NotPositiveDefinite
from blfem.mesh import build_disk_mesh, build_interval_mesh
from helpers import enriched_terms


def run_cli(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return main(args)


class TestConfigHandling:
    def test_file_parsing(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\nepsilon = 1e-3\ndt-rule = fixed  # trailing\n\n")
        vals = read_config_file(cfg)
        assert vals == {"epsilon": "1e-3", "dt_rule": "fixed"}

    def test_bad_line_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epsilon\n")
        with pytest.raises(CliError):
            read_config_file(cfg)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CliError):
            read_config_file(tmp_path / "nope.cfg")

    def test_precedence_flags_over_file_over_defaults(self):
        defaults = {"epsilon": 1e-5, "n": 50, "scheme": "nfem"}
        merged = merge_config(defaults, {"epsilon": "1e-3", "n": "10"}, {"n": 20, "scheme": None})
        assert merged == {"epsilon": 1e-3, "n": 20, "scheme": "nfem"}

    def test_unknown_key_rejected(self):
        with pytest.raises(CliError):
            merge_config({"a": 1}, {"b": "2"}, {})

    def test_type_conversion_errors(self):
        with pytest.raises(CliError):
            merge_config({"n": 5}, {"n": "five"}, {})

    def test_header_lines_sorted(self):
        lines = config_header_lines({"b": 2, "a": 1})
        assert lines == ["a = 1", "b = 2"]


class TestSolveCommand:
    def test_basic_solve_and_report(self, tmp_path, monkeypatch, capsys):
        code = run_cli(
            ["solve", "--problem", "exact1d", "--epsilon", "1e-3", "--n", "16",
             "--dt", "0.1", "--T", "0.5", "--scheme", "nfem"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "# epsilon = 0.001" in out
        assert "rel_l2" in out
        assert "osc_index" in out

    def test_output_csv_schema(self, tmp_path, monkeypatch):
        code = run_cli(
            ["solve", "--problem", "exact1d", "--epsilon", "1e-3", "--n", "8",
             "--dt", "0.1", "--T", "0.5", "--scheme", "sfem", "-o", "row.csv",
             "--no-timing"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        lines = (tmp_path / "row.csv").read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        data = [ln for ln in lines if not ln.startswith("#")]
        assert comments  # config echoed into the artifact
        assert data[0] == "scheme,epsilon,h,dofs,dt,T,rel_l2,h1_err,osc_index,runtime_s"
        fields = data[1].split(",")
        assert fields[0] == "sfem"
        assert fields[-1] == "0"  # timing suppressed

    def test_invalid_dt_exit_2(self, tmp_path, monkeypatch):
        code = run_cli(
            ["solve", "--problem", "exact1d", "--dt", "0.3", "--T", "1.0"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_INVALID

    def test_dt_that_tiles_a_long_horizon(self, tmp_path, monkeypatch, capsys):
        # dt = T / 139 exactly; 139 * dt misses T = 1e4 by rounding alone
        code = run_cli(
            ["solve", "--problem", "exact1d", "--n", "4", "--T", "10000", "--dt", repr(1e4 / 139), "--no-timing"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        assert "rel_l2" in capsys.readouterr().out

    @pytest.mark.parametrize("text, timed", [("yes", False), ("no", True)])
    def test_no_timing_from_config(self, tmp_path, monkeypatch, capsys, text, timed):
        (tmp_path / "run.cfg").write_text(f"no_timing = {text}\n")
        code = run_cli(
            ["solve", "--config", "run.cfg", "--problem", "exact1d", "--n", "8", "--dt", "0.1", "--T", "0.5",
             "--scheme", "sfem"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert f"# no_timing = {not timed}" in out.splitlines()
        assert ("runtime_s" in out) == timed

    def test_unparsable_no_timing_in_config_exit_2(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "run.cfg").write_text("no_timing = maybe\n")
        code = run_cli(["solve", "--config", "run.cfg", "--n", "8", "--T", "0.5"], tmp_path, monkeypatch)
        assert code == EXIT_INVALID
        captured = capsys.readouterr()
        assert "no_timing" in captured.err and "'maybe'" in captured.err
        assert captured.out == ""

    def test_foreign_exception_is_reraised(self, tmp_path, monkeypatch):
        # only blfem's own failures map to exit codes; anything else is a bug
        # and keeps its traceback
        import blfem.analysis

        def fail(*args, **kwargs):
            raise RuntimeError("not a blfem failure")

        monkeypatch.setattr(blfem.analysis, "solve_scenario", fail)
        with pytest.raises(RuntimeError, match="not a blfem failure"):
            run_cli(["solve", "--n", "8", "--T", "0.5"], tmp_path, monkeypatch)

    @pytest.mark.parametrize(
        "flags",
        [["--dt", "0"], ["--quad-refine", "0"], ["--sigma", "-1", "--kind", "phi0"], ["--epsilon", "0"]],
    )
    def test_invalid_parameter_exit_2(self, tmp_path, monkeypatch, capsys, flags):
        code = run_cli(["solve", "--problem", "exact1d", "--n", "8", "--T", "0.5"] + flags, tmp_path, monkeypatch)
        assert code == EXIT_INVALID
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""  # rejected before any output

    def test_unknown_problem_in_config_exit_2(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "run.cfg").write_text("problem = exact3d\n")
        code = run_cli(["solve", "--config", "run.cfg", "--n", "8", "--T", "0.5"], tmp_path, monkeypatch)
        assert code == EXIT_INVALID
        assert "exact3d" in capsys.readouterr().err

    def test_zero_problem_reports_undefined(self, tmp_path, monkeypatch, capsys):
        code = run_cli(
            ["solve", "--problem", "zero1d", "--epsilon", "1e-3", "--n", "8",
             "--dt", "0.1", "--T", "0.5", "--scheme", "sfem"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        assert "undefined" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize("problem, n", [("exact1d", "20"), ("exact2d", "16")])
    def test_failed_schur_cholesky_exit_3(self, tmp_path, monkeypatch, capsys, problem, n):
        # levels past t = 0.5 get negated enriched Gram blocks: K_ss stays
        # positive definite, the enriched Schur complement does not
        import dataclasses

        import blfem.assembly as assembly

        split = assembly._split_layout

        def negated_after_half(*args):
            rebuild, *rest = split(*args)

            def negated(t, previous=None):
                level = rebuild(t, previous)
                return dataclasses.replace(level, mee=-level.mee, aee=-level.aee) if t > 0.5 else level

            return negated, *rest

        monkeypatch.setattr(assembly, "_split_layout", negated_after_half)
        code = run_cli(
            ["solve", "--problem", problem, "--epsilon", "1e-4", "--n", n, "--dt", "0.25",
             "--T", "1.0", "--scheme", "nfem", "--kind", "phi0_tilde"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_NUMERICAL
        assert "numerical failure: time step 3: enriched Schur complement" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize("problem, n", [("exact1d", "20"), ("exact2d", "16")])
    def test_failed_standard_factorization_exit_3(self, tmp_path, monkeypatch, capsys, problem, n):
        # a negated stiffness makes M - dt A indefinite: the plain march's
        # stacked factorization meets a nonpositive pivot at the first step
        import dataclasses

        import blfem.analysis as analysis

        assemble = analysis.assemble_standard

        def negated(space, epsilon):
            system = assemble(space, epsilon)
            return dataclasses.replace(system, ass=-system.ass)

        monkeypatch.setattr(analysis, "assemble_standard", negated)
        code = run_cli(
            ["solve", "--problem", problem, "--epsilon", "1e-1", "--n", n, "--dt", "0.25",
             "--T", "1.0", "--scheme", "sfem"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_NUMERICAL
        assert "numerical failure: time step 1: nonpositive pivot" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize("problem, dim, n", [("exact1d", 1, 50), ("exact2d", 2, 16)])
    def test_solve_matches_library(self, tmp_path, monkeypatch, capsys, problem, dim, n):
        code = run_cli(
            ["solve", "--problem", problem, "--epsilon", "1e-5", "--n", str(n), "--dt", "0.1",
             "--T", "1.0", "--scheme", "nfem"],
            tmp_path, monkeypatch,
        )
        out = capsys.readouterr()
        assert code == EXIT_OK, out.err
        line = [ln for ln in out.out.splitlines() if ln.startswith("rel_l2")]
        report = solve_scenario(dim, 1e-5, n, 1.0, 0.1, "nfem", problem=problem)[0]
        assert line[0].split(":")[1].strip() == f"{report.rel_l2:.10g}"

    @pytest.mark.parametrize("kind", ["phi_m1_lin", "phi_m1", "phi0", "phi0_tilde"])
    @pytest.mark.parametrize("eps", ["1e-3", "1e-5", "1e-8"])
    @pytest.mark.parametrize("n", ["50", "200"])
    def test_every_1d_kind_solves(self, tmp_path, monkeypatch, capsys, kind, eps, n):
        code = run_cli(
            ["solve", "--problem", "exact1d", "--epsilon", eps, "--n", n,
             "--dt", "0.1", "--T", "1.0", "--scheme", "nfem", "--kind", kind],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK, capsys.readouterr().err
        rel = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("rel_l2")]
        assert np.isfinite(float(rel[0].split(":")[1]))

    @pytest.mark.parametrize(
        "extra, config, key",
        [
            (["--solver", "cg_jacobi"], None, "--solver"),
            (["--tol", "1e-8"], None, "--tol"),
            ([], "solver = cg_jacobi\n", "solver"),
            ([], "tol = 1e-8\n", "tol"),
            ([], "solver = direct_cholesky\ntol = 1e-10\n", None),
        ],
        ids=["solver-flag", "tol-flag", "solver-config", "tol-config", "defaults-config"],
    )
    def test_solver_and_tol_are_fixed_header_entries(self, tmp_path, monkeypatch, capsys, extra, config, key):
        # no flag sets them, and a config file may only restate the values
        # every header records: the one direct solve
        base = ["solve", "--problem", "exact1d", "--epsilon", "1e-3", "--n", "8", "--dt", "0.1", "--T", "0.5",
                "--no-timing", "-o", "out.csv"]
        argv = base + extra
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv += ["--config", "run.cfg"]
        try:
            code = run_cli(argv, tmp_path, monkeypatch)
        except SystemExit as exc:  # argparse rejects an unknown flag
            code = exc.code
        err = capsys.readouterr().err
        if key is not None:
            assert code == EXIT_INVALID and key in err
            assert not (tmp_path / "out.csv").exists()
            return
        assert code == EXIT_OK, err
        with_file = (tmp_path / "out.csv").read_bytes()
        assert b"# solver = direct_cholesky\n" in with_file and b"# tol = 1e-10\n" in with_file
        assert run_cli(base, tmp_path, monkeypatch) == EXIT_OK
        assert (tmp_path / "out.csv").read_bytes() == with_file

    def test_config_file_with_flag_override(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon = 1e-3\nn = 8\ndt = 0.1\nT = 0.5\nscheme = sfem\n")
        code = run_cli(
            ["solve", "--problem", "exact1d", "--config", str(cfg), "--n", "16"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "# n = 16" in out  # flag wins
        assert "# epsilon = 0.001" in out  # file wins over default

    def test_dump_matrices_format(self, tmp_path, monkeypatch):
        code = run_cli(
            ["solve", "--problem", "exact1d", "--epsilon", "1e-3", "--n", "8",
             "--dt", "0.1", "--T", "0.5", "--scheme", "sfem", "--dump-matrices", "sys"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        lines = (tmp_path / "sys.mass").read_text().splitlines()
        i, j, v = lines[0].split()
        int(i), int(j), float(v)
        # reassemble and compare one entry against the closed form h/6
        entries = {(int(a), int(b)): float(c) for a, b, c in (ln.split() for ln in lines)}
        assert entries[(0, 1)] == pytest.approx(1.0 / 48.0)

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    def test_dump_matrices_store_no_zeros_2d(self, tmp_path, monkeypatch):
        # at B = 20 the phi0 profile underflows to 0 at every quadrature
        # point of some coupling entries; those entries are not stored
        code = run_cli(
            ["solve", "--problem", "exact2d", "--kind", "phi0", "--epsilon", "1e-5", "--n", "20",
             "--dt", "0.5", "--T", "1", "--dump-matrices", "sys"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        for suffix in ("mass", "stiffness"):
            values = [float(ln.split()[2]) for ln in (tmp_path / f"sys.{suffix}").read_text().splitlines()]
            assert values and 0.0 not in values, suffix

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize("kind", ["phi_m1_lin", "phi0_tilde"])
    def test_dump_matrices_reads_the_runs_layout(self, tmp_path, monkeypatch, kind):
        # the dump stacks the run's own level at T on the closed-form
        # standard blocks: no second whole-mesh layout
        import blfem.assembly

        calls = []
        real = blfem.assembly.triangle_rule_points
        monkeypatch.setattr(blfem.assembly, "triangle_rule_points", lambda *a, **k: calls.append(1) or real(*a, **k))
        argv = ["solve", "--problem", "exact2d", "--kind", kind, "--n", "16", "--dt", "0.25", "--T", "0.5"]
        assert run_cli(argv + ["--dump-matrices", "sys"], tmp_path, monkeypatch) == EXIT_OK
        assert len(calls) == 1
        assert (tmp_path / "sys.mass").stat().st_size > 0

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize("kind", ["phi_m1_lin", "phi0_tilde"])
    def test_dump_matrices_equal_a_fresh_level_at_T(self, tmp_path, monkeypatch, kind):
        # the dump stacks the march's own last level: byte for byte the level
        # at T of a system assembled afresh, the fixed one for phi_m1_lin
        import blfem.analysis as analysis
        from blfem.assembly import assemble_enriched, element_rules_2d
        from blfem.cli import _dump_matrix
        from blfem.linsolve import stack

        spaces, real = [], analysis.solve_scenario

        def solve(*args, **kwargs):
            out = real(*args, **kwargs)
            spaces.append(out[2])
            return out

        monkeypatch.setattr(analysis, "solve_scenario", solve)
        argv = ["solve", "--problem", "exact2d", "--kind", kind, "--n", "16", "--dt", "0.25", "--T", "0.5"]
        argv += ["--no-timing"]
        assert run_cli(argv + ["--dump-matrices", "sys"], tmp_path, monkeypatch) == EXIT_OK
        (space,) = spaces
        eps = space.enrichment.epsilon
        system = assemble_enriched(space, eps, t_max=0.5, layout=element_rules_2d(space.mesh, eps))
        level = system.parts["rebuild"](0.5)
        _dump_matrix(stack(system.mss, level.msl, level.mee), "want.mass")
        _dump_matrix(stack(system.ass, level.asl, level.aee), "want.stiffness")
        for suffix in ("mass", "stiffness"):
            assert (tmp_path / f"sys.{suffix}").read_bytes() == (tmp_path / f"want.{suffix}").read_bytes(), suffix

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    def test_dump_matrices_check_the_gram_block(self, tmp_path, monkeypatch, capsys):
        # a numerically singular Gram block in the level the dump reads
        # exits 3 before a file is written
        import dataclasses

        import blfem.analysis as analysis

        real = analysis.solve_scenario

        def singular(*args, **kwargs):
            report, fieldsol, space, exact = real(*args, **kwargs)
            fieldsol.level = dataclasses.replace(fieldsol.level, mee=np.zeros_like(fieldsol.level.mee))
            return report, fieldsol, space, exact

        monkeypatch.setattr(analysis, "solve_scenario", singular)
        argv = ["solve", "--problem", "exact2d", "--kind", "phi_m1_lin", "--n", "16", "--dt", "0.25", "--T", "0.5"]
        assert run_cli(argv + ["--dump-matrices", "sys"], tmp_path, monkeypatch) == EXIT_NUMERICAL
        assert "enriched Gram block is numerically singular" in capsys.readouterr().err
        assert not (tmp_path / "sys.mass").exists()

    def test_dump_field(self, tmp_path, monkeypatch):
        code = run_cli(
            ["solve", "--problem", "exact1d", "--epsilon", "1e-3", "--n", "8",
             "--dt", "0.1", "--T", "0.5", "--scheme", "sfem", "--dump-field", "f.csv"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        lines = [ln for ln in (tmp_path / "f.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "x,u,u_exact"
        assert len(lines) == 1 + 169  # the 9 nodes and the 160 points of the error layout

    @pytest.mark.parametrize("n, eps", [("20", 1e-5), ("50", 1e-8)])
    def test_dump_field_resolves_the_layer(self, tmp_path, monkeypatch, n, eps):
        # the 1D dump samples the error layout's graded points, so the
        # sqrt(eps) layer at x = 0 holds several rows, not one
        code = run_cli(
            ["solve", "--problem", "exact1d", "--epsilon", str(eps), "--n", n,
             "--dt", "0.1", "--T", "0.5", "--dump-field", "f.csv"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        rows = [ln for ln in (tmp_path / "f.csv").read_text().splitlines() if not ln.startswith("#")]
        xs = np.array([float(row.split(",")[0]) for row in rows[1:]])
        assert np.all(np.diff(xs) > 0.0)
        assert np.count_nonzero(xs <= np.sqrt(eps)) >= 3

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize("problem, n", [("exact1d", "8"), ("smooth1d", "8"), ("exact2d", "16")])
    def test_dump_field_exact_column(self, tmp_path, monkeypatch, problem, n):
        # u_exact is exact.u at the written points and T, in 1D and 2D
        code = run_cli(
            ["solve", "--problem", problem, "--epsilon", "1e-3", "--n", n, "--dt", "0.25", "--T", "0.5",
             "--dump-field", "f.csv"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        exact = PROBLEMS[problem](1e-3)
        if exact.dim == 1:
            mesh = build_interval_mesh(int(n))
            points = (np.union1d(mesh.nodes, element_rules_1d(mesh, 1e-3).points),)
        else:
            points = tuple(build_disk_mesh(int(n)).nodes.T)
        rows = [ln.split(",") for ln in (tmp_path / "f.csv").read_text().splitlines() if not ln.startswith("#")]
        assert rows[0] == ["x", "y"][: exact.dim] + ["u", "u_exact"]
        columns = [list(column) for column in zip(*rows[1:])]
        want = (*points, exact.u(*points, 0.5))
        assert columns[: exact.dim] + columns[-1:] == [[f"{v:.10g}" for v in column] for column in want]


def _disk_field_reference(space, coeffs, t):
    """The discrete field at each disk mesh node, evaluated inside the first
    triangle that holds the node with barycentric coordinates solved from
    its vertices, plus the enrichment terms."""
    mesh = space.mesh
    vals = np.empty(len(mesh.nodes))
    for node in range(len(mesh.nodes)):
        tri = mesh.triangles[np.nonzero(mesh.triangles == node)[0][0]]
        lam = np.linalg.solve(np.vstack([np.ones(3), mesh.nodes[tri].T]), np.array([1.0, *mesh.nodes[node]]))
        dof = space.node_to_dof[tri]
        vals[node] = np.dot(lam, np.where(dof >= 0, coeffs[np.clip(dof, 0, None)], 0.0))
    if space.enrichment is not None:
        cols, evals, _ = enriched_terms(space, mesh.nodes, t)
        vals += np.sum(evals * coeffs[space.n_standard :][cols], axis=1)
    return vals


def _nodal_formula(space, coeffs, t):
    """The field at the disk mesh nodes as the nodal coefficient (0 on the
    boundary) plus sum_j phi psi_j c_j evaluated at every node."""
    vals = np.zeros(len(space.mesh.nodes))
    vals[space.interior_nodes] = coeffs[: space.n_standard]
    if space.enrichment is not None:
        cols, evals, _ = enriched_terms(space, space.mesh.nodes, t)
        vals += np.sum(evals * coeffs[space.n_standard :][cols], axis=1)
    return vals


class TestDumpField2D:
    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize("scheme", ["sfem", "nfem"])
    def test_nodal_values(self, tmp_path, monkeypatch, scheme):
        code = run_cli(
            ["solve", "--problem", "exact2d", "--epsilon", "1e-3", "--n", "16", "--dt", "0.25",
             "--T", "0.5", "--scheme", scheme, "--dump-field", "f.csv"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        lines = [ln for ln in (tmp_path / "f.csv").read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "x,y,u,u_exact"
        got = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        _, fieldsol, space, _ = solve_scenario(2, 1e-3, 16, 0.5, 0.25, scheme)
        want = _disk_field_reference(space, fieldsol.final, 0.5)
        assert np.array_equal(got[:, :2], np.array([[float(f"{c:.10g}") for c in xy] for xy in space.mesh.nodes]))
        assert np.allclose(got[:, 2], [float(f"{v:.10g}") for v in want], rtol=0.0, atol=1e-12)
        assert np.all(got[space.mesh.boundary_nodes, 2] == 0.0)

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize("scheme, kind", [("sfem", "phi_m1_lin")] + [("nfem", k) for k in ENRICHMENT_KINDS])
    @pytest.mark.parametrize("eps", ["1e-3", "1e-8"])
    def test_dump_equals_the_nodal_formula(self, tmp_path, monkeypatch, scheme, kind, eps):
        # the dump reads each node through _discrete_field as a vertex of its
        # outermost triangle; that equals the nodal coefficient plus the
        # enrichment evaluated at every node, to the bit
        from blfem import assembly

        seen = []
        read_out = assembly._discrete_field
        monkeypatch.setattr(assembly, "_discrete_field", lambda *a: seen.append((a, read_out(*a))) or seen[-1][1])
        code = run_cli(
            ["solve", "--problem", "exact2d", "--epsilon", eps, "--n", "16", "--dt", "0.25", "--T", "0.5",
             "--scheme", scheme, "--kind", kind, "--dump-field", "f.csv"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK and len(seen) == 1
        (space, coeffs, *_), (vals, _) = seen[0]
        want = _nodal_formula(space, coeffs, 0.5)
        assert vals.tobytes() == want.tobytes()
        lines = [ln for ln in (tmp_path / "f.csv").read_text().splitlines() if not ln.startswith("#")]
        assert [ln.split(",")[2] for ln in lines[1:]] == [f"{v:.10g}" for v in want]


class TestNameCopies:
    def test_cli_names_match_the_library(self):
        # the parser takes its choices from the library, in the library's order
        from blfem import analysis, corrector

        want = {
            "problem": tuple(analysis.PROBLEMS),
            "kind": corrector.ENRICHMENT_KINDS,
            "scheme": analysis.SCHEMES,
            "dt_rule": DT_RULES,
        }
        commands = build_parser()._subparsers._group_actions[0].choices
        seen = set()
        for name in ("solve", "converge"):
            for action in commands[name]._actions:
                if action.dest in want:
                    assert tuple(action.choices) == want[action.dest], (name, action.dest)
                    seen.add((name, action.dest))
        solve = {("solve", d) for d in ("problem", "kind", "scheme")}
        assert seen == solve | {("converge", "problem"), ("converge", "kind"), ("converge", "dt_rule")}

    def test_config_check_reads_the_dt_rules(self, tmp_path, monkeypatch, capsys):
        # a rule the tuple does not hold is refused, with the tuple's rules named
        import blfem.cli as cli

        monkeypatch.setattr(cli, "DT_RULES", ("fixed",))
        (tmp_path / "c.cfg").write_text("dt_rule = h-squared\n")
        code = run_cli(["converge", "--config", "c.cfg"], tmp_path, monkeypatch)
        assert code == EXIT_INVALID
        assert "dt-rule must be 'fixed'\n" in capsys.readouterr().err
        assert not (tmp_path / "convergence.csv").exists()

    @pytest.mark.parametrize(
        "name, defaults", [("solve", SOLVE_DEFAULTS), ("converge", CONVERGE_DEFAULTS), ("corrector", CORRECTOR_DEFAULTS)]
    )
    def test_flags_are_the_config_keys(self, name, defaults):
        # one flag per key but FIXED_KEYS, in the defaults' order and typed as
        # the default (a bool is a switch), then --config; -o is --output
        actions = [a for a in build_parser()._subparsers._group_actions[0].choices[name]._actions if a.dest != "help"]
        flags = [f for a in actions for f in a.option_strings]
        want = ["--" + k.replace("_", "-") for k in defaults if k not in FIXED_KEYS] + ["--config"]
        assert flags == [g for f in want for g in (("-o", f) if f == "--output" else (f,))]
        assert set(FIXED_KEYS) & set(defaults) == (set(FIXED_KEYS) if name == "solve" else set())
        for action in actions[:-1]:
            default = defaults[action.dest]
            if isinstance(default, bool):
                assert (action.const, action.nargs, action.type) == (True, 0, None), action.dest
            else:
                assert action.type is type(default), action.dest
            assert action.default is None, action.dest  # an unset flag leaves the config file's value

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize(
        "name, values",
        [
            ("solve", {"problem": "exact2d", "epsilon": "0.001", "n": "10", "dt": "0.25", "T": "0.5",
                       "scheme": "nfem", "kind": "phi0_tilde", "sigma": "0.2", "quad_refine": "2",
                       "output": "out.csv", "dump_field": "f.csv", "dump_matrices": "m", "no_timing": "",
                       "seed": "4"}),
            ("converge", {"dim": "1", "problem": "smooth1d", "epsilon": "0.01", "levels": "4,8,16", "dt": "0.25",
                          "T": "0.5", "schemes": "nfem", "kind": "phi0", "sigma": "0.2", "dt_rule": "h-squared",
                          "output": "out.csv", "no_timing": ""}),
            ("corrector", {"epsilon": "1e-06", "t": "0.5", "sigma": "0.2", "xi_max": "0.8", "points": "10",
                           "output": "out.csv"}),
        ],
    )
    def test_config_file_and_flags_agree(self, tmp_path, monkeypatch, capsys, name, values):
        # every key set once by a config file and once by its flag: the same
        # header and the same file, byte for byte
        defaults = {"solve": SOLVE_DEFAULTS, "converge": CONVERGE_DEFAULTS, "corrector": CORRECTOR_DEFAULTS}[name]
        assert set(values) == set(defaults) - set(FIXED_KEYS)
        outputs = []
        for how in ("config", "flags"):
            (tmp_path / how).mkdir()
            if how == "config":
                (tmp_path / how / "c.cfg").write_text("".join(f"{k} = {v or 'yes'}\n" for k, v in values.items()))
                argv = ["--config", "c.cfg"]
            else:
                argv = [tok for k, v in values.items() for tok in ("--" + k.replace("_", "-"), v) if tok]
            assert run_cli([name] + argv, tmp_path / how, monkeypatch) == EXIT_OK
            header = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("# ")]
            outputs.append((header, (tmp_path / how / "out.csv").read_bytes()))
        assert outputs[0] == outputs[1]
        assert b"# output = out.csv\n" in outputs[0][1]


class TestConvergeCommand:
    def test_csv_rows_and_slopes(self, tmp_path, monkeypatch, capsys):
        code = run_cli(
            ["converge", "--dim", "1", "--epsilon", "1e-2", "--levels", "4,8,16",
             "--dt", "0.1", "--T", "0.5", "--schemes", "sfem,nfem", "--no-timing",
             "-o", "conv.csv"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        lines = (tmp_path / "conv.csv").read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == 1 + 6  # header + 2 schemes x 3 levels
        slopes = [ln for ln in lines if ln.startswith("# slope[")]
        assert [ln.split("]")[0] for ln in slopes] == ["# slope[nfem", "# slope[sfem"]
        # stdout prints each slope with its fit residual
        printed = [ln for ln in capsys.readouterr().out.splitlines() if "L2 slope" in ln]
        assert [ln.split(":")[0] for ln in printed] == ["nfem", "sfem"]
        for ln, slope in zip(printed, slopes):
            assert float(ln.split()[3]) == pytest.approx(float(slope.split("=")[1]), abs=1e-4)
            assert "(fit residual " in ln

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize("dim, levels", [("1", "4,8,16"), ("2", "8,10,12")])
    def test_rerun_byte_identical(self, tmp_path, monkeypatch, dim, levels):
        args = ["converge", "--dim", dim, "--epsilon", "1e-2", "--levels", levels,
                "--dt", "0.25", "--T", "0.5", "--no-timing", "-o", "conv.csv"]
        assert run_cli(args, tmp_path, monkeypatch) == EXIT_OK
        first = (tmp_path / "conv.csv").read_bytes()
        assert run_cli(args, tmp_path, monkeypatch) == EXIT_OK
        assert (tmp_path / "conv.csv").read_bytes() == first
        rows = [ln.split(",") for ln in first.decode().splitlines() if ln.startswith(("sfem,", "nfem,"))]
        assert len(rows) == 2 * 3 and {row[-1] for row in rows} == {"0"}  # the runtime column

    def test_one_level_writes_both_schemes_and_no_slope(self, tmp_path, monkeypatch, capsys):
        code = run_cli(
            ["converge", "--dim", "1", "--epsilon", "1e-2", "--levels", "8", "--dt", "0.1", "--T", "0.5",
             "--no-timing", "-o", "conv.csv"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        lines = (tmp_path / "conv.csv").read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")][1:]
        assert [ln.split(",")[:3] for ln in data] == [["nfem", "0.01", "0.125"], ["sfem", "0.01", "0.125"]]
        assert not any("slope" in ln for ln in lines)
        assert "L2 slope" not in capsys.readouterr().out

    def test_no_levels_exit_2(self, tmp_path, monkeypatch, capsys):
        code = run_cli(["converge", "--dim", "1", "--levels", ""], tmp_path, monkeypatch)
        assert code == EXIT_INVALID
        assert "need at least one mesh level" in capsys.readouterr().err
        assert not (tmp_path / "convergence.csv").exists()

    def test_unparsable_levels_exit_2(self, tmp_path, monkeypatch, capsys):
        code = run_cli(["converge", "--dim", "1", "--levels", "4,x"], tmp_path, monkeypatch)
        assert code == EXIT_INVALID
        assert "cannot parse levels '4,x'" in capsys.readouterr().err
        assert not (tmp_path / "convergence.csv").exists()

    def test_unknown_dt_rule_in_config_exit_2(self, tmp_path, monkeypatch, capsys):
        # the flag's choices stop a bad rule at parsing; a config file's reaches the command
        (tmp_path / "conv.cfg").write_text("dt_rule = daily\n")
        code = run_cli(["converge", "--config", "conv.cfg", "--dim", "1", "--levels", "4,8,16"], tmp_path, monkeypatch)
        assert code == EXIT_INVALID
        assert "dt-rule must be" in capsys.readouterr().err
        assert not (tmp_path / "convergence.csv").exists()

    def test_bad_scheme_list(self, tmp_path, monkeypatch):
        code = run_cli(
            ["converge", "--dim", "1", "--levels", "4,8,16", "--schemes", "sfem,magic"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_INVALID

    def test_problem_of_other_dimension_exit_2(self, tmp_path, monkeypatch, capsys):
        code = run_cli(
            ["converge", "--dim", "1", "--problem", "exact2d", "--levels", "16,20,26", "--dt", "0.5",
             "--T", "0.5", "-o", "conv.csv"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_INVALID
        assert "unknown 1D problem 'exact2d'" in capsys.readouterr().err
        assert not (tmp_path / "conv.csv").exists()

    @pytest.mark.parametrize("dim, problem", [(1, "zero1d"), (2, "zero2d")])
    def test_zero_problem_rejected_before_solving(self, tmp_path, monkeypatch, capsys, dim, problem):
        import blfem.analysis as analysis

        monkeypatch.setattr(analysis, "solve_scenario", None)  # never reached
        code = run_cli(
            ["converge", "--dim", str(dim), "--problem", problem, "--levels", "16,20,26", "--dt", "0.5",
             "--T", "0.5", "-o", "conv.csv"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_INVALID
        assert "relative errors are undefined" in capsys.readouterr().err
        assert not (tmp_path / "conv.csv").exists()

    def test_too_small_level_rejected_before_solving(self, tmp_path, monkeypatch):
        import blfem.analysis as analysis

        monkeypatch.setattr(analysis, "solve_scenario", None)  # never reached
        code = run_cli(["converge", "--dim", "2", "--levels", "16,20,4"], tmp_path, monkeypatch)
        assert code == EXIT_INVALID

    def test_failed_level_recorded_and_rest_written(self, tmp_path, monkeypatch, capsys):
        import blfem.analysis as analysis

        real = analysis.solve_scenario

        def flaky(dim, epsilon, level, *args, **kwargs):
            if level == 8 and args[2] == "nfem":
                raise NotPositiveDefinite("pivot 3 is not positive")
            return real(dim, epsilon, level, *args, **kwargs)

        monkeypatch.setattr(analysis, "solve_scenario", flaky)
        code = run_cli(
            ["converge", "--dim", "1", "--epsilon", "1e-2", "--levels", "4,8,16", "--dt", "0.1",
             "--T", "0.5", "--no-timing", "-o", "conv.csv"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        lines = (tmp_path / "conv.csv").read_text().splitlines()
        assert "# error: scheme=nfem level=8: pivot 3 is not positive" in lines
        data = [ln for ln in lines if not ln.startswith("#")][1:]
        assert [ln.split(",")[:3] for ln in data] == [
            ["nfem", "0.01", "0.25"], ["nfem", "0.01", "0.0625"],
            ["sfem", "0.01", "0.25"], ["sfem", "0.01", "0.125"], ["sfem", "0.01", "0.0625"],
        ]
        assert "slope[nfem]" not in "\n".join(lines)  # two rows fit no slope
        assert "level=8" in capsys.readouterr().err

    def test_no_level_succeeded_exit_3(self, tmp_path, monkeypatch):
        # the table is still written, with one `# error:` line per level
        import blfem.analysis as analysis

        def singular(*args, **kwargs):
            raise NotPositiveDefinite("pivot 3 is not positive")

        monkeypatch.setattr(analysis, "solve_scenario", singular)
        code = run_cli(["converge", "--dim", "1", "--levels", "4,8", "--schemes", "sfem", "-o", "conv.csv"],
                       tmp_path, monkeypatch)
        assert code == EXIT_NUMERICAL
        lines = (tmp_path / "conv.csv").read_text().splitlines()
        assert [ln for ln in lines if ln.startswith("# error:")] == [
            f"# error: scheme=sfem level={n}: pivot 3 is not positive" for n in (4, 8)
        ]
        assert lines[-1].startswith("scheme,")  # the header, and no row


class TestCorrectorCommand:
    def test_profile_csv(self, tmp_path, monkeypatch):
        code = run_cli(
            ["corrector", "--epsilon", "1e-5", "--t", "1.0", "--points", "50",
             "-o", "p.csv"],
            tmp_path, monkeypatch,
        )
        assert code == EXIT_OK
        lines = [ln for ln in (tmp_path / "p.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "xi,phi0,phi0_tilde,phi_m1,phi_m1_lin"
        assert len(lines) == 51
        first = [float(tok) for tok in lines[1].split(",")]
        assert first[0] == 0.0
        assert all(abs(v) < 1e-12 for v in first[1:])  # all profiles vanish at xi = 0

    def test_profiles_agree_midrange(self, tmp_path, monkeypatch):
        run_cli(
            ["corrector", "--epsilon", "1e-6", "--t", "1.0", "--points", "200",
             "--xi-max", "0.25", "-o", "p.csv"],
            tmp_path, monkeypatch,
        )
        rows = [
            [float(tok) for tok in ln.split(",")]
            for ln in (tmp_path / "p.csv").read_text().splitlines()
            if not (ln.startswith("#") or ln.startswith("xi"))
        ]
        arr = np.array(rows)
        mid = (arr[:, 0] > 0.05) & (arr[:, 0] < 0.2)
        # the three cutoff-based profiles agree within 10% there
        assert np.max(np.abs(arr[mid, 1] - arr[mid, 3]) / arr[mid, 3]) < 0.10
        assert np.max(np.abs(arr[mid, 2] - arr[mid, 3]) / arr[mid, 3]) < 0.10

    def test_nonpositive_time_rejected(self, tmp_path, monkeypatch):
        code = run_cli(["corrector", "--t", "0.0"], tmp_path, monkeypatch)
        assert code == EXIT_INVALID

    def test_bad_sigma_rejected(self, tmp_path, monkeypatch):
        code = run_cli(["corrector", "--sigma", "0.7"], tmp_path, monkeypatch)
        assert code == EXIT_INVALID

    @pytest.mark.parametrize(
        "flags, message",
        [(["--epsilon", "0"], "epsilon must be positive"), (["--points", "1"], "at least 2 sample points"),
         (["--xi-max", "0"], "xi-max must lie in")],
    )
    def test_bad_sampling_rejected(self, tmp_path, monkeypatch, capsys, flags, message):
        code = run_cli(["corrector", "-o", "p.csv"] + flags, tmp_path, monkeypatch)
        assert code == EXIT_INVALID
        assert message in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    def test_far_tail_and_late_time(self, tmp_path, monkeypatch):
        # past t = 1 phi0's kernel integral exceeds 1 at the wall, and at
        # eps = 1e-8 most samples lie where its terms underflow
        code = run_cli(
            ["corrector", "--epsilon", "1e-8", "--t", "2", "--points", "50", "-o", "p.csv"], tmp_path, monkeypatch
        )
        assert code == EXIT_OK
        rows = [ln.split(",") for ln in (tmp_path / "p.csv").read_text().splitlines() if ln[:1].isdigit()]
        assert float(rows[0][1]) == -1.0  # phi0(0, 2) = 1 - 2
        plateau = [float(row[1]) for row in rows if 1e-2 < float(row[0]) <= CUTOFF_INNER]
        assert len(plateau) > 10 and set(plateau) == {1.0}


class TestThreadCap:
    def test_blfem_threads_propagates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BLFEM_THREADS", "2")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        code = run_cli(["corrector", "--points", "4", "-o", "p.csv"], tmp_path, monkeypatch)
        assert code == EXIT_OK
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"

    def test_invalid_thread_count(self, tmp_path, monkeypatch, capsys):
        # OpenBLAS reads a count below 1 as no cap at all
        for cap in ("many", "0", "-2"):
            monkeypatch.setenv("BLFEM_THREADS", cap)
            code = run_cli(["corrector", "--points", "4", "-o", "p.csv"], tmp_path, monkeypatch)
            assert code == EXIT_INVALID, cap
            assert "BLFEM_THREADS must be an integer" in capsys.readouterr().err
            assert not (tmp_path / "p.csv").exists()


class TestEpsilonRatesScript:
    @pytest.mark.parametrize("argv", [["--epsilons", "1e-3,x"], ["--epsilons", "1e-3,0,1e-5"], ["--T", "-1"],
                                      ["--n-steps", "0"]])
    def test_invalid_input_exit_2(self, monkeypatch, capsys, argv):
        # a message on stderr and no traceback, as the subcommands do
        import runpy
        import sys

        import blfem.analysis as analysis

        monkeypatch.setattr(analysis, "remainder_reference_1d", None)  # never reached
        path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "run_epsilon_rates.py")
        monkeypatch.setattr(sys, "argv", ["run_epsilon_rates.py"] + argv)
        with pytest.raises(SystemExit) as exc_info:
            runpy.run_path(path, run_name="__main__")
        assert exc_info.value.code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
