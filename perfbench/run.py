#!/usr/bin/env python3
"""Benchmark for blfem: the time from a scenario to a verified error report.

Run from the repository root:

    python3 perfbench/run.py --workload disk-steady --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # one process per workload, summary table
    python3 perfbench/run.py --smoke                     # self-check on tiny scenarios
    python3 perfbench/run.py --capture-refs              # rewrite perfbench/refs from the current code

A workload is a list of scenarios, each one `blfem.cli.main(argv)` call made
in-process, one at a time (closed loop, one client).  A pass runs every
scenario once, in an order drawn from `--seed`; the scenario arguments
themselves never change.  An untimed warm-up runs the same scenarios at the
smallest sizes, then passes are timed until `--seconds` have elapsed (at
least one).  `setup_s` is measured in fresh interpreters.  Every `--no-timing`
CSV is byte-compared with the reference in `perfbench/refs`, captured from
the code the benchmark was defined on; a scenario without a reference must
exit 0 with finite error columns.  A scenario fails on an exception, a
nonzero exit code or an output that does not match.

`--trace 0` prints the end-to-end metrics.  `--trace 1` also times untraced
passes, then wraps blfem's public functions (see spans.py) and prints the
per-layer metrics of the traced passes; the spans are written to
`.perfbench_work/`.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFS = Path(__file__).resolve().parent / "refs"
WORK = Path(".perfbench_work")  # relative, so the CSV headers name the same path everywhere
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 7
# one BLAS thread: the run then does not depend on how busy the other cores are
THREADS = 1


@dataclass(frozen=True)
class Scenario:
    name: str  # output and reference file stem
    argv: tuple
    needs_ref: bool = True  # False: a probe, judged by exit code and finite errors


def _disk(name, n, dt, scheme, kind=None):
    argv = ["solve", "--problem", "exact2d", "--epsilon", "1e-8", "--n", str(n), "--dt", dt, "--T", "1"]
    argv += ["--scheme", scheme] + (["--kind", kind] if kind else [])
    return Scenario(name, tuple(argv))


def _sweep(eps, levels="50,200,800", prefix="interval-sweep"):
    argv = ("converge", "--dim", "1", "--epsilon", eps, "--levels", levels, "--schemes", "sfem,nfem")
    return Scenario(f"{prefix}.converge-{eps}", argv)


def _probe(kind, eps, n="50", dt="0.1", prefix="interval-sweep"):
    argv = ("solve", "--problem", "exact1d", "--epsilon", eps, "--n", n, "--dt", dt, "--scheme", "nfem", "--kind", kind)
    return Scenario(f"{prefix}.probe-{kind}-{eps}", argv, needs_ref=False)


@dataclass(frozen=True)
class Workload:
    scenarios: list
    # The same subcommands, schemes and kinds at the smallest sizes: this pays
    # the first-call costs of the numerical stack, which do not grow with size.
    warmup: list


KINDS = ("phi_m1_lin", "phi_m1", "phi0", "phi0_tilde")
WORKLOADS = {
    # one factorization per scenario; error evaluation and Bessel calls dominate
    "disk-steady": Workload(
        [
            _disk("disk-steady.sfem", 104, "0.01", "sfem"),
            _disk("disk-steady.nfem-phi_m1_lin", 104, "0.01", "nfem", "phi_m1_lin"),
        ],
        warmup=[_disk("warmup.disk-sfem", 16, "0.25", "sfem"), _disk("warmup.disk-phi_m1_lin", 16, "0.25", "nfem", "phi_m1_lin")],
    ),
    # time-dependent trial space: refactor, rebuild and profile evaluation every step
    "disk-moving": Workload(
        [
            _disk("disk-moving.nfem-phi0_tilde", 104, "0.05", "nfem", "phi0_tilde"),
            _disk("disk-moving.nfem-phi0", 52, "0.2", "nfem", "phi0"),
        ],
        warmup=[_disk("warmup.disk-phi0_tilde", 16, "0.25", "nfem", "phi0_tilde"), _disk("warmup.disk-phi0", 16, "0.5", "nfem", "phi0")],
    ),
    # 1D only: no Bessel function and no triangle rule; the probe keeps the
    # 1D enrichment defects visible as failures
    "interval-sweep": Workload(
        [_sweep("1e-5"), _sweep("1e-8")] + [_probe(k, e) for e in ("1e-5", "1e-8") for k in KINDS],
        warmup=[_sweep("1e-5", "10,20,50", "warmup")] + [_probe(k, "1e-5", prefix="warmup") for k in KINDS],
    ),
}
SMOKE = Workload(
    [
        _sweep("1e-5", "10,20,50", "smoke"),
        _probe("phi_m1_lin", "1e-5", dt="0.25", prefix="smoke"),
        _disk("smoke.disk-phi0_tilde", 16, "0.25", "nfem", "phi0_tilde"),
        _disk("smoke.disk-sfem", 16, "0.25", "sfem"),
    ],
    warmup=[],
)


# ---------------------------------------------------------------------------
# environment


def _fix_threads():
    """Cap the BLAS/OpenMP pools; must run before numpy is imported."""
    for var in ("BLFEM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(THREADS)


def _import_cli():
    src = ROOT / "src"
    if not (src / "blfem" / "cli.py").is_file():
        raise SystemExit(f"error: no blfem sources under {src}")
    sys.path.insert(0, str(src))
    import blfem.cli

    if src.resolve() not in Path(blfem.cli.__file__).resolve().parents:
        raise SystemExit(f"error: imported blfem from {blfem.cli.__file__}, not from {src}")
    return blfem.cli


def _environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:  # a checkout without git metadata is identified by src_sha256 alone
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "blfem").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_cap": THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# running and checking scenarios


@dataclass
class Outcome:
    scenario: Scenario
    code: object  # exit code, or the exception's repr
    seconds: float
    stderr: str
    problem: str = None  # None: ok


def _output(sc):
    return WORK / "out" / f"{sc.name}.csv"


def _run_one(main, sc, tracer=None):
    out = _output(sc)
    out.unlink(missing_ok=True)
    argv = [*sc.argv, "--no-timing", "-o", str(out)]
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = tracer.call("cli.main", 0, main, argv) if tracer else main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed scenario, not a crashed benchmark
            code = repr(exc)
            traceback.print_exc(file=err)
    return Outcome(sc, code, time.perf_counter() - t0, err.getvalue())


def _finite_errors(data):
    rows = [ln.split(",") for ln in data.decode().splitlines() if ln and not ln.startswith("#")]
    try:
        cols = [rows[0].index(c) for c in ("rel_l2", "h1_err", "osc_index")]
        return len(rows) > 1 and all(math.isfinite(float(r[c])) for r in rows[1:] for c in cols)
    except (IndexError, ValueError):  # not the documented CSV schema
        return False


MISMATCH = "output differs from reference"
NONFINITE = "non-finite error columns"


def check(outcome, data, ref):
    """Why the outcome fails, or None.  `data` is the CSV written (None if
    absent) and `ref` the reference bytes (None if there is none)."""
    if outcome.code != 0:
        return f"exit {outcome.code}"
    if data is None:
        return "no output"
    if ref is not None:
        return None if data == ref else MISMATCH
    if outcome.scenario.needs_ref:
        return "no reference"
    return None if _finite_errors(data) else NONFINITE


def _verify(outcomes):
    for o in outcomes:
        out, ref = _output(o.scenario), REFS / f"{o.scenario.name}.csv"
        o.problem = check(o, out.read_bytes() if out.exists() else None, ref.read_bytes() if ref.exists() else None)


@dataclass
class Pass:
    seconds: float
    outcomes: list
    spans: list = field(default_factory=list)


def run_pass(main, scenarios, rng, tracer=None):
    order = rng.sample(scenarios, len(scenarios))
    t0 = time.perf_counter()
    outcomes = [_run_one(main, sc, tracer) for sc in order]
    seconds = time.perf_counter() - t0
    _verify(outcomes)
    return Pass(seconds, outcomes, tracer.take() if tracer else [])


def timed_passes(main, scenarios, rng, seconds, tracer=None):
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(main, scenarios, rng, tracer))
    return passes


def measure_setup(repeats=SETUP_REPEATS):
    """Median wall seconds for a fresh interpreter to import blfem.cli and
    every other blfem module (which bring in numpy and scipy)."""
    code = (
        "import importlib, pkgutil, blfem.cli, blfem\n"
        "for m in pkgutil.iter_modules(blfem.__path__): importlib.import_module('blfem.' + m.name)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _percentile_note(samples):
    """The highest of p50/p90/p99 with at least ten samples beyond it."""
    for p in (99, 90, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            return f"p{p}={statistics.quantiles(samples, n=100)[p - 1]:.4f} s"
    return "no percentile with >=10 samples beyond it"


# ---------------------------------------------------------------------------
# one workload


def run_workload(main, name, workload, seed, seconds, trace):
    import spans as spanlib

    scenarios = workload.scenarios
    rng = random.Random(seed)
    setup = None if trace else measure_setup()
    for sc in workload.warmup:
        _run_one(main, sc)
    passes = timed_passes(main, scenarios, rng, seconds)
    traced, missing = [], []
    if trace:
        tracer = spanlib.Tracer()
        tracer.install()
        try:
            traced = timed_passes(main, scenarios, rng, seconds, tracer)
        finally:
            tracer.uninstall()
        missing = tracer.missing

    outcomes = [o for p in passes + traced for o in p.outcomes]
    failed = sum(o.problem is not None for o in outcomes)
    solve = statistics.median(p.seconds for p in passes)
    for sc in scenarios:
        mine = [o for o in outcomes if o.scenario == sc]
        problems = sorted({o.problem or "ok" for o in mine})
        print(f"# {sc.name}: {', '.join(problems)}; median {statistics.median(o.seconds for o in mine):.3f} s")
        for o in mine:
            if o.problem and o.stderr.strip():
                print(f"#   {o.stderr.strip().splitlines()[-1]}")
                break
    times = [p.seconds for p in passes]
    print(f"# solve_s: median {solve:.4f} s over {len(passes)} timed pass(es) {[round(t, 3) for t in times]}; {_percentile_note(times)}")
    print(f"# fail_ratio: {failed / len(outcomes):.4g} ({failed} of {len(outcomes)} scenario runs failed)")

    if trace:
        per_pass = [spanlib.layer_metrics(p.spans) for p in traced]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["trace.overhead_s"] = statistics.median(p.seconds for p in traced) - solve
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC["per_layer"]}
        for layer in spanlib.missing_layers(missing):
            print(f"# trace: layer {layer} is missing (none of its traced names exist)")
        if missing:
            print(f"# trace: names not found: {', '.join(missing)}")
        WORK.mkdir(exist_ok=True)
        trace_file = WORK / f"trace-{name}-seed{seed}.json"
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed, "missing": missing,
                       "span_fields": ["name", "start", "end", "parent", "size"],
                       "passes": [p.spans for p in traced]}, fh)
        print(f"# spans written to {trace_file}")
    else:
        values = {
            "solve_s": solve,
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_ratio": (len(outcomes) - failed) / len(outcomes),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC["end_to_end"]}
    return {
        "correct": not any(o.problem in (MISMATCH, NONFINITE) for o in outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# modes


def run_all(args):
    """Each workload in its own process; one summary row per workload."""
    rows, status = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        fail = f"fail_ratio {res['failed'] / res['attempted']:.4g} ratio"
        rows.append(f"{name:<15} " + "  ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
                    + f"  {fail}")
    print("\n".join(rows))
    return status


def capture_refs(main):
    """Write a reference for every scenario that exits 0 with the current code."""
    REFS.mkdir(exist_ok=True)
    for sc in SMOKE.scenarios + [s for w in WORKLOADS.values() for s in w.scenarios]:
        o = _run_one(main, sc)
        ref = REFS / f"{sc.name}.csv"
        if o.code == 0:
            ref.write_bytes(_output(sc).read_bytes())
            print(f"captured {ref}")
        else:
            ref.unlink(missing_ok=True)
            print(f"no reference for {sc.name}: exit {o.code}")
    return 0


def smoke(main):
    """Self-check: tiny scenarios through the same driver, every declared
    metric emitted with its unit and a finite value, and the reference
    comparison."""
    errors = []
    for trace in (0, 1):
        # the metrics are built from BENCHMARK.json, so a declared metric
        # without a value raises KeyError here
        res = run_workload(main, "smoke", SMOKE, seed=0, seconds=0, trace=trace)
        bad = [k for k, m in res["metrics"].items() if not math.isfinite(m["value"])]
        if bad:
            errors.append(f"trace {trace}: non-finite values for {bad}")
        if not res["correct"] or res["failed"]:
            errors.append(f"trace {trace}: smoke scenarios failed or differ from their references")

    sc, probe = SMOKE.scenarios[0], SMOKE.scenarios[1]
    ref = (REFS / f"{sc.name}.csv").read_bytes()
    cases = [
        (Outcome(sc, 0, 0.0, ""), ref, ref, None),
        (Outcome(sc, 0, 0.0, ""), ref + b"# extra\n", ref, MISMATCH),
        (Outcome(sc, 3, 0.0, ""), None, ref, "exit 3"),
        (Outcome(sc, 0, 0.0, ""), ref, None, "no reference"),
        (Outcome(probe, 0, 0.0, ""), b"rel_l2,h1_err,osc_index\nnan,1,1\n", None, NONFINITE),
        (Outcome(probe, 0, 0.0, ""), b"rel_l2,h1_err,osc_index\n1,1,1\n", None, None),
    ]
    for outcome, data, reference, expected in cases:
        if check(outcome, data, reference) != expected:
            errors.append(f"check() gave {check(outcome, data, reference)!r}, expected {expected!r}")
    for e in errors:
        print(f"smoke: {e}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not errors else "failed", "errors": len(errors)}))
    return 1 if errors else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-check on tiny scenarios")
    parser.add_argument("--capture-refs", action="store_true", help="rewrite perfbench/refs from the current code")
    args = parser.parse_args(argv)
    if not (args.workload or args.smoke or args.capture_refs):
        parser.error("one of --workload, --smoke, --capture-refs is required")

    _fix_threads()
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    cli = _import_cli()
    (WORK / "out").mkdir(parents=True, exist_ok=True)
    if args.capture_refs:
        return capture_refs(cli.main)
    if args.smoke:
        return smoke(cli.main)
    result = run_workload(cli.main, args.workload, WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    env = dict(_environment(), workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print(f"# env: {json.dumps(env)}")
    with open(WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, env=env), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
