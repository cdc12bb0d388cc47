"""Span tracing for the traced benchmark run.

The tracer wraps public blfem functions from outside the package.  A name is
found in whichever blfem module defines it and then replaced at every module
attribute that refers to the same object, so callers that imported it with
`from .x import name` are traced too.  Names that no longer exist are
reported as missing instead of failing the run.

Spans are kept in memory as [name, start, end, parent, size] and turned into
per-layer metrics (outermost time, self time, call counts, sizes) by
`layer_metrics`.
"""

from __future__ import annotations

import sys
import time

import numpy as np


def _first_size(args, kwargs):
    return np.size(args[0])


def _xi_size(args, kwargs):
    return np.size(args[1])


def _steps(args, kwargs):
    return args[3].n_steps


# (span name, function name, size of the work item taken from (args, kwargs))
FUNCTIONS = (
    ("mesh.build", "build_interval_mesh", None),
    ("mesh.build", "build_disk_mesh", None),
    ("quadrature.rule", "triangle_rule_points", None),
    ("quadrature.rule", "element_rules_1d", None),
    ("specfun.bessel", "bessel_i0_scaled", _first_size),
    ("specfun.bessel", "bessel_i1_scaled", _first_size),
    ("corrector.profile", "enrichment_profile", _xi_size),
    ("corrector.profile", "enrichment_profile_dxi", _xi_size),
    ("assembly.assemble", "assemble_standard", None),
    ("assembly.assemble", "assemble_enriched", None),
    ("assembly.project", "project_initial", None),
    ("timestep.march", "advance", _steps),
    ("analysis.scenario", "solve_scenario", None),
    ("analysis.error", "compute_error_report", None),
)
SOLVER_CLASS = "SpdSolver"
# callables in the `parts` dict of an assembled system
SYSTEM_PARTS = {
    "rebuild": "assembly.rebuild",
    "restack": "assembly.rebuild",
    "cross_mass": "assembly.rebuild",
    "make_load": None,  # returns the load function, which is what gets traced
}


def _blfem_modules():
    return [m for n, m in list(sys.modules.items()) if m is not None and (n == "blfem" or n.startswith("blfem."))]


def _find(name):
    """The object named `name` in the blfem module that defines it, or None."""
    for mod in _blfem_modules():
        obj = vars(mod).get(name)
        if obj is not None and getattr(obj, "__module__", None) == mod.__name__:
            return obj
    return None


class Tracer:
    """Records one span per call of a wrapped name; `install` wraps, `uninstall`
    restores every patched attribute."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._patches = []

    def call(self, name, size, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, size]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, sizer, post=None):
        def wrapper(*args, **kwargs):
            try:
                size = sizer(args, kwargs) if sizer else 0
            except (IndexError, AttributeError, TypeError):  # the call signature changed
                size = 0
            out = self.call(name, size, fn, *args, **kwargs)
            return post(out) if post else out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_system(self, system):
        parts = getattr(system, "parts", None)
        if not isinstance(parts, dict):
            if "system.parts" not in self.missing:
                self.missing.append("system.parts")
            return system
        for key, name in SYSTEM_PARTS.items():
            fn = parts.get(key)
            if callable(fn):
                parts[key] = self._load_factory(fn) if name is None else self._wrap(name, fn, None)
        return system

    def _load_factory(self, make_load):
        def wrapper(*args, **kwargs):
            return self._wrap("assembly.load", make_load(*args, **kwargs), None)

        return wrapper

    def _patch_everywhere(self, original, replacement):
        for mod in _blfem_modules():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        """Wrap every traced name; record the ones that are gone."""
        for name, func_name, sizer in FUNCTIONS:
            fn = _find(func_name)
            if fn is None:
                self.missing.append(func_name)
                continue
            post = self._wrap_system if name == "assembly.assemble" else None
            self._patch_everywhere(fn, self._wrap(name, fn, sizer, post))
        cls = _find(SOLVER_CLASS)
        if isinstance(cls, type):
            self._patch_everywhere(cls, self._traced_solver(cls))
        else:
            self.missing.append(SOLVER_CLASS)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _traced_solver(self, cls):
        tracer = self

        class Traced(cls):
            def __init__(self, matrix, *args, **kwargs):
                tracer.call("linsolve.factor", int(matrix.shape[0]), super().__init__, matrix, *args, **kwargs)

            def solve(self, rhs, *args, **kwargs):
                return tracer.call("linsolve.solve", 0, super().solve, rhs, *args, **kwargs)

        return Traced

    def take(self):
        """The spans recorded since the last call; parent indices refer to
        positions in the returned list."""
        spans, self.spans = self.spans, []
        return spans


def _outer_total(spans, names):
    """Wall time covered by spans named in `names`, counting nested ones once."""
    total = 0.0
    for rec in spans:
        if rec[0] not in names:
            continue
        parent = rec[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += rec[2] - rec[1]
    return total


def _self_time(spans, names):
    """Time inside spans named in `names` not covered by any of their children."""
    total = 0.0
    for rec in spans:
        if rec[0] in names:
            total += rec[2] - rec[1]
        parent = rec[3]
        if parent >= 0 and spans[parent][0] in names:
            total -= rec[2] - rec[1]
    return total


def layer_metrics(spans):
    """Per-layer metrics of one pass; `spans` must be the pass's own spans with
    parent indices relative to the same list."""

    def count(name):
        return sum(1 for rec in spans if rec[0] == name)

    def size(name):
        return sum(rec[4] for rec in spans if rec[0] == name)

    factors = [rec[4] for rec in spans if rec[0] == "linsolve.factor"]
    return {
        "mesh.build_s": _outer_total(spans, {"mesh.build"}),
        "mesh.calls": count("mesh.build"),
        "quadrature.rule_s": _outer_total(spans, {"quadrature.rule"}),
        "quadrature.rule_calls": count("quadrature.rule"),
        "specfun.bessel_s": _outer_total(spans, {"specfun.bessel"}),
        "specfun.bessel_calls": count("specfun.bessel"),
        "specfun.bessel_points": size("specfun.bessel"),
        "corrector.profile_s": _outer_total(spans, {"corrector.profile"}),
        "corrector.profile_calls": count("corrector.profile"),
        "corrector.profile_points": size("corrector.profile"),
        "assembly.assemble_s": _outer_total(spans, {"assembly.assemble"}),
        "assembly.rebuild_s": _outer_total(spans, {"assembly.rebuild"}),
        "assembly.rebuild_calls": count("assembly.rebuild"),
        "assembly.load_s": _outer_total(spans, {"assembly.load"}),
        "assembly.project_s": _outer_total(spans, {"assembly.project"}),
        "linsolve.factor_s": _outer_total(spans, {"linsolve.factor"}),
        "linsolve.factor_calls": len(factors),
        "linsolve.solve_s": _outer_total(spans, {"linsolve.solve"}),
        "linsolve.solve_calls": count("linsolve.solve"),
        "linsolve.factor_bytes": sum(8 * n * n for n in factors),
        "linsolve.max_dofs": max(factors, default=0),
        "timestep.march_s": _outer_total(spans, {"timestep.march"}),
        "timestep.self_s": _self_time(spans, {"timestep.march"}),
        "timestep.steps": size("timestep.march"),
        "analysis.error_s": _outer_total(spans, {"analysis.error"}),
        "analysis.self_s": _self_time(spans, {"analysis.scenario", "analysis.error"}),
        "cli.self_s": _self_time(spans, {"cli.main"}),
    }


def missing_layers(missing):
    """Layers none of whose traced names were found."""
    names_by_layer = {}
    for name, func_name, _ in FUNCTIONS:
        names_by_layer.setdefault(name.split(".")[0], []).append(func_name)
    names_by_layer.setdefault("linsolve", []).append(SOLVER_CLASS)
    return sorted(layer for layer, names in names_by_layer.items() if all(n in missing for n in names))
