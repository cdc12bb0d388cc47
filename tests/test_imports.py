"""Importing blfem stays cheap: scipy's sparse solvers and adaptive
quadrature are imported inside the functions that use them, not at module
level."""

import os
import subprocess
import sys


def test_importing_every_module_loads_no_solver_or_integrate_module():
    code = (
        "import importlib, pkgutil, sys\n"
        "import blfem\n"
        "names = [m.name for m in pkgutil.iter_modules(blfem.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('blfem.' + name)\n"
        "print(len(names))\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.integrate', 'scipy.sparse.linalg'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    count, loaded = out.stdout.splitlines()
    assert int(count) >= 9  # analysis, assembly, cli, corrector, linsolve, mesh, ...
    assert loaded == "[]"
