"""Self-test of the benchmark driver: `python -m pytest perfbench` from the
repository root.  Runs the smoke mode, which pushes tiny scenarios through the
same driver in both trace modes and checks the reference comparison."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke": "ok", "errors": 0}
