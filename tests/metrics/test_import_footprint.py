"""scipy is loaded on first use, never by importing or simulating.

Only the replicate CI and significance summaries need scipy, and it
costs more RSS and import time than the rest of the package together.
This guard runs a fresh interpreter so nothing an earlier test imported
can hide a module-level ``import scipy`` creeping back in.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

PROBE = """
import sys
import repro, repro.cli, repro.harness.runner, repro.trace, repro.telemetry
import repro.analysis.engine, repro.core.oracle
from repro.harness import StandardParams
from repro.harness.runner import run_multi

run = run_multi("PBPL", 2, StandardParams(duration_s=0.2))
assert run.consumed > 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_importing_and_simulating_leaves_scipy_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
