"""Smoke test for the end-to-end benchmark: ``pytest benchmarks/e2e``.

Outside tier-1's ``testpaths`` on purpose — it boots real daemons.
Runs every workload at a tiny size in both trace modes and checks the
shape of what the runner prints against ``BENCHMARK.json``.
"""

import subprocess
import sys
from pathlib import Path

RUNNER = Path(__file__).resolve().parent / "run.py"


def test_e2e_smoke():
    done = subprocess.run(
        [sys.executable, str(RUNNER), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().endswith("smoke: ok"), done.stdout
