"""Demo scripts run as a user runs them: a fresh interpreter in an empty directory."""
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMO_BUDGET_S = 60.0  # every demo runs standalone in under a minute


def test_penalty_probe_demo(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "penalty_probe.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=DEMO_BUDGET_S,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    flags = [flag == "True" for flag in re.findall(r"positive definite: (True|False)", done.stdout)]
    assert flags, done.stdout
    assert flags[-1] and all(flags[flags.index(True):]), done.stdout
    assert elapsed < DEMO_BUDGET_S
