"""Demo scripts and the CLI run as a user runs them: a fresh interpreter in an empty directory."""
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMO_BUDGET_S = 60.0  # every demo runs standalone in under a minute


def run_in(tmp_path, *args):
    """Run the interpreter with args in tmp_path, within the demo budget."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=DEMO_BUDGET_S,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert elapsed < DEMO_BUDGET_S
    return done.stdout


def test_penalty_probe_demo(tmp_path):
    stdout = run_in(tmp_path, str(ROOT / "demos" / "penalty_probe.py"))
    flags = [flag == "True" for flag in re.findall(r"positive definite: (True|False)", stdout)]
    assert flags, stdout
    assert flags[-1] and all(flags[flags.index(True):]), stdout


def test_mesh_quality_demo(tmp_path):
    stdout = run_in(tmp_path, str(ROOT / "demos" / "mesh_quality.py"))
    assert len(re.findall(r"rho rate=", stdout)) == 6, stdout
    assert (tmp_path / "torus_k3.vtk").stat().st_size > 0


def test_flat_patch_test_demo(tmp_path):
    stdout = run_in(tmp_path, str(ROOT / "demos" / "flat_patch_test.py"))
    assert "pass through the discretization exactly" in stdout


def test_module_entry_point_mesh_report(tmp_path):
    stdout = run_in(tmp_path, "-m", "surfnitsche", "mesh-report", "--k", "1", "--n-div", "4")
    fields = dict(re.findall(r"^(\w+) = (\S+)$", stdout, flags=re.MULTILINE))
    assert float(fields["max_boundary_node_dist"]) < 1e-10, stdout
    assert float(fields["min_scaled_jacobian"]) > 0.0, stdout
