"""Smoke test: each experiment script runs to completion on tiny arguments."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPTS = {
    "run_worker_scaling.py": [
        "--workers", "1", "2", "--seeds", "2", "--rounds", "2",
        "--union-d", "64", "--union-k", "4", "--d", "64", "--k", "2",
    ],
    "run_blob_experiments.py": [
        "--seeds", "1", "--rounds", "4", "--n-train", "64", "--n-test", "32", "--d", "16",
        "--batch-size", "16", "--workers", "2", "--k", "2", "--p", "2", "--rows", "3", "--cols", "8",
        "--momentum", "0.9",
    ],
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_exits_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    args = SCRIPTS[script] + (["--out-dir", str(tmp_path)] if script == "run_blob_experiments.py" else [])
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if script == "run_blob_experiments.py":
        assert len(os.listdir(tmp_path)) == 8  # two losses x four algorithms, one seed
