"""Smoke tests: each experiment script in ``scripts/`` runs to the end on
tiny arguments."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("convergence_floor.py", ["--n", "17", "--max-iter", "50"]),
    ("rearrangement_roughness.py", ["--dim", "1", "--fields", "3",
                                    "--resolutions", "17", "33",
                                    "--half-width", "8",
                                    "--bump-half-width", "4"]),
], ids=["convergence_floor", "rearrangement_roughness"])
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.strip()
