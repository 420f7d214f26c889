"""Smoke tests: each experiment script in ``scripts/`` runs to the end on
tiny arguments."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args,expect,files", [
    ("convergence_floor.py", ["--n", "17", "--max-iter", "50"], None, {}),
    ("rearrangement_roughness.py", ["--dim", "1", "--fields", "3",
                                    "--resolutions", "17", "33",
                                    "--half-width", "8",
                                    "--bump-half-width", "4"], None, {}),
    ("ground_state.py", ["--dim", "2", "--n", "9", "--max-steps", "5",
                         "--out", "OUT"], r"^evaluations = [1-9][0-9]*$",
     {"trace.csv": "step,E1,E2,E3,total,eta,accepted"}),
], ids=["convergence_floor", "rearrangement_roughness", "ground_state"])
def test_script_runs(tmp_path, script, args, expect, files):
    """``files`` maps an output file under OUT to its first line after the
    ``#`` lines."""
    args = [str(tmp_path / "out") if a == "OUT" else a for a in args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.strip()
    if expect is not None:
        assert re.search(expect, proc.stdout, re.MULTILINE), proc.stdout
    for name, first in files.items():
        lines = (tmp_path / "out" / name).read_text().splitlines()
        assert [ln for ln in lines if not ln.startswith("#")][0] == first
