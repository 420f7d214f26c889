"""Smoke tests: each experiment script in ``scripts/`` runs to the end on
tiny arguments."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def ground_state_diagnostics(out, stdout):
    """``diagnostics.txt`` is ``polarmin minimize``'s format with the
    script's pairs after ``total``, and the script prints it."""
    text = (out / "diagnostics.txt").read_text()
    assert stdout == text
    pairs = [line.split(" = ", 1) for line in text.splitlines()]
    assert all(len(pair) == 2 for pair in pairs), text
    keys = [key for key, _ in pairs]
    assert keys[:10] == ["status", "E1", "E2", "E3", "total",
                         "dilation_E[0.5]", "dilation_E[0.25]",
                         "dilation_E[0.125]", "steps", "evaluations"]
    assert keys[10:] == ["lambda_1", "residual_1", "deficit_1",
                         "grad_norm_gap_1", "plateau_1"]
    for key, value in pairs[1:]:
        if key not in ("steps", "evaluations"):
            assert f"{float(value):.17g}" == value, (key, value)


@pytest.mark.parametrize("script,args,expect,files,check", [
    ("convergence_floor.py", ["--n", "17", "--max-iter", "50"], None, {},
     None),
    ("rearrangement_roughness.py", ["--dim", "1", "--fields", "3",
                                    "--resolutions", "17", "33",
                                    "--half-width", "8",
                                    "--bump-half-width", "4"], None, {}, None),
    ("ground_state.py", ["--dim", "2", "--n", "9", "--max-steps", "5",
                         "--out", "OUT"], r"^evaluations = [1-9][0-9]*$",
     {"trace.csv": "step,E1,E2,E3,total,eta,accepted"},
     ground_state_diagnostics),
], ids=["convergence_floor", "rearrangement_roughness", "ground_state"])
def test_script_runs(tmp_path, script, args, expect, files, check):
    """``files`` maps an output file under OUT to its first line after the
    ``#`` lines; ``check(OUT, stdout)`` asserts more."""
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
    if check is not None:
        check(tmp_path / "out", proc.stdout)
