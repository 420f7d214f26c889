import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarmin import models
from polarmin.cli import (COMMANDS, ConfigError, main, parse_config, run,
                          write_csv)
from polarmin.grid import MultiField, ScalarField, make_grid, write_field
from polarmin.minimize import ConstraintVector, MinimizeConfig, ground_state
from polarmin.verify import random_bump_field


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def strip_comments(path):
    return [ln for ln in path.read_text().splitlines()
            if not ln.startswith("#")]


class TestParseConfig:
    def test_defaults_and_overrides(self):
        cfg = parse_config("command = symmetrize\nn = 9\nseed = 4\n")
        assert cfg.command == "symmetrize"
        assert cfg.n == 9 and cfg.seed == 4
        assert cfg.dim == 2 and cfg.mode == "greedy"

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nn = 11  # trailing\n")
        assert cfg.n == 11

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'foo'"):
            parse_config("n = 9\nfoo = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key 'n'"):
            parse_config("n = 9\nn = 11\n")

    def test_type_error_reports_line(self):
        with pytest.raises(ConfigError, match="line 1: key 'n' expects int"):
            parse_config("n = lots\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config("just words\n")

    @pytest.mark.parametrize("line,frag", [
        ("n = 8", "odd"),
        ("dim = 4", "dim"),
        ("mode = zigzag", "mode"),
        ("model = nosuch", "unknown model"),
        ("half_width = -1", "positive"),
        ("init = fancy", "init"),
        ("half_width = nan", "must be finite"),
        ("tol = inf", "must be finite"),
        ("eta = -inf", "must be finite"),
        ("c = 1.0, nan", "entries must be finite"),
        ("tol = 0", "tol must be positive"),
        ("eta = 0", "eta must be positive"),
        ("trials = 0", "trials must be >= 1"),
    ])
    def test_value_validation(self, line, frag):
        with pytest.raises(ConfigError, match=frag):
            parse_config(line + "\n")

    def test_constraint_vector_parsing(self):
        cfg = parse_config("c = 1.0, 2.0\nm = 2\n")
        assert cfg.c == (1.0, 2.0)
        assert parse_config("").c == (1.0,)
        with pytest.raises(ConfigError, match="line 1: .*comma-separated"):
            parse_config("c = one\n")


class TestRunDispatch:
    def test_command_required(self):
        with pytest.raises(ConfigError, match="missing required key"):
            run(parse_config("n = 9\n"))

    def test_command_mismatch(self):
        cfg = parse_config("command = verify\n")
        with pytest.raises(ConfigError, match="config says command"):
            run(cfg, command="symmetrize")


class TestMainExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["verify", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_content(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bogus = 1\n")
        assert main(["verify", "--config", cfg]) == 2

    def test_verify_passes(self, tmp_path):
        cfg = write_config(tmp_path,
                           "command = verify\nn = 9\ntrials = 5\n"
                           f"out = {tmp_path / 'out'}\n")
        assert main(["verify", "--config", cfg]) == 0
        assert (tmp_path / "out" / "suite.csv").exists()
        assert "passed = True" in (tmp_path / "out" / "summary.txt").read_text()

    def test_symmetrize_writes_outputs(self, tmp_path):
        cfg = write_config(tmp_path,
                           "command = symmetrize\ndim = 1\nn = 9\n"
                           "mode = sweep\nmax_iter = 50\n")
        out = tmp_path / "sym"
        assert main(["symmetrize", "--config", cfg,
                     "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()
        assert (out / "final.rfld").exists()
        assert "status = " in (out / "summary.txt").read_text()

    def test_polya_szego_report(self, tmp_path):
        cfg = write_config(tmp_path,
                           "command = polya-szego\nn = 9\ntrials = 3\n")
        out = tmp_path / "ps"
        assert main(["polya-szego", "--config", cfg,
                     "--out", str(out)]) == 0
        rows = strip_comments(out / "polya_szego.csv")
        assert rows[0] == "trial,left,right,slack,tolerance,pass"
        assert len(rows) == 4

    def test_minimize_writes_diagnostics(self, tmp_path):
        cfg = write_config(tmp_path,
                           "command = minimize\ndim = 1\nn = 17\n"
                           "model = plaplace\nmax_steps = 5\nk_pol = 2\n"
                           "init = gaussian\n")
        out = tmp_path / "min"
        assert main(["minimize", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "diagnostics.txt").read_text()
        for key in ("status", "E1", "total", "lambda_1", "residual_1",
                    "deficit_1"):
            assert key in text
        assert (out / "trace.csv").exists()
        assert (out / "final.rfld").exists()


SCIPY_FREE_RUN = """
import sys
import polarmin
from polarmin.cli import main
from polarmin.grid import make_grid
from polarmin.verify import run_property_suite
run_property_suite(0, 2, make_grid(3, 5, 2.0))
verify, minimize, out = sys.argv[1:]
codes = [main(["verify", "--config", verify, "--out", out + "/verify"]),
         main(["minimize", "--config", minimize, "--out", out + "/minimize"])]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_verify_and_minimize_leave_scipy_unloaded(tmp_path):
    verify = write_config(tmp_path, "command = verify\ndim = 3\nn = 5\n"
                          "trials = 2\n", "verify.cfg")
    minimize = write_config(tmp_path,
                            "command = minimize\ndim = 3\nn = 9\n"
                            "model = example_paper\ninit = dilation_scan\n"
                            "k_pol = 2\nmax_steps = 4\n", "minimize.cfg")
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules[main.__module__].__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_RUN, verify, minimize,
         str(tmp_path)], check=True, capture_output=True, text=True, env=env)
    assert out.stdout.strip() == "[0, 0] []"
    assert (tmp_path / "minimize" / "trace.csv").exists()


class TestDeterminism:
    def test_repeat_runs_byte_identical_modulo_comments(self, tmp_path):
        base = ("command = symmetrize\ndim = 2\nn = 9\nmode = greedy\n"
                "max_iter = 40\nseed = 12\n")
        cfg = write_config(tmp_path, base)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["symmetrize", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["symmetrize", "--config", cfg, "--out", str(out_b)]) == 0
        assert strip_comments(out_a / "trace.csv") == \
            strip_comments(out_b / "trace.csv")
        assert (out_a / "final.rfld").read_bytes() == \
            (out_b / "final.rfld").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        base = "command = verify\nn = 9\ntrials = 5\nseed = 1\n"
        cfg = write_config(tmp_path, base)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["verify", "--config", cfg, "--out", str(out_a)])
        main(["verify", "--config", cfg, "--out", str(out_b), "--seed", "2"])
        a = strip_comments(out_a / "suite.csv")
        b = strip_comments(out_b / "suite.csv")
        assert a != b


# Each command on a tiny 1D config, and every file it writes with its `#`
# lines dropped, byte for byte.  Any change to the bytes of an output file
# must show here.
GOLDEN = {
    "symmetrize": (
        "dim = 1\n"
        "n = 9\n"
        "m = 2\n"
        "mode = sweep\n"
        "max_iter = 20\n"
        "seed = 5\n",
        {
            "final.rfld": (
                "RFLD 1\n"
                "1 2 9 4\n"
                "0.0055292375308323097\n"
                "0.20783581173801846\n"
                "0.38457048286059697\n"
                "1.0594160191017186\n"
                "2.7173188384287079\n"
                "0.61389820469756351\n"
                "0.34509716213127706\n"
                "0.042218481636556428\n"
                "0.00081187412011788241\n"
                "0.0037079196724499235\n"
                "0.15243388050037865\n"
                "1.0827816327178961\n"
                "1.9735788786726558\n"
                "2.069629189519735\n"
                "1.7741467536050766\n"
                "0.86731680893861807\n"
                "0.14605198874812264\n"
                "1.5024825067904062e-05\n"
            ),
            "summary.txt": (
                "status = converged\n"
                "iterations = 20\n"
                "final_rel_dist = 0\n"
            ),
            "trace.csv": (
                "iter,normal,offset,rel_dist_1,rel_dist_2\n"
                "0,,,1.1308878913233764,0.48610444847217393\n"
                "1,+e0,0,1.1308878913233764,0.48610444847217393\n"
                "2,+e0,-0.5,0.93107519816695994,0.48610444847217393\n"
                "3,+e0,-1,0.93107519816695994,0.48610444847217393\n"
                "4,+e0,-1.5,0.89849727516511069,0.48610444847217393\n"
                "5,+e0,-2,0.89849727516511069,0.48610444847217393\n"
                "6,+e0,-2.5,0.89555617031460255,0.48610444847217393\n"
                "7,+e0,-3,0.89555617031460255,0.48610444847217393\n"
                "8,+e0,-3.5,0.89555617031460255,0.48610444847217393\n"
                "9,+e0,-4,0.89555617031460255,0.48610444847217393\n"
                "10,-e0,0,0.7732091780244279,0.39143032922223786\n"
                "11,-e0,-0.5,0.7732091780244279,0.39143032922223786\n"
                "12,-e0,-1,0.7732091780244279,0.39143032922223786\n"
                "13,-e0,-1.5,0.7732091780244279,0.39143032922223786\n"
                "14,-e0,-2,0.7732091780244279,0.39143032922223786\n"
                "15,-e0,-2.5,0.7732091780244279,0.39143032922223786\n"
                "16,-e0,-3,0.7732091780244279,0.39143032922223786\n"
                "17,-e0,-3.5,0.7732091780244279,0.39143032922223786\n"
                "18,-e0,-4,0.7732091780244279,0.39143032922223786\n"
                "19,+e0,0,0.7732091780244279,0.39143032922223786\n"
                "20,+e0,-0.5,0,0\n"
            ),
        }),
    "verify": (
        "dim = 1\n"
        "n = 9\n"
        "trials = 3\n"
        "seed = 5\n",
        {
            "suite.csv": (
                "check,trials,passes,worst_slack,tolerance\n"
                "equimeasurability,3,3,0,0\n"
                "lp_norm_exact,3,3,0,0\n"
                "value_invariance_exact,3,3,0,0\n"
                "value_tails_exact,3,3,0,0\n"
                "gradient_invariance_tol,3,3,0,4.8333631257334435\n"
                "polya_szego_tol,3,3,0.0018899233402160931,3.099025813747585\n"
            ),
            "summary.txt": (
                "passed = True\n"
            ),
        }),
    "polya-szego": (
        "dim = 1\n"
        "n = 9\n"
        "trials = 3\n"
        "seed = 5\n",
        {
            "polya_szego.csv": (
                "trial,left,right,slack,tolerance,pass\n"
                "0,3.1881044259603062,3.8333631257334435,0.64525869977313732,4.8333631257334435,1\n"
                "1,2.6292138222580839,2.9237589750285173,0.29454515277043347,3.9237589750285173,1\n"
                "2,2.132052643290999,2.2625856595326379,0.13053301624163893,3.2625856595326379,1\n"
            ),
        }),
    "minimize": (
        "dim = 1\n"
        "n = 9\n"
        "model = plaplace\n"
        "max_steps = 4\n"
        "k_pol = 2\n"
        "seed = 5\n",
        {
            "diagnostics.txt": (
                "status = max_steps_reached\n"
                "E1 = 0.00085432316878256663\n"
                "E2 = 0\n"
                "E3 = 0\n"
                "total = 0.00085432316878256663\n"
                "dilation_E[1] = 0.41689417405392298\n"
                "dilation_E[0.5] = 0.15090242141142596\n"
                "dilation_E[0.25] = 0.06705769056780074\n"
                "dilation_E[0.125] = 0.038648362040848379\n"
                "steps = 4\n"
                "evaluations = 5\n"
                "lambda_1 = -0.0017086463375651339\n"
                "residual_1 = 0.99944129407015359\n"
                "deficit_1 = 0.065076846313008779\n"
                "grad_norm_gap_1 = -0.012013292572427333\n"
                "plateau_1 = 0\n"
            ),
            "final.rfld": (
                "RFLD 1\n"
                "1 1 9 4\n"
                "0.3418908417374702\n"
                "0.3337098577443261\n"
                "0.35692543247387087\n"
                "0.32074077876708845\n"
                "0.36208960827662195\n"
                "0.3159145751362325\n"
                "0.34831175353097982\n"
                "0.29887190858352258\n"
                "0.31610373783921036\n"
            ),
            "trace.csv": (
                "step,E1,E2,E3,total,eta,accepted\n"
                "0,0.050275214033660288,0,0,0.050275214033660288,0,1\n"
                "1,0.023072577080091049,0,0,0.023072577080091049,1,1\n"
                "2,0.023072577080091049,0,0,0.023072577080091049,0,0\n"
                "3,0.00085432316878256663,0,0,0.00085432316878256663,2.9646256886136979,1\n"
                "4,0.00085432316878256663,0,0,0.00085432316878256663,0,0\n"
            ),
        }),
}


class TestGoldenOutput:
    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_outputs_match_golden(self, tmp_path, command):
        config, expected = GOLDEN[command]
        cfg = write_config(tmp_path, f"command = {command}\n{config}")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(expected)
        for name, text in expected.items():
            data = (out / name).read_bytes()
            if name.endswith(".csv"):
                assert data.startswith(b"# generated ")
            kept = [ln for ln in data.splitlines(keepends=True)
                    if not ln.startswith(b"#")]
            assert b"".join(kept) == text.encode(), name


def test_greedy_symmetrize_pinned_bytes(tmp_path):
    # A 2D greedy run, long enough that most candidates leave U unchanged:
    # the SHA-256 of each output with its `#` lines dropped.  trace.csv
    # holds the chosen half-space of every row, so any change to the picks,
    # the scores or the accepted steps shows here.
    cfg = write_config(tmp_path, "command = symmetrize\ndim = 2\nn = 17\n"
                                 "m = 2\nmode = greedy\nmax_iter = 300\n")
    out = tmp_path / "out"
    assert main(["symmetrize", "--config", cfg, "--out", str(out)]) == 0
    expected = {
        "trace.csv":
            "53cabccc00d7e410a5cc502628c8b3d84be713ffc05e18238b118126e77e0c2a",
        "final.rfld":
            "fba56a9657ca7db65e92db5eb9122eed7b65b653ab2db2a2b4d182490af4bee0",
    }
    for name, digest in expected.items():
        kept = [ln for ln in (out / name).read_bytes().splitlines(keepends=True)
                if not ln.startswith(b"#")]
        assert hashlib.sha256(b"".join(kept)).hexdigest() == digest, name


def test_random_symmetrize_pinned_bytes(tmp_path):
    # The random-mode sibling of the greedy run above: one random pick per
    # iteration, so any change to the draws shows in trace.csv.
    cfg = write_config(tmp_path, "command = symmetrize\ndim = 2\nn = 17\n"
                                 "m = 2\nmode = random\nmax_iter = 300\n")
    out = tmp_path / "out"
    assert main(["symmetrize", "--config", cfg, "--out", str(out)]) == 0
    expected = {
        "trace.csv":
            "a067891d24dda0281a519a521863a513bf43c212c5e526be5902019fd879528f",
        "final.rfld":
            "121aaaf7eaf34321c037a87543fd3170f21ee5f6d0d3de27799828a84def5e92",
    }
    for name, digest in expected.items():
        kept = [ln for ln in (out / name).read_bytes().splitlines(keepends=True)
                if not ln.startswith(b"#")]
        assert hashlib.sha256(b"".join(kept)).hexdigest() == digest, name


def test_gaussian_minimize_pinned_bytes(tmp_path):
    # A 2D minimize run from the seeded start without the dilation scan:
    # the SHA-256 of its trace and field with the `#` lines dropped.  The
    # start is projected before minimize projects it again; on this seed,
    # dropping the first projection changes bits of both files.
    cfg = write_config(tmp_path, "command = minimize\ndim = 2\nn = 17\n"
                                 "model = example_paper\ninit = gaussian\n"
                                 "eta = 0.1\nmax_steps = 30\nk_pol = 4\n"
                                 "seed = 4\n")
    out = tmp_path / "out"
    assert main(["minimize", "--config", cfg, "--out", str(out)]) == 0
    expected = {
        "trace.csv":
            "03f0459e7999334940e0c3559a37595b0e4b593bf11e4e40a41c9cc0e681acaa",
        "final.rfld":
            "379012d7cdf13390d9d8fce24911032381210053960bd3568409a0e2dfa91b74",
    }
    for name, digest in expected.items():
        kept = [ln for ln in (out / name).read_bytes().splitlines(keepends=True)
                if not ln.startswith(b"#")]
        assert hashlib.sha256(b"".join(kept)).hexdigest() == digest, name


def test_minimize_runs_library_ground_state(tmp_path):
    # init = dilation_scan (the default) runs minimize.ground_state on the
    # seeded start, and diagnostics.txt lists its scan
    cfg = write_config(tmp_path, "command = minimize\ndim = 2\nn = 17\n"
                                 "model = example_paper\neta = 0.1\n"
                                 "max_steps = 30\nk_pol = 4\nseed = 3\n")
    out = tmp_path / "out"
    assert main(["minimize", "--config", cfg, "--out", str(out)]) == 0
    spec = make_grid(2, 17, 4.0)
    start = MultiField([random_bump_field(spec, np.random.default_rng(3))])
    result, scan = ground_state(MinimizeConfig(
        model=models.example_paper(m=1, dim=2),
        constraints=ConstraintVector((1.0,)), spec=spec, initial=start,
        eta=0.1, max_steps=30, k_pol=4))
    write_field(result.U, tmp_path / "library.rfld")
    assert (out / "final.rfld").read_bytes() == \
        (tmp_path / "library.rfld").read_bytes()
    diagnostics = (out / "diagnostics.txt").read_text().splitlines()
    assert [ln for ln in diagnostics if ln.startswith("dilation_E[")] == [
        f"dilation_E[{d:g}] = {e:.17g}" for d, e in scan]


def test_scan_skips_dilations_of_a_vanishing_centre(tmp_path):
    # a field that is 0 but at the two faces: every dilation with delta < 1
    # samples only the zero middle, so the scan keeps delta = 1 alone
    values = np.zeros(9)
    values[[0, -1]] = 1.0
    path = tmp_path / "in.rfld"
    write_field(MultiField([ScalarField(make_grid(1, 9, 4.0), values)]), path)
    cfg = write_config(tmp_path, "command = minimize\ndim = 1\nn = 9\n"
                                 "half_width = 4.0\nmodel = plaplace\n"
                                 f"max_steps = 3\nfield = {path}\n")
    out = tmp_path / "out"
    assert main(["minimize", "--config", cfg, "--out", str(out)]) == 0
    keys = [ln.split(" = ")[0]
            for ln in (out / "diagnostics.txt").read_text().splitlines()]
    assert [k for k in keys if k.startswith("dilation_E")] == [
        "dilation_E[1]"]


class TestWriters:
    def test_csv_comment_first_and_floats_round_trip(self, tmp_path):
        values = (-0.0, 1e-300, 0.1 + 0.2, np.float64(2.0) / 3.0)
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b", "c", "d", "n"), [(*values, 7)])
        lines = path.read_bytes().split(b"\n")
        assert len(lines) == 4 and lines[3] == b""
        assert lines[0].startswith(b"# generated ")
        assert lines[1] == b"a,b,c,d,n"
        *cells, n = lines[2].decode().split(",")
        assert n == "7" and len(cells) == len(values)
        for cell, value in zip(cells, values):
            assert float(cell) == value
            assert math.copysign(1.0, float(cell)) == \
                math.copysign(1.0, value)


class TestFieldInput:
    def test_symmetrize_reads_field_file(self, tmp_path):
        spec = make_grid(1, 9, 4.0)
        vals = np.zeros(9)
        vals[1] = 3.0
        path = tmp_path / "in.rfld"
        write_field(MultiField([ScalarField(spec, vals)]), path)
        cfg = write_config(tmp_path,
                           "command = symmetrize\ndim = 1\nn = 9\n"
                           "half_width = 4.0\nmode = sweep\n"
                           f"field = {path}\n")
        out = tmp_path / "out"
        assert main(["symmetrize", "--config", cfg, "--out", str(out)]) == 0
        assert "converged" in (out / "summary.txt").read_text()

    def test_symmetrize_huge_field_finite_distance(self, tmp_path):
        spec = make_grid(1, 9, 4.0)
        vals = 1e160 * np.random.default_rng(0).random(9)
        path = tmp_path / "in.rfld"
        write_field(MultiField([ScalarField(spec, vals)]), path)
        cfg = write_config(tmp_path,
                           "command = symmetrize\ndim = 1\nn = 9\n"
                           "half_width = 4.0\nmax_iter = 30\n"
                           f"field = {path}\n")
        out = tmp_path / "out"
        # |u - t|^2 overflows on such fields unless the candidate
        # objective is scaled
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["symmetrize", "--config", cfg,
                         "--out", str(out)]) == 0
        dists = [float(row.split(",")[-1])
                 for row in strip_comments(out / "trace.csv")[1:]]
        line = [ln for ln in (out / "summary.txt").read_text().splitlines()
                if ln.startswith("final_rel_dist = ")]
        final = float(line[0].split(" = ")[1])
        assert dists[0] == pytest.approx(0.7848, abs=1e-4)
        assert any(b < a for a, b in zip(dists, dists[1:]))
        assert final == dists[-1] < dists[0]

    def test_symmetrize_huge_exponent_distance(self, tmp_path):
        # sum |u - t|^p underflows to 0 at p = 1e300 for values below 1,
        # which read as converged at iteration 0 before the rescaling
        cfg = write_config(tmp_path,
                           "command = symmetrize\ndim = 2\nn = 5\n"
                           "p = 1e300\nmax_iter = 5\n")
        out = tmp_path / "out"
        assert main(["symmetrize", "--config", cfg, "--out", str(out)]) == 0
        summary = dict(ln.split(" = ") for ln in
                       (out / "summary.txt").read_text().splitlines())
        assert summary["status"] == "max_iter_reached"
        assert float(summary["final_rel_dist"]) > 0.5

    def test_grid_mismatch_rejected(self, tmp_path):
        spec = make_grid(1, 5, 4.0)
        path = tmp_path / "in.rfld"
        write_field(MultiField([ScalarField(spec, np.ones(5))]), path)
        cfg = write_config(tmp_path,
                           "command = symmetrize\ndim = 1\nn = 9\n"
                           f"field = {path}\n")
        assert main(["symmetrize", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2


class TestErrorsExitTwo:
    """Bad configs and malformed field files end with exit code 2 and an
    ``error:`` line, never a traceback."""

    @staticmethod
    def run_main(tmp_path, capsys, config):
        cfg = write_config(tmp_path, config)
        code = main(["symmetrize", "--config", cfg,
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("line", ["half_width = nan", "tol = inf",
                                      "p = nan", "c = nan"])
    def test_non_finite_config_value(self, tmp_path, capsys, line):
        self.run_main(tmp_path, capsys,
                      f"command = symmetrize\ndim = 1\nn = 5\n{line}\n")

    @pytest.mark.parametrize("text", [
        "RFLD 2\n1 1 5 2.0\n",        # bad magic
        "RFLD 1\n1 1 5 nan\n",        # non-finite half-width
        "RFLD 1\n1 1 5 inf\n",
        "RFLD 1\n1 1 5 -2.0\n",       # half-width not positive
        "RFLD 1\n1 1 4 2.0\n",        # even point count
        "RFLD 1\n4 1 5 2.0\n",        # dim out of range
        "RFLD 1\n1 0 5 2.0\n",        # no component
        "RFLD 1\n3 1 100001 2.0\n",   # too many grid points
        "RFLD 1\n1 500000 5 2.0\n",   # too many values
        "RFLD 1\n1 1 5 2.0\n0 1 2\n",  # too few values
    ])
    def test_malformed_field_file(self, tmp_path, capsys, text):
        path = tmp_path / "in.rfld"
        path.write_text(text)
        self.run_main(tmp_path, capsys,
                      "command = symmetrize\ndim = 1\nn = 5\n"
                      f"half_width = 2.0\nfield = {path}\n")

    @pytest.mark.parametrize("m,components", [(1, 2), (2, 1)])
    def test_minimize_field_component_count(self, tmp_path, capsys, m,
                                            components):
        spec = make_grid(1, 9, 4.0)
        rng = np.random.default_rng(0)
        path = tmp_path / "in.rfld"
        write_field(MultiField([ScalarField(spec, 0.1 + rng.random(9))
                                for _ in range(components)]), path)
        cfg = write_config(tmp_path,
                           "command = minimize\ndim = 1\nn = 9\n"
                           f"half_width = 4.0\nmodel = plaplace\nm = {m}\n"
                           f"c = {','.join(['1.0'] * m)}\nmax_steps = 3\n"
                           f"field = {path}\n")
        out = tmp_path / "o"
        code = main(["minimize", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: field has {components} components, constraint vector "
            f"has length {m}"]
        assert not (out / "final.rfld").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_huge_half_width(self, tmp_path, capsys, command):
        # h**dim and the squared bump widths would overflow as Python floats
        cfg = write_config(tmp_path,
                           f"command = {command}\ndim = 2\nn = 5\n"
                           "trials = 1\nhalf_width = 1e160\n")
        code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: half-width must be at most 1e+30"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_tiny_half_width(self, tmp_path, capsys, command):
        # h^(2N) would underflow to 0 in 3D, and the energy would read nan
        cfg = write_config(tmp_path,
                           f"command = {command}\ndim = 3\nn = 9\n"
                           "trials = 1\nhalf_width = 1e-60\n")
        code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: half-width must be at least 1e-30"]

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("m,n", [(1, 100001), (2, 103)])
    def test_too_many_grid_values(self, tmp_path, capsys, command, m, n):
        # m * n^3 above grid.MAX_POINTS; 100001^3 values would need 7 PiB
        cfg = write_config(tmp_path,
                           f"command = {command}\ndim = 3\nn = {n}\n"
                           f"m = {m}\ntrials = 1\n")
        code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: key 'n' at line 3: m * n^dim must be at most 2097152"]

    @pytest.mark.parametrize("c_line", ["", "c = 1,1\n"])
    def test_minimize_model_component_count(self, tmp_path, capsys, c_line):
        # nonmonotone_g always has 2 components; m is 1 by default
        cfg = write_config(tmp_path,
                           "command = minimize\ndim = 1\nn = 9\n"
                           f"model = nonmonotone_g\n{c_line}")
        out = tmp_path / "o"
        code = main(["minimize", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: model 'nonmonotone_g' has 2 components, config has m = 1"]
        assert not (out / "final.rfld").exists()

    def test_minimize_constraint_length(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           "command = minimize\ndim = 1\nn = 9\n"
                           "model = plaplace\nm = 1\nc = 1.0, 2.0\n")
        out = tmp_path / "o"
        code = main(["minimize", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: constraint vector length must match m"]
        assert not (out / "final.rfld").exists()


def _mostly(good, bad, odds):
    """``good``, except once in ``odds`` draws ``bad``."""
    return st.integers(1, odds).flatmap(lambda i: bad if i == 1 else good)


def _reals(lo, hi):
    return st.floats(lo, hi).map(repr)


_junk = st.one_of(st.floats().map(repr), st.integers().map(str),
                  st.text(st.characters(blacklist_categories=("Cs",),
                                        blacklist_characters="\n\r"),
                          max_size=20))



def _not_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


# Keys that set the size of a run.  Every fuzzed config gives each of them
# exactly once, with a small value or one that is not a positive integer,
# so that an example costs milliseconds; a second line for one of them is
# a duplicate key.
_SIZE_KEYS = {
    "dim": st.integers(1, 3),
    "n": st.sampled_from([3, 5, 7, 9]),
    "m": st.integers(1, 2),
    "max_iter": st.integers(1, 30),
    "trials": st.integers(1, 3),
    "max_steps": st.integers(1, 3),
    "k_pol": st.integers(0, 3),
}
_FREE_KEYS = {
    "command": st.sampled_from(COMMANDS),
    "half_width": _reals(0.1, 10.0),
    "model": st.sampled_from(["example_paper", "plaplace", "choquard"]),
    "seed": st.integers(0, 2**32).map(str),
    "out": st.just("elsewhere"),
    "mode": st.sampled_from(["greedy", "sweep", "random"]),
    "tol": _reals(1e-12, 1.0),
    "p": _reals(1.0, 4.0),
    "c": st.lists(_reals(0.1, 4.0), min_size=1, max_size=2).map(", ".join),
    "eta": _reals(1e-3, 2.0),
    "grad_tol": _reals(1e-9, 1.0),
    "init": st.sampled_from(["gaussian", "dilation_scan"]),
}


@st.composite
def fuzz_config(draw):
    """Every size key plus up to six other lines, in any order, with a
    malformed value or line now and then; half the time a ``field`` line
    names the fuzzed RFLD file."""
    not_size = st.one_of(st.integers(-3, 0).map(str), _junk.filter(_not_int))
    lines = [f"{key} = {draw(_mostly(value.map(str), not_size, 32))}"
             for key, value in _SIZE_KEYS.items()]
    for key in draw(st.lists(st.sampled_from(sorted(_FREE_KEYS)),
                             max_size=6, unique=True)):
        value = draw(_mostly(_FREE_KEYS[key], _junk, 16))
        lines.append(draw(_mostly(st.just(f"{key} = {value}"), _junk, 16)))
    if draw(st.booleans()):
        lines.append("field = @FIELD@")
    return "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def fuzz_field(draw, dim=1, m=1, n=5, half_width=2.0):
    """RFLD text for the given grid, with now and then free text, a
    malformed header, a wrong value count or a malformed value."""
    if draw(_mostly(st.just(False), st.just(True), 16)):
        return draw(st.text(max_size=60))
    magic = draw(_mostly(st.just("RFLD 1"), st.sampled_from(["RFLD 2", ""]),
                         16))
    m = draw(_mostly(st.just(m), st.just(0), 16))
    n = draw(_mostly(st.just(n), st.just(n + 1), 16))
    half_width = draw(_mostly(st.just(half_width), st.sampled_from(
        [-half_width, math.inf, math.nan]), 16))
    count = m * n**dim + draw(_mostly(st.just(0), st.sampled_from([-1, 1]),
                                      16))
    value = st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 1e300),
                      st.floats(-1.0, 1.0))
    values = draw(st.lists(_mostly(value.map(repr), _junk, 256),
                           min_size=max(count, 0), max_size=max(count, 0)))
    return f"{magic}\n{dim} {m} {n} {half_width!r}\n" \
        + "\n".join(values) + "\n"


@st.composite
def field_case(draw):
    """(config, RFLD text) for a run that reads the file, on a 1D or 2D
    grid that the file mostly matches."""
    dim, m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2)), \
        draw(st.sampled_from([3, 5]))
    half_width = draw(st.floats(0.5, 8.0))
    mode = draw(st.sampled_from(["greedy", "sweep", "random"]))
    config = (f"dim = {dim}\nn = {n}\nm = {m}\nhalf_width = {half_width!r}\n"
              f"c = {', '.join(['1.0'] * m)}\nmode = {mode}\nmax_iter = 20\n"
              f"max_steps = 2\nk_pol = 1\nfield = @FIELD@\n")
    return config, draw(fuzz_field(dim, m, n, half_width))


def run_main_quietly(command, config_text, field_text=""):
    """Exit code and stderr of ``main`` in a fresh directory, where
    ``@FIELD@`` in the config names the file holding ``field_text``, and
    the ``total`` column of the ``trace.csv`` a minimize run wrote (None
    when it wrote none)."""
    with tempfile.TemporaryDirectory() as tmp:
        field_path = os.path.join(tmp, "in.rfld")
        with open(field_path, "w") as fh:
            fh.write(field_text)
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w") as fh:
            fh.write(config_text.replace("@FIELD@", field_path))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([command, "--config", cfg,
                         "--out", os.path.join(tmp, "out")])
        trace = os.path.join(tmp, "out", "trace.csv")
        totals = None
        if command == "minimize" and os.path.exists(trace):
            with open(trace) as fh:
                rows = [ln.split(",") for ln in fh if not ln.startswith("#")]
            totals = [float(row[4]) for row in rows[1:]]
    return code, err.getvalue(), totals


def assert_exit_contract(code, err, totals):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert [ln.startswith("error:") for ln in err.splitlines()] == [True]
    # a minimize run keeps a Schwarz candidate only when it is lower
    if totals is not None:
        assert all(b <= a for a, b in zip(totals, totals[1:]))


class TestFuzzMain:
    """``main`` on arbitrary configs and RFLD files keeps its exit-code
    contract: 0, 1 or 2, no traceback, one ``error:`` line on exit 2; the
    totals of a minimize trace never increase."""

    @given(st.sampled_from(COMMANDS), fuzz_config(), fuzz_field())
    @example("verify", "dim = 1\nn = 3\nm = 1\nmax_iter = 1\ntrials = 1\n"
                       "max_steps = 1\nk_pol = 0\n"
                       "half_width = 5.60774542831025e+154\n", "")
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_config(self, command, config_text, field_text):
        assert_exit_contract(*run_main_quietly(command, config_text,
                                               field_text))

    @given(st.sampled_from(COMMANDS), st.text(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_free_text_config(self, command, text):
        # the size keys come first, so free text that sets one again is a
        # duplicate key, and text that parses runs on a 1D grid of 5 points
        sizes = "".join(f"{key} = {value}\n" for key, value in (
            ("dim", 1), ("n", 5), ("m", 1), ("max_iter", 10), ("trials", 2),
            ("max_steps", 2), ("k_pol", 1)))
        assert_exit_contract(*run_main_quietly(command, sizes + text))

    @given(st.sampled_from(["symmetrize", "minimize"]), field_case())
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_field_file(self, command, case):
        assert_exit_contract(*run_main_quietly(command, *case))
