import numpy as np
import pytest

from polarmin.cli import ConfigError, main, parse_config, run
from polarmin.grid import MultiField, ScalarField, make_grid, write_field


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
    ])
    def test_value_validation(self, line, frag):
        with pytest.raises(ConfigError, match=frag):
            parse_config(line + "\n")

    def test_constraint_vector_parsing(self):
        cfg = parse_config("c = 1.0, 2.0\nm = 2\n")
        assert cfg.constraint_vector == (1.0, 2.0)
        with pytest.raises(ConfigError, match="comma-separated"):
            parse_config("c = one\n").constraint_vector


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
        "RFLD 1\n1 1 5 2.0\n0 1 2\n",  # too few values
    ])
    def test_malformed_field_file(self, tmp_path, capsys, text):
        path = tmp_path / "in.rfld"
        path.write_text(text)
        self.run_main(tmp_path, capsys,
                      "command = symmetrize\ndim = 1\nn = 5\n"
                      f"half_width = 2.0\nfield = {path}\n")
