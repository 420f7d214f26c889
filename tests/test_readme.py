"""The README's command-line contracts, checked against the code: the
config keys, the commands, the input bounds, the files each command writes
and the ground-state config of the end-to-end acceptance test."""

import pathlib
import re

import pytest

from polarmin import cli
from polarmin.grid import MAX_HALF_WIDTH, MAX_POINTS, MIN_HALF_WIDTH
from polarmin.minimize import MAX_TARGET, MIN_TARGET

from test_acceptance import EXAMPLE_FLOW

README = (pathlib.Path(__file__).resolve().parents[1]
          / "README.md").read_text(encoding="utf-8")
# the prose with every run of white space made one space
PROSE = " ".join(README.split())


def test_config_keys_in_schema_order():
    keys = re.search(r"Keys: (.*?)\. ", PROSE).group(1)
    assert re.findall(r"`(\w+)`", keys) == list(cli._SCHEMA)


def test_usage_lists_the_commands():
    usage = re.search(r"polarmin <([\w|-]+)> --config", README).group(1)
    assert tuple(usage.split("|")) == cli.COMMANDS


def test_stated_bounds():
    width = re.search(r"`half_width` \(in a config or an RFLD header\) at "
                      r"least (\S+) and at most (\S+),", PROSE).groups()
    assert tuple(map(float, width)) == (MIN_HALF_WIDTH, MAX_HALF_WIDTH)
    target = re.search(r"target in `c` is at least (\S+) and at most (\S+),",
                       PROSE).groups()
    assert tuple(map(float, target)) == (MIN_TARGET, MAX_TARGET)
    power, count = re.search(r"at most 2\^(\d+) = ([\d,]+) grid values",
                             PROSE).groups()
    assert 2 ** int(power) == int(count.replace(",", "")) == MAX_POINTS
    n = int(re.search(r"3D n <= (\d+)", PROSE).group(1))
    assert n**3 <= MAX_POINTS < (n + 2) ** 3


def output_table() -> dict:
    """{command: {file: contents}} from the README's table of outputs; a
    row with an empty command cell continues the command above it."""
    table, command = {}, None
    for line in README.splitlines():
        if not line.startswith("| ") or line.startswith("| command "):
            continue
        _, cmd, name, contents, _ = (cell.strip() for cell in line.split("|"))
        command = cmd.strip("`") or command
        table.setdefault(command, {})[name.strip("`")] = contents
    return table


# one component on a tiny grid, so each command runs in a moment
TINY = {
    "symmetrize": "dim = 2\nn = 5\nmax_iter = 3\n",
    "verify": "dim = 1\nn = 9\ntrials = 2\n",
    "minimize": "dim = 1\nn = 9\nmax_steps = 2\n",
    "polya-szego": "dim = 1\nn = 9\ntrials = 2\n",
}


def test_table_covers_every_command():
    assert sorted(output_table()) == sorted(cli.COMMANDS) == sorted(TINY)


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_command_writes_the_tabled_files(tmp_path, command):
    files = output_table()[command]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY[command])
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(path.name for path in out.iterdir()) == sorted(files)
    for name, contents in files.items():
        if not name.endswith(".csv"):
            continue
        header = re.match(r"`([^`]+)`", contents).group(1)
        # for m = 1, rel_dist_1,...,rel_dist_m is rel_dist_1
        header = re.sub(r",\.\.\.,\w+_m\b", "", header)
        comment, first = (out / name).read_text().splitlines()[:2]
        assert comment.startswith("# generated ")
        assert first == header


def test_ground_state_cfg_is_the_acceptance_flow():
    block = re.search(r"--config ground_state\.cfg.*?```\n(.*?)```", README,
                      re.S).group(1)
    cfg = cli.parse_config(block)
    assert (cfg.command, cfg.init) == ("minimize", "dilation_scan")
    assert {key: getattr(cfg, key) for key in EXAMPLE_FLOW} == EXAMPLE_FLOW
