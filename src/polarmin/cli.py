"""Command-line front end: flat key-value configs, workflow dispatch, and
the one home of the output file format.

Exit codes: 0 success, 1 failed check, 2 configuration or I/O error.
Every output file is written with LF line ends and is byte-identical for
identical config and seed: the CSVs (``write_csv``), ``summary.txt`` and
``diagnostics.txt`` (``write_keys``) and ``final.rfld``.  The only
non-deterministic content is the ``# generated <timestamp>`` line that
opens each CSV.  ``polarmin minimize`` with ``init = dilation_scan`` runs
the library's ground-state flow (``minimize.ground_state``): the dilation
scan, the Schwarz step and the minimizer.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import os
import sys
import types

import numpy as np

from . import models, rearrange
from .grid import MAX_POINTS, MultiField, make_grid, read_field, write_field
from .minimize import (ConstraintVector, MinimizeConfig, ground_state,
                       minimize, project_constraints, symmetry_report)
from .rearrange import PolarizationSchedule, iterate_polarizations
from .verify import (SuiteLine, check_polya_szego, random_bump_field,
                     run_property_suite)


class ConfigError(ValueError):
    pass


def _reals(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


_reals.__name__ = "comma-separated reals"  # named in parse errors

# key -> (parser, default)
_SCHEMA = {
    "command": (str, None),
    "dim": (int, 2),
    "n": (int, 33),
    "half_width": (float, 4.0),
    "model": (str, "example_paper"),
    "m": (int, 1),
    "seed": (int, 0),
    "out": (str, "out"),
    "mode": (str, "greedy"),
    "max_iter": (int, 2000),
    "tol": (float, 1e-3),
    "p": (float, 2.0),
    "c": (_reals, (1.0,)),
    "eta": (float, 1.0),
    "max_steps": (int, 200),
    "grad_tol": (float, 1e-3),
    "k_pol": (int, 10),
    "init": (str, "dilation_scan"),
    "trials": (int, 200),
    "field": (str, None),
}


def parse_config(text: str) -> types.SimpleNamespace:
    """Parse `key = value` lines with `#` comments; keys are case-sensitive,
    unknown and duplicate keys are errors."""
    values = {k: d for k, (_, d) in _SCHEMA.items()}
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"duplicate key {key!r} at line {lineno}")
        seen[key] = lineno
        caster = _SCHEMA[key][0]
        try:
            values[key] = caster(val)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: key {key!r} expects {caster.__name__}, "
                f"got {val!r}") from None
        if caster is float and not np.isfinite(values[key]):
            raise ConfigError(
                f"line {lineno}: key {key!r} must be finite, got {val!r}")
    _validate(values, seen)
    return types.SimpleNamespace(**values)


def _validate(values: dict, seen: dict) -> None:
    def bad(key, msg):
        at = f" at line {seen[key]}" if key in seen else ""
        raise ConfigError(f"key {key!r}{at}: {msg}")

    if values["command"] is not None and values["command"] not in COMMANDS:
        bad("command", f"must be one of {', '.join(COMMANDS)}")
    if values["dim"] not in (1, 2, 3):
        bad("dim", "dim must be 1, 2, or 3")
    if values["n"] < 3 or values["n"] % 2 == 0:
        bad("n", "grid must have odd point count >= 3")
    if values["half_width"] <= 0:
        bad("half_width", "half-width must be positive")
    if values["model"] not in models.CATALOGUE:
        bad("model", f"unknown model; choices: {sorted(models.CATALOGUE)}")
    if values["m"] < 1:
        bad("m", "m must be >= 1")
    if values["m"] * values["n"] ** values["dim"] > MAX_POINTS:
        bad("n", f"m * n^dim must be at most {MAX_POINTS}")
    if values["mode"] not in rearrange.SCHEDULE_MODES:
        *first, last = rearrange.SCHEDULE_MODES
        bad("mode", f"mode must be {', '.join(first)}, or {last}")
    if values["max_iter"] < 1:
        bad("max_iter", "max_iter must be >= 1")
    if values["tol"] <= 0:
        bad("tol", "tol must be positive")
    if values["p"] < 1:
        bad("p", "exponent out of range")
    if values["eta"] <= 0:
        bad("eta", "eta must be positive")
    if values["max_steps"] < 1:
        bad("max_steps", "max_steps must be >= 1")
    if values["k_pol"] < 0:
        bad("k_pol", "k_pol must be >= 0")
    if values["trials"] < 1:
        bad("trials", "trials must be >= 1")
    if values["init"] not in ("gaussian", "dilation_scan"):
        bad("init", "init must be gaussian or dilation_scan")
    if not np.all(np.isfinite(values["c"])):
        bad("c", "entries must be finite")


def _cell(value) -> str:
    return (f"{value:.17g}" if isinstance(value, (float, np.floating))
            else str(value))


def write_csv(path, header, rows) -> None:
    """Write ``# generated <timestamp>``, the header, then one line per row.

    Float cells (Python or numpy) are written as ``%.17g``, so they read
    back exactly; every other cell is written with ``str``.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# generated {datetime.datetime.now().isoformat()}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def write_keys(path, pairs) -> None:
    """Write one ``key = value`` line per pair; values as ``write_csv``
    writes cells."""
    with open(path, "w", newline="\n") as fh:
        for key, value in pairs:
            fh.write(f"{key} = {_cell(value)}\n")


def _initial_field(cfg: types.SimpleNamespace, spec, rng) -> MultiField:
    if cfg.field:
        U = read_field(cfg.field)
        if U.spec != spec:
            raise ConfigError("field file grid does not match config grid")
        return U
    return MultiField([random_bump_field(spec, rng) for _ in range(cfg.m)])


def _run_symmetrize(cfg: types.SimpleNamespace, out: str) -> int:
    spec = make_grid(cfg.dim, cfg.n, cfg.half_width)
    rng = np.random.default_rng(cfg.seed)
    U0 = _initial_field(cfg, spec, rng)
    schedule = PolarizationSchedule(mode=cfg.mode, seed=cfg.seed,
                                    max_iter=cfg.max_iter, tol=cfg.tol,
                                    p=cfg.p)
    U, trace = iterate_polarizations(U0, schedule)
    rows = []
    for row in trace.rows:
        H = row.half_space
        normal, offset = ("", "") if H is None else (H.label(), H.offset)
        rows.append((row.iteration, normal, offset, *row.rel_dist))
    write_csv(os.path.join(out, "trace.csv"),
              ["iter", "normal", "offset"]
              + [f"rel_dist_{i + 1}" for i in range(U.m)], rows)
    write_field(U, os.path.join(out, "final.rfld"))
    final = trace.rows[-1]
    write_keys(os.path.join(out, "summary.txt"),
               [("status", trace.status), ("iterations", final.iteration),
                ("final_rel_dist", max(final.rel_dist))])
    return 0


def _run_verify(cfg: types.SimpleNamespace, out: str) -> int:
    spec = make_grid(cfg.dim, cfg.n, cfg.half_width)
    suite = run_property_suite(cfg.seed, cfg.trials, spec)
    write_csv(os.path.join(out, "suite.csv"),
              [f.name for f in dataclasses.fields(SuiteLine)],
              [dataclasses.astuple(ln) for ln in suite.lines])
    write_keys(os.path.join(out, "summary.txt"), [("passed", suite.passed)])
    return 0 if suite.passed else 1


def _run_polya_szego(cfg: types.SimpleNamespace, out: str) -> int:
    spec = make_grid(cfg.dim, cfg.n, cfg.half_width)
    rng = np.random.default_rng(cfg.seed)
    model = models.plaplace(p=cfg.p, dim=cfg.dim)
    rows = []
    for t in range(cfg.trials):
        rep = check_polya_szego(random_bump_field(spec, rng), model.js[0])
        rows.append((t, rep.left, rep.right, rep.slack, rep.tolerance,
                     int(rep.passed)))
    write_csv(os.path.join(out, "polya_szego.csv"),
              ("trial", "left", "right", "slack", "tolerance", "pass"), rows)
    return 0 if all(row[-1] for row in rows) else 1


def _run_minimize(cfg: types.SimpleNamespace, out: str) -> int:
    spec = make_grid(cfg.dim, cfg.n, cfg.half_width)
    rng = np.random.default_rng(cfg.seed)
    model = models.by_name(cfg.model, m=cfg.m, dim=cfg.dim)
    if model.m != cfg.m:
        raise ConfigError(f"model {cfg.model!r} has {model.m} components, "
                          f"config has m = {cfg.m}")
    cvec = ConstraintVector(cfg.c)
    if len(cvec.c) != cfg.m:
        raise ConfigError("constraint vector length must match m")
    mconf = MinimizeConfig(model=model, constraints=cvec, spec=spec,
                           initial=_initial_field(cfg, spec, rng),
                           eta=cfg.eta, max_steps=cfg.max_steps,
                           grad_tol=cfg.grad_tol, k_pol=cfg.k_pol)
    if cfg.init == "dilation_scan":
        result, scan = ground_state(mconf)
    else:
        mconf.initial = project_constraints(mconf.initial, cvec, model.p)
        result, scan = minimize(mconf), []
    write_csv(os.path.join(out, "trace.csv"),
              ("step", "E1", "E2", "E3", "total", "eta", "accepted"),
              [(t.step, t.E1, t.E2, t.E3, t.total, t.eta, int(t.accepted))
               for t in result.trace])
    write_field(result.U, os.path.join(out, "final.rfld"))
    diag = symmetry_report(result.U, model.p)
    final = result.trace[-1]
    pairs = [("status", result.status), ("E1", final.E1), ("E2", final.E2),
             ("E3", final.E3), ("total", final.total),
             *[(f"dilation_E[{d:g}]", e) for d, e in scan],
             ("steps", len(result.trace) - 1),
             ("evaluations", result.evaluations)]
    for i in range(result.U.m):
        pairs += [(f"lambda_{i + 1}", result.multipliers[i]),
                  (f"residual_{i + 1}", result.residuals[i]),
                  (f"deficit_{i + 1}", result.deficits[i]),
                  (f"grad_norm_gap_{i + 1}", diag.gradient_norm_gap[i]),
                  (f"plateau_{i + 1}", diag.plateau_measure[i])]
    write_keys(os.path.join(out, "diagnostics.txt"), pairs)
    return 0


_RUNNERS = {
    "symmetrize": _run_symmetrize,
    "verify": _run_verify,
    "minimize": _run_minimize,
    "polya-szego": _run_polya_szego,
}
COMMANDS = tuple(_RUNNERS)


def run(cfg: types.SimpleNamespace, command: str | None = None,
        out: str | None = None, seed: int | None = None) -> int:
    command = command or cfg.command
    if command is None:
        raise ConfigError("missing required key 'command'")
    if cfg.command is not None and command != cfg.command:
        raise ConfigError(
            f"config says command = {cfg.command!r}, CLI says {command!r}")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if seed is not None:
        cfg.seed = seed
    out = out or cfg.out
    os.makedirs(out, exist_ok=True)
    return _RUNNERS[command](cfg, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polarmin",
        description="Rearrangement, symmetrization and constrained "
                    "minimization workflows.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="key = value file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides the config seed")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        return run(cfg, command=args.command, out=args.out, seed=args.seed)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
