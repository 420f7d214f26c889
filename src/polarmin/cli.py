"""Command-line front end: flat key-value configs, workflow dispatch,
CSV/RFLD report emission.

Exit codes: 0 success, 1 failed check, 2 configuration or I/O error.
Output CSVs are byte-identical for identical config and seed; the only
non-deterministic content is a `#`-prefixed timestamp header line.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import os
import sys

import numpy as np

from . import models
from .grid import MultiField, make_grid, read_field, write_field
from .minimize import (ConstraintVector, MinimizeConfig, dilation_scan,
                       minimize, project_constraints, symmetry_report)
from .rearrange import PolarizationSchedule, iterate_polarizations
from .verify import check_polya_szego, random_bump_field, run_property_suite


class ConfigError(ValueError):
    pass


COMMANDS = ("symmetrize", "verify", "minimize", "polya-szego")

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
    "c": (str, "1.0"),
    "eta": (float, 1.0),
    "max_steps": (int, 200),
    "grad_tol": (float, 1e-3),
    "k_pol": (int, 10),
    "init": (str, "dilation_scan"),
    "trials": (int, 200),
    "field": (str, None),
}


@dataclasses.dataclass
class RunConfig:
    values: dict

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key) from None

    @property
    def constraint_vector(self) -> tuple:
        try:
            return tuple(float(v) for v in self.values["c"].split(","))
        except ValueError:
            raise ConfigError("c must be a comma-separated list of reals") from None


def parse_config(text: str) -> RunConfig:
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
    return RunConfig(values)


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
    if values["mode"] not in ("random", "sweep", "greedy"):
        bad("mode", "mode must be random, sweep, or greedy")
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
    if not np.all(np.isfinite(RunConfig(values).constraint_vector)):
        bad("c", "entries must be finite")


def _timestamp() -> str:
    return "generated " + datetime.datetime.now().isoformat()


def _initial_field(cfg: RunConfig, spec, rng) -> MultiField:
    if cfg.values["field"]:
        U = read_field(cfg.values["field"])
        if U.spec != spec:
            raise ConfigError("field file grid does not match config grid")
        return U
    return MultiField([random_bump_field(spec, rng) for _ in range(cfg.m)])


def _run_symmetrize(cfg: RunConfig, out: str) -> int:
    spec = make_grid(cfg.dim, cfg.n, cfg.half_width)
    rng = np.random.default_rng(cfg.seed)
    U0 = _initial_field(cfg, spec, rng)
    schedule = PolarizationSchedule(mode=cfg.mode, seed=cfg.seed,
                                    max_iter=cfg.max_iter, tol=cfg.tol,
                                    p=cfg.p)
    U, trace = iterate_polarizations(U0, schedule)
    trace.to_csv(os.path.join(out, "trace.csv"), header_comment=_timestamp())
    write_field(U, os.path.join(out, "final.rfld"))
    final = trace.rows[-1]
    with open(os.path.join(out, "summary.txt"), "w") as fh:
        fh.write(f"status = {trace.status}\n")
        fh.write(f"iterations = {final.iteration}\n")
        fh.write(f"final_rel_dist = {max(final.rel_dist):.17g}\n")
    return 0


def _run_verify(cfg: RunConfig, out: str) -> int:
    spec = make_grid(cfg.dim, cfg.n, cfg.half_width)
    suite = run_property_suite(cfg.seed, cfg.trials, spec)
    suite.to_csv(os.path.join(out, "suite.csv"), header_comment=_timestamp())
    with open(os.path.join(out, "summary.txt"), "w") as fh:
        fh.write(f"passed = {suite.passed}\n")
    return 0 if suite.passed else 1


def _run_polya_szego(cfg: RunConfig, out: str) -> int:
    spec = make_grid(cfg.dim, cfg.n, cfg.half_width)
    rng = np.random.default_rng(cfg.seed)
    model = models.plaplace(p=cfg.p, dim=cfg.dim)
    failures = 0
    path = os.path.join(out, "polya_szego.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# {_timestamp()}\n")
        fh.write("trial,left,right,slack,tolerance,pass\n")
        for t in range(cfg.trials):
            u = random_bump_field(spec, rng)
            rep = check_polya_szego(u, model.js[0])
            failures += int(not rep.passed)
            fh.write(f"{t},{rep.left:.17g},{rep.right:.17g},"
                     f"{rep.slack:.17g},{rep.tolerance:.17g},"
                     f"{int(rep.passed)}\n")
    return 0 if failures == 0 else 1


def _run_minimize(cfg: RunConfig, out: str) -> int:
    spec = make_grid(cfg.dim, cfg.n, cfg.half_width)
    rng = np.random.default_rng(cfg.seed)
    model = models.by_name(cfg.model, m=cfg.m, dim=cfg.dim)
    cvec = ConstraintVector(cfg.constraint_vector)
    if len(cvec.c) != model.m:
        raise ConfigError("constraint vector length must match m")
    U0 = project_constraints(_initial_field(cfg, spec, rng), cvec, model.p)
    scan_lines = []
    if cfg.init == "dilation_scan":
        scan = dilation_scan(U0, model, cvec, deltas=(1.0, 0.5, 0.25, 0.125))
        scan_lines = [f"dilation_E[{d:g}] = {e:.17g}" for d, e, _ in scan]
        best = min(scan, key=lambda t: t[1])
        U0 = best[2]
    mconf = MinimizeConfig(model=model, constraints=cvec, spec=spec,
                           initial=U0, eta=cfg.eta, max_steps=cfg.max_steps,
                           grad_tol=cfg.grad_tol, k_pol=cfg.k_pol)
    result = minimize(mconf)
    result.trace_to_csv(os.path.join(out, "trace.csv"),
                        header_comment=_timestamp())
    write_field(result.U, os.path.join(out, "final.rfld"))
    diag = symmetry_report(result.U, model.p)
    final = result.trace[-1]
    with open(os.path.join(out, "diagnostics.txt"), "w") as fh:
        fh.write(f"status = {result.status}\n")
        fh.write(f"E1 = {final.E1:.17g}\n")
        fh.write(f"E2 = {final.E2:.17g}\n")
        fh.write(f"E3 = {final.E3:.17g}\n")
        fh.write(f"total = {final.total:.17g}\n")
        for line in scan_lines:
            fh.write(line + "\n")
        for i in range(model.m):
            fh.write(f"lambda_{i + 1} = {result.multipliers[i]:.17g}\n")
            fh.write(f"residual_{i + 1} = {result.residuals[i]:.17g}\n")
            fh.write(f"deficit_{i + 1} = {result.deficits[i]:.17g}\n")
            fh.write(f"grad_norm_gap_{i + 1} = "
                     f"{diag.gradient_norm_gap[i]:.17g}\n")
            fh.write(f"plateau_{i + 1} = {diag.plateau_measure[i]:.17g}\n")
        for w in result.warnings:
            fh.write(f"warning = {w}\n")
    return 0


_RUNNERS = {
    "symmetrize": _run_symmetrize,
    "verify": _run_verify,
    "minimize": _run_minimize,
    "polya-szego": _run_polya_szego,
}


def run(cfg: RunConfig, command: str | None = None,
        out: str | None = None, seed: int | None = None) -> int:
    command = command or cfg.values["command"]
    if command is None:
        raise ConfigError("missing required key 'command'")
    if cfg.values["command"] is not None and command != cfg.values["command"]:
        raise ConfigError(
            f"config says command = {cfg.values['command']!r}, "
            f"CLI says {command!r}")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if seed is not None:
        cfg.values["seed"] = seed
    out = out or cfg.values["out"]
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
