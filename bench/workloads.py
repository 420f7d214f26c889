"""The benchmark workloads: seeded inputs, the timed task and output checks.

Every workload has four parts:

- ``setup(seed, workdir)`` builds the inputs from the seed alone (this is
  the part ``setup_s`` times, together with interpreter start and import);
- ``task(inputs)`` drives polarmin through its public API or its CLI entry
  point and returns a plain result (the part ``wall_s`` times);
- ``check(result)`` returns ``[(check_name, passed), ...]`` computed without
  polarmin where that is possible;
- ``corrupt(result)`` takes a result that passed every check and returns
  ``[(corruption_name, bad_result), ...]``; each bad result must fail at
  least one check (the checker self-test).

polarmin modules are reached through ``importlib`` because the package
namespace rebinds ``polarmin.minimize`` to the function of that name, and
functions are looked up on their module at call time so that the tracer's
rebinding sees them.
"""

from __future__ import annotations

import copy
import importlib
import os

import numpy as np

cli = importlib.import_module("polarmin.cli")
grid = importlib.import_module("polarmin.grid")
models = importlib.import_module("polarmin.models")
mn = importlib.import_module("polarmin.minimize")
rearrange = importlib.import_module("polarmin.rearrange")
verify = importlib.import_module("polarmin.verify")

# Ground-state value of example_paper (m=1, dim 3, n=17, L=4, c=1).  Every
# seed reaches -0.224696 at residual 1e-3.
GROUND_STATE_ENERGY = -0.22470
GROUND_STATE_ENERGY_TOL = 2e-5


def _mass(values: np.ndarray, p: float, cell_volume: float) -> float:
    return float(np.sum(np.abs(values) ** p)) * cell_volume


# --- ground_state_3d ---------------------------------------------------------
#
# Time to a solution of stated accuracy.  A freely drawn random_bump_field
# start takes 150 to 303 descent steps over seeds 0-11, a spread no run
# length here can average out; the start is therefore a fixed Gaussian
# (sigma 1) carrying a seeded random_bump_field at 5% of its peak, which
# keeps every seed near 110 steps.

def ground_state_setup(seed: int, workdir: str) -> dict:
    spec = grid.make_grid(3, 17, 4.0)
    bump = verify.random_bump_field(spec, np.random.default_rng(seed)).values
    base = np.exp(-spec.radii**2 / 2.0)
    U0 = grid.MultiField([grid.ScalarField(spec,
                                           base + 0.05 * bump / bump.max())])
    return {"model": models.example_paper(m=1, dim=3),
            "c": mn.ConstraintVector((1.0,)), "U0": U0}


def ground_state_task(inp: dict) -> dict:
    model, c = inp["model"], inp["c"]
    U0 = mn.project_constraints(inp["U0"], c, model.p)
    scan = mn.dilation_scan(U0, model, c)
    best = min(scan, key=lambda t: t[1])[2]
    start = mn.project_constraints(rearrange.schwarz_multi(best), c, model.p)
    res = mn.minimize(mn.MinimizeConfig(
        model=model, constraints=c, spec=U0.spec, initial=start, eta=0.1,
        max_steps=2000, grad_tol=1e-3, k_pol=0))
    return {"status": res.status,
            "values": res.U.components[0].values.copy(),
            "p": model.p, "c": c.c[0], "cell_volume": U0.spec.cell_volume,
            "energies": [t.total for t in res.trace],
            "residual": max(res.residuals), "deficit": max(res.deficits),
            "steps": len(res.trace) - 1}


def ground_state_check(r: dict) -> list:
    e = r["energies"]
    return [
        ("converged", r["status"] == "converged"),
        ("mass_error", abs(_mass(r["values"], r["p"], r["cell_volume"])
                           - r["c"]) <= 1e-12),
        ("residual", r["residual"] <= 1e-3),
        ("deficit", r["deficit"] <= 5e-2),
        ("energy_decreasing", all(b <= a for a, b in zip(e, e[1:]))),
        ("ground_state_energy",
         abs(e[-1] - GROUND_STATE_ENERGY) <= GROUND_STATE_ENERGY_TOL),
    ]


def ground_state_corrupt(r: dict) -> list:
    def edit(**changes):
        bad = copy.deepcopy(r)
        bad.update(changes)
        return bad

    return [
        ("status_stalled", edit(status="stalled")),
        ("mass_off", edit(values=r["values"] * (1.0 + 1e-9))),
        ("residual_2e-3", edit(residual=2e-3)),
        ("deficit_0.1", edit(deficit=0.1)),
        ("energy_rises", edit(energies=r["energies"][:-1]
                              + [r["energies"][-2] + 1e-9])),
        ("energy_off_1e-2", edit(energies=[v + 1e-2 for v in r["energies"]])),
    ]


# --- polarize_greedy_2d ------------------------------------------------------
#
# Warm polarization: the greedy schedule reuses the 520 half-spaces of the
# 65^2 grid over 32,000 candidate polarizations per field, and energy never
# runs.  No field reaches tol 1e-3 (the distance floor of exact lattice
# polarization), so each runs all 2000 iterations.  One field per
# repetition keeps enough repetitions inside one run for a steady median.

POLARIZE_FIELDS = 1


def polarize_setup(seed: int, workdir: str) -> dict:
    spec = grid.make_grid(2, 65, 4.0)
    rng = np.random.default_rng(seed)
    fields = [verify.random_bump_field(spec, rng)
              for _ in range(POLARIZE_FIELDS)]
    schedules = [rearrange.PolarizationSchedule(
        mode="greedy", seed=seed * POLARIZE_FIELDS + k, max_iter=2000,
        tol=1e-3, p=2.0, greedy_candidates=16) for k in range(len(fields))]
    return {"fields": fields, "schedules": schedules}


def polarize_task(inp: dict) -> dict:
    runs = []
    for field, schedule in zip(inp["fields"], inp["schedules"]):
        U, trace = rearrange.iterate_polarizations(grid.MultiField([field]),
                                                   schedule)
        runs.append({"initial": field.values.copy(),
                     "final": U.components[0].values.copy(),
                     "dists": [row.rel_dist[0] for row in trace.rows]})
    return {"runs": runs}


def polarize_check(r: dict) -> list:
    out = []
    for k, run in enumerate(r["runs"]):
        d = run["dists"]
        out.append((f"field{k}_distance_nonincreasing",
                    all(b <= a for a, b in zip(d, d[1:]))))
        out.append((f"field{k}_equimeasurable",
                    np.array_equal(np.sort(run["initial"], axis=None),
                                   np.sort(run["final"], axis=None))))
    return out


def polarize_corrupt(r: dict) -> list:
    bad_dist = copy.deepcopy(r)
    d = bad_dist["runs"][0]["dists"]
    d.append(d[-1] + 1e-3)

    bad_value = copy.deepcopy(r)
    final = bad_value["runs"][-1]["final"].reshape(-1)
    top = int(np.argmax(final))
    final[top] = np.nextafter(final[top], np.inf)
    return [("distance_rises", bad_dist), ("one_value_changed", bad_value)]


# --- cli_session_3d ----------------------------------------------------------
#
# The user-facing front end at the real 33^3 size: `polarmin verify` (cold
# polarization, one per trial over 594 half-spaces, and the reflection-table
# cache that sets peak memory) and `polarmin minimize` reading an RFLD field
# and writing trace.csv, final.rfld and diagnostics.txt.

VERIFY_CONFIG = """\
command = verify
dim = 3
n = 33
half_width = 4
trials = 100
seed = {seed}
"""

MINIMIZE_CONFIG = """\
command = minimize
dim = 3
n = 33
half_width = 8
model = example_paper
m = 1
c = 1.0
init = dilation_scan
k_pol = 5
eta = 0.1
max_steps = 10
seed = {seed}
field = {field}
"""


def cli_setup(seed: int, workdir: str) -> dict:
    spec = grid.make_grid(3, 33, 8.0)
    field = os.path.join(workdir, "field.rfld")
    bump = verify.random_bump_field(spec, np.random.default_rng(seed))
    grid.write_field(grid.MultiField([bump]), field)
    paths = {}
    for name, text in (("verify", VERIFY_CONFIG), ("minimize", MINIMIZE_CONFIG)):
        paths[name] = os.path.join(workdir, f"{name}.cfg")
        with open(paths[name], "w") as fh:
            fh.write(text.format(seed=seed, field=field))
    return {"workdir": workdir, "configs": paths, "p": 2.0, "c": 1.0}


def cli_task(inp: dict) -> dict:
    codes, outs = {}, {}
    for command in ("verify", "minimize"):
        outs[command] = os.path.join(inp["workdir"], f"out_{command}")
        codes[command] = cli.main([
            command, "--config", inp["configs"][command],
            "--out", outs[command]])

    def read(command, name):
        path = os.path.join(outs[command], name)
        if not os.path.exists(path):
            return None
        with open(path) as fh:
            return fh.read()

    return {"codes": codes, "suite_csv": read("verify", "suite.csv"),
            "final_rfld": read("minimize", "final.rfld"),
            "written": {name: os.path.exists(os.path.join(outs["minimize"],
                                                          name))
                        for name in ("trace.csv", "diagnostics.txt")},
            "p": inp["p"], "c": inp["c"]}


def _suite_passes(text) -> bool:
    if text is None:
        return False
    rows = [ln.split(",") for ln in text.splitlines()
            if ln and not ln.startswith("#")]
    if rows[:1] != [["check", "trials", "passes", "worst_slack", "tolerance"]]:
        return False
    return len(rows) > 1 and all(int(r[1]) > 0 and r[1] == r[2]
                                 for r in rows[1:])


def _parse_rfld(text):
    """(dim, m, n, half_width, values) of an RFLD file, or None."""
    if text is None:
        return None
    lines = text.split("\n", 2)
    if len(lines) < 3 or lines[0] != "RFLD 1":
        return None
    try:
        dim, m, n = (int(v) for v in lines[1].split()[:3])
        half_width = float(lines[1].split()[3])
        values = np.array(lines[2].split(), dtype=float)
    except (ValueError, IndexError):
        return None
    if values.size != m * n**dim or not np.all(np.isfinite(values)):
        return None
    return dim, m, n, half_width, values


def cli_check(r: dict) -> list:
    field = _parse_rfld(r["final_rfld"])
    on_sphere = False
    if field is not None:
        dim, m, n, half_width, values = field
        h = 2.0 * half_width / (n - 1)
        on_sphere = abs(_mass(values, r["p"], h**dim) - r["c"]) <= 1e-12
    return [
        ("verify_exit_0", r["codes"]["verify"] == 0),
        ("minimize_exit_0", r["codes"]["minimize"] == 0),
        ("suite_passes", _suite_passes(r["suite_csv"])),
        ("final_rfld_reads_back", field is not None),
        ("outputs_written", all(r["written"].values())),
        ("on_lp_sphere", on_sphere),
    ]


def cli_corrupt(r: dict) -> list:
    def edit(**changes):
        bad = dict(r)
        bad.update(changes)
        return bad

    magic, header, body = r["final_rfld"].split("\n", 2)
    scaled = "\n".join([magic, header] + [
        f"{float(v) * 1.001:.17g}" for v in body.split()]) + "\n"
    lines = r["suite_csv"].splitlines()
    last = lines[-1].split(",")
    last[2] = str(int(last[2]) - 1)
    suite_failed = "\n".join(lines[:-1] + [",".join(last)]) + "\n"
    return [
        ("verify_exit_1", edit(codes={**r["codes"], "verify": 1})),
        ("minimize_exit_2", edit(codes={**r["codes"], "minimize": 2})),
        ("suite_one_trial_failed", edit(suite_csv=suite_failed)),
        ("rfld_truncated", edit(final_rfld=r["final_rfld"].rsplit("\n", 2)[0])),
        ("off_sphere", edit(final_rfld=scaled)),
        ("diagnostics_missing", edit(written={**r["written"],
                                              "diagnostics.txt": False})),
    ]


WORKLOADS = {
    "ground_state_3d": (ground_state_setup, ground_state_task,
                        ground_state_check, ground_state_corrupt),
    "polarize_greedy_2d": (polarize_setup, polarize_task, polarize_check,
                           polarize_corrupt),
    "cli_session_3d": (cli_setup, cli_task, cli_check, cli_corrupt),
}
