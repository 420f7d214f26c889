"""Dilation scan plus constrained minimization for a catalogue model.

Locates a negative-energy dilation of a random bump, symmetrizes it, runs
the constrained minimizer, and writes the descent trace and diagnostics.
"""

import argparse
import pathlib

import numpy as np

from polarmin import models
from polarmin.cli import write_minimize_trace
from polarmin.grid import MultiField, lp_norm, make_grid, write_field
from polarmin.minimize import (ConstraintVector, MinimizeConfig,
                               dilation_scan, minimize, project_constraints)
from polarmin.rearrange import schwarz_multi
from polarmin.verify import random_bump_field


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", default="example_paper",
                    choices=sorted(models.CATALOGUE))
    ap.add_argument("--m", type=int, default=1)
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--n", type=int, default=33)
    ap.add_argument("--half-width", type=float, default=8.0)
    ap.add_argument("--c", type=float, nargs="+", default=[1.0])
    ap.add_argument("--eta", type=float, default=0.1)
    ap.add_argument("--max-steps", type=int, default=800)
    ap.add_argument("--grad-tol", type=float, default=1e-3)
    ap.add_argument("--k-pol", type=int, default=0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="out/ground_state")
    args = ap.parse_args()

    spec = make_grid(args.dim, args.n, args.half_width)
    model = models.by_name(args.model, m=args.m, dim=args.dim)
    c = ConstraintVector(tuple(args.c))
    rng = np.random.default_rng(args.seed)
    U0 = project_constraints(
        MultiField([random_bump_field(spec, rng) for _ in range(args.m)]),
        c, model.p)

    scan = dilation_scan(U0, model, c)
    for delta, energy, _ in scan:
        print(f"dilation {delta:<6g} energy {energy:+.6f}")
    _, best_energy, best_U = min(scan, key=lambda t: t[1])
    init = project_constraints(schwarz_multi(best_U), c, model.p)

    cfg = MinimizeConfig(model=model, constraints=c, spec=spec, initial=init,
                         eta=args.eta, max_steps=args.max_steps,
                         grad_tol=args.grad_tol, k_pol=args.k_pol)
    res = minimize(cfg)

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_minimize_trace(out / "trace.csv", res.trace)
    write_field(res.U, out / "final.rfld")
    last = res.trace[-1]
    lines = [f"status = {res.status}",
             f"steps = {len(res.trace) - 1}",
             f"evaluations = {res.evaluations}",
             f"scan_best_energy = {best_energy:.6e}",
             f"final_energy = {last.total:.6e}"]
    for i in range(res.U.m):
        mass = lp_norm(res.U.components[i], model.p) ** model.p
        lines += [f"mass_{i + 1} = {mass:.12f}",
                  f"lambda_{i + 1} = {res.multipliers[i]:.6e}",
                  f"residual_{i + 1} = {res.residuals[i]:.3e}",
                  f"deficit_{i + 1} = {res.deficits[i]:.3e}"]
    lines += [f"warning: {w}" for w in res.warnings]
    (out / "diagnostics.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
