"""Dilation scan plus constrained minimization for a catalogue model.

Locates a negative-energy dilation of a random bump, symmetrizes it, runs
the constrained minimizer, writes its files as ``polarmin minimize`` does
(``cli.write_minimize_run``) and prints the diagnostics.
"""

import argparse
import pathlib

import numpy as np

from polarmin import models
from polarmin.cli import write_minimize_run
from polarmin.grid import MultiField, make_grid
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
    best_U = min(scan, key=lambda t: t[1])[2]
    init = project_constraints(schwarz_multi(best_U), c, model.p)

    cfg = MinimizeConfig(model=model, constraints=c, spec=spec, initial=init,
                         eta=args.eta, max_steps=args.max_steps,
                         grad_tol=args.grad_tol, k_pol=args.k_pol)
    res = minimize(cfg)

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_minimize_run(out, res, model.p,
                       [(f"dilation_E[{d:g}]", e) for d, e, _ in scan]
                       + [("steps", len(res.trace) - 1),
                          ("evaluations", res.evaluations)])
    print((out / "diagnostics.txt").read_text(), end="")


if __name__ == "__main__":
    main()
