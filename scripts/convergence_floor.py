"""Distance floor of iterated polarization versus lattice alignment.

Runs the iterated-polarization driver on three kinds of initial data and
prints the final relative distance to the radially decreasing target:
a Gaussian centered on a grid point, the same Gaussian shifted off the
lattice, and a random multi-bump field.
"""

import argparse

import numpy as np

from polarmin.grid import MultiField, make_grid
from polarmin.rearrange import PolarizationSchedule, iterate_polarizations
from polarmin.verify import eval_bumps, random_bump_field


def run(name, field, schedule):
    _, trace = iterate_polarizations(MultiField([field]), schedule)
    final = max(trace.rows[-1].rel_dist)
    print(f"{name:24s} status={trace.status:16s} "
          f"iters={trace.rows[-1].iteration:5d} final_dist={final:.3e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=65)
    ap.add_argument("--half-width", type=float, default=4.0)
    ap.add_argument("--max-iter", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = make_grid(2, args.n, args.half_width)
    schedule = PolarizationSchedule(mode="greedy", seed=args.seed,
                                    max_iter=args.max_iter, tol=1e-3)
    h = spec.h
    for name, center in (("on-lattice gaussian", (5 * h, -3 * h)),
                         ("off-lattice gaussian", (5.37 * h, -3.41 * h))):
        run(name, eval_bumps(spec, [(center, 0.7, 1.0)]), schedule)
    rng = np.random.default_rng(args.seed)
    run("random multi-bump", random_bump_field(spec, rng), schedule)


if __name__ == "__main__":
    main()
