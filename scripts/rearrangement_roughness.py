"""Resolution dependence of the gradient-integral inequality slack.

For paired samplings of the same continuum bump fields at increasing
resolution, prints the worst violation of
sum j(u*, |Du*|) <= sum j(u, |Du|) for j(s, b) = b^2. Two sources add
up. The bumps scale with the box (centres up to half_width/2, widths up
to half_width/4), so at the default --half-width 4, as at any other, they
reach about e^-2 of their amplitude on the faces. That breaks the
inequality's hypothesis of a field vanishing on the boundary; this part of
the violation grows with the resolution, and in 1D (--dim 1), where there
is no angular roughness, it is all of it. The rest is the angular
roughness of the discrete radially decreasing rearrangement, which decays
like sqrt(h).
"""

import argparse

import numpy as np

from polarmin.energy import IntegrandJ
from polarmin.grid import make_grid
from polarmin.verify import bump_params, check_polya_szego, eval_bumps

J2 = IntegrandJ(j=lambda s, b: b**2,
                dj_ds=lambda s, b: np.zeros_like(np.asarray(s, float)),
                dj_db=lambda s, b: 2.0 * b)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=2)
    ap.add_argument("--half-width", type=float, default=4.0)
    ap.add_argument("--fields", type=int, default=50)
    ap.add_argument("--resolutions", type=int, nargs="+",
                    default=[33, 65, 129])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    fields = [bump_params(rng, args.dim, args.half_width)
              for _ in range(args.fields)]
    print("n      h         worst_violation  tol(h)")
    for n in args.resolutions:
        spec = make_grid(args.dim, n, args.half_width)
        worst, tol = 0.0, 0.0
        for params in fields:
            rep = check_polya_szego(eval_bumps(spec, params), J2)
            worst = max(worst, -min(rep.slack, 0.0))
            tol = max(tol, rep.tolerance)
        print(f"{n:<6d} {spec.h:<9.4f} {worst:<16.4e} {tol:.4e}")


if __name__ == "__main__":
    main()
