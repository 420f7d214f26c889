"""Resolution dependence of the gradient-integral inequality slack.

For paired samplings of the same continuum bump fields at increasing
resolution, prints the worst violation of
sum j(u*, |Du*|) <= sum j(u, |Du|) for j(s, b) = b^2. Two sources add
up. The bumps are drawn for the box [-B, B]^dim, B = --bump-half-width
(centres up to B/2, widths up to B/4). With B equal to --half-width, the
default, they reach about e^-2 of their amplitude on the faces. That
breaks the inequality's hypothesis of a field vanishing on the boundary;
this part of the violation grows with the resolution, and in 1D
(--dim 1), where there is no angular roughness, it is all of it. The rest
is the angular roughness of the discrete radially decreasing
rearrangement, which decays like sqrt(h). Bumps drawn for half the box or
less, for example --half-width 8 --bump-half-width 4, stay below e^-18 of
their amplitude on the faces, so the sqrt(h) rate shows alone. The
worst/(1+|I|) column divides each violation by 1 + |I|, with I the
j-integral of the field, as ``grad_tol`` does.
"""

import argparse

import numpy as np

from polarmin import models
from polarmin.grid import make_grid
from polarmin.verify import bump_params, check_polya_szego, eval_bumps


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=2)
    ap.add_argument("--half-width", type=float, default=4.0)
    ap.add_argument("--bump-half-width", type=float, default=None,
                    help="half-width of the box the bumps are drawn for "
                         "(default: --half-width)")
    ap.add_argument("--fields", type=int, default=50)
    ap.add_argument("--resolutions", type=int, nargs="+",
                    default=[33, 65, 129])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    bump_half_width = (args.half_width if args.bump_half_width is None
                       else args.bump_half_width)
    if bump_half_width <= 0:
        ap.error("--bump-half-width must be positive")

    j2 = models.plaplace(p=2.0, dim=args.dim).js[0]
    rng = np.random.default_rng(args.seed)
    fields = [bump_params(rng, args.dim, bump_half_width)
              for _ in range(args.fields)]
    print("n      h         worst_violation  worst/(1+|I|)  tol(h)")
    for n in args.resolutions:
        spec = make_grid(args.dim, n, args.half_width)
        worst, worst_rel, tol = 0.0, 0.0, 0.0
        for params in fields:
            rep = check_polya_szego(eval_bumps(spec, params), j2)
            violation = -min(rep.slack, 0.0)
            worst = max(worst, violation)
            worst_rel = max(worst_rel, violation / (1.0 + abs(rep.right)))
            tol = max(tol, rep.tolerance)
        print(f"{n:<6d} {spec.h:<9.4f} {worst:<16.4e} {worst_rel:<14.4e} "
              f"{tol:.4e}")


if __name__ == "__main__":
    main()
