"""Executable checks of the rearrangement inequalities on concrete fields.

Exact-class checks (value-only integrals, equimeasurability, value tails)
must hold to rounding; gradient-integral checks carry an h-dependent
tolerance tol(h) = C_tol * sqrt(h) * (1 + |I|) because polarization
interfaces contribute O(h) mismatched cells.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .energy import CouplingG, EnergyModel, IntegrandJ, KernelV, _require_finite
from .energy import nonlocal_quadratic
from .grid import (GridSpec, MultiField, ScalarField, gradient_magnitude,
                   lp_norm)
from .rearrange import (HalfSpace, admissible_half_spaces, polarize,
                        polarize_multi, schwarz)

DEFAULT_C_TOL = 1.0


@dataclasses.dataclass
class InequalityReport:
    name: str
    left: float
    right: float
    tolerance: float
    resolution: int

    @property
    def slack(self) -> float:
        return self.right - self.left

    @property
    def passed(self) -> bool:
        return self.slack >= -self.tolerance


def grad_tol(h: float, reference: float, c_tol: float = DEFAULT_C_TOL) -> float:
    return c_tol * np.sqrt(h) * (1.0 + abs(reference))


def _j_integral(u: ScalarField, j: IntegrandJ) -> float:
    b = gradient_magnitude(u).values
    vals = np.asarray(j.j(u.values, b))
    _require_finite(vals, "integrand")
    # ascending summation: permutation-invariant, so value-only integrals
    # are bit-exactly invariant under rearrangement
    return float(np.sum(np.sort(vals.ravel()))) * u.spec.cell_volume


def check_polarization_invariance(u: ScalarField, j: IntegrandJ,
                                  H: HalfSpace,
                                  c_tol: float = DEFAULT_C_TOL) -> InequalityReport:
    """I^H = I for homogeneous integrals; exact when j ignores the gradient."""
    i_val = _j_integral(u, j)
    ih_val = _j_integral(polarize(u, H), j)
    tol = 0.0 if not j.depends_on_gradient else grad_tol(u.spec.h, i_val, c_tol)
    # equality check: order left/right so slack = -(|I^H - I|)
    return InequalityReport("polarization_invariance",
                            left=abs(ih_val - i_val), right=0.0,
                            tolerance=tol,
                            resolution=u.spec.points_per_axis)


def check_polya_szego(u: ScalarField, j: IntegrandJ,
                      c_tol: float = DEFAULT_C_TOL) -> InequalityReport:
    """Generalized Polya-Szego: the j-integral does not increase under
    Schwarz rearrangement.

    The continuum inequality holds for fields that vanish on the boundary,
    so the check assumes ``u`` vanishes on the box faces; nonzero face
    values cause violations that do not shrink with h.  In the equality
    case (a translated radial field) the continuum slack is 0 and the
    lattice slack decays like sqrt(h), the rate ``grad_tol`` allows for.
    """
    right = _j_integral(u, j)
    left = _j_integral(schwarz(u), j)
    return InequalityReport("polya_szego", left=left, right=right,
                            tolerance=grad_tol(u.spec.h, right, c_tol),
                            resolution=u.spec.points_per_axis)


def check_local_monotonicity(U: MultiField, F, H: HalfSpace) -> InequalityReport:
    """int F(|x|, U^H) >= int F(|x|, U): value-only, exact to rounding."""
    r = U.spec.radii
    hN = U.spec.cell_volume
    before = float(np.sum(F.f(r, [c.values for c in U.components]))) * hN
    UH = polarize_multi(U, H)
    after = float(np.sum(F.f(r, [c.values for c in UH.components]))) * hN
    return InequalityReport("local_monotonicity", left=before, right=after,
                            tolerance=1e-12,
                            resolution=U.spec.points_per_axis)


def check_nonlocal_monotonicity(U: MultiField, G: CouplingG, V: KernelV,
                                H: HalfSpace, p: float = 2.0,
                                method: str = "direct") -> InequalityReport:
    """Q(U^H) >= Q(U) for the positive nonlocal double sum."""
    model = EnergyModel(p=p, p_star=2 * p,
                        js=[_gradient_free_power(p)] * U.m, G=G, V=V)
    q_before = nonlocal_quadratic(U, model, method)
    q_after = nonlocal_quadratic(polarize_multi(U, H), model, method)
    return InequalityReport("nonlocal_monotonicity",
                            left=q_before, right=q_after,
                            tolerance=1e-10 * (1.0 + abs(q_before)),
                            resolution=U.spec.points_per_axis)


def _gradient_free_power(p: float) -> IntegrandJ:
    return IntegrandJ(j=lambda s, b: np.abs(s) ** p,
                      dj_ds=lambda s, b: p * np.abs(s) ** (p - 1) * np.sign(s),
                      dj_db=lambda s, b: np.zeros_like(np.asarray(b, float)),
                      depends_on_gradient=False)


# --- equiintegrability diagnostics ------------------------------------------

@dataclasses.dataclass
class TailProfile:
    """Tail masses of |v|^r for a sequence of fields.

    Rows are indexed by the threshold lists; sup_* hold the supremum over
    the sequence (the quantities of the equiintegrability definition).
    """

    exponent: float
    deltas: tuple
    levels: tuple
    radii: tuple
    small_value: np.ndarray   # (n_fields, len(deltas))
    large_value: np.ndarray
    exterior: np.ndarray

    @property
    def sup_small_value(self):
        return self.small_value.max(axis=0)

    @property
    def sup_large_value(self):
        return self.large_value.max(axis=0)

    @property
    def sup_exterior(self):
        return self.exterior.max(axis=0)


def equiintegrability_profile(fields, r: float, deltas, levels, radii) -> TailProfile:
    fields = list(fields)
    if not fields:
        raise ValueError("need a non-empty field sequence")
    spec = fields[0].spec
    if any(f.spec != spec for f in fields):
        raise ValueError("fields must share one grid")
    hN = spec.cell_volume
    rad = spec.radii
    small = np.zeros((len(fields), len(deltas)))
    large = np.zeros((len(fields), len(levels)))
    ext = np.zeros((len(fields), len(radii)))
    for i, f in enumerate(fields):
        a = np.abs(f.values)
        ar = a**r
        # sorted accumulation keeps value-based tails bit-identical across
        # equimeasurable fields
        for k, d in enumerate(deltas):
            small[i, k] = float(np.sum(np.sort(ar[a < d]))) * hN
        for k, lv in enumerate(levels):
            large[i, k] = float(np.sum(np.sort(ar[a > lv]))) * hN
        for k, R in enumerate(radii):
            ext[i, k] = float(np.sum(ar[rad > R])) * hN
    return TailProfile(r, tuple(deltas), tuple(levels), tuple(radii),
                       small, large, ext)


# --- random fields and the aggregated property suite ------------------------

def bump_params(rng: np.random.Generator, dim: int, half_width: float) -> list:
    """Draw 1-3 Gaussian bumps (center, width, amplitude) scaled to a box
    [-half_width, half_width]^dim: centres within half of it, widths
    between 1/8 and 1/4 of the half-width."""
    count = rng.integers(1, 4)
    return [(rng.uniform(-half_width / 2, half_width / 2, size=dim),
             rng.uniform(half_width / 8, half_width / 4),
             rng.uniform(0.1, 2.0)) for _ in range(count)]


def eval_bumps(spec: GridSpec, params) -> ScalarField:
    """Sample a sum of Gaussian bumps from ``bump_params`` on a grid."""
    vals = np.zeros(spec.shape)
    for center, width, amp in params:
        d2 = np.sum((spec.coords - center) ** 2, axis=-1)
        vals += amp * np.exp(-d2 / (2.0 * width**2))
    return ScalarField(spec, vals)


def random_bump_field(spec: GridSpec, rng: np.random.Generator) -> ScalarField:
    """Sum of 1-3 Gaussians: smooth, positive, decaying inside the box."""
    return eval_bumps(spec, bump_params(rng, spec.dim, spec.half_width))


@dataclasses.dataclass
class SuiteLine:
    check: str
    trials: int
    passes: int
    worst_slack: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.passes == self.trials


@dataclasses.dataclass
class SuiteSummary:
    lines: list
    seed: int

    @property
    def passed(self) -> bool:
        return all(ln.passed for ln in self.lines)

    def to_csv(self, path, header_comment=None) -> None:
        with open(path, "w", newline="\n") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            fh.write("check,trials,passes,worst_slack,tolerance\n")
            for ln in self.lines:
                fh.write(f"{ln.check},{ln.trials},{ln.passes},"
                         f"{ln.worst_slack:.17g},{ln.tolerance:.17g}\n")


def run_property_suite(seed: int, trials: int, spec: GridSpec) -> SuiteSummary:
    """Randomized aggregation of the exact and tolerance-class checks."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    family = admissible_half_spaces(spec)
    j_grad = IntegrandJ(j=lambda s, b: b**2,
                        dj_ds=lambda s, b: np.zeros_like(np.asarray(s, float)),
                        dj_db=lambda s, b: 2.0 * b)
    j_value = _gradient_free_power(2.0)

    counters = {}

    def record(check, passed, slack, tol):
        line = counters.setdefault(
            check, SuiteLine(check, 0, 0, np.inf, tol))
        line.trials += 1
        line.passes += int(passed)
        line.worst_slack = min(line.worst_slack, slack)

    for _ in range(trials):
        u = random_bump_field(spec, rng)
        H = family[rng.integers(len(family))]
        uh = polarize(u, H)
        us = schwarz(u)

        sorted_u = np.sort(u.values.ravel())
        same = (np.array_equal(sorted_u, np.sort(uh.values.ravel()))
                and np.array_equal(sorted_u, np.sort(us.values.ravel())))
        record("equimeasurability", same, 0.0 if same else -1.0, 0.0)

        norm_match = (lp_norm(u, 2.0) == lp_norm(uh, 2.0)
                      == lp_norm(us, 2.0))
        record("lp_norm_exact", norm_match, 0.0 if norm_match else -1.0, 0.0)

        rep = check_polarization_invariance(u, j_value, H)
        record("value_invariance_exact", rep.passed, rep.slack, rep.tolerance)

        prof = equiintegrability_profile(
            [u, uh, us], 2.0, deltas=(0.1,), levels=(0.5,), radii=())
        tails_const = (np.ptp(prof.small_value[:, 0]) == 0.0
                       and np.ptp(prof.large_value[:, 0]) == 0.0)
        record("value_tails_exact", tails_const,
               0.0 if tails_const else -1.0, 0.0)

        rep = check_polarization_invariance(u, j_grad, H)
        record("gradient_invariance_tol", rep.passed, rep.slack, rep.tolerance)

        rep = check_polya_szego(u, j_grad)
        record("polya_szego_tol", rep.passed, rep.slack, rep.tolerance)

    order = ["equimeasurability", "lp_norm_exact", "value_invariance_exact",
             "value_tails_exact", "gradient_invariance_tol", "polya_szego_tol"]
    return SuiteSummary([counters[k] for k in order], seed)
