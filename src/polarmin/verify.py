"""Executable checks of the rearrangement inequalities on concrete fields.

Exact-class checks (value-only integrals, equimeasurability, value tails)
must hold to rounding; gradient-integral checks carry the tolerance
``grad_tol``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import _worker
from .energy import (EnergyModel, IntegrandJ, _nonlocal_sum,
                     _require_finite)
from .grid import (GridSpec, MultiField, ScalarField, _lp_norm_sorted,
                   axis_sum, gradient_magnitude)
from .models import plaplace
from .rearrange import (HalfSpace, _build_caches, _place_radially,
                        admissible_half_spaces, polarize, polarize_multi,
                        schwarz)


@dataclasses.dataclass
class InequalityReport:
    name: str
    left: float
    right: float
    tolerance: float

    @property
    def slack(self) -> float:
        return self.right - self.left

    @property
    def passed(self) -> bool:
        return self.slack >= -self.tolerance


def grad_tol(h: float, reference: float) -> float:
    """The gradient checks' tolerance sqrt(h) * (1 + |reference|), with
    reference the j-integral I before rearrangement.  Polarization
    interfaces leave O(h) mismatched cells, and the error they make decays
    like sqrt(h).  |I| grows as the box shrinks while 1 and sqrt(h) do
    not, so small boxes fail on correct code: ``polarmin verify`` at dim 1,
    n 5, 3 trials and half_width 0.01 has slack -65.0 against 61.0."""
    return np.sqrt(h) * (1.0 + abs(reference))


def _j_integral(u: ScalarField, j: IntegrandJ) -> float:
    """Integral of j(u, |Du|) h^N.

    |Du| is built here, one ``gradient_magnitude`` per call, and only when
    j reads it; an integrand with ``depends_on_gradient=False`` gets zeros.
    ``run_property_suite`` calls this once per field and integrand.
    """
    if j.depends_on_gradient:
        b = gradient_magnitude(u).values
    else:
        b = np.zeros(u.spec.shape)
    vals = np.asarray(j.j(u.values, b))
    _require_finite(vals, "integrand")
    # ascending summation: permutation-invariant, so value-only integrals
    # are bit-exactly invariant under rearrangement
    return float(np.sum(np.sort(vals.ravel()))) * u.spec.cell_volume


def _invariance_report(tol: float, i_val: float,
                       ih_val: float) -> InequalityReport:
    # equality check: order left/right so slack = -(|I^H - I|), which is
    # +0.0, not -0.0, when the integrals agree
    return InequalityReport("polarization_invariance",
                            left=abs(ih_val - i_val), right=0.0,
                            tolerance=tol)


def _polya_szego_report(spec: GridSpec, right: float,
                        left: float) -> InequalityReport:
    return InequalityReport("polya_szego", left=left, right=right,
                            tolerance=grad_tol(spec.h, right))


def check_polya_szego(u: ScalarField, j: IntegrandJ) -> InequalityReport:
    """Generalized Polya-Szego: the j-integral does not increase under
    Schwarz rearrangement.

    The continuum inequality holds for fields that vanish on the boundary,
    so the check assumes ``u`` vanishes on the box faces; nonzero face
    values cause violations that do not shrink with h.  In the equality
    case (a translated radial field) the continuum slack is 0 and the
    lattice slack decays like sqrt(h), the rate ``grad_tol`` allows for.
    """
    return _polya_szego_report(u.spec, _j_integral(u, j),
                               _j_integral(schwarz(u), j))


def check_local_monotonicity(U: MultiField, F, H: HalfSpace) -> InequalityReport:
    """int F(|x|, U^H) >= int F(|x|, U): value-only, exact to rounding."""
    r = U.spec.radii
    hN = U.spec.cell_volume
    before = float(np.sum(F.f(r, [c.values for c in U.components]))) * hN
    UH = polarize_multi(U, H)
    after = float(np.sum(F.f(r, [c.values for c in UH.components]))) * hN
    return InequalityReport("local_monotonicity", left=before, right=after,
                            tolerance=1e-12)


def check_nonlocal_monotonicity(U: MultiField, model: EnergyModel,
                                H: HalfSpace) -> InequalityReport:
    """Q(U^H) >= Q(U) for Q = -E3 of model, the positive nonlocal sum.

    Q comes from the sum eval_total negates, without E1 and E2.
    """
    if model.G is None:
        raise ValueError("model has no nonlocal term")
    q_before = _nonlocal_sum(U, model)[0]
    q_after = _nonlocal_sum(polarize_multi(U, H), model)[0]
    return InequalityReport("nonlocal_monotonicity",
                            left=q_before, right=q_after,
                            tolerance=1e-10 * (1.0 + abs(q_before)))


# --- equiintegrability diagnostics ------------------------------------------

@dataclasses.dataclass
class TailProfile:
    """Tail masses of |v|^r for a sequence of fields.

    Rows are indexed by the threshold lists; sup_exterior holds the
    supremum over the sequence (a quantity of the equiintegrability
    definition).
    """

    exponent: float
    deltas: tuple
    levels: tuple
    radii: tuple
    small_value: np.ndarray   # (n_fields, len(deltas))
    large_value: np.ndarray
    exterior: np.ndarray

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
    if r < 0:
        raise ValueError("exponent must be non-negative")
    if np.isnan(np.asarray([*deltas, *levels], dtype=float)).any():
        raise ValueError("thresholds must not be nan")
    hN = spec.cell_volume
    rad = spec.radii
    small = np.zeros((len(fields), len(deltas)))
    large = np.zeros((len(fields), len(levels)))
    ext = np.zeros((len(fields), len(radii)))
    for i, f in enumerate(fields):
        a = np.abs(f.values)
        s = np.sort(a, axis=None)
        small[i], large[i] = _value_tails(s, s**r, deltas, levels, hN)
        ar = a**r
        for k, R in enumerate(radii):
            ext[i, k] = float(np.sum(ar[rad > R])) * hN
    return TailProfile(r, tuple(deltas), tuple(levels), tuple(radii),
                       small, large, ext)


def _value_tails(a: np.ndarray, ar: np.ndarray, deltas, levels,
                 hN: float):
    """Tail masses sum |v|^r h^N over {|v| < delta} and over {|v| > level},
    from the ascending |values| a and their powers ar = a**r.

    For r >= 0, x -> x^r is nondecreasing on x >= 0, so ar is ascending
    and each tail is a slice of it: a prefix ending at searchsorted(side=
    "left"), a suffix starting at searchsorted(side="right").  Summing in
    ascending order keeps the tails bit-identical across equimeasurable
    fields.  Returns ([small per delta], [large per level]).
    """
    small = [float(np.sum(ar[:np.searchsorted(a, d, side="left")])) * hN
             for d in deltas]
    large = [float(np.sum(ar[np.searchsorted(a, lv, side="right"):])) * hN
             for lv in levels]
    return small, large


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
    """Sample a sum of Gaussian bumps from ``bump_params`` on a grid.

    The first bump is the sum's first array, and the others are added to
    it: for amplitudes that are not negative, the bits of adding each bump
    to zeros.  No bumps give zeros.
    """
    vals = None
    for center, width, amp in params:
        # amp * exp(d2 / -(2 width^2)), in place in d2: IEEE division is
        # sign-symmetric, so these are the bits of -d2 / (2 width^2)
        d2 = axis_sum([(spec.axis_coords - c) ** 2 for c in center])
        d2 /= -(2.0 * width**2)
        np.exp(d2, out=d2)
        d2 *= amp
        if vals is None:
            vals = d2
        else:
            vals += d2
    if vals is None:
        vals = np.zeros(spec.shape)
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
    """The suite's lines, and in memory the work of all its trials: the
    ``np.sort`` calls (``sorts``) and the ``gradient_magnitude`` calls
    (``magnitudes``).  ``suite.csv`` holds the lines only."""

    lines: list
    sorts: int = 0
    magnitudes: int = 0

    @property
    def passed(self) -> bool:
        return all(ln.passed for ln in self.lines)


# the suite's checks, in the order of its lines
_CHECKS = ("equimeasurability", "lp_norm_exact", "value_invariance_exact",
          "value_tails_exact", "gradient_invariance_tol", "polya_szego_tol")

# trials drawn per round: the suite holds one round's draws and outcomes
_ROUND = 64


def _trim_heap() -> None:
    """Hand the free pages of every malloc arena back to the system,
    where the C library offers malloc_trim (glibc).

    The suite's worker thread frees its arrays into its own arena, which
    the calling thread never allocates from again.  numpy's small-block
    caches keep a few of that arena's blocks in use, so it cannot shrink
    by itself: without this, a trial's arrays, about 3 MB at 33^3, stay
    resident for the rest of the process.
    """
    import ctypes
    try:
        malloc_trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc
        return
    malloc_trim.argtypes = [ctypes.c_size_t]
    malloc_trim.restype = ctypes.c_int
    malloc_trim(0)


def _exact(holds: bool) -> tuple:
    # (passed, slack, tolerance) of an exact check
    return holds, 0.0 if holds else -1.0, 0.0


def _outcome(rep: InequalityReport) -> tuple:
    return rep.passed, rep.slack, rep.tolerance


def run_property_suite(seed: int, trials: int, spec: GridSpec) -> SuiteSummary:
    """Randomized aggregation of the exact and tolerance-class checks.

    Each round draws up to ``_ROUND`` trials' bumps and half-spaces from
    the one generator, in trial order, and then evaluates them: the first
    half on the calling thread, the second on the package's worker thread
    when a second core is available (_worker.in_halves).  A trial's numpy
    work releases the GIL.  The outcomes are recorded in trial order, so
    the lines and counts are the same on any number of cores; a trial that
    raises stops the suite with the error of the first such trial, as in
    one thread.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    family = admissible_half_spaces(spec)
    j_grad = plaplace(p=2.0, dim=spec.dim).js[0]
    hN = spec.cell_volume
    # built here rather than on first use in the worker: a cached array
    # made by the worker sits in its malloc arena and keeps the arena's
    # freed trial arrays resident
    _build_caches(spec)

    def value_integral(squares):
        # the terms of j(s) = |s|^2, already in the ascending order that
        # _j_integral sums them in; also the sum behind the L^2 norm
        _require_finite(squares, "integrand")
        return float(np.sum(squares)) * hN

    def evaluate(draws):
        """The (passed, slack, tolerance) of each check, in _CHECKS order,
        for each trial of draws.  One loop for all of them: each trial's
        arrays are freed as the next trial rebinds their names, so malloc
        reuses them.  A function per trial would free them all at once,
        and malloc would hand the pages back to the system and fault them
        in again for the next trial."""
        outcomes = []
        for params, H in draws:
            u = eval_bumps(spec, params)
            uh = polarize(u, H)

            # one sort per field serves every value-class check, and u's
            # also places u*; the sort of u* stays independent of it, since
            # equimeasurability compares them.  polarize rejects negative
            # fields, so the ascending values are also the ascending
            # |values|.
            sorted_u = np.sort(u.values, axis=None)
            us = _place_radially(spec, sorted_u)
            sorted_uh, sorted_us = (np.sort(f.values, axis=None)
                                    for f in (uh, us))
            same = (np.array_equal(sorted_u, sorted_uh)
                    and np.array_equal(sorted_u, sorted_us))

            # the squares of each sorted array, made and summed once:
            # j(s) = |s|^2 is nondecreasing in |s|, so they are the
            # ascending terms that the L^2 norm, the value integral and the
            # value tails all sum, and the norm's sum is the integral
            norms, integrals, tails = [], [], []
            for a in (sorted_u, sorted_uh, sorted_us):
                sq = np.square(a)
                integrals.append(value_integral(sq))
                norms.append(_lp_norm_sorted(a, 2.0, hN, integrals[-1]))
                tails.append(_value_tails(a, sq, (0.1,), (0.5,), hN))
            small, large = zip(*tails)

            # one |Du| per field: I(u) serves both gradient checks
            i_u, i_uh, i_us = (_j_integral(f, j_grad) for f in (u, uh, us))
            outcomes.append((
                _exact(same),
                _exact(norms[0] == norms[1] == norms[2]),
                _outcome(_invariance_report(0.0, integrals[0],
                                            integrals[1])),
                _exact(np.ptp(small) == 0.0 and np.ptp(large) == 0.0),
                _outcome(_invariance_report(grad_tol(spec.h, i_u), i_u,
                                            i_uh)),
                _outcome(_polya_szego_report(spec, i_u, i_us))))
        return outcomes

    lines = [SuiteLine(check, 0, 0, np.inf, 0.0) for check in _CHECKS]
    sorts = magnitudes = 0
    for start in range(0, trials, _ROUND):
        draws = [(bump_params(rng, spec.dim, spec.half_width),
                  family[rng.integers(len(family))])
                 for _ in range(min(_ROUND, trials - start))]
        # an error of the first half comes from an earlier trial than any
        # of the second's, so it is the one raised
        halves = _worker.in_halves(lambda part: evaluate(draws[part]),
                                   len(draws))
        for outcome in (o for half in halves for o in half):
            for line, (passed, slack, tol) in zip(lines, outcome):
                # worst_slack and tolerance both come from the trial with
                # the least slack, the first of them on a tie
                line.trials += 1
                line.passes += int(passed)
                if slack < line.worst_slack:
                    line.worst_slack, line.tolerance = slack, tol
            # three sorts for the value checks and one per _j_integral,
            # each of which builds one |Du|
            sorts += 6
            magnitudes += 3
    if _worker.cores() > 1:
        _trim_heap()
    return SuiteSummary(lines, sorts, magnitudes)
