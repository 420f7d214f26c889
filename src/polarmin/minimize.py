"""Constrained minimizer on a product of L^p spheres with optional
Schwarz-symmetrization interleave, plus multiplier/residual and symmetry
diagnostics, the dilation scan and the ground-state flow built on them.

The descent direction is the Sobolev gradient P g with
P = (1 - alpha Delta_h)^-1 (Danaila & Kazemi, SIAM J. Sci. Comput. 32, 2010),
made tangent to each constraint sphere in the metric of P^-1; the step
length is the Barzilai-Borwein step in the same metric (Barzilai & Borwein,
IMA J. Numer. Anal. 8, 1988), made safe by clamping, projection and
halving until the energy strictly decreases.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np

from .energy import (EnergyBreakdown, EnergyModel, discrete_gradient,
                     eval_total)
from .grid import (GridSpec, MultiField, ScalarField, axis_sum,
                   gradient_magnitude, lp_norm)
from .rearrange import schwarz, schwarz_multi, symmetry_deficit


# Largest and smallest accepted constraint target c.  The energies multiply
# up to four c-scaled field values, and the descent steps scale with c.
# minimize with every catalogue model, both inits, dims 1-3 and half-widths
# from grid.MIN_HALF_WIDTH to grid.MAX_HALF_WIDTH runs without a floating
# point warning at both bounds; 1e20 at half-width 1e30 and 1e-300 at 1e-30
# do not (overflow in project_constraints, division by zero).
MAX_TARGET = 1e10
MIN_TARGET = 1e-10


@dataclasses.dataclass
class ConstraintVector:
    c: tuple

    def __post_init__(self):
        self.c = tuple(float(v) for v in self.c)
        if any(v <= 0 for v in self.c):
            raise ValueError("constraint targets must be positive")
        if not all(map(math.isfinite, self.c)):
            raise ValueError("constraint targets must be finite")
        if max(self.c) > MAX_TARGET:
            raise ValueError(
                f"constraint targets must be at most {MAX_TARGET:g}")
        if min(self.c) < MIN_TARGET:
            raise ValueError(
                f"constraint targets must be at least {MIN_TARGET:g}")


def project_constraints(U: MultiField, c: ConstraintVector, p: float) -> MultiField:
    """Scale each component onto its L^p sphere int |u_i|^p = c_i."""
    if U.m != len(c.c):
        raise ValueError(f"field has {U.m} components, constraint vector "
                         f"has length {len(c.c)}")
    comps = []
    for comp, target in zip(U.components, c.c):
        mass = lp_norm(comp, p) ** p
        if mass == 0.0:
            raise ValueError("cannot project zero component onto sphere")
        comps.append(ScalarField(comp.spec,
                                 comp.values * (target / mass) ** (1.0 / p)))
    return MultiField(comps)


def descent_step(U: MultiField, model: EnergyModel, c: ConstraintVector,
                 eta: float, energy: EnergyBreakdown, direction: MultiField,
                 max_halvings: int = 30):
    """One projected, clamped step along -direction with energy backtracking.

    energy is U's EnergyBreakdown.  The candidate is
    max(U - eta*direction, 0) projected back onto the constraint spheres;
    eta is halved until the energy strictly decreases or the halving budget
    is exhausted.

    Returns (U_new, energy_new, eta_used, accepted, evaluations): the
    accepted candidate and its EnergyBreakdown (U and energy when no
    candidate was lower), the last step length tried, and the number of
    candidates evaluated.
    """
    evaluations = 0
    for _ in range(max_halvings + 1):
        try:  # ValueError: a non-finite or an all-zero component
            comps = [ScalarField(U.spec,
                                 np.maximum(u.values - eta * d.values, 0.0))
                     for u, d in zip(U.components, direction.components)]
            cand = project_constraints(MultiField(comps), c, model.p)
        except ValueError:
            eta *= 0.5
            continue
        cand_bk = eval_total(cand, model)
        evaluations += 1
        if cand_bk.total < energy.total:
            return cand, cand_bk, eta, True, evaluations
        eta *= 0.5
    return U, energy, eta, False, evaluations


def _constraint_normal(u: np.ndarray, p: float, hN: float) -> np.ndarray:
    """sign(u) |u|^(p-1) h^N, the gradient of (1/p) sum |u|^p h^N; at p < 2
    the form u |u|^(p-2) is 0 * inf = nan where u = 0."""
    return np.sign(u) * np.abs(u) ** (p - 1.0) * hN


def lagrange_residual(U: MultiField, grad: MultiField, p: float):
    """Least-squares multipliers along the constraint normals and the
    relative Euler-Lagrange residuals |g + lambda phi| / |g|; grad is U's
    discrete_gradient.  A residual stays near 1 where g vanishes with no
    part along phi, so minimize never meets grad_tol on ``plaplace``, whose
    minimizer in the box is a constant of zero energy (2D, n 17: residual
    1 at E 1.0e-29 after 300 steps)."""
    hN = U.spec.cell_volume
    lams, residuals = [], []
    for u, g in zip(U.components, grad.components):
        uv, gv = u.values.ravel(), g.values.ravel()
        if not np.any(uv):
            raise ValueError("residual undefined for zero component")
        phi = _constraint_normal(uv, p, hN)
        denom = float(np.dot(phi, uv))
        lam = -float(np.dot(gv, uv)) / denom
        gnorm = float(np.linalg.norm(gv))
        rnorm = float(np.linalg.norm(gv + lam * phi))
        residuals.append(0.0 if gnorm == 0.0 else rnorm / gnorm)
        lams.append(lam)
    return tuple(lams), tuple(residuals)


def dilate(U: MultiField, delta: float, p: float) -> MultiField:
    """Mass-preserving dilation x -> delta^(N/p) U(delta x).

    Values are sampled by multilinear interpolation with zero outside the
    box, so the discrete L^p norm is preserved only up to interpolation
    error.

    The index coordinate c = (i - centre) delta + centre of an output point
    is separable, one per axis.  Its value is the sum over the 2^N corners
    of ((v w_axis0) w_axis1) ..., with w0 = 1 - (c - floor c) and
    w1 = 1 - w0, added to 0.0 with the last axis varying fastest; it is 0
    where any coordinate falls outside [0, n - 1].  That is the arithmetic
    of scipy.ndimage.map_coordinates at order 1 with mode "constant", so
    the bits are the same.
    """
    if delta <= 0:
        raise ValueError("dilation factor must be positive")
    spec = U.spec
    n, dim = spec.points_per_axis, spec.dim
    cpt = (n - 1) / 2.0
    c = (np.arange(n) - cpt) * delta + cpt
    lower = np.floor(c)
    w0 = 1.0 - (c - lower)
    weights = (w0, 1.0 - w0)
    # an index is clipped only outside [0, n - 1] or where its weight is 0
    i0 = np.clip(lower.astype(np.intp), 0, n - 1)
    corners = (i0, np.minimum(i0 + 1, n - 1))
    shapes = [(1,) * k + (n,) + (1,) * (dim - 1 - k) for k in range(dim)]
    inside = functools.reduce(np.logical_and, [
        ((c >= 0) & (c <= n - 1)).reshape(shape) for shape in shapes])
    amp = delta ** (dim / p)
    comps = []
    for comp in U.components:
        vals = 0.0
        for corner in itertools.product((0, 1), repeat=dim):
            term = comp.values[np.ix_(*[corners[a] for a in corner])]
            for a, shape in zip(corner, shapes):
                term = term * weights[a].reshape(shape)
            vals = vals + term
        comps.append(ScalarField(spec, amp * np.where(inside, vals, 0.0)))
    return MultiField(comps)


# The dilation factors of the scan; delta = 1 is the start itself.
SCAN_DELTAS = (1.0, 0.5, 0.25, 0.125)


def dilation_scan(U: MultiField, model: EnergyModel, c: ConstraintVector):
    """Energies of re-projected dilations by SCAN_DELTAS; returns
    [(delta, energy, U_delta)].

    A delta whose dilation has an all-zero component (a start that
    vanishes near the centre) is left out; for a projected U the scan
    keeps delta = 1, so it is never empty.
    """
    out = []
    for d in SCAN_DELTAS:
        Ud = dilate(U, d, model.p)
        if not all(np.any(comp.values) for comp in Ud.components):
            continue
        Ud = project_constraints(Ud, c, model.p)
        out.append((d, eval_total(Ud, model).total, Ud))
    return out


@dataclasses.dataclass
class MinimizeConfig:
    model: EnergyModel
    constraints: ConstraintVector
    spec: GridSpec
    initial: MultiField
    eta: float = 1.0
    max_steps: int = 200
    grad_tol: float = 1e-3
    k_pol: int = 10          # Schwarz interleave period; 0 = never

    def __post_init__(self):
        if self.eta <= 0 or self.max_steps < 1:
            raise ValueError("eta > 0 and max_steps >= 1 required")


@dataclasses.dataclass
class TraceStep:
    """One row of the minimizer trace.  evaluations (eval_total calls),
    halvings (of the trial step length) and residual (the largest Euclidean
    Euler-Lagrange residual of an accepted descent iterate; None on
    initial, schwarz and stalled rows) stay in memory; the CLI's trace.csv
    does not hold them."""

    step: int
    E1: float
    E2: float
    E3: float
    total: float
    eta: float
    accepted: bool
    kind: str = "descent"  # descent | schwarz | initial
    evaluations: int = 1
    halvings: int = 0
    residual: float | None = None


@dataclasses.dataclass
class MinimizeResult:
    U: MultiField
    trace: list
    multipliers: tuple
    residuals: tuple
    deficits: tuple
    status: str  # converged | stalled | max_steps_reached
    evaluations: int  # eval_total calls over the whole run


# alpha of the preconditioner P = (1 - alpha Delta_h)^-1, in squared length
# units: P damps the modes finer than about sqrt(alpha), which carry the
# h^-2 stiffness of the gradient term.
SOBOLEV_ALPHA = 2.0


def _sobolev_symbol(spec: GridSpec) -> np.ndarray:
    """Eigenvalues of 1 - alpha Delta_h in the orthonormal DST-I basis.

    Delta_h is the (2N+1)-point Laplacian with zero values outside the box;
    on axis frequency k = 1..n its symbol is -(2/h^2)(1 - cos(pi k/(n+1))).
    """
    n, h = spec.points_per_axis, spec.h
    axis = (2.0 / h**2) * (1.0 - np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))
    return 1.0 + SOBOLEV_ALPHA * axis_sum([axis] * spec.dim)


def _dst(values: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I over every axis; the map is its own inverse.

    This is pocketfft's DST-I, which scipy.fft.dstn and idstn (type 1,
    "ortho") wrap, with the same bits, signed zeros included.  For axes
    0, 1, ... in order, the coefficients along the axis are minus the
    imaginary parts of bins 1..n of the real FFT of the odd extension
    [0, x, 0, -x reversed], of length 2(n + 1).  The pass over axis 0 also
    multiplies by 1/sqrt(prod 2(n_k + 1)), rounded once from long double.
    Each pass transforms the leading axis and moves it to the back, so the
    next axis leads.  The running array v holds minus the coefficients: a
    pass builds its extension as [0, -v, 0, v reversed] and keeps the
    imaginary parts without negating them, and one negation at the end
    gives the coefficients in C order; the first extension is built from
    the values directly, [0, x, 0, -x reversed].  values is a cube, as
    every grid is, so one extension array and one spectrum array serve
    every pass, and the zeros of the extension are written once.
    """
    n = values.shape[0]
    scale = float(1 / np.sqrt(np.longdouble((2 * (n + 1)) ** values.ndim)))
    ext = np.empty((2 * (n + 1),) + values.shape[1:])
    ext[0] = ext[n + 1] = 0.0
    spectrum = np.empty((n + 2,) + values.shape[1:], dtype=complex)
    ext[1:n + 1] = values
    np.negative(values[::-1], out=ext[n + 2:])
    for k in range(values.ndim):
        im = np.fft.rfft(ext, axis=0, out=spectrum).imag[1:n + 1]
        if k == 0:
            im *= scale
        v = np.moveaxis(im, 0, -1)
        if k + 1 < values.ndim:
            np.negative(v, out=ext[1:n + 1])
            ext[n + 2:] = v[::-1]
    return np.negative(v, order="C")


def _tangent_direction(U: MultiField, grad: MultiField, p: float,
                       symbol: np.ndarray):
    """The P-metric tangent gradient and its P^-1 image, per component.

    d_i = P g_i - mu_i P phi_i with phi_i the constraint normal
    (_constraint_normal), and mu_i = <P g_i, phi_i> / <P phi_i, phi_i>, so
    that <d_i, phi_i> = 0.  mu_i comes from DST coefficients, where P is
    diagonal; r_i = P^-1 d_i = g_i - mu_i phi_i needs no transform.
    Returns (d as a MultiField, [r_i]).
    """
    hN = U.spec.cell_volume
    dirs, rs = [], []
    for u, g in zip(U.components, grad.components):
        phi = _constraint_normal(u.values, p, hN)
        g_hat, phi_hat = _dst(g.values), _dst(phi)
        p_phi_hat = phi_hat / symbol
        mu = float(np.vdot(g_hat, p_phi_hat)) / float(np.vdot(phi_hat,
                                                               p_phi_hat))
        d = _dst(g_hat / symbol - mu * p_phi_hat)
        dirs.append(ScalarField(U.spec, d))
        rs.append(g.values - mu * phi)
    return MultiField(dirs), rs


def _bb_step(s: list, y: list, h: float) -> float | None:
    """Barzilai-Borwein step sum <s_i, P^-1 s_i> / sum <s_i, y_i> shared by
    all components, or None when the curvature sum <s, y> is not positive.

    <s, P^-1 s> = |s|^2 + (alpha/h^2) sum_k |D+_k s|^2, with D+_k s the
    differences along axis k over the n + 1 edges of each line, zero
    outside the box: -h^2 Delta_h = sum_k D+_k^T D+_k for the Laplacian
    that _sobolev_symbol diagonalizes, so the numerator needs no DST.
    """
    sy = sum(float(np.vdot(si, yi)) for si, yi in zip(s, y))
    if not sy > 0.0:
        return None
    num = 0.0
    for si in s:
        edges = 0.0
        for k in range(si.ndim):
            d = np.diff(si, axis=k, prepend=0.0, append=0.0)
            edges += float(np.vdot(d, d))
        num += float(np.vdot(si, si)) + SOBOLEV_ALPHA / h**2 * edges
    return num / sy


def minimize(config: MinimizeConfig) -> MinimizeResult:
    """Preconditioned Riemannian descent with Schwarz-symmetrization
    interleave.

    Each descent step moves along the P-metric tangent gradient
    (_tangent_direction) with a Barzilai-Borwein trial step (config.eta for
    the first step, and the last step length used whenever <s, y> <= 0),
    then clamps, projects and halves as descent_step does.  Every k_pol
    steps the component-wise Schwarz rearrangement of the iterate
    (re-projected) is a candidate, kept by the strict test descent_step
    applies: only when its energy is lower.  A kept candidate replaces the
    iterate, and its direction is recomputed with the trial step kept; a
    rejected one leaves the iterate, direction and trial step as they were
    and is traced as a row with accepted False and the kept iterate's
    energies.  So the trace totals never increase and the last row always
    describes the returned field.  The run converges when the Euclidean
    Euler-Lagrange residual (lagrange_residual) is at most grad_tol.  Each
    field is evaluated once: its EnergyBreakdown fills the trace row and
    its potential gives the gradient for the residual and the next step.
    """
    model, c, p = config.model, config.constraints, config.model.p
    U = project_constraints(config.initial, c, p)
    symbol = _sobolev_symbol(U.spec)
    bk = eval_total(U, model)
    grad = discrete_gradient(U, model, bk)
    direction, r = _tangent_direction(U, grad, p, symbol)
    trace = [TraceStep(0, bk.E1, bk.E2, bk.E3, bk.total, 0.0, True, "initial")]
    eta = config.eta
    status = "max_steps_reached"

    for step in range(1, config.max_steps + 1):
        if config.k_pol > 0 and step % config.k_pol == 0:
            sym = project_constraints(schwarz_multi(U), c, p)
            sym_bk = eval_total(sym, model)
            accepted = sym_bk.total < bk.total
            if accepted:
                U, bk = sym, sym_bk
                grad = discrete_gradient(U, model, bk)
                direction, r = _tangent_direction(U, grad, p, symbol)
            trace.append(TraceStep(step, bk.E1, bk.E2, bk.E3,
                                   bk.total, 0.0, accepted, "schwarz"))
            continue
        U_new, bk, eta_used, accepted, evaluations = descent_step(
            U, model, c, eta, bk, direction)
        row = TraceStep(step, bk.E1, bk.E2, bk.E3, bk.total, eta_used,
                        accepted, "descent", evaluations,
                        round(math.log2(eta / eta_used)))
        trace.append(row)
        if not accepted:
            status = "stalled"
            break
        s = [a.values - b.values
             for a, b in zip(U_new.components, U.components)]
        U = U_new
        grad = discrete_gradient(U, model, bk)
        _, residuals = lagrange_residual(U, grad, p)
        row.residual = max(residuals)
        if row.residual <= config.grad_tol:
            status = "converged"
            break
        direction, r_new = _tangent_direction(U, grad, p, symbol)
        bb = _bb_step(s, [a - b for a, b in zip(r_new, r)], U.spec.h)
        eta, r = (eta_used if bb is None else bb), r_new

    lams, residuals = lagrange_residual(U, grad, p)
    deficits = tuple(symmetry_deficit(comp, p)[0] for comp in U.components)
    return MinimizeResult(U, trace, lams, residuals, deficits, status,
                          sum(t.evaluations for t in trace))


def ground_state(config: MinimizeConfig):
    """The ground-state flow: project config.initial, take the
    lowest-energy dilation of dilation_scan, Schwarz-symmetrize it and run
    minimize from there (minimize does the final projection).

    Returns (MinimizeResult, [(delta, energy)] of the scan).  E1 leaves the
    box faces free, so at c = 1 on the acceptance test's grid (3D, n 33,
    L 8) seed 0 ends at E -0.11745, deficit 1.9e-2, and seeds 1 and 2 at a
    corner state, E -0.174307, deficit 0.884.
    """
    model, c = config.model, config.constraints
    scan = dilation_scan(project_constraints(config.initial, c, model.p),
                         model, c)
    start = schwarz_multi(min(scan, key=lambda t: t[1])[2])
    energies = [(d, e) for d, e, _ in scan]
    del scan  # no dilated field stays alive during the descent
    return minimize(dataclasses.replace(config, initial=start)), energies


@dataclasses.dataclass
class SymmetryDiagnostics:
    gradient_norm_gap: tuple  # ||Du||_p - ||Du*||_p per component, signed
    plateau_measure: tuple


def symmetry_report(U: MultiField, p: float) -> SymmetryDiagnostics:
    """Per-component symmetry diagnostics: gradient-norm comparison
    against the rearrangement, and the measure of the interior plateau of
    u* (which must be null for translation-uniqueness).  The deficit itself
    is ``symmetry_deficit``; ``minimize`` reports it in
    ``MinimizeResult.deficits``."""
    gaps, plateaus = [], []
    hN = U.spec.cell_volume
    for comp in U.components:
        star = schwarz(comp)
        star_grad = gradient_magnitude(star)
        gaps.append(lp_norm(gradient_magnitude(comp), p)
                    - lp_norm(star_grad, p))
        top = float(star.values.max())
        eps = 1e-8 * top
        flat = star_grad.values < eps
        interior = (star.values > eps) & (star.values < top - eps)
        plateaus.append(float(np.count_nonzero(flat & interior)) * hN)
    return SymmetryDiagnostics(tuple(gaps), tuple(plateaus))
