"""Constrained minimizer: projected gradient descent on L^p spheres with
optional Schwarz-symmetrization interleave, plus multiplier/residual and
symmetry diagnostics and the dilation scan."""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.ndimage import map_coordinates

from .energy import (EnergyBreakdown, EnergyModel, eval_total,
                     nonlocal_potential)
from .grid import (GridSpec, MultiField, ScalarField, axis_derivative,
                   axis_derivative_adjoint, gradient_magnitude, lp_norm)
from .rearrange import schwarz_multi, symmetry_deficit
from .verify import grad_tol


@dataclasses.dataclass
class ConstraintVector:
    c: tuple

    def __post_init__(self):
        self.c = tuple(float(v) for v in self.c)
        if any(v <= 0 for v in self.c):
            raise ValueError("constraint targets must be positive")


def project_constraints(U: MultiField, c: ConstraintVector, p: float) -> MultiField:
    """Scale each component onto its L^p sphere int |u_i|^p = c_i."""
    comps = []
    for comp, target in zip(U.components, c.c):
        mass = lp_norm(comp, p) ** p
        if mass == 0.0:
            raise ValueError("cannot project zero component onto sphere")
        comps.append(ScalarField(comp.spec,
                                 comp.values * (target / mass) ** (1.0 / p)))
    return MultiField(comps)


def discrete_gradient(U: MultiField, model: EnergyModel,
                      potential: np.ndarray | None = None) -> MultiField:
    """Exact gradient of the discrete energy with respect to grid values.

    E1 differentiates through the finite-difference stencils of
    gradient_magnitude; E2 is pointwise; E3 contributes
    -2 h^2N (V * g) dG/ds_i (the factor 2 comes from the symmetric double
    sum).  potential, when given, is V * g of U (EnergyBreakdown.potential)
    and saves the convolution.
    """
    spec = U.spec
    h, hN = spec.h, spec.cell_volume
    vals = [c.values for c in U.components]
    grads = [np.zeros(spec.shape) for _ in range(U.m)]

    for i, (u, integrand) in enumerate(zip(vals, model.js)):
        d = [axis_derivative(u, k, h) for k in range(spec.dim)]
        b = np.sqrt(np.sum([dk**2 for dk in d], axis=0))
        grads[i] += hN * integrand.dj_ds(u, b)
        db = integrand.dj_db(u, b)
        safe = np.where(b > 0, b, 1.0)
        for k in range(spec.dim):
            # dj_db * d_k u / |Du|, with zero direction where the gradient
            # vanishes (there d_k u = 0 as well)
            w = db * np.where(b > 0, d[k] / safe, 0.0)
            grads[i] += hN * axis_derivative_adjoint(w, k, h)

    if model.F is not None:
        df = model.F.df_ds(spec.radii, vals)
        for i in range(U.m):
            grads[i] -= hN * np.asarray(df[i])

    if model.G is not None:
        conv = (nonlocal_potential(U, model) if potential is None
                else potential)
        dg = model.G.dg_ds(vals)
        for i in range(U.m):
            grads[i] -= 2.0 * hN**2 * conv * np.asarray(dg[i])

    return MultiField([ScalarField(spec, gi) for gi in grads])


def descent_step(U: MultiField, model: EnergyModel, c: ConstraintVector,
                 eta: float, energy: float | EnergyBreakdown | None = None,
                 max_halvings: int = 30, grad: MultiField | None = None):
    """One projected, clamped gradient step with energy backtracking.

    Returns (U_new, energy_new, eta_used, accepted).  The candidate is
    max(U - eta*grad, 0) projected back onto the constraint spheres; eta is
    halved until the energy decreases or the halving budget is exhausted.

    energy is U's total energy or its EnergyBreakdown, whose potential then
    gives the gradient; energy_new comes back in the same form.  grad, when
    given, is discrete_gradient(U, model).
    """
    as_breakdown = isinstance(energy, EnergyBreakdown)
    bk = eval_total(U, model) if energy is None else energy
    known = isinstance(bk, EnergyBreakdown)
    level = bk.total if known else bk
    if grad is None:
        grad = discrete_gradient(U, model, bk.potential if known else None)
    for _ in range(max_halvings + 1):
        comps = [ScalarField(U.spec, np.maximum(u.values - eta * g.values, 0.0))
                 for u, g in zip(U.components, grad.components)]
        try:
            cand = project_constraints(MultiField(comps), c, model.p)
        except ValueError:
            eta *= 0.5
            continue
        cand_bk = eval_total(cand, model)
        if cand_bk.total < level:
            return cand, cand_bk if as_breakdown else cand_bk.total, eta, True
        eta *= 0.5
    return U, bk if as_breakdown else level, eta, False


def lagrange_residual(U: MultiField, model: EnergyModel, p: float,
                      grad: MultiField | None = None):
    """Least-squares multipliers along the constraint normals and the
    relative Euler-Lagrange residuals; grad, when given, is
    discrete_gradient(U, model)."""
    if grad is None:
        grad = discrete_gradient(U, model)
    hN = U.spec.cell_volume
    lams, residuals = [], []
    for u, g in zip(U.components, grad.components):
        uv, gv = u.values.ravel(), g.values.ravel()
        if not np.any(uv):
            raise ValueError("residual undefined for zero component")
        phi = uv * np.abs(uv) ** (p - 2.0) * hN
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
    """
    if delta <= 0:
        raise ValueError("dilation factor must be positive")
    spec = U.spec
    cpt = (spec.points_per_axis - 1) / 2.0
    # index coordinates of delta*x for every output point
    idx = np.indices(spec.shape).astype(float)
    coords = (idx - cpt) * delta + cpt
    amp = delta ** (spec.dim / p)
    comps = []
    for comp in U.components:
        vals = map_coordinates(comp.values, coords.reshape(spec.dim, -1),
                               order=1, mode="constant", cval=0.0)
        comps.append(ScalarField(spec, amp * vals.reshape(spec.shape)))
    return MultiField(comps)


def dilation_scan(U: MultiField, model: EnergyModel, c: ConstraintVector,
                  deltas=(0.5, 0.25, 0.125)):
    """Energies of re-projected dilations; returns [(delta, energy, U_delta)]."""
    out = []
    for d in deltas:
        Ud = project_constraints(dilate(U, d, model.p), c, model.p)
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
    step: int
    E1: float
    E2: float
    E3: float
    total: float
    eta: float
    accepted: bool
    kind: str = "descent"  # descent | schwarz | initial


@dataclasses.dataclass
class MinimizeResult:
    U: MultiField
    trace: list
    multipliers: tuple
    residuals: tuple
    deficits: tuple
    status: str  # converged | stalled | max_steps_reached
    warnings: list

    def trace_to_csv(self, path, header_comment=None) -> None:
        with open(path, "w", newline="\n") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            fh.write("step,E1,E2,E3,total,eta,accepted\n")
            for t in self.trace:
                fh.write(f"{t.step},{t.E1:.17g},{t.E2:.17g},{t.E3:.17g},"
                         f"{t.total:.17g},{t.eta:.17g},{int(t.accepted)}\n")


def minimize(config: MinimizeConfig) -> MinimizeResult:
    """Projected gradient descent with Schwarz-symmetrization interleave.

    Every k_pol accepted steps the iterate is replaced by its component-wise
    Schwarz rearrangement (re-projected); an energy increase beyond the
    discretization tolerance is surfaced as a warning.  Each field is
    evaluated once: its EnergyBreakdown fills the trace row and its
    potential gives the gradient for the residual and the next step.
    """
    model, c = config.model, config.constraints
    U = project_constraints(config.initial, c, model.p)
    bk = eval_total(U, model)
    grad = discrete_gradient(U, model, bk.potential)
    trace = [TraceStep(0, bk.E1, bk.E2, bk.E3, bk.total, 0.0, True, "initial")]
    warnings = []
    eta = config.eta
    status = "max_steps_reached"

    for step in range(1, config.max_steps + 1):
        if config.k_pol > 0 and step % config.k_pol == 0:
            sym = project_constraints(schwarz_multi(U), c, model.p)
            sym_bk = eval_total(sym, model)
            tol = grad_tol(config.spec.h, bk.total)
            if sym_bk.total > bk.total + tol:
                warnings.append(
                    f"step {step}: symmetrization raised energy by "
                    f"{sym_bk.total - bk.total:.3e} (tol {tol:.3e})")
            U, bk = sym, sym_bk
            grad = discrete_gradient(U, model, bk.potential)
            trace.append(TraceStep(step, bk.E1, bk.E2, bk.E3,
                                   bk.total, 0.0, True, "schwarz"))
            continue
        U, bk, eta_used, accepted = descent_step(U, model, c, eta, bk,
                                                 grad=grad)
        trace.append(TraceStep(step, bk.E1, bk.E2, bk.E3, bk.total,
                               eta_used, accepted))
        if not accepted:
            status = "stalled"
            break
        eta = eta_used * 2.0  # allow the step size to recover
        grad = discrete_gradient(U, model, bk.potential)
        _, residuals = lagrange_residual(U, model, model.p, grad)
        if max(residuals) <= config.grad_tol:
            status = "converged"
            break

    lams, residuals = lagrange_residual(U, model, model.p, grad)
    deficits = tuple(symmetry_deficit(comp, model.p)[0]
                     for comp in U.components)
    return MinimizeResult(U, trace, lams, residuals, deficits, status, warnings)


@dataclasses.dataclass
class SymmetryDiagnostics:
    deficits: tuple
    gradient_norm_gap: tuple  # ||Du||_p - ||Du*||_p per component, signed
    plateau_measure: tuple


def symmetry_report(U: MultiField, p: float) -> SymmetryDiagnostics:
    """Per-component symmetry diagnostics: deficit, gradient-norm comparison
    against the rearrangement, and the measure of the interior plateau of
    u* (which must be null for translation-uniqueness)."""
    from .rearrange import schwarz

    deficits, gaps, plateaus = [], [], []
    hN = U.spec.cell_volume
    for comp in U.components:
        deficits.append(symmetry_deficit(comp, p)[0])
        star = schwarz(comp)
        star_grad = gradient_magnitude(star)
        gaps.append(lp_norm(gradient_magnitude(comp), p)
                    - lp_norm(star_grad, p))
        top = float(star.values.max())
        eps = 1e-8 * top
        flat = star_grad.values < eps
        interior = (star.values > eps) & (star.values < top - eps)
        plateaus.append(float(np.count_nonzero(flat & interior)) * hN)
    return SymmetryDiagnostics(tuple(deficits), tuple(gaps), tuple(plateaus))
