import importlib

import numpy as np
import pytest

from polarmin import energy, models
from polarmin.energy import (EnergyModel, IntegrandJ, LocalTermF, eval_total)
from polarmin.grid import MultiField, ScalarField, lp_norm, make_grid
from polarmin.minimize import (ConstraintVector, MinimizeConfig, descent_step,
                               dilate, dilation_scan, discrete_gradient,
                               lagrange_residual, minimize,
                               project_constraints, symmetry_report)
from polarmin.rearrange import schwarz, schwarz_multi
from polarmin.verify import random_bump_field

J_DIRICHLET = IntegrandJ(j=lambda s, b: b**2,
                         dj_ds=lambda s, b: np.zeros_like(np.asarray(s, float)),
                         dj_db=lambda s, b: 2.0 * b)


def confined_toy_model():
    """Dirichlet energy plus a confining quadratic well at the origin."""
    F = LocalTermF(f=lambda r, s: np.exp(-r**2) * s[0] ** 2,
                   df_ds=lambda r, s: [2.0 * np.exp(-r**2) * s[0]],
                   growth_K=1.0, exponents_l=(1.0,))
    return EnergyModel(p=2.0, p_star=4.0, js=[J_DIRICHLET], F=F)


def random_multifield(spec, m, seed, low=0.1):
    rng = np.random.default_rng(seed)
    return MultiField([
        ScalarField(spec, low + rng.random(spec.shape)) for _ in range(m)])


def directional_fd(U, model, W, eps=1e-5):
    Up = MultiField([ScalarField(U.spec, u.values + eps * w.values)
                     for u, w in zip(U.components, W.components)])
    Um = MultiField([ScalarField(U.spec, u.values - eps * w.values)
                     for u, w in zip(U.components, W.components)])
    return (eval_total(Up, model).total - eval_total(Um, model).total) / (2 * eps)


class TestProjection:
    def test_mass_exact(self):
        spec = make_grid(2, 9, 2.0)
        U = random_multifield(spec, 2, 0)
        c = ConstraintVector((1.0, 2.5))
        P = project_constraints(U, c, 2.0)
        for comp, target in zip(P.components, c.c):
            assert lp_norm(comp, 2.0) ** 2 == pytest.approx(target, abs=1e-12)

    def test_zero_component_rejected(self):
        spec = make_grid(1, 5, 2.0)
        U = MultiField([ScalarField(spec, np.zeros(5))])
        with pytest.raises(ValueError, match="zero component"):
            project_constraints(U, ConstraintVector((1.0,)), 2.0)

    def test_targets_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ConstraintVector((1.0, 0.0))


class TestDiscreteGradient:
    @pytest.mark.parametrize("name,m", [("example_paper", 1),
                                        ("example_paper", 2),
                                        ("plaplace", 1),
                                        ("choquard", 2)])
    def test_matches_finite_differences(self, name, m):
        spec = make_grid(2, 9, 2.0)
        model = models.by_name(name, m=m, dim=3)
        U = random_multifield(spec, m, 10)
        grad = discrete_gradient(U, model)
        rng = np.random.default_rng(11)
        for _ in range(3):
            W = MultiField([ScalarField(spec, rng.standard_normal(spec.shape))
                            for _ in range(m)])
            fd = directional_fd(U, model, W)
            an = sum(float(np.sum(g.values * w.values))
                     for g, w in zip(grad.components, W.components))
            assert an == pytest.approx(fd, rel=1e-6, abs=1e-10)


class TestLagrangeResidual:
    def test_collinear_gradient_zero_residual(self):
        j_val = IntegrandJ(j=lambda s, b: s**2, dj_ds=lambda s, b: 2.0 * s,
                           dj_db=lambda s, b: np.zeros_like(np.asarray(b, float)),
                           depends_on_gradient=False)
        model = EnergyModel(p=2.0, p_star=4.0, js=[j_val])
        spec = make_grid(1, 9, 2.0)
        U = random_multifield(spec, 1, 12)
        lams, res = lagrange_residual(U, model, 2.0)
        assert res[0] <= 1e-12
        assert lams[0] == pytest.approx(-2.0, rel=1e-12)

    def test_generic_field_in_unit_interval(self):
        spec = make_grid(2, 9, 2.0)
        model = confined_toy_model()
        _, res = lagrange_residual(random_multifield(spec, 1, 13), model, 2.0)
        assert 0.0 < res[0] <= 1.0

    def test_zero_component_rejected(self):
        spec = make_grid(1, 5, 2.0)
        U = MultiField([ScalarField(spec, np.zeros(5))])
        with pytest.raises(ValueError, match="zero component"):
            lagrange_residual(U, confined_toy_model(), 2.0)


class TestDilate:
    def test_identity_at_one(self):
        spec = make_grid(2, 9, 2.0)
        U = random_multifield(spec, 1, 14)
        D = dilate(U, 1.0, 2.0)
        assert np.allclose(D.components[0].values, U.components[0].values,
                           atol=1e-14)

    def test_round_trip_error_shrinks_quadratically(self):
        # concentrate first: expanding first pushes support outside the box
        errs = []
        for n in (33, 65, 129):
            spec = make_grid(2, n, 4.0)
            u = random_bump_field(spec, np.random.default_rng(15))
            U = MultiField([u])
            back = dilate(dilate(U, 2.0, 2.0), 0.5, 2.0)
            err = np.max(np.abs(back.components[0].values - u.values))
            errs.append(err / u.values.max())
        assert errs[2] < 0.02
        assert errs[1] < 0.4 * errs[0] and errs[2] < 0.4 * errs[1]

    def test_positive_factor_required(self):
        spec = make_grid(1, 5, 2.0)
        with pytest.raises(ValueError, match="positive"):
            dilate(random_multifield(spec, 1, 0), 0.0, 2.0)

    def test_scan_reprojects_onto_sphere(self):
        spec = make_grid(2, 17, 4.0)
        U = MultiField([random_bump_field(spec, np.random.default_rng(16))])
        c = ConstraintVector((1.0,))
        scan = dilation_scan(project_constraints(U, c, 2.0),
                             confined_toy_model(), c)
        assert [d for d, _, _ in scan] == [0.5, 0.25, 0.125]
        for _, energy, Ud in scan:
            assert np.isfinite(energy)
            assert lp_norm(Ud.components[0], 2.0) ** 2 == pytest.approx(
                1.0, abs=1e-12)


class TestDescentAndMinimize:
    def test_descent_step_decreases_energy(self):
        spec = make_grid(1, 33, 4.0)
        model = confined_toy_model()
        c = ConstraintVector((1.0,))
        U = project_constraints(random_multifield(spec, 1, 17), c, 2.0)
        e0 = eval_total(U, model).total
        U1, e1, _, accepted = descent_step(U, model, c, eta=0.1, energy=e0)
        assert accepted and e1 < e0
        assert lp_norm(U1.components[0], 2.0) ** 2 == pytest.approx(
            1.0, abs=1e-12)

    @pytest.mark.parametrize("k_pol", [0, 5])
    def test_confined_toy_converges(self, k_pol):
        spec = make_grid(1, 65, 4.0)
        model = confined_toy_model()
        c = ConstraintVector((1.0,))
        U0 = project_constraints(
            MultiField([random_bump_field(spec, np.random.default_rng(3))]),
            c, 2.0)
        cfg = MinimizeConfig(model=model, constraints=c, spec=spec,
                             initial=U0, eta=0.1, max_steps=4000,
                             grad_tol=1e-4, k_pol=k_pol)
        res = minimize(cfg)
        assert res.status == "converged"
        assert res.residuals[0] <= 1e-4
        assert res.deficits[0] <= 5e-2
        descents = [t.total for t in res.trace
                    if t.kind == "descent" and t.accepted]
        assert all(b <= a for a, b in zip(descents, descents[1:]))

    def test_trace_csv(self, tmp_path):
        spec = make_grid(1, 17, 4.0)
        model = confined_toy_model()
        c = ConstraintVector((1.0,))
        U0 = project_constraints(random_multifield(spec, 1, 18), c, 2.0)
        cfg = MinimizeConfig(model=model, constraints=c, spec=spec,
                             initial=U0, eta=0.1, max_steps=10, k_pol=0)
        res = minimize(cfg)
        path = tmp_path / "trace.csv"
        res.trace_to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,E1,E2,E3,total,eta,accepted"
        assert len(lines) == 1 + len(res.trace)

    def test_config_validation(self):
        spec = make_grid(1, 5, 2.0)
        U = random_multifield(spec, 1, 0)
        with pytest.raises(ValueError):
            MinimizeConfig(model=confined_toy_model(),
                           constraints=ConstraintVector((1.0,)),
                           spec=spec, initial=U, eta=0.0)


def stalling_config():
    """example_paper at 7^3 with a Schwarz step every 55 steps; with
    grad_tol 0 it runs until no halving of a descent step lowers the
    energy in floating point, which happens after the first Schwarz step."""
    spec = make_grid(3, 7, 4.0)
    noise = np.random.default_rng(0).random(spec.shape)
    U0 = MultiField([ScalarField(
        spec, np.exp(-spec.radii**2 / 2.0) * (1.0 + 0.1 * noise))])
    return MinimizeConfig(model=models.example_paper(m=1, dim=3),
                          constraints=ConstraintVector((1.0,)), spec=spec,
                          initial=U0, eta=0.1, max_steps=400, grad_tol=0.0,
                          k_pol=55)


def reference_minimize(cfg):
    """minimize re-written with every energy and gradient recomputed."""
    model, c = cfg.model, cfg.constraints
    U = project_constraints(cfg.initial, c, model.p)
    bk = eval_total(U, model)
    energy_now = bk.total
    rows = [(0, bk.E1, bk.E2, bk.E3, bk.total, 0.0, True, "initial")]
    eta = cfg.eta
    for step in range(1, cfg.max_steps + 1):
        if cfg.k_pol > 0 and step % cfg.k_pol == 0:
            U = project_constraints(schwarz_multi(U), c, model.p)
            bk = eval_total(U, model)
            energy_now = bk.total
            rows.append((step, bk.E1, bk.E2, bk.E3, bk.total, 0.0, True,
                         "schwarz"))
            continue
        U, energy_now, eta_used, accepted = descent_step(U, model, c, eta,
                                                         energy_now)
        bk = eval_total(U, model)
        rows.append((step, bk.E1, bk.E2, bk.E3, bk.total, eta_used, accepted,
                     "descent"))
        if not accepted:
            break
        eta = eta_used * 2.0
        _, residuals = lagrange_residual(U, model, model.p)
        if max(residuals) <= cfg.grad_tol:
            break
    return U, rows, lagrange_residual(U, model, model.p)


class TestEvaluationReuse:
    def test_minimize_equals_recomputing_loop_bit_for_bit(self):
        cfg = stalling_config()
        res = minimize(cfg)
        U_ref, rows, (lams, residuals) = reference_minimize(cfg)
        assert res.status == "stalled"
        assert any(t.kind == "schwarz" for t in res.trace)
        assert [(t.step, t.E1, t.E2, t.E3, t.total, t.eta, t.accepted,
                 t.kind) for t in res.trace] == rows
        stalled, before = res.trace[-1], res.trace[-2]
        assert not stalled.accepted
        assert (stalled.E1, stalled.E2, stalled.E3) == (
            before.E1, before.E2, before.E3)
        assert np.array_equal(res.U.components[0].values,
                              U_ref.components[0].values)
        assert (res.multipliers, res.residuals) == (lams, residuals)

    def test_convolutions_per_step(self, monkeypatch):
        mn = importlib.import_module("polarmin.minimize")
        counts = {"conv": 0, "candidates": 0}
        in_step = [False]
        real_conv, real_eval = energy.kernel_convolve, mn.eval_total
        real_step = mn.descent_step

        def conv(*args, **kwargs):
            counts["conv"] += 1
            return real_conv(*args, **kwargs)

        def evaluate(*args, **kwargs):
            counts["candidates"] += in_step[0]
            return real_eval(*args, **kwargs)

        def step(*args, **kwargs):
            in_step[0] = True
            try:
                return real_step(*args, **kwargs)
            finally:
                in_step[0] = False

        monkeypatch.setattr(energy, "kernel_convolve", conv)
        monkeypatch.setattr(mn, "eval_total", evaluate)
        monkeypatch.setattr(mn, "descent_step", step)
        res = minimize(stalling_config())
        schwarz_steps = sum(t.kind == "schwarz" for t in res.trace)
        assert counts["candidates"] >= len(res.trace) - 1 - schwarz_steps
        assert counts["conv"] <= counts["candidates"] + schwarz_steps + 2


class TestSymmetryReport:
    def test_radial_field_clean_diagnostics(self):
        spec = make_grid(2, 17, 4.0)
        vals = np.exp(-spec.radii**2)
        rep = symmetry_report(MultiField([ScalarField(spec, vals)]), 2.0)
        assert rep.deficits[0] == 0.0
        assert rep.plateau_measure[0] == 0.0
        assert abs(rep.gradient_norm_gap[0]) <= 1e-12

    def test_interior_plateau_detected(self):
        spec = make_grid(1, 33, 4.0)
        r = np.abs(spec.axis_coords)
        vals = np.where(r <= 0.5, 2.0, np.where(r <= 2.0, 1.0, 0.0))
        u = schwarz(ScalarField(spec, vals))
        rep = symmetry_report(MultiField([u]), 2.0)
        assert rep.plateau_measure[0] > 0.0
