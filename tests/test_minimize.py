import importlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.fft import dstn, idstn
from scipy.ndimage import map_coordinates

from polarmin import _worker, energy, models
from polarmin.energy import (EnergyModel, IntegrandJ, LocalTermF,
                             discrete_gradient, eval_total)
from polarmin.grid import (MultiField, ScalarField, gradient_components,
                           gradient_magnitude, lp_norm, make_grid)
from polarmin.minimize import (MAX_TARGET, MIN_TARGET, ConstraintVector,
                               MinimizeConfig, descent_step,
                               dilate, dilation_scan, lagrange_residual,
                               minimize, project_constraints, symmetry_report)
from polarmin.rearrange import schwarz, schwarz_multi, symmetry_deficit
from polarmin.verify import random_bump_field

from oracles import bb_step_dst, coords

mn = importlib.import_module("polarmin.minimize")

J_DIRICHLET = IntegrandJ(j=lambda s, b: b**2,
                         dj_ds=lambda s, b: np.zeros_like(np.asarray(s, float)),
                         dj_db=lambda s, b: 2.0 * b)


def confined_toy_model():
    """Dirichlet energy plus a confining quadratic well at the origin."""
    F = LocalTermF(f=lambda r, s: np.exp(-r**2) * s[0] ** 2,
                   df_ds=lambda r, s: [2.0 * np.exp(-r**2) * s[0]],
                   growth_K=1.0, exponents_l=(1.0,))
    return EnergyModel(p=2.0, js=[J_DIRICHLET], F=F)


def random_multifield(spec, m, seed, low=0.1):
    rng = np.random.default_rng(seed)
    return MultiField([
        ScalarField(spec, low + rng.random(spec.shape)) for _ in range(m)])


def fresh_gradient(U, model):
    """discrete_gradient of U from a fresh evaluation of U."""
    return discrete_gradient(U, model, eval_total(U, model))


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

    @pytest.mark.parametrize("m", [1, 3])
    def test_component_count_must_match_targets(self, m):
        spec = make_grid(1, 5, 2.0)
        U = random_multifield(spec, m, 0)
        with pytest.raises(ValueError, match=f"field has {m} components, "
                           "constraint vector has length 2"):
            project_constraints(U, ConstraintVector((1.0, 2.0)), 2.0)

    def test_targets_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ConstraintVector((1.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_targets_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ConstraintVector((1.0, bad))

    def test_target_bounds(self):
        assert ConstraintVector((MIN_TARGET, MAX_TARGET)).c == (1e-10, 1e10)
        with pytest.raises(ValueError, match="^constraint targets must be "
                           "at most 1e\\+10$"):
            ConstraintVector((1.0, np.nextafter(MAX_TARGET, np.inf)))
        with pytest.raises(ValueError, match="^constraint targets must be "
                           "at least 1e-10$"):
            ConstraintVector((np.nextafter(MIN_TARGET, 0.0), 1.0))


class TestDiscreteGradient:
    @pytest.mark.parametrize("name,m", [("example_paper", 1),
                                        ("example_paper", 2),
                                        ("plaplace", 1),
                                        ("choquard", 2)])
    def test_matches_finite_differences(self, name, m):
        spec = make_grid(2, 9, 2.0)
        model = models.by_name(name, m=m, dim=3)
        U = random_multifield(spec, m, 10)
        grad = fresh_gradient(U, model)
        rng = np.random.default_rng(11)
        for _ in range(3):
            W = MultiField([ScalarField(spec, rng.standard_normal(spec.shape))
                            for _ in range(m)])
            fd = directional_fd(U, model, W)
            an = sum(float(np.sum(g.values * w.values))
                     for g, w in zip(grad.components, W.components))
            assert an == pytest.approx(fd, rel=1e-6, abs=1e-10)

    @pytest.mark.parametrize("dim,n", [(1, 33), (2, 65), (3, 17), (3, 33)])
    def test_magnitude_bits_of_stacked_sum(self, dim, n):
        seen = []

        def dj_db(s, b):
            seen.append(b.copy())
            return 2.0 * b

        model = EnergyModel(p=2.0, js=[IntegrandJ(
            j=J_DIRICHLET.j, dj_ds=J_DIRICHLET.dj_ds, dj_db=dj_db)])
        spec = make_grid(dim, n, 4.0)
        rng = np.random.default_rng(n + dim)
        for scale in (1e-3, 1.0, 1e3):
            u = ScalarField(spec, scale * rng.standard_normal(spec.shape))
            seen.clear()
            fresh_gradient(MultiField([u]), model)
            comps = gradient_components(u)
            stacked = np.sqrt(np.sum([c**2 for c in comps], axis=0))
            assert len(seen) == 1 and np.array_equal(seen[0], stacked)
            assert np.array_equal(gradient_magnitude(u).values, stacked)


class TestLagrangeResidual:
    def test_collinear_gradient_zero_residual(self):
        j_val = IntegrandJ(j=lambda s, b: s**2, dj_ds=lambda s, b: 2.0 * s,
                           dj_db=lambda s, b: np.zeros_like(np.asarray(b, float)),
                           depends_on_gradient=False)
        model = EnergyModel(p=2.0, js=[j_val])
        spec = make_grid(1, 9, 2.0)
        U = random_multifield(spec, 1, 12)
        lams, res = lagrange_residual(U, fresh_gradient(U, model), 2.0)
        assert res[0] <= 1e-12
        assert lams[0] == pytest.approx(-2.0, rel=1e-12)

    def test_generic_field_in_unit_interval(self):
        spec = make_grid(2, 9, 2.0)
        model = confined_toy_model()
        U = random_multifield(spec, 1, 13)
        _, res = lagrange_residual(U, fresh_gradient(U, model), 2.0)
        assert 0.0 < res[0] <= 1.0

    def test_zero_component_rejected(self):
        spec = make_grid(1, 5, 2.0)
        U = MultiField([ScalarField(spec, np.zeros(5))])
        with pytest.raises(ValueError, match="zero component"):
            lagrange_residual(U, fresh_gradient(U, confined_toy_model()), 2.0)


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

    @pytest.mark.parametrize("delta", [1 / 8, 1 / 4, 1 / 3, 1 / 2, 0.7, 1.0,
                                       1.5, 2.0, 4.0])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bits_of_map_coordinates(self, dim, delta):
        rng = np.random.default_rng(dim)
        for n in (3, 9, 17):
            spec = make_grid(dim, n, 2.0)
            # two components, one signed with exact zeros
            signed = rng.standard_normal(spec.shape)
            signed[np.abs(signed) < 0.5] = 0.0
            vals = [signed, rng.random(spec.shape)]
            got = dilate(MultiField([ScalarField(spec, v) for v in vals]),
                         delta, 3.0)
            cpt = (n - 1) / 2.0
            coords = (np.indices(spec.shape) - cpt) * delta + cpt
            for v, comp in zip(vals, got.components):
                expected = delta ** (dim / 3.0) * map_coordinates(
                    v, coords, order=1, mode="constant", cval=0.0)
                assert comp.values.flags.c_contiguous
                assert np.array_equal(comp.values, expected)
                assert np.array_equal(np.signbit(comp.values),
                                      np.signbit(expected))

    def test_scan_reprojects_onto_sphere(self):
        spec = make_grid(2, 17, 4.0)
        U = MultiField([random_bump_field(spec, np.random.default_rng(16))])
        c = ConstraintVector((1.0,))
        scan = dilation_scan(project_constraints(U, c, 2.0),
                             confined_toy_model(), c)
        assert [d for d, _, _ in scan] == [1.0, 0.5, 0.25, 0.125]
        for _, energy, Ud in scan:
            assert np.isfinite(energy)
            assert lp_norm(Ud.components[0], 2.0) ** 2 == pytest.approx(
                1.0, abs=1e-12)


def sine_matrix(n):
    """Dense orthonormal DST-I matrix sqrt(2/(n+1)) sin(pi j k/(n+1))."""
    jk = np.outer(np.arange(1, n + 1), np.arange(1, n + 1))
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * jk / (n + 1))


class TestDst:
    @pytest.mark.parametrize("n", [3, 5, 9, 17, 33, 65])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bits_of_scipy_dstn_and_idstn(self, dim, n):
        rng = np.random.default_rng(n)
        signed = rng.standard_normal((n,) * dim)
        clamped = np.maximum(signed, 0.0)
        # a centred impulse has exact zero coefficients, which carry signs
        impulse = np.zeros((n,) * dim)
        impulse[(n // 2,) * dim] = 1.0
        for x in (signed, clamped, impulse):
            got = mn._dst(x)
            assert got.flags.c_contiguous
            for expected in (dstn(x, type=1, norm="ortho"),
                             idstn(x, type=1, norm="ortho")):
                assert np.array_equal(got, expected)
                assert np.array_equal(np.signbit(got), np.signbit(expected))

    @pytest.mark.parametrize("dim,n", [(1, 3), (1, 65), (2, 9), (2, 17),
                                       (3, 5), (3, 17)])
    def test_dense_sine_matrix_and_involution(self, dim, n):
        x = np.random.default_rng(dim * n).standard_normal((n,) * dim)
        expected = x
        for k in range(dim):
            expected = np.moveaxis(
                np.tensordot(sine_matrix(n), expected, axes=(1, k)), 0, k)
        got = mn._dst(x)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= 1e-12 * scale
        assert np.max(np.abs(mn._dst(got) - x)) <= 1e-12 * np.max(np.abs(x))


class TestBarzilaiBorwein:
    # every odd n from 3 to 33 on dims 1-3, two components, at h = 4/(n-1)
    @pytest.mark.parametrize("n", range(3, 34, 2))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_numerator_matches_dst_form(self, dim, n):
        spec = make_grid(dim, n, 2.0)
        rng = np.random.default_rng(dim * 100 + n)
        s = [rng.standard_normal(spec.shape) for _ in range(2)]
        y = [si + 0.1 * rng.standard_normal(spec.shape) for si in s]
        got = mn._bb_step(s, y, spec.h)
        want = bb_step_dst(s, y, mn._sobolev_symbol(spec))
        assert got is not None and want is not None
        assert abs(got - want) <= 1e-14 * abs(want)

    def test_no_step_without_positive_curvature(self):
        spec = make_grid(2, 9, 2.0)
        s = [np.random.default_rng(0).standard_normal(spec.shape)]
        for y in ([-s[0]], [np.zeros(spec.shape)]):
            assert mn._bb_step(s, y, spec.h) is None


class TestDescentAndMinimize:
    def test_descent_step_decreases_energy(self):
        spec = make_grid(1, 33, 4.0)
        model = confined_toy_model()
        c = ConstraintVector((1.0,))
        U = project_constraints(random_multifield(spec, 1, 17), c, 2.0)
        bk0 = eval_total(U, model)
        grad = discrete_gradient(U, model, bk0)
        U1, bk1, eta_used, accepted, evaluations = descent_step(
            U, model, c, eta=0.1, energy=bk0, direction=grad)
        assert accepted and bk1.total < bk0.total
        assert bk1 == eval_total(U1, model)
        assert evaluations == 1 + round(math.log2(0.1 / eta_used))
        assert lp_norm(U1.components[0], 2.0) ** 2 == pytest.approx(
            1.0, abs=1e-12)

    def test_descent_step_overflowing_step_halves(self):
        spec = make_grid(1, 33, 4.0)
        model = confined_toy_model()
        c = ConstraintVector((1.0,))
        U = project_constraints(random_multifield(spec, 1, 17), c, 2.0)
        bk0 = eval_total(U, model)
        grad = discrete_gradient(U, model, bk0)
        # eta * grad overflows: those trials count as halvings, not errors
        with np.errstate(over="ignore", invalid="ignore"):
            U1, bk1, _, accepted, evaluations = descent_step(
                U, model, c, eta=1e308, energy=bk0, direction=grad,
                max_halvings=1100)
        assert accepted and bk1.total < bk0.total
        assert 0 < evaluations < 1100

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

    @pytest.mark.parametrize("p", [1.5, 1.2])
    def test_start_with_zeros_below_p_two(self, p):
        """The constraint normal stays finite where u = 0 at p < 2; written
        as u |u|^(p-2) it is 0 * inf there."""
        spec = make_grid(2, 17, 4.0)
        u = np.where(np.abs(coords(spec)[..., 0]) > 2.5, 0.0,
                     np.exp(-spec.radii**2 / 2.0))
        c = ConstraintVector((1.0,))
        U0 = project_constraints(MultiField([ScalarField(spec, u)]), c, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = minimize(MinimizeConfig(
                model=models.plaplace(m=1, dim=2, p=p), constraints=c,
                spec=spec, initial=U0, eta=0.1, max_steps=300,
                grad_tol=1e-12, k_pol=0))
        assert res.status == "max_steps_reached" and len(res.trace) == 301
        totals = [t.total for t in res.trace]
        assert all(b <= a for a, b in zip(totals, totals[1:]))
        assert totals[-1] < totals[0]
        assert all(np.isfinite(t.residual) for t in res.trace[1:])
        assert all(np.isfinite(res.residuals + res.multipliers))

    def test_trace_residual_per_step(self):
        res = minimize(confined_toy_config())
        assert res.status == "converged"
        descents = [t for t in res.trace if t.kind == "descent"]
        assert descents[-1].residual == max(res.residuals)
        assert all(t.residual > 1e-4 for t in descents[:-1])
        assert all(t.residual is None for t in res.trace
                   if t.kind != "descent")
        assert any(t.kind == "schwarz" for t in res.trace)

    def test_config_validation(self):
        spec = make_grid(1, 5, 2.0)
        U = random_multifield(spec, 1, 0)
        with pytest.raises(ValueError):
            MinimizeConfig(model=confined_toy_model(),
                           constraints=ConstraintVector((1.0,)),
                           spec=spec, initial=U, eta=0.0)


def confined_toy_config():
    """The confined toy model in 1D from a seeded bump field, with a
    Schwarz candidate every 5 steps."""
    spec = make_grid(1, 33, 4.0)
    c = ConstraintVector((1.0,))
    U0 = project_constraints(
        MultiField([random_bump_field(spec, np.random.default_rng(3))]),
        c, 2.0)
    return MinimizeConfig(model=confined_toy_model(), constraints=c,
                          spec=spec, initial=U0, eta=0.1, max_steps=4000,
                          grad_tol=1e-4, k_pol=5)


def golden_config():
    """The config that the minimize entry of the CLI golden files passes to
    ground_state: plaplace on 1D n = 9 from the seed-5 bump, 4 steps with
    a Schwarz candidate every 2."""
    spec = make_grid(1, 9, 4.0)
    U0 = MultiField([random_bump_field(spec, np.random.default_rng(5))])
    return MinimizeConfig(model=models.plaplace(m=1, dim=1),
                          constraints=ConstraintVector((1.0,)), spec=spec,
                          initial=U0, eta=1.0, max_steps=4, grad_tol=1e-3,
                          k_pol=2)


def stalling_config():
    """example_paper at 7^3 with a Schwarz candidate every 60 steps; with
    grad_tol 0 it runs until no halving of a descent step lowers the
    energy in floating point, which happens at step 75, after the Schwarz
    candidate of step 60 is rejected for raising the energy."""
    spec = make_grid(3, 7, 4.0)
    noise = np.random.default_rng(0).random(spec.shape)
    U0 = MultiField([ScalarField(
        spec, np.exp(-spec.radii**2 / 2.0) * (1.0 + 0.1 * noise))])
    return MinimizeConfig(model=models.example_paper(m=1, dim=3),
                          constraints=ConstraintVector((1.0,)), spec=spec,
                          initial=U0, eta=0.1, max_steps=400, grad_tol=0.0,
                          k_pol=60)


def reference_minimize(cfg):
    """minimize re-written with every energy, gradient and direction
    recomputed; a Schwarz candidate is kept only when its energy is
    lower."""
    model, c, p = cfg.model, cfg.constraints, cfg.model.p
    symbol = mn._sobolev_symbol(cfg.spec)
    U = project_constraints(cfg.initial, c, p)
    bk = eval_total(U, model)
    rows = [(0, bk.E1, bk.E2, bk.E3, bk.total, 0.0, True, "initial")]
    eta = cfg.eta
    for step in range(1, cfg.max_steps + 1):
        if cfg.k_pol > 0 and step % cfg.k_pol == 0:
            sym = project_constraints(schwarz_multi(U), c, p)
            accepted = eval_total(sym, model).total < eval_total(U, model).total
            if accepted:
                U = sym
            bk = eval_total(U, model)
            rows.append((step, bk.E1, bk.E2, bk.E3, bk.total, 0.0, accepted,
                         "schwarz"))
            continue
        d, r = mn._tangent_direction(U, fresh_gradient(U, model), p, symbol)
        U_new, _, eta_used, accepted, _ = descent_step(
            U, model, c, eta, eval_total(U, model), d)
        bk = eval_total(U_new, model)
        rows.append((step, bk.E1, bk.E2, bk.E3, bk.total, eta_used, accepted,
                     "descent"))
        if not accepted:
            break
        _, residuals = lagrange_residual(U_new, fresh_gradient(U_new, model),
                                         p)
        if max(residuals) <= cfg.grad_tol:
            U = U_new
            break
        _, r_new = mn._tangent_direction(
            U_new, fresh_gradient(U_new, model), p, symbol)
        bb = mn._bb_step([a.values - b.values for a, b in
                          zip(U_new.components, U.components)],
                         [a - b for a, b in zip(r_new, r)], cfg.spec.h)
        eta = eta_used if bb is None else bb
        U = U_new
    return U, rows, lagrange_residual(U, fresh_gradient(U, model), p)


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
        assert not stalled.accepted and stalled.residual is None
        assert (stalled.E1, stalled.E2, stalled.E3) == (
            before.E1, before.E2, before.E3)
        assert np.array_equal(res.U.components[0].values,
                              U_ref.components[0].values)
        assert (res.multipliers, res.residuals) == (lams, residuals)

    def test_convolutions_per_step(self, monkeypatch):
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


class TestTraceEndsAtLowestIterate:
    @pytest.mark.parametrize("make_config", [golden_config,
                                             confined_toy_config,
                                             stalling_config])
    def test_totals_never_increase_and_last_row_is_result(self, make_config):
        cfg = make_config()
        res = minimize(cfg)
        assert any(t.kind == "schwarz" for t in res.trace)
        totals = [t.total for t in res.trace]
        assert all(b <= a for a, b in zip(totals, totals[1:]))
        final, bk = res.trace[-1], eval_total(res.U, cfg.model)
        assert (final.E1, final.E2, final.E3, final.total) == (
            bk.E1, bk.E2, bk.E3, bk.total)


def oracle_minimize(cfg):
    """The plain projected-gradient loop that minimize ran before its
    Sobolev direction and Barzilai-Borwein steps: each step goes along the
    Euclidean gradient, and the step length doubles after every accepted
    step.  The Schwarz interleave is left out (the oracle cases run with
    k_pol 0).  Returns (U, final energy, status)."""
    model, c = cfg.model, cfg.constraints
    U = project_constraints(cfg.initial, c, model.p)
    bk = eval_total(U, model)
    grad = discrete_gradient(U, model, bk)
    eta = cfg.eta
    for _ in range(cfg.max_steps):
        U, bk, eta, accepted, _ = descent_step(U, model, c, eta, bk, grad)
        if not accepted:
            return U, bk.total, "stalled"
        eta *= 2.0
        grad = discrete_gradient(U, model, bk)
        _, residuals = lagrange_residual(U, grad, model.p)
        if max(residuals) <= cfg.grad_tol:
            return U, bk.total, "converged"
    return U, bk.total, "max_steps_reached"


# tracemalloc peak of one minimize call at 3D n=33 (the README's memory
# bound), in field sizes of n^3 float64 values: 29.8 measured, 40.5 while
# the nonlocal convolution kept two full spectra per thread
MINIMIZE_PEAK_FIELD_SIZES = 32


def test_minimize_peak_memory_bounded(monkeypatch):
    # the cli_session_3d benchmark's minimize config, 5 steps with one
    # Schwarz candidate, its kernel transform made inside the call
    spec = make_grid(3, 33, 8.0)
    U0 = MultiField([random_bump_field(spec, np.random.default_rng(0))])
    cfg = MinimizeConfig(model=models.example_paper(m=1, dim=3),
                         constraints=ConstraintVector((1.0,)), spec=spec,
                         initial=U0, eta=0.1, max_steps=5, k_pol=5)
    monkeypatch.setattr(_worker, "cores", lambda: 1)
    small = make_grid(2, 3, 1.0)  # the thread keeps small work arrays
    energy.kernel_convolve(np.ones(small.shape),
                           energy.kernel_transform(cfg.model.V, small))
    energy.kernel_transform.cache_clear()
    tracemalloc.start()
    try:
        minimize(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= MINIMIZE_PEAK_FIELD_SIZES * spec.num_points * 8


def gaussian_config(dim, n, c, grad_tol):
    """example_paper from Gaussians of standard deviation 1.0 and 0.7
    (one per constraint) on [-4, 4]^dim."""
    spec = make_grid(dim, n, 4.0)
    U0 = MultiField([ScalarField(spec, np.exp(-spec.radii**2 / (2.0 * w**2)))
                     for w in (1.0, 0.7)[:len(c)]])
    return MinimizeConfig(model=models.example_paper(m=len(c), dim=dim),
                          constraints=ConstraintVector(c), spec=spec,
                          initial=U0, eta=0.1, max_steps=5000,
                          grad_tol=grad_tol, k_pol=0)


class TestAgainstPlainGradientOracle:
    @pytest.mark.parametrize("dim,n,c", [(3, 9, (1.0,)),
                                         (2, 9, (1.0, 0.5)),
                                         (3, 17, (1.0, 0.5))])
    def test_same_final_energy(self, dim, n, c):
        cfg = gaussian_config(dim, n, c, 1e-6)
        res = minimize(cfg)
        _, energy, status = oracle_minimize(cfg)
        assert res.status == status == "converged"
        assert res.trace[-1].total == pytest.approx(energy, rel=1e-6)

    def test_two_constraints_converge(self):
        c = (1.0, 0.5)
        res = minimize(gaussian_config(3, 17, c, 1e-3))
        assert res.status == "converged"
        assert max(res.residuals) <= 1e-3
        for comp, target, deficit in zip(res.U.components, c, res.deficits):
            assert abs(lp_norm(comp, 2.0) ** 2 - target) <= 1e-12
            assert deficit <= 5e-2

    def test_ground_state_within_100_evaluations(self, monkeypatch):
        # the seed-0 start of the ground_state_3d benchmark: a Gaussian
        # (sigma 1) carrying a seeded bump at 5% of its peak, dilated and
        # symmetrized; the plain projected gradient takes about 212
        # evaluations (106 steps) from it
        spec = make_grid(3, 17, 4.0)
        model, c = models.example_paper(m=1, dim=3), ConstraintVector((1.0,))
        bump = random_bump_field(spec, np.random.default_rng(0)).values
        U0 = project_constraints(MultiField([ScalarField(
            spec, np.exp(-spec.radii**2 / 2.0) + 0.05 * bump / bump.max())]),
            c, model.p)
        best = min(dilation_scan(U0, model, c), key=lambda t: t[1])[2]
        start = project_constraints(schwarz_multi(best), c, model.p)
        calls = [0]
        real_eval = mn.eval_total

        def evaluate(*args, **kwargs):
            calls[0] += 1
            return real_eval(*args, **kwargs)

        monkeypatch.setattr(mn, "eval_total", evaluate)
        res = minimize(MinimizeConfig(
            model=model, constraints=c, spec=spec, initial=start, eta=0.1,
            max_steps=2000, grad_tol=1e-3, k_pol=0))
        assert res.status == "converged"
        assert res.evaluations == calls[0] <= 100
        assert all(t.evaluations == t.halvings + 1 for t in res.trace[1:])


class TestSymmetryReport:
    def test_radial_field_clean_diagnostics(self):
        spec = make_grid(2, 17, 4.0)
        vals = np.exp(-spec.radii**2)
        u = ScalarField(spec, vals)
        assert symmetry_deficit(u, 2.0)[0] == 0.0
        rep = symmetry_report(MultiField([u]), 2.0)
        assert rep.plateau_measure[0] == 0.0
        assert abs(rep.gradient_norm_gap[0]) <= 1e-12

    def test_interior_plateau_detected(self):
        spec = make_grid(1, 33, 4.0)
        r = np.abs(spec.axis_coords)
        vals = np.where(r <= 0.5, 2.0, np.where(r <= 2.0, 1.0, 0.0))
        u = schwarz(ScalarField(spec, vals))
        rep = symmetry_report(MultiField([u]), 2.0)
        assert rep.plateau_measure[0] > 0.0
