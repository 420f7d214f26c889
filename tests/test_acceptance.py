"""End-to-end acceptance checks, one test per contract.

Each test prints a single pass/fail line with its key numbers and elapsed
time, then asserts the contract with the stated tolerances.
"""

import time

import numpy as np
import pytest

from polarmin import models
from polarmin.cli import main
from polarmin.energy import (IntegrandJ, check_assumptions,
                             discrete_gradient, eval_total)
from polarmin.grid import MultiField, ScalarField, lp_norm, make_grid
from polarmin.minimize import ConstraintVector, MinimizeConfig, ground_state
from polarmin.rearrange import (PolarizationSchedule,
                                admissible_half_spaces, iterate_polarizations,
                                polarize, polarize_multi, schwarz,
                                schwarz_multi)
from polarmin.verify import (bump_params, check_nonlocal_monotonicity,
                             check_polya_szego, eval_bumps, random_bump_field)

from oracles import coords, dense_kernel_matrix, dense_q, objective


def report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


GRAD_INTEGRANDS = {
    "b^1.5": IntegrandJ(
        j=lambda s, b: b**1.5,
        dj_ds=lambda s, b: np.zeros_like(np.asarray(s, float)),
        dj_db=lambda s, b: 1.5 * b**0.5),
    "b^2": IntegrandJ(
        j=lambda s, b: b**2,
        dj_ds=lambda s, b: np.zeros_like(np.asarray(s, float)),
        dj_db=lambda s, b: 2.0 * b),
    "dampened": IntegrandJ(
        j=lambda s, b: (1.0 + 1.0 / (1.0 + np.abs(s))) * b**2,
        dj_ds=lambda s, b: -np.sign(s) * b**2 / (1.0 + np.abs(s)) ** 2,
        dj_db=lambda s, b: 2.0 * (1.0 + 1.0 / (1.0 + np.abs(s))) * b),
}


def test_equimeasurability_exact():
    t0 = time.time()
    spec = make_grid(2, 33, 4.0)
    family = admissible_half_spaces(spec)
    rng = np.random.default_rng(0)
    bad = 0
    for _ in range(200):
        u = random_bump_field(spec, rng)
        sorted_u = np.sort(u.values.ravel())
        norms = {p: lp_norm(u, p) for p in (1.5, 2.0, 3.0)}
        mates = [schwarz(u)]
        for k in rng.integers(len(family), size=20):
            mates.append(polarize(u, family[k]))
        for v in mates:
            if not np.array_equal(sorted_u, np.sort(v.values.ravel())):
                bad += 1
                continue
            if any(lp_norm(v, p) != norms[p] for p in norms):
                bad += 1
    elapsed = time.time() - t0
    ok = bad == 0
    report("equimeasurability", ok,
           f"200 fields x (1 rearrangement + 20 polarizations), "
           f"{bad} mismatches, {elapsed:.1f}s")
    assert ok
    assert elapsed < 30.0


def lattice_gaussian(spec, rng):
    """Radial Gaussian centred on a lattice point within L/4 of the origin.

    With width at most L/8 the field falls below exp(-18) of its peak on
    the box faces, so it is a lattice translate of a radial field that
    vanishes on the faces, and its rearrangement is reachable by
    compositions of admissible reflections.
    """
    L, h = spec.half_width, spec.h
    center = rng.integers(-int(L / 4 / h), int(L / 4 / h) + 1,
                          size=spec.dim) * h
    width = rng.uniform(L / 10, L / 8)
    amp = rng.uniform(0.1, 2.0)
    d2 = np.sum((coords(spec) - center) ** 2, axis=-1)
    return ScalarField(spec, amp * np.exp(-d2 / (2.0 * width**2)))


def test_iterated_polarization_convergence():
    t0 = time.time()
    spec = make_grid(2, 65, 4.0)
    family = admissible_half_spaces(spec)
    rng = np.random.default_rng(1)
    schedule = PolarizationSchedule(mode="greedy", seed=1, max_iter=2000,
                                    tol=1e-3, p=2.0)

    def run(U0):
        U, trace = iterate_polarizations(U0, schedule)
        dists = [max(row.rel_dist) for row in trace.rows]
        monotone = all(b <= a for a, b in zip(dists, dists[1:]))
        return U, trace, monotone, dists[-1]

    # Off-lattice multi-bump fields: the admissible family holds only axis
    # and diagonal mirrors, so the Schwarz target is in general out of
    # reach.  The driver must still decrease monotonically and stop at a
    # fixed point of the family: no admissible half-space strictly lowers
    # the objective it uses to accept a step.
    monotone, improvable, floors = True, 0, []
    for _ in range(20):
        U0 = MultiField([random_bump_field(spec, rng)])
        U, _, mono, final = run(U0)
        monotone &= mono
        targets = schwarz_multi(U0).components
        obj = objective(U, targets, schedule.p)
        improvable += sum(
            objective(polarize_multi(U, H), targets, schedule.p) < obj
            for H in family)
        floors.append(final)

    # Lattice translates of radial fields that vanish on the faces: the
    # family reaches their rearrangement, so the driver must converge.
    converged, finals, iters = 0, [], []
    for _ in range(20):
        u0 = lattice_gaussian(spec, rng)
        v = u0.values
        faces = np.concatenate([v[0], v[-1], v[:, 0], v[:, -1]])
        assert faces.max() <= 1e-7 * v.max()
        _, trace, mono, final = run(MultiField([u0]))
        monotone &= mono
        converged += int(trace.status == "converged")
        finals.append(final)
        iters.append(trace.rows[-1].iteration)
    elapsed = time.time() - t0
    ok = monotone and improvable == 0 and converged == 20
    report("iterated polarization", ok,
           f"monotone={monotone}; off-lattice: {improvable} improving "
           f"half-spaces at the end, final distances "
           f"{min(floors):.3e}..{max(floors):.3e}; lattice: "
           f"{converged}/20 below 1e-3, worst final distance "
           f"{max(finals):.3e} after at most {max(iters)} iterations, "
           f"{elapsed:.1f}s")
    assert monotone
    assert elapsed < 300.0
    assert improvable == 0, (
        f"{improvable} admissible half-spaces still lower the objective")
    assert converged == 20, (
        f"worst final relative distance {max(finals):.3e} exceeds 1e-3")


def test_rearrangement_gradient_inequality():
    t0 = time.time()
    failures = 0
    # worst violation normalised by (1 + |I|), as grad_tol normalises it
    worst = {65: 0.0, 257: 0.0}
    for dim in (1, 2):
        rng = np.random.default_rng(2 + dim)
        for _ in range(50):
            # bumps drawn for [-4, 4], sampled on [-8, 8]: the fields vanish
            # on the faces, as the continuum inequality assumes
            params = bump_params(rng, dim, 4.0)
            for n in (65, 257):
                u = eval_bumps(make_grid(dim, n, 8.0), params)
                for integrand in GRAD_INTEGRANDS.values():
                    rep = check_polya_szego(u, integrand)
                    failures += int(not rep.passed)
                    worst[n] = max(worst[n], -min(rep.slack, 0.0)
                                   / (1.0 + abs(rep.right)))
    elapsed = time.time() - t0
    # the slack decays like sqrt(h), so a 4x refinement halves it
    shrink_ok = worst[257] <= 0.5 * worst[65]
    ok = failures == 0 and shrink_ok
    report("gradient inequality", ok,
           f"{failures} failures, worst violation / (1+|I|) h=0.25: "
           f"{worst[65]:.3e}, h=0.0625: {worst[257]:.3e}, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 120.0
    assert shrink_ok, (
        f"normalised worst violation must halve from h=0.25 to h=0.0625; "
        f"got {worst[65]:.3e} -> {worst[257]:.3e}")


def test_nonlocal_monotonicity():
    # the library's FFT report and the dense pairwise sum, on the same fields
    t0 = time.time()
    spec = make_grid(3, 17, 2.0)
    family = admissible_half_spaces(spec)
    rng = np.random.default_rng(5)
    # one 193 MB matrix serves both models: choquard's V does not depend on m
    mat = dense_kernel_matrix(models.choquard(m=1, dim=3).V, spec)
    failures, worst = 0, np.inf
    for m in (1, 2):
        model = models.choquard(m=m, dim=3)
        for _ in range(25):
            U = MultiField([random_bump_field(spec, rng) for _ in range(m)])
            H = family[rng.integers(len(family))]
            rep = check_nonlocal_monotonicity(U, model, H)
            q_before = dense_q(U, model, mat)
            dense_slack = dense_q(polarize_multi(U, H), model, mat) - q_before
            tol = 1e-10 * (1.0 + abs(q_before))
            failures += int(not rep.passed) + int(dense_slack < -tol)
            worst = min(worst, rep.slack, dense_slack)
    elapsed = time.time() - t0
    ok = failures == 0
    report("nonlocal monotonicity", ok,
           f"50 fields, {failures} failures, worst slack {worst:.3e}, "
           f"{elapsed:.1f}s")
    assert ok
    assert elapsed < 120.0


def test_convolution_oracle_equivalence():
    t0 = time.time()
    spec = make_grid(3, 9, 2.0)
    rng = np.random.default_rng(6)
    worst = 0.0
    for trial in range(30):
        m = 1 + trial % 2
        model = models.choquard(m=m, dim=3)
        U = MultiField([random_bump_field(spec, rng) for _ in range(m)])
        direct = -dense_q(U, model, dense_kernel_matrix(model.V, spec))
        fft = eval_total(U, model).E3
        worst = max(worst, abs(fft - direct) / (1.0 + abs(direct)))
    elapsed = time.time() - t0
    ok = worst <= 1e-10
    report("convolution oracle", ok,
           f"30 fields, worst relative gap {worst:.3e}, {elapsed:.1f}s")
    assert ok
    assert elapsed < 60.0


def test_gradient_correctness():
    t0 = time.time()
    spec = make_grid(2, 9, 2.0)
    worst = 0.0
    for name in ("example_paper", "plaplace", "choquard"):
        model = models.by_name(name, m=1, dim=3)
        rng = np.random.default_rng(7)
        U = MultiField([ScalarField(spec, 0.1 + rng.random(spec.shape))])
        grad = discrete_gradient(U, model, eval_total(U, model))
        for _ in range(20):
            w = rng.standard_normal(spec.shape)
            eps = 1e-5
            up = eval_total(MultiField([ScalarField(
                spec, U.components[0].values + eps * w)]), model).total
            um = eval_total(MultiField([ScalarField(
                spec, U.components[0].values - eps * w)]), model).total
            fd = (up - um) / (2 * eps)
            an = float(np.sum(grad.components[0].values * w))
            worst = max(worst, abs(an - fd) / max(abs(fd), 1e-10))
    elapsed = time.time() - t0
    ok = worst <= 1e-6
    report("gradient correctness", ok,
           f"3 models x 20 directions, worst relative error {worst:.3e}, "
           f"{elapsed:.1f}s")
    assert ok
    assert elapsed < 60.0


def test_example_model_end_to_end():
    t0 = time.time()
    spec = make_grid(3, 33, 8.0)
    model = models.example_paper(m=1, dim=3)
    c = ConstraintVector((1.0,))
    U0 = MultiField([random_bump_field(spec, np.random.default_rng(0))])
    res, scan = ground_state(MinimizeConfig(
        model=model, constraints=c, spec=spec, initial=U0, eta=0.1,
        max_steps=800, grad_tol=1e-3, k_pol=0))
    best_delta, best_energy = min(scan, key=lambda t: t[1])
    scan_ok = best_energy < 0.0
    total = res.trace[-1].total
    mass_err = abs(lp_norm(res.U.components[0], model.p) ** model.p - 1.0)
    elapsed = time.time() - t0
    ok = (scan_ok and total < 0.0 and mass_err <= 1e-12
          and res.residuals[0] <= 1e-3 and res.deficits[0] <= 5e-2)
    report("example model end-to-end", ok,
           f"scan best E({best_delta})={best_energy:.4f}, final E={total:.4f}, "
           f"mass error {mass_err:.1e}, residual {res.residuals[0]:.2e}, "
           f"deficit {res.deficits[0]:.2e}, {res.status} after "
           f"{len(res.trace) - 1} steps, {elapsed:.0f}s")
    assert scan_ok, "dilation scan found no negative energy"
    assert total < 0.0
    assert mass_err <= 1e-12
    assert res.residuals[0] <= 1e-3
    assert res.deficits[0] <= 5e-2
    assert elapsed < 600.0


def test_assumption_sampler():
    t0 = time.time()
    good = check_assumptions(models.example_paper(m=2, dim=3),
                             trials=1000, seed=0)
    controls = {}
    for name, build in (("nonmonotone_g", models.nonmonotone_g),
                        ("nonsupermodular_f", models.nonsupermodular_f)):
        rep = check_assumptions(build(), trials=1000, seed=0)
        failed = rep.failures()
        controls[name] = bool(failed) and all(
            f.witness is not None for f in failed)
    elapsed = time.time() - t0
    ok = good.passed and all(controls.values())
    report("assumption sampler", ok,
           f"example passes={good.passed}, controls caught={controls}, "
           f"{elapsed:.1f}s")
    assert good.passed
    assert all(controls.values())
    assert elapsed < 10.0


def test_cli_determinism(tmp_path):
    t0 = time.time()

    def strip(path):
        return [ln for ln in path.read_text().splitlines()
                if not ln.startswith("#")]

    verify_cfg = tmp_path / "verify.cfg"
    verify_cfg.write_text("command = verify\nn = 9\ntrials = 10\nseed = 3\n")
    sym_cfg = tmp_path / "sym.cfg"
    sym_cfg.write_text("command = symmetrize\ndim = 2\nn = 9\n"
                       "mode = greedy\nmax_iter = 40\nseed = 12\n")
    outs = {}
    for tag, cfg, cmd in (("v", verify_cfg, "verify"),
                          ("s", sym_cfg, "symmetrize")):
        for run_id in ("a", "b"):
            out = tmp_path / f"{tag}{run_id}"
            assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
            outs[tag + run_id] = out
    verify_same = strip(outs["va"] / "suite.csv") == \
        strip(outs["vb"] / "suite.csv")
    sym_same = (strip(outs["sa"] / "trace.csv") ==
                strip(outs["sb"] / "trace.csv")
                and (outs["sa"] / "final.rfld").read_bytes() ==
                (outs["sb"] / "final.rfld").read_bytes())
    elapsed = time.time() - t0
    ok = verify_same and sym_same
    report("determinism", ok,
           f"verify identical={verify_same}, symmetrize identical={sym_same}, "
           f"{elapsed:.1f}s")
    assert ok
