import dataclasses
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polarmin import _worker, cli, models, rearrange, verify
from polarmin.energy import IntegrandJ, LocalTermF, eval_total
from polarmin.grid import (MultiField, ScalarField, gradient_components,
                           make_grid)
from polarmin.rearrange import (HalfSpace, admissible_half_spaces, polarize,
                                polarize_multi, schwarz)
from polarmin.verify import (SuiteLine, _j_integral, bump_params,
                             check_local_monotonicity,
                             check_nonlocal_monotonicity, check_polya_szego,
                             equiintegrability_profile, eval_bumps, grad_tol,
                             random_bump_field, run_property_suite)

from oracles import coords, dense_kernel_matrix, dense_q

SPEC_2D = make_grid(2, 9, 2.0)

J_GRAD = IntegrandJ(j=lambda s, b: b**2,
                    dj_ds=lambda s, b: np.zeros_like(np.asarray(s, float)),
                    dj_db=lambda s, b: 2.0 * b)
J_VALUE = IntegrandJ(j=lambda s, b: s**2,
                     dj_ds=lambda s, b: 2.0 * s,
                     dj_db=lambda s, b: np.zeros_like(np.asarray(b, float)),
                     depends_on_gradient=False)

nonneg_2d = arrays(np.float64, (9, 9), elements=st.floats(0.0, 5.0))

# values that hit the thresholds exactly, zeros of both signs and repeats
TAIL_VALUES = [0.0, -0.0, 0.1, 0.5, 1.0, -1.0, 2.0, -2.5]
tail_field_2d = arrays(np.float64, (9, 9),
                       elements=st.sampled_from(TAIL_VALUES)
                       | st.floats(-3.0, 3.0))
tail_threshold = st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0, 2.5]) | st.floats(
    0.0, 3.0)


def two_bump_field(n):
    spec = make_grid(2, n, 4.0)
    d2a = np.sum((coords(spec) - np.array([-0.31, 0.43])) ** 2, axis=-1)
    d2b = np.sum((coords(spec) - np.array([0.9, -0.7])) ** 2, axis=-1)
    vals = np.exp(-d2a / 0.72) + 0.7 * np.exp(-d2b / 0.5)
    return ScalarField(spec, vals)


# Independent oracle for the property suite: the per-trial loop that builds
# |Du| inside every integral (six times per trial, twice for the value-only
# integrand that ignores it), with fields sampled from the full coordinate
# array, gradients summed from a stacked array, the L^p norm and the value
# tails each sorting the field again.
def oracle_field(spec, params):
    vals = np.zeros(spec.shape)
    for center, width, amp in params:
        d2 = np.sum((coords(spec) - center) ** 2, axis=-1)
        vals += amp * np.exp(-d2 / (2.0 * width**2))
    return ScalarField(spec, vals)


def oracle_integral(u, j):
    b = np.sqrt(np.sum([c**2 for c in gradient_components(u)], axis=0))
    vals = np.asarray(j.j(u.values, b))
    return float(np.sum(np.sort(vals.ravel()))) * u.spec.cell_volume


def oracle_lp_norm(u, p):
    v = np.sort(np.abs(u.values).ravel())
    hN = u.spec.cell_volume
    with np.errstate(over="ignore"):
        s = float(np.sum(v**p)) * hN
    if not np.isfinite(s):
        top = v[-1]
        return top * (float(np.sum((v / top) ** p)) * hN) ** (1.0 / p)
    return s ** (1.0 / p)


def oracle_tails(fields, r, deltas, levels, radii):
    """(small, large, exterior) of equiintegrability_profile, one mask and
    one sort per field and threshold."""
    hN = fields[0].spec.cell_volume
    rad = fields[0].spec.radii
    small = np.zeros((len(fields), len(deltas)))
    large = np.zeros((len(fields), len(levels)))
    ext = np.zeros((len(fields), len(radii)))
    for i, f in enumerate(fields):
        a = np.abs(f.values)
        ar = a**r
        for k, d in enumerate(deltas):
            small[i, k] = float(np.sum(np.sort(ar[a < d]))) * hN
        for k, lv in enumerate(levels):
            large[i, k] = float(np.sum(np.sort(ar[a > lv]))) * hN
        for k, R in enumerate(radii):
            ext[i, k] = float(np.sum(ar[rad > R])) * hN
    return small, large, ext


def oracle_trials(seed, trials, spec):
    """{check: [(passed, slack, tolerance) of each trial]}, in suite order."""
    rng = np.random.default_rng(seed)
    family = admissible_half_spaces(spec)
    j_grad = IntegrandJ(j=lambda s, b: b**2, dj_ds=None, dj_db=None)
    j_value = IntegrandJ(j=lambda s, b: np.abs(s) ** 2.0, dj_ds=None,
                         dj_db=None, depends_on_gradient=False)
    counters = {}

    def record(check, passed, slack, tol):
        counters.setdefault(check, []).append((passed, slack, tol))

    def invariance(u, j, H):
        i_val = oracle_integral(u, j)
        ih_val = oracle_integral(polarize(u, H), j)
        tol = grad_tol(u.spec.h, i_val) if j.depends_on_gradient else 0.0
        slack = 0.0 - abs(ih_val - i_val)
        return slack >= -tol, slack, tol

    for _ in range(trials):
        u = oracle_field(spec, bump_params(rng, spec.dim, spec.half_width))
        H = family[rng.integers(len(family))]
        uh = polarize(u, H)
        us = schwarz(u)

        sorted_u = np.sort(u.values.ravel())
        same = (np.array_equal(sorted_u, np.sort(uh.values.ravel()))
                and np.array_equal(sorted_u, np.sort(us.values.ravel())))
        record("equimeasurability", same, 0.0 if same else -1.0, 0.0)

        norm_match = (oracle_lp_norm(u, 2.0) == oracle_lp_norm(uh, 2.0)
                      == oracle_lp_norm(us, 2.0))
        record("lp_norm_exact", norm_match, 0.0 if norm_match else -1.0, 0.0)

        record("value_invariance_exact", *invariance(u, j_value, H))

        small, large, _ = oracle_tails([u, uh, us], 2.0, deltas=(0.1,),
                                       levels=(0.5,), radii=())
        tails_const = (np.ptp(small[:, 0]) == 0.0
                       and np.ptp(large[:, 0]) == 0.0)
        record("value_tails_exact", tails_const,
               0.0 if tails_const else -1.0, 0.0)

        record("gradient_invariance_tol", *invariance(u, j_grad, H))

        right = oracle_integral(u, j_grad)
        left = oracle_integral(schwarz(u), j_grad)
        tol = grad_tol(u.spec.h, right)
        record("polya_szego_tol", right - left >= -tol, right - left, tol)

    return counters


def oracle_suite(seed, trials, spec):
    """The suite's lines; a line's worst slack and tolerance are those of
    the first trial with the least slack."""
    lines = []
    for check, rows in oracle_trials(seed, trials, spec).items():
        _, slack, tol = min(rows, key=lambda row: row[1])
        lines.append(SuiteLine(check, len(rows), sum(ok for ok, _, _ in rows),
                               slack, tol))
    return lines


def suite_reprs(lines):
    return [(ln.check, ln.trials, ln.passes, repr(ln.worst_slack),
             repr(ln.tolerance)) for ln in lines]


class TestSuiteOracle:
    @pytest.mark.parametrize("spec", [make_grid(1, 33, 4.0),
                                      make_grid(2, 17, 4.0),
                                      make_grid(3, 9, 4.0)],
                             ids=["1d-n33", "2d-n17", "3d-n9"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_lines(self, spec, seed):
        # repr tells -0.0 from 0.0, which suite.csv prints as -0 and 0
        got = run_property_suite(seed, 12, spec).lines
        assert suite_reprs(got) == suite_reprs(oracle_suite(seed, 12, spec))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_identical_lines_benchmark_grid(self, seed):
        # the grid of the benchmark's verify run
        spec = make_grid(3, 33, 4.0)
        got = run_property_suite(seed, 3, spec).lines
        assert suite_reprs(got) == suite_reprs(oracle_suite(seed, 3, spec))

    def test_one_sort_per_field_and_gradient(self, monkeypatch):
        calls = []
        real = np.sort
        monkeypatch.setattr(np, "sort",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        trials = 4
        suite = run_property_suite(0, trials, make_grid(2, 17, 4.0))
        # u, u^H and u* once each for the value checks and once each under
        # the gradient integrals; u* is placed from the sort of u
        assert len(calls) == suite.sorts == 6 * trials

    @staticmethod
    def count_gradients(monkeypatch):
        calls = []
        real = verify.gradient_magnitude
        monkeypatch.setattr(verify, "gradient_magnitude",
                            lambda u: calls.append(1) or real(u))
        return calls

    def test_one_gradient_per_field(self, monkeypatch):
        calls = self.count_gradients(monkeypatch)
        trials = 4
        suite = run_property_suite(0, trials, make_grid(2, 17, 4.0))
        # u, u^H and u*
        assert len(calls) == suite.magnitudes == 3 * trials

    def test_value_integrand_builds_no_gradient(self, monkeypatch):
        calls = self.count_gradients(monkeypatch)
        u = random_bump_field(SPEC_2D, np.random.default_rng(0))
        uh = polarize(u, HalfSpace((1, 0), 0.0))
        assert _j_integral(uh, J_VALUE) == _j_integral(u, J_VALUE)
        assert calls == []

    @pytest.mark.parametrize("dim,n", [(1, 33), (2, 65), (3, 17), (3, 33)])
    def test_eval_bumps_bits_of_coords_formula(self, dim, n):
        spec = make_grid(dim, n, 4.0)
        rng = np.random.default_rng(dim * n)
        for _ in range(4):
            params = bump_params(rng, dim, spec.half_width)
            assert np.array_equal(eval_bumps(spec, params).values,
                                  oracle_field(spec, params).values)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_eval_bumps_of_no_bumps_is_zero(self, dim):
        spec = make_grid(dim, 5, 4.0)
        vals = eval_bumps(spec, []).values
        assert vals.shape == spec.shape
        assert np.all(vals == 0.0) and not np.signbit(vals).any()


class TestPolarizationInvariance:
    """I(u^H) against I(u), the integrals the suite's invariance lines
    compare: equal for a value-only integrand and for a Schwarz-symmetric
    field, within grad_tol otherwise."""

    @given(nonneg_2d, st.sampled_from(admissible_half_spaces(SPEC_2D)))
    @settings(max_examples=40, deadline=None)
    def test_value_integrand_exact(self, vals, H):
        u = ScalarField(SPEC_2D, vals)
        assert _j_integral(polarize(u, H), J_VALUE) == _j_integral(u, J_VALUE)

    def test_symmetric_field_exact_even_with_gradient(self):
        u = schwarz(ScalarField(SPEC_2D,
                                np.random.default_rng(0).random((9, 9))))
        i_u = _j_integral(u, J_GRAD)
        for H in admissible_half_spaces(SPEC_2D)[::5]:
            assert _j_integral(polarize(u, H), J_GRAD) == i_u

    def test_gradient_error_shrinks_with_resolution(self):
        H = HalfSpace((1, 0), 0.0)
        gaps = []
        for n in (33, 65):
            u = two_bump_field(n)
            i_u = _j_integral(u, J_GRAD)
            gaps.append(abs(_j_integral(polarize(u, H), J_GRAD) - i_u))
            assert gaps[-1] <= grad_tol(u.spec.h, i_u)
        coarse, fine = gaps
        assert coarse > 0.0
        assert fine < coarse


class TestPolyaSzego:
    def test_symmetric_field_equality(self):
        u = schwarz(ScalarField(SPEC_2D,
                                np.random.default_rng(1).random((9, 9))))
        rep = check_polya_szego(u, J_GRAD)
        assert rep.left == rep.right

    def test_1d_hand_sums(self):
        spec = make_grid(1, 5, 2.0)
        u = ScalarField(spec, [0, 3, 1, 0, 0])
        rep = check_polya_szego(u, J_GRAD)
        assert rep.right == pytest.approx(11.75, rel=1e-14)
        assert rep.left == pytest.approx(5.75, rel=1e-14)
        assert rep.passed and rep.slack > 0

    def test_batch_pass_rate_small_scale(self):
        spec = make_grid(2, 17, 4.0)
        rng = np.random.default_rng(9)
        for p in (1.5, 2.0, 3.0):
            jp = IntegrandJ(j=lambda s, b, p=p: b**p,
                            dj_ds=lambda s, b: np.zeros_like(s),
                            dj_db=lambda s, b, p=p: p * b ** (p - 1))
            for _ in range(20):
                rep = check_polya_szego(random_bump_field(spec, rng), jp)
                assert rep.passed


class TestLocalMonotonicity:
    def test_radius_free_term_exact_equality(self):
        F = LocalTermF(f=lambda r, s: s[0], df_ds=lambda r, s: [1.0],
                       growth_K=1.0, exponents_l=(0.5,))
        rng = np.random.default_rng(2)
        U = MultiField([ScalarField(SPEC_2D, rng.random((9, 9)))])
        for H in admissible_half_spaces(SPEC_2D)[::7]:
            rep = check_local_monotonicity(U, F, H)
            # value sums are permutation invariant up to summation order
            assert abs(rep.slack) <= 1e-12 and rep.passed

    def test_strict_increase_hand_value(self):
        spec = make_grid(1, 5, 2.0)
        F = LocalTermF(f=lambda r, s: np.exp(-r) * s[0],
                       df_ds=lambda r, s: [np.exp(-r)],
                       growth_K=1.0, exponents_l=(0.5,))
        U = MultiField([ScalarField(spec, [2.0, 0.0, 1.0, 0.0, 0.0])])
        rep = check_local_monotonicity(U, F, HalfSpace((1,), -1.0))
        assert rep.left == pytest.approx(2 * np.exp(-2.0) + 1.0, rel=1e-14)
        assert rep.right == pytest.approx(np.exp(-2.0) + 2.0, rel=1e-14)
        assert rep.passed and rep.slack > 0

    def test_fixed_point_equality(self):
        F = LocalTermF(f=lambda r, s: np.exp(-r) * s[0] ** 2,
                       df_ds=lambda r, s: [2 * np.exp(-r) * s[0]],
                       growth_K=1.0, exponents_l=(0.5,))
        u = schwarz(ScalarField(SPEC_2D,
                                np.random.default_rng(3).random((9, 9))))
        rep = check_local_monotonicity(MultiField([u]), F,
                                       HalfSpace((0, 1), -0.5))
        assert abs(rep.slack) <= 1e-12


class TestNonlocalMonotonicity:
    def test_random_fields_never_decrease(self):
        spec = make_grid(3, 7, 2.0)
        model = models.choquard(m=2, dim=3)
        mat = dense_kernel_matrix(model.V, spec)
        family = admissible_half_spaces(spec)
        rng = np.random.default_rng(4)
        for _ in range(5):
            U = MultiField([random_bump_field(spec, rng) for _ in range(2)])
            H = family[rng.integers(len(family))]
            rep = check_nonlocal_monotonicity(U, model, H)
            assert rep.passed
            assert rep.left == pytest.approx(dense_q(U, model, mat),
                                             rel=1e-12)
            assert rep.right == pytest.approx(
                dense_q(polarize_multi(U, H), model, mat), rel=1e-12)

    @pytest.mark.parametrize("dim,n", [(3, 17), (3, 33), (2, 65)])
    @pytest.mark.parametrize("name,m", [("choquard", 1),
                                        ("example_paper", 2)])
    def test_sides_are_eval_total_bits(self, dim, n, name, m):
        spec = make_grid(dim, n, 2.0)
        model = models.by_name(name, m=m, dim=dim)
        rng = np.random.default_rng(n)
        U = MultiField([random_bump_field(spec, rng) for _ in range(m)])
        family = admissible_half_spaces(spec)
        H = family[rng.integers(len(family))]
        rep = check_nonlocal_monotonicity(U, model, H)
        assert rep.left == -eval_total(U, model).E3
        assert rep.right == -eval_total(polarize_multi(U, H), model).E3

    def test_no_dense_matrix(self):
        # a 17^3 pairwise kernel matrix alone would take 193 MB
        spec = make_grid(3, 17, 2.0)
        model = models.choquard(m=1, dim=3)
        U = MultiField([random_bump_field(spec, np.random.default_rng(1))])
        H = HalfSpace((1, 0, 0), -0.5)
        tracemalloc.start()
        try:
            rep = check_nonlocal_monotonicity(U, model, H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed
        assert peak < 20 << 20

    def test_cli_grid(self):
        spec = make_grid(3, 33, 2.0)
        model = models.choquard(m=1, dim=3)
        U = MultiField([random_bump_field(spec, np.random.default_rng(2))])
        rep = check_nonlocal_monotonicity(U, model, HalfSpace((0, 1, -1), 0.0))
        assert rep.passed

    def test_fixed_point_exact(self):
        spec = make_grid(3, 9, 2.0)
        model = models.choquard(m=1, dim=3)
        # radial decreasing: the polarization leaves every value in place
        u = ScalarField(spec, np.exp(-spec.radii**2))
        rep = check_nonlocal_monotonicity(MultiField([u]), model,
                                          HalfSpace((1, 0, 0), -0.5))
        assert rep.slack == 0.0

    def test_model_without_nonlocal_term_rejected(self):
        spec = make_grid(3, 7, 2.0)
        U = MultiField([ScalarField(spec, np.exp(-spec.radii**2))])
        with pytest.raises(ValueError, match="no nonlocal term"):
            check_nonlocal_monotonicity(U, models.plaplace(),
                                        HalfSpace((1, 0, 0), -0.5))


class TestEquiintegrability:
    @given(nonneg_2d, st.sampled_from(admissible_half_spaces(SPEC_2D)))
    @settings(max_examples=30, deadline=None)
    def test_value_tails_invariant_bit_exact(self, vals, H):
        from polarmin.rearrange import polarize

        u = ScalarField(SPEC_2D, vals)
        prof = equiintegrability_profile(
            [u, polarize(u, H), schwarz(u)], 2.0,
            deltas=(0.25, 1.0), levels=(0.5, 2.0), radii=())
        assert np.ptp(prof.small_value, axis=0).max() == 0.0
        assert np.ptp(prof.large_value, axis=0).max() == 0.0

    def test_exterior_tail_shrinks_under_symmetrization(self):
        spec = make_grid(2, 17, 4.0)
        u = random_bump_field(spec, np.random.default_rng(6))
        prof = equiintegrability_profile([u, schwarz(u)], 2.0,
                                         deltas=(), levels=(), radii=(2.0,))
        assert prof.exterior[1, 0] <= prof.exterior[0, 0] + 1e-12
        assert prof.sup_exterior[0] == prof.exterior[:, 0].max()

    @given(st.lists(tail_field_2d, min_size=1, max_size=3),
           st.sampled_from([1.0, 1.5, 2.0]),
           st.lists(tail_threshold, max_size=3),
           st.lists(tail_threshold, max_size=3),
           st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_threshold_oracle(self, vals, r, deltas, levels,
                                          radii):
        fields = [ScalarField(SPEC_2D, v) for v in vals]
        prof = equiintegrability_profile(fields, r, deltas, levels, radii)
        small, large, ext = oracle_tails(fields, r, deltas, levels, radii)
        assert np.array_equal(prof.small_value, small)
        assert np.array_equal(prof.large_value, large)
        assert np.array_equal(prof.exterior, ext)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            equiintegrability_profile([], 2.0, (), (), ())
        a = ScalarField(make_grid(1, 5, 1.0), np.ones(5))
        b = ScalarField(make_grid(1, 7, 1.0), np.ones(7))
        with pytest.raises(ValueError, match="share one grid"):
            equiintegrability_profile([a, b], 2.0, (), (), ())
        with pytest.raises(ValueError, match="non-negative"):
            equiintegrability_profile([a], -1.0, (), (), ())
        with pytest.raises(ValueError, match="nan"):
            equiintegrability_profile([a], 2.0, (0.5, np.nan), (), ())


class TestPropertySuite:
    def test_suite_passes_and_reports(self):
        spec = make_grid(2, 17, 4.0)
        suite = run_property_suite(seed=0, trials=25, spec=spec)
        assert suite.passed
        assert suite.lines[0].check == "equimeasurability"
        assert all(ln.trials == 25 for ln in suite.lines)

    def test_deterministic_for_seed(self):
        spec = make_grid(2, 9, 2.0)
        a = run_property_suite(seed=3, trials=10, spec=spec)
        b = run_property_suite(seed=3, trials=10, spec=spec)
        assert repr(a) == repr(b)

    def test_tolerance_of_the_worst_trial(self):
        # the verify golden's run: polya_szego_tol's least slack comes from
        # trial 1, whose tolerance differs from trial 0's
        spec = make_grid(1, 9, 4.0)
        rows = oracle_trials(5, 3, spec)["polya_szego_tol"]
        slacks = [slack for _, slack, _ in rows]
        assert slacks.index(min(slacks)) == 1 and rows[0][2] != rows[1][2]
        line = run_property_suite(5, 3, spec).lines[-1]
        assert line.check == "polya_szego_tol"
        assert (line.worst_slack, line.tolerance) == rows[1][1:]

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            run_property_suite(0, 0, SPEC_2D)



def suite_bits(suite):
    """The lines of a suite with their floats as int64 bit patterns, and
    its counts."""
    return ([(ln.check, ln.trials, ln.passes,
              int(np.float64(ln.worst_slack).view(np.int64)),
              int(np.float64(ln.tolerance).view(np.int64)))
             for ln in suite.lines], suite.sorts, suite.magnitudes)


def suite_csv(tmp_path, name, trials, dim=2, n=9, half_width=2.0, seed=4):
    """suite.csv of a ``polarmin verify`` run, without its # line."""
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(f"dim = {dim}\nn = {n}\nhalf_width = {half_width}\n"
                   f"trials = {trials}\nseed = {seed}\n")
    out = tmp_path / name
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    return [ln for ln in (out / "suite.csv").read_text().splitlines()
            if not ln.startswith("#")]


def oracle_csv(tmp_path, trials, dim=2, n=9, half_width=2.0, seed=4):
    """The suite.csv lines that the oracle's suite gives, written as the
    CLI writes them."""
    path = tmp_path / "oracle.csv"
    cli.write_csv(path, [f.name for f in dataclasses.fields(SuiteLine)],
                  [dataclasses.astuple(ln) for ln in
                   oracle_suite(seed, trials, make_grid(dim, n, half_width))])
    return [ln for ln in path.read_text().splitlines()
            if not ln.startswith("#")]


class TestSuiteThreads:
    """The suite runs each round's second half on a worker thread; these
    pin that its lines, counts and errors are those of one thread."""

    @staticmethod
    def one_core(monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)

    def test_concurrent_suites_match_a_serial_run(self, monkeypatch):
        # four suites at once, more threads than cores, sharing the one
        # worker, on grid caches that start cold
        spec = make_grid(2, 13, 3.0)
        monkeypatch.setattr(verify, "_ROUND", 5)
        with monkeypatch.context() as m:
            self.one_core(m)
            reference = suite_bits(run_property_suite(2, 40, spec))
        rearrange._shape_rank.cache_clear()
        rearrange._strict_upper.cache_clear()
        results, errors = [None] * 4, []

        def run(k):
            try:
                results[k] = suite_bits(run_property_suite(2, 40, spec))
            except Exception as err:  # reported by the main thread
                errors.append(err)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert results == [reference] * 4

    @staticmethod
    def overflow_in_trials(monkeypatch, seed, trials, spec, indices):
        """Make eval_bumps give trial k of ``indices`` k + 1 values whose
        squares overflow, so that the suite's error names the trial: the
        sorted squares put the infinities last.  eval_bumps knows a trial
        by the width of its first bump."""
        rng = np.random.default_rng(seed)
        family = admissible_half_spaces(spec)
        widths = []
        for _ in range(trials):
            widths.append(bump_params(rng, spec.dim, spec.half_width)[0][1])
            rng.integers(len(family))
        real = verify.eval_bumps

        def eval_bumps(spec, params):
            u = real(spec, params)
            for k in indices:
                if params[0][1] == widths[k]:
                    u.values.flat[:k + 1] = 1e200
            return u

        monkeypatch.setattr(verify, "eval_bumps", eval_bumps)

    @staticmethod
    def threads_with_worker():
        """The live thread count once the package's worker, which lives as
        long as the process, has started: a suite adds no thread to it."""
        _worker._executor().submit(int).result()
        return threading.active_count()

    def suite_error(self, monkeypatch, one_core, seed, trials, spec):
        with monkeypatch.context() as m:
            if one_core:
                self.one_core(m)
            with pytest.raises(ValueError) as err:
                run_property_suite(seed, trials, spec)
        return str(err.value)

    # 6 trials make one round: trials 0-2 run on the calling thread and
    # 3-5 on the worker
    @pytest.mark.filterwarnings("ignore:overflow encountered in square")
    @pytest.mark.parametrize("indices", [(4,), (1, 4), (4, 5)],
                             ids=["worker", "both-halves", "worker-twice"])
    def test_first_failing_trial_raises(self, monkeypatch, indices):
        spec = make_grid(2, 9, 2.0)
        self.overflow_in_trials(monkeypatch, 4, 6, spec, indices)
        baseline = self.threads_with_worker()
        threaded = self.suite_error(monkeypatch, False, 4, 6, spec)
        assert threading.active_count() == baseline
        serial = self.suite_error(monkeypatch, True, 4, 6, spec)
        first = indices[0]
        assert threaded == serial == (
            f"integrand produced non-finite value at ({81 - first - 1},)")

    @pytest.mark.filterwarnings("ignore:overflow encountered in square")
    def test_cli_exits_2_on_a_worker_error(self, monkeypatch, tmp_path,
                                           capsys):
        spec = make_grid(2, 9, 2.0)
        self.overflow_in_trials(monkeypatch, 4, 6, spec, (4,))
        baseline = self.threads_with_worker()
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("dim = 2\nn = 9\nhalf_width = 2.0\ntrials = 6\n"
                       "seed = 4\n")
        assert cli.main(["verify", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "non-finite value at (76,)" in err and "Traceback" not in err
        assert threading.active_count() == baseline

    # one core runs every round on the calling thread; rounds of 5 split
    # 3 + 2, and 101 trials end with a round of 1
    @pytest.mark.parametrize("mode", ["one-core", "rounds-of-5"])
    @pytest.mark.parametrize("trials", [1, 2, 3, 101])
    def test_suite_csv_matches_oracle(self, monkeypatch, tmp_path, mode,
                                      trials):
        if mode == "one-core":
            self.one_core(monkeypatch)
        else:
            monkeypatch.setattr(verify, "_ROUND", 5)
        assert suite_csv(tmp_path, mode, trials) == oracle_csv(tmp_path,
                                                               trials)

    def test_benchmark_config_same_bytes_on_one_core(self, monkeypatch,
                                                      tmp_path):
        # the benchmark's verify run with one trial more: rounds of 64 and
        # 37, the second split 19 + 18
        config = dict(trials=101, dim=3, n=33, half_width=4.0, seed=0)
        threaded = suite_csv(tmp_path, "threads", **config)
        with monkeypatch.context() as m:
            self.one_core(m)
            assert suite_csv(tmp_path, "one", **config) == threaded
        tolerances = {row.split(",")[0]: row.split(",")[-1]
                      for row in threaded[1:]}
        assert tolerances["gradient_invariance_tol"] == "29.528049182099611"
        assert tolerances["polya_szego_tol"] == "11.032429592006384"


def test_grad_tol_scaling():
    assert grad_tol(0.25, 0.0) == pytest.approx(0.5)
    assert grad_tol(0.25, 3.0) == pytest.approx(2.0)


def test_random_bump_fields_positive_and_reproducible():
    spec = make_grid(2, 17, 4.0)
    a = random_bump_field(spec, np.random.default_rng(8))
    b = random_bump_field(spec, np.random.default_rng(8))
    assert np.array_equal(a.values, b.values)
    assert np.all(a.values >= 0.0) and a.values.max() > 0.0
