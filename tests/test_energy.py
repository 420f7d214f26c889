import dataclasses
import gc
import os
import signal
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from scipy.fft import irfftn, next_fast_len, rfftn

from polarmin import _worker, energy, models
from polarmin.energy import (CouplingG, EnergyModel, IntegrandJ, LocalTermF,
                             check_assumptions, discrete_gradient, eval_total,
                             kernel_convolve, kernel_transform, origin_value,
                             sample_kernel)
from polarmin.grid import (MultiField, ScalarField, gradient_components,
                           lp_norm, make_grid)

import oracles
from oracles import (STENCIL_HALF_WIDTH, STENCIL_POINTS, dense_kernel_matrix,
                     dense_q, dense_sum, same_bits, stencil_field, views)

# cell average of 1/|x| over [-h/2, h/2]^3 equals this constant divided by h
# (frozen from the 16-point midpoint rule; scale-invariant in h)
COULOMB_CELL_CONSTANT = 2.378989717815892

J_DIRICHLET = IntegrandJ(j=lambda s, b: b**2,
                         dj_ds=lambda s, b: np.zeros_like(np.asarray(s, float)),
                         dj_db=lambda s, b: 2.0 * b)


def coulomb(r):
    return 1.0 / r


def e1_only_model(p=2.0):
    return EnergyModel(p=p, js=[J_DIRICHLET])


class TestE1:
    def test_constant_field_zero(self):
        spec = make_grid(2, 9, 2.0)
        U = MultiField([ScalarField(spec, np.full(spec.shape, 4.2))])
        assert eval_total(U, e1_only_model()).E1 == 0.0

    def test_linear_1d_hand_sum(self):
        spec = make_grid(1, 5, 2.0)
        U = MultiField([ScalarField(spec, spec.axis_coords + 2.0)])
        # derivative is exactly 1 at every point (one-sided faces included)
        assert eval_total(U, e1_only_model()).E1 == pytest.approx(
            5.0, rel=1e-15)

    def test_component_count_checked(self):
        spec = make_grid(1, 5, 2.0)
        U = MultiField([ScalarField(spec, np.zeros(5))] * 2)
        with pytest.raises(ValueError, match="component count"):
            eval_total(U, e1_only_model())


class TestE2:
    def test_no_local_term(self):
        spec = make_grid(1, 5, 2.0)
        U = MultiField([ScalarField(spec, np.ones(5))])
        assert eval_total(U, e1_only_model()).E2 == 0.0

    def test_power_local_term_matches_norm(self):
        spec = make_grid(1, 9, 3.0)
        rng = np.random.default_rng(0)
        u = ScalarField(spec, rng.random(9))
        p = 2.0
        F = LocalTermF(f=lambda r, s: s[0] ** p,
                       df_ds=lambda r, s: [p * s[0] ** (p - 1)],
                       growth_K=1.0, exponents_l=(0.5,))
        model = EnergyModel(p=p, js=[J_DIRICHLET], F=F)
        assert eval_total(MultiField([u]), model).E2 == pytest.approx(
            -lp_norm(u, p) ** p, rel=1e-13)

    def test_weighted_local_term_hand_sum(self):
        spec = make_grid(1, 5, 2.0)
        u = ScalarField(spec, [0.0, 2.0, 1.0, 0.5, 0.0])
        F = LocalTermF(f=lambda r, s: np.exp(-r) * s[0],
                       df_ds=lambda r, s: [np.exp(-r)],
                       growth_K=1.0, exponents_l=(0.5,))
        model = EnergyModel(p=2.0, js=[J_DIRICHLET], F=F)
        expected = -sum(np.exp(-abs(x)) * v
                        for x, v in zip(spec.axis_coords, u.values))
        assert eval_total(MultiField([u]), model).E2 == pytest.approx(
            expected, rel=1e-14)


class TestKernel:
    # circulant layout along an axis of length M: index q holds offset q for
    # q < n and q - M for q > M - n; n = 17 gives M = 32 = 2n - 2, so no
    # index is unused and offsets 16 and -16 share index 16
    def test_constant_kernel(self):
        spec = make_grid(2, 17, 1.0)
        # the cell average of ones, the zero offset's value, is exactly 1.0
        V = np.ones_like
        k = sample_kernel(V, spec)
        assert k.shape == (32, 32)
        assert np.all(k == 1.0)

    def test_coulomb_origin_cell_average(self):
        for n, L in ((5, 2.0), (9, 2.0)):
            spec = make_grid(3, n, L)
            V = coulomb
            assert origin_value(V, spec) == pytest.approx(
                COULOMB_CELL_CONSTANT / spec.h, rel=1e-12)

    def test_sampled_coulomb_non_increasing_in_radius(self):
        spec = make_grid(3, 5, 2.0)
        V = coulomb
        k = sample_kernel(V, spec)
        size = k.shape[0]
        d = np.r_[0:5, -4:0]
        r2 = (d[:, None, None] ** 2 + d[None, :, None] ** 2
              + d[None, None, :] ** 2).ravel()
        v = k[np.ix_(*[d % size] * 3)].ravel()
        order = np.argsort(r2, kind="stable")
        assert np.all(np.diff(v[order]) <= 1e-12)

    # h = 3.7/49, 3.7/6 and 3.7/4 are not powers of 2, so offsets h*d would
    # round differently from the padded grid's coordinates
    @pytest.mark.parametrize("dim,n", [(1, 99), (2, 13), (3, 9)])
    def test_bits_of_padded_grid_radii(self, dim, n):
        spec = make_grid(dim, n, 3.7)
        padded = make_grid(dim, 2 * n - 1, 7.4)
        V = coulomb
        k = sample_kernel(V, spec)
        # k holds offset d at d mod M, sampled at the radius of |d|: padded
        # index n - 1 + |d|
        d = np.r_[0:n, 1 - n:0]
        src = n - 1 + np.abs(d)
        dst = d % k.shape[0]
        with np.errstate(divide="ignore"):  # the padded centre may be 0
            expected = V(padded.radii[np.ix_(*[src] * dim)])
        expected[(0,) * dim] = origin_value(V, spec)
        assert np.array_equal(k[np.ix_(*[dst] * dim)], expected)

    # n = 17 gives M = 2n - 2, where offsets +-(n - 1) share an index;
    # n = 99 gives M = 200; h = 3.7/8 and 3.7/49 are not powers of 2
    @pytest.mark.parametrize("n", [17, 99])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_even_along_each_axis(self, dim, n):
        spec = make_grid(dim, n, 3.7)
        k = sample_kernel(coulomb, spec)
        size = k.shape[0]
        assert size == {17: 32, 99: 200}[n]
        for axis in range(dim):
            bits = np.moveaxis(k, axis, 0).view(np.int64)
            for q in range(size):
                assert np.array_equal(bits[q], bits[(size - q) % size])

    # n = 99 at L = 2: the centre coordinate is -2.2e-16, not 0
    @pytest.mark.parametrize("dim,n", [(1, 99), (2, 9), (3, 5)])
    def test_origin_entry_is_origin_value(self, dim, n):
        spec = make_grid(dim, n, 2.0)
        V = coulomb
        assert sample_kernel(V, spec)[(0,) * dim] == origin_value(V, spec)


class TestNonlocalOperator:
    # n = 3, 9, 13, 17: next_fast_len(2n - 2) == 2n - 2, so offsets
    # +-(n - 1) share an index, which only an even kernel gets right;
    # n = 99, 197: it is larger.  The 17^3 pairwise sum needs a 190 MB
    # matrix and is left out.
    # 1D n = 99 and 197 at L = 2: the centre coordinate is within an ulp of
    # 0, not 0, so the zero offset must be found by index.
    @pytest.mark.parametrize("dim,n", [(d, n) for d in (1, 2, 3)
                                       for n in (3, 9, 13, 17)
                                       if (d, n) != (3, 17)]
                             + [(1, 99), (1, 197)])
    def test_matches_dense_sum(self, dim, n):
        spec = make_grid(dim, n, 2.0)
        V = coulomb
        g = np.random.default_rng(n).random(spec.shape)
        expected = dense_sum(g, V, spec)
        kernel_hat = kernel_transform(V, spec)
        size = next_fast_len(2 * n - 2, real=True)
        assert kernel_hat.shape == (size,) * (dim - 1) + (size // 2 + 1,)
        got = kernel_convolve(g, kernel_hat)
        assert got.shape == spec.shape
        assert np.max(np.abs(got - expected)) <= (
            1e-12 * np.max(np.abs(expected)))

    def test_cache_hit_and_bounded(self):
        V = models.choquard(m=1, dim=3).V
        spec = make_grid(3, 5, 2.0)
        assert kernel_transform(V, spec) is kernel_transform(V, spec)
        for n in (3, 5, 7, 9, 11, 13, 15):
            kernel_transform(V, make_grid(2, n, 2.0))
            info = kernel_transform.cache_info()
            assert info.maxsize == 4 and info.currsize <= 4

    def test_catalogue_models_share_one_transform(self):
        # every example_paper() model holds the one module-level Coulomb
        # kernel, so five models on one grid sample and transform it once
        spec = make_grid(3, 17, 2.0)
        U = MultiField([ScalarField(spec, np.ones(spec.shape))])
        kernel_transform.cache_clear()
        for _ in range(5):
            eval_total(U, models.example_paper(m=1, dim=3))
        info = kernel_transform.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 4, 1)

    def test_two_kernels_two_entries(self):
        spec = make_grid(2, 9, 2.0)
        kernel_transform.cache_clear()
        a = kernel_transform(coulomb, spec)
        b = kernel_transform(np.ones_like, spec)
        info = kernel_transform.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        assert not np.array_equal(a, b)

    def test_transform_read_only(self):
        kernel_hat = kernel_transform(coulomb, make_grid(1, 9, 2.0))
        with pytest.raises(ValueError):
            kernel_hat[0] = 0.0


# the TestNonlocalOperator grids, plus 3D n=17 and n=33; 3D n=33 and 2D
# n=193 and n=257 lie above energy._SPLIT_MIN, so on two cores their passes
# run in halves
SCIPY_ORACLE_GRIDS = [(d, n) for d in (1, 2, 3) for n in (3, 9, 13, 17)] + [
    (1, 99), (1, 197), (2, 193), (2, 257), (3, 33)]


class TestScipyOracle:
    """The numpy transforms give the bits of the scipy.fft calls they
    replace."""

    @staticmethod
    def assert_same_bits(got, expected):
        assert got.shape == expected.shape and got.flags.c_contiguous
        for a, b in ((got.real, expected.real), (got.imag, expected.imag)):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))

    def test_fast_len_is_next_fast_len(self):
        assert [energy._fast_len(t) for t in range(1, 5001)] == [
            next_fast_len(t, real=True) for t in range(1, 5001)]

    @pytest.mark.parametrize("dim,n", SCIPY_ORACLE_GRIDS)
    def test_fft_convolution_bits(self, dim, n):
        spec = make_grid(dim, n, 2.0)
        V = models.choquard(m=1, dim=dim).V
        kernel_hat = kernel_transform(V, spec)
        self.assert_same_bits(kernel_hat, rfftn(sample_kernel(V, spec)))
        shape = (next_fast_len(2 * n - 2, real=True),) * dim
        rng = np.random.default_rng(n)
        # the clamped field has exact zeros, as minimize's iterates do
        for g in (rng.random(spec.shape),
                  np.maximum(rng.random(spec.shape) - 0.5, 0.0)):
            full = irfftn(rfftn(g, shape) * kernel_hat, shape)
            self.assert_same_bits(kernel_convolve(g, kernel_hat),
                                  full[tuple(slice(n) for _ in range(dim))])


def convolution_case(dim, n):
    spec = make_grid(dim, n, 2.0)
    kernel_hat = kernel_transform(models.choquard(m=1, dim=dim).V, spec)
    rng = np.random.default_rng(n)
    return np.maximum(rng.random(spec.shape) - 0.5, 0.0), kernel_hat


# grids whose spectra lie below and above energy._SPLIT_MIN
SPLIT_GRIDS = [(3, 17), (2, 129), (2, 193), (2, 257), (3, 33)]


class TestSplitConvolution:
    """kernel_convolve runs its passes in halves on the package's worker
    thread above energy._SPLIT_MIN; these pin that it gives the bits of one
    core, never waits for itself, and keeps one pair of work arrays per
    thread."""

    @staticmethod
    def cores(monkeypatch, count):
        monkeypatch.setattr(_worker, "cores", lambda: count)

    @staticmethod
    def serial(monkeypatch, g, kernel_hat):
        with monkeypatch.context() as m:
            TestSplitConvolution.cores(m, 1)
            return kernel_convolve(g, kernel_hat)

    @staticmethod
    def worker_takes_second_half(monkeypatch):
        """Make every split of in_halves run its second half on the worker:
        the first half waits until the worker has started the second.
        Returns the set of threads that ran a half."""
        threads = set()
        real = _worker.in_halves

        def in_halves(fn, extent):
            started = threading.Event()

            def spy(part):
                threads.add(threading.get_ident())
                if part.start == 0:
                    assert started.wait(timeout=60)
                else:
                    started.set()
                return fn(part)

            return real(spy, extent)

        monkeypatch.setattr(_worker, "in_halves", in_halves)
        return threads

    @pytest.mark.parametrize("dim,n", SPLIT_GRIDS)
    def test_one_and_two_cores_same_bits(self, monkeypatch, dim, n):
        g, kernel_hat = convolution_case(dim, n)
        serial = self.serial(monkeypatch, g, kernel_hat)
        self.cores(monkeypatch, 2)
        threads = self.worker_takes_second_half(monkeypatch)
        assert same_bits(kernel_convolve(g, kernel_hat), serial)
        split = kernel_hat.size >= energy._SPLIT_MIN
        assert len(threads) == (2 if split else 0)

    def test_unstarted_half_runs_on_the_caller(self, monkeypatch):
        self.cores(monkeypatch, 2)
        release = threading.Event()
        busy = _worker._executor().submit(release.wait, 60)
        try:
            threads = []
            assert _worker.in_halves(
                lambda part: threads.append(threading.get_ident()) or part,
                5) == [slice(0, 3), slice(3, 5)]
            assert threads == [threading.get_ident()] * 2
        finally:
            release.set()
        assert busy.result(timeout=60)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_makes_its_own_worker(self, monkeypatch):
        self.cores(monkeypatch, 2)
        _worker._executor().submit(int).result()  # the parent's worker
        pid = os.fork()
        if pid == 0:  # the child: exit 0 only if its halves ran
            signal.alarm(60)
            threads = set()
            started = threading.Event()

            def fn(part):
                threads.add(threading.get_ident())
                if part.start == 0:
                    started.wait(timeout=30)
                else:
                    started.set()
                return part

            ok = (_worker.in_halves(fn, 4) == [slice(0, 2), slice(2, 4)]
                  and len(threads) == 2)
            os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_call_from_the_worker_runs_inline(self, monkeypatch):
        g, kernel_hat = convolution_case(3, 33)
        serial = self.serial(monkeypatch, g, kernel_hat)
        self.cores(monkeypatch, 2)
        got = _worker._executor().submit(kernel_convolve, g, kernel_hat)
        assert same_bits(got.result(timeout=60), serial)

    def test_four_threads_at_once(self, monkeypatch):
        cases = [convolution_case(*grid) for grid in ((2, 257), (3, 33))]
        serial = [self.serial(monkeypatch, *case) for case in cases]
        self.cores(monkeypatch, 2)
        results, errors = {}, []

        def run(k):
            try:
                for rep in range(3):
                    for i, case in enumerate(cases):
                        results[k, rep, i] = kernel_convolve(*case)
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
        assert len(results) == 24
        for (k, rep, i), got in results.items():
            assert same_bits(got, serial[i])

    @pytest.mark.parametrize("raising", [0, 1])
    def test_error_raised_after_both_halves(self, monkeypatch, raising):
        # both halves run, the second on the worker; the half that raises
        # does so while the other is still running
        self.cores(monkeypatch, 2)
        started, finished = threading.Event(), []

        def fn(part):
            half = int(part.start != 0)
            if half == 0:
                assert started.wait(timeout=60)
            else:
                started.set()
            if half == raising:
                raise ValueError(f"half {half}")
            time.sleep(0.05)
            finished.append(half)

        with pytest.raises(ValueError, match=f"^half {raising}$"):
            _worker.in_halves(fn, 10)
        assert finished == [1 - raising]

    def test_first_half_error_wins(self, monkeypatch):
        self.cores(monkeypatch, 2)
        started = threading.Event()

        def fn(part):
            if part.start == 0:
                assert started.wait(timeout=60)
                time.sleep(0.05)  # the worker's half raises first
            else:
                started.set()
            raise ValueError(f"from {part.start}")

        with pytest.raises(ValueError, match="^from 0$"):
            _worker.in_halves(fn, 4)

    def test_work_arrays_per_thread_replaced_per_grid(self):
        small, large = convolution_case(3, 9), convolution_case(2, 17)
        kernel_convolve(*small)
        work = energy._local.work
        kernel_convolve(*small)
        assert energy._local.work is work
        gone = [weakref.ref(a) for a in work]
        del work
        kernel_convolve(*large)
        gc.collect()
        assert [ref() for ref in gone] == [None, None]
        assert [a.shape for a in energy._local.work] == [(32, 17)] * 2

        other = []
        thread = threading.Thread(
            target=lambda: (kernel_convolve(*small),
                            other.extend(energy._local.work)))
        thread.start()
        thread.join()
        assert [a.shape for a in other] == [(16, 16, 9)] * 2
        assert not any(a is b for a in other for b in energy._local.work)


class TestNonlocal:
    def test_fft_matches_direct_small(self):
        spec = make_grid(3, 7, 2.0)
        model = models.choquard(m=1, dim=3)
        rng = np.random.default_rng(4)
        U = MultiField([ScalarField(spec, rng.random(spec.shape))])
        qf = eval_total(U, model).E3
        qd = -dense_q(U, model, dense_kernel_matrix(model.V, spec))
        assert qf == pytest.approx(qd, rel=1e-12)

    def test_point_mass_hand_value(self):
        spec = make_grid(3, 5, 2.0)
        vals = np.zeros(spec.shape)
        vals[2, 2, 2] = 1.0
        U = MultiField([ScalarField(spec, vals)])
        model = models.choquard(m=1, dim=3)
        v0 = COULOMB_CELL_CONSTANT / spec.h
        assert eval_total(U, model).E3 == pytest.approx(
            -v0 * spec.cell_volume**2, rel=1e-12)

    def test_no_coupling_is_zero(self):
        spec = make_grid(1, 5, 2.0)
        U = MultiField([ScalarField(spec, np.ones(5))])
        assert eval_total(U, e1_only_model()).E3 == 0.0


class TestEvalTotal:
    def test_e1_only(self):
        spec = make_grid(1, 9, 2.0)
        rng = np.random.default_rng(1)
        U = MultiField([ScalarField(spec, rng.random(9))])
        bk = eval_total(U, e1_only_model())
        assert bk.E2 == 0.0 and bk.E3 == 0.0
        assert bk.total == bk.E1

    def test_terms_match_independent_sums(self):
        # E1 from the stencils by hand, E2 pointwise, E3 through the
        # explicit pairwise kernel sum of dense_sum
        spec = make_grid(3, 7, 2.0)
        F = LocalTermF(f=lambda r, s: np.exp(-r) * (s[0] ** 2 + s[0] * s[1]),
                       df_ds=None, growth_K=1.0, exponents_l=(1.0, 1.0))
        model = dataclasses.replace(models.example_paper(m=2, dim=3), F=F)
        rng = np.random.default_rng(2)
        U = MultiField([ScalarField(spec, rng.random(spec.shape))
                        for _ in range(2)])
        hN = spec.cell_volume
        e1 = 0.0
        for comp, integrand in zip(U.components, model.js):
            b = np.sqrt(sum(d * d for d in gradient_components(comp)))
            e1 += hN * float(np.sum(integrand.j(comp.values, b)))
        vals = [c.values for c in U.components]
        e2 = -hN * float(np.sum(F.f(spec.radii, vals)))
        g = vals[0] ** 2 + vals[1] ** 2
        e3 = -hN**2 * float(np.sum(g * dense_sum(g, model.V, spec)))
        bk = eval_total(U, model)
        assert bk.E1 == pytest.approx(e1, rel=1e-13)
        assert bk.E2 == pytest.approx(e2, rel=1e-13)
        assert bk.E3 == pytest.approx(e3, rel=1e-12)
        assert bk.total == bk.E1 + bk.E2 + bk.E3

    # log(0) = -inf is the non-finite value under test
    @pytest.mark.filterwarnings(
        "ignore:divide by zero encountered in log:RuntimeWarning")
    def test_non_finite_integrand_reported(self):
        spec = make_grid(1, 5, 2.0)
        bad = EnergyModel(p=2.0, js=[IntegrandJ(
            j=lambda s, b: np.log(s), dj_ds=None, dj_db=None)])
        U = MultiField([ScalarField(spec, np.zeros(5))])
        with pytest.raises(ValueError, match="non-finite"):
            eval_total(U, bad)


class TestStencilOracle:
    @pytest.mark.parametrize("n", STENCIL_POINTS)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_discrete_gradient_bits(self, dim, n, monkeypatch):
        # the same gradient through the moved-axis stencils of the oracles,
        # bit for bit, zero signs included, also from non-contiguous views
        spec = make_grid(dim, n, STENCIL_HALF_WIDTH)
        rng = np.random.default_rng(dim * n)
        model = models.example_paper(m=2, dim=dim)
        vals = [stencil_field(spec, rng) for _ in range(2)]
        fields = [MultiField([ScalarField(spec, v), ScalarField(spec, w)])
                  for v, w in zip(views(vals[0]), views(vals[1]))]
        got = [discrete_gradient(U, model, eval_total(U, model))
               for U in fields]
        monkeypatch.setattr(energy, "gradient_components",
                            oracles.gradient_components)
        monkeypatch.setattr(energy, "axis_derivative_adjoint",
                            oracles.axis_derivative_adjoint)
        for U, G in zip(fields, got):
            expected = discrete_gradient(U, model, eval_total(U, model))
            for c, e in zip(G.components, expected.components):
                assert same_bits(c.values, e.values)


class TestModelValidation:
    def test_g_and_v_must_pair(self):
        G = CouplingG(g=lambda s: s[0] ** 2, dg_ds=lambda s: [2 * s[0]],
                      growth_K=1.0, exponents_mu=(2.0,))
        with pytest.raises(ValueError, match="configured together"):
            EnergyModel(p=2.0, js=[J_DIRICHLET], G=G)

    def test_catalogue_lookup(self):
        assert models.by_name("plaplace", m=2).m == 2
        with pytest.raises(KeyError):
            models.by_name("does_not_exist")


PASSED = [(f"{name}[{i}]", True, "None") for i in (0, 1)
          for name in ("J0", "J1", "J2")]

# (name, passed, repr(witness)) of check_assumptions(model, 300, 11): the
# sampled points and the order of the rng draws (numpy 2 scalar reprs)
PINNED_CHECKS = {
    "nonmonotone_g": PASSED + [
        ("G0", False, "(np.float64(0.597695660907632), "
                      "np.float64(-1.3259842413983016))"),
        ("G1", False, "(np.float64(0.7535419849340027), "
                      "np.float64(2.745429045108856))"),
        ("G3", True, "None"),
        ("G4", False, "('monotone', (np.float64(0.6056073146600113), "
                      "np.float64(1.3897254289667458)), "
                      "np.float64(0.31926279934053503), 1)"),
    ],
    "nonsupermodular_f": PASSED + [
        ("F0", False, "(3.638623216987544, (np.float64(1.2706975417011357), "
                      "np.float64(-2.2192966327431565)))"),
        ("F1", False, "(4.555059692125297, (np.float64(1.7856912726483314), "
                      "np.float64(2.6883881118041795)))"),
        ("F3", False, "('s-supermod', 3.7313290021768446, "
                      "(np.float64(2.6650692717769515), "
                      "np.float64(2.4246419858608053)), "
                      "np.float64(1.4622126337252856), "
                      "np.float64(1.1992318869692107), 1, 0)"),
    ],
}


class TestAssumptions:
    def test_example_model_passes(self):
        rep = check_assumptions(models.example_paper(m=2, dim=3), 300, 11)
        assert rep.passed, rep.failures()

    def test_negative_control_nonmonotone_g(self):
        rep = check_assumptions(models.nonmonotone_g(dim=3), 300, 11)
        names = {c.name for c in rep.failures()}
        assert "G4" in names
        for c in rep.failures():
            assert c.witness is not None

    def test_negative_control_nonsupermodular_f(self):
        rep = check_assumptions(models.nonsupermodular_f(dim=3), 300, 11)
        names = {c.name for c in rep.failures()}
        assert "F1" in names and "F3" in names

    @pytest.mark.parametrize("name", sorted(PINNED_CHECKS))
    def test_negative_control_witnesses_pinned(self, name):
        rep = check_assumptions(models.by_name(name, dim=3), 300, 11)
        assert [(c.name, c.passed, repr(c.witness))
                for c in rep.checks] == PINNED_CHECKS[name]

    def test_deterministic_by_seed(self):
        a = check_assumptions(models.nonmonotone_g(dim=3), 200, 3)
        b = check_assumptions(models.nonmonotone_g(dim=3), 200, 3)
        assert [(c.name, c.passed, repr(c.witness)) for c in a.checks] == \
               [(c.name, c.passed, repr(c.witness)) for c in b.checks]

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            check_assumptions(models.plaplace(), 0, 0)

    @staticmethod
    def local_model(weight, f2_triple=None):
        """m = 1 and F(r, s) = weight(r) s^2: F3's radius/value inequality
        holds exactly when weight is non-increasing."""
        F = LocalTermF(f=lambda r, s: weight(r) * s[0]**2,
                       df_ds=lambda r, s: [2.0 * weight(r) * s[0]],
                       growth_K=1.0, exponents_l=(1.0,), f2_triple=f2_triple)
        return EnergyModel(p=2.0, js=[J_DIRICHLET], F=F)

    def test_f2_sampled_from_triple(self):
        # e^-r s^2 <= eps s^2 for all r >= R0 exactly when e^-R0 <= eps
        ok = check_assumptions(self.local_model(decaying, (1e-2, 5.0, 1.0)),
                               300, 11)
        assert ok.passed, ok.failures()
        assert "F2" in {c.name for c in ok.checks}
        bad = check_assumptions(self.local_model(decaying, (1e-3, 1.0, 1.0)),
                                300, 11)
        [f2] = bad.failures()
        assert f2.name == "F2"
        r, (s,) = f2.witness
        assert r >= 1.0 and 0.0 <= s <= 1.0
        assert decaying(r) * s**2 > 1e-3 * s**2

    def test_f3_radius_value_inequality(self):
        ok = check_assumptions(self.local_model(decaying), 300, 11)
        assert ok.passed, ok.failures()
        assert "F3" in {c.name for c in ok.checks}
        bad = check_assumptions(self.local_model(growing), 300, 11)
        [f3] = bad.failures()
        assert f3.name == "F3"
        kind, r, R, (y,), hh, i = f3.witness
        assert kind == "r-supermod" and i == 0 and R >= r
        assert (growing(r) * (y + hh)**2 + growing(R) * y**2
                < growing(R) * (y + hh)**2 + growing(r) * y**2)


def decaying(r):
    return np.exp(-r)


def growing(r):
    return 1.0 - np.exp(-r)
