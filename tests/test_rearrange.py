import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polarmin.grid import MultiField, ScalarField, lp_norm, make_grid
from polarmin.rearrange import (ConvergenceTrace, HalfSpace,
                                PolarizationSchedule, admissible_half_spaces,
                                canonical_order, iterate_polarizations,
                                polarize, polarize_multi, reflect, schwarz, schwarz_multi,
                                symmetry_deficit)

SPEC_1D = make_grid(1, 5, 2.0)
SPEC_2D = make_grid(2, 9, 2.0)
SPEC_3D = make_grid(3, 7, 2.0)

nonneg_1d = arrays(np.float64, (5,), elements=st.floats(0.0, 5.0))
nonneg_2d = arrays(np.float64, (9, 9), elements=st.floats(0.0, 5.0))


def hs_strategy(spec):
    family = admissible_half_spaces(spec)
    return st.sampled_from(family)


# Independent oracle: reflect every grid point in floating point,
# x - 2 (x.e - t) e, and round the image back to the lattice.
def oracle_tables(spec, H):
    """(partner, in_h, out_h) over flat indices; partner -1 off the box."""
    h, n = spec.h, spec.points_per_axis
    c = (n - 1) // 2
    x = (np.indices(spec.shape).reshape(spec.dim, -1).T - c) * h
    e = np.array(H.normal, dtype=float)
    e /= np.linalg.norm(e)
    side = x @ e - H.offset
    ir = (x - 2.0 * np.outer(side, e)) / h + c
    ir_round = np.rint(ir).astype(np.int64)
    assert np.allclose(ir, ir_round, rtol=0.0, atol=1e-9)
    valid = np.all((ir_round >= 0) & (ir_round < n), axis=1)
    partner = np.full(len(x), -1, dtype=np.int64)
    partner[valid] = np.ravel_multi_index(tuple(ir_round[valid].T),
                                          spec.shape)
    return partner, side > 1e-9 * h, side < -1e-9 * h


def oracle_polarize(vals, H, spec):
    partner, in_h, out_h = oracle_tables(spec, H)
    u = vals.ravel()
    out = u.copy()
    sel = in_h & (partner >= 0)
    out[sel] = np.maximum(u[sel], u[partner[sel]])
    sel = out_h & (partner >= 0)
    out[sel] = np.minimum(u[sel], u[partner[sel]])
    return out.reshape(spec.shape)




class TestHalfSpace:
    def test_origin_must_be_inside(self):
        with pytest.raises(ValueError, match="origin"):
            HalfSpace((1,), 0.5)

    def test_normal_shape(self):
        with pytest.raises(ValueError, match="not grid-compatible"):
            HalfSpace((1, 1, 1), 0.0)
        with pytest.raises(ValueError, match="not grid-compatible"):
            HalfSpace((2, 0), 0.0)
        with pytest.raises(ValueError, match="not grid-compatible"):
            HalfSpace((0, 0), 0.0)

    def test_family_contains_axes_and_diagonals(self):
        family = admissible_half_spaces(SPEC_2D)
        normals = {H.normal for H in family}
        assert (1, 0) in normals and (0, -1) in normals
        assert (1, 1) in normals and (1, -1) in normals
        assert all(H.offset <= 0 for H in family)


class TestReflect:
    def test_1d_mirror(self):
        H = HalfSpace((1,), 0.0)
        assert reflect(SPEC_1D, H, (3,)) == (1,)  # x=1 -> x=-1

    def test_boundary_fixed(self):
        H = HalfSpace((1,), 0.0)
        assert reflect(SPEC_1D, H, (2,)) == (2,)

    def test_2d_diagonal_swaps_indices(self):
        H = HalfSpace((1, -1), 0.0)
        assert reflect(SPEC_2D, H, (2, 6)) == (6, 2)
        assert reflect(SPEC_2D, H, (4, 4)) == (4, 4)

    def test_out_of_box_reflection_rejected(self):
        H = HalfSpace((1,), -1.0)
        with pytest.raises(ValueError, match="outside the box"):
            reflect(SPEC_1D, H, (4,))  # x=2 -> x=-4

    @given(nonneg_2d, hs_strategy(SPEC_2D))
    @settings(max_examples=30, deadline=None)
    def test_involution(self, vals, H):
        u = ScalarField(SPEC_2D, vals)
        uhh = polarize(polarize(u, H), H)
        uh = polarize(u, H)
        assert np.array_equal(uh.values, uhh.values)


class TestPolarize:
    def test_hand_example(self):
        u = ScalarField(SPEC_1D, [0, 3, 1, 0, 0])
        uh = polarize(u, HalfSpace((1,), 0.0))
        assert np.array_equal(uh.values, [0, 0, 1, 3, 0])

    def test_negative_values_rejected(self):
        u = ScalarField(SPEC_1D, [0, -1, 0, 0, 0])
        with pytest.raises(ValueError, match="non-negative"):
            polarize(u, HalfSpace((1,), 0.0))

    def test_radial_decreasing_field_is_fixed_point(self):
        # equal-radius points must carry equal values: a generic rearranged
        # field can still be reshuffled within tie shells of the lattice
        u = ScalarField(SPEC_2D, np.exp(-SPEC_2D.radii**2))
        for H in admissible_half_spaces(SPEC_2D):
            assert np.array_equal(polarize(u, H).values, u.values)

    @given(nonneg_2d, hs_strategy(SPEC_2D))
    @settings(max_examples=50, deadline=None)
    def test_equimeasurable_bit_exact(self, vals, H):
        u = ScalarField(SPEC_2D, vals)
        uh = polarize(u, H)
        assert np.array_equal(np.sort(vals.ravel()),
                              np.sort(uh.values.ravel()))
        for p in (1.5, 2.0, 3.0):
            assert lp_norm(u, p) == lp_norm(uh, p)

    @given(nonneg_2d, hs_strategy(SPEC_2D))
    @settings(max_examples=30, deadline=None)
    def test_dominates_reflection_inside_h(self, vals, H):
        uh = polarize(ScalarField(SPEC_2D, vals), H).values
        e = np.array(H.normal) / np.linalg.norm(H.normal)
        for idx in np.ndindex(SPEC_2D.shape):
            if SPEC_2D.coords[idx] @ e - H.offset <= 1e-9 * SPEC_2D.h:
                continue
            try:
                partner = reflect(SPEC_2D, H, idx)
            except ValueError:
                continue
            assert uh[idx] >= uh[partner]

    def test_leak_is_zero_for_admissible_family(self):
        # every point strictly outside H has its mirror image in the box,
        # strictly inside H, so no value is paired with the outside
        for spec in (SPEC_2D, SPEC_3D):
            for H in admissible_half_spaces(spec):
                e = np.array(H.normal) / np.linalg.norm(H.normal)
                side = spec.coords @ e - H.offset
                for idx in zip(*np.nonzero(side < -1e-9 * spec.h)):
                    assert side[reflect(spec, H, idx)] > 1e-9 * spec.h

    def test_multi_reduces_to_scalar(self):
        u = ScalarField(SPEC_1D, [0, 3, 1, 0, 0])
        H = HalfSpace((1,), 0.0)
        U = polarize_multi(MultiField([u]), H)
        assert np.array_equal(U.components[0].values,
                              polarize(u, H).values)

    def test_all_zero_multifield_fixed(self):
        U = MultiField([ScalarField(SPEC_2D, np.zeros((9, 9)))] * 2)
        UH = polarize_multi(U, HalfSpace((0, 1), 0.0))
        for c in UH.components:
            assert np.all(c.values == 0.0)


class TestOracle:
    @pytest.mark.parametrize("spec", [SPEC_1D, make_grid(1, 9, 2.0),
                                      SPEC_2D, SPEC_3D],
                             ids=["1d-n5", "1d-n9", "2d-n9", "3d-n7"])
    @pytest.mark.parametrize("values", ["random", "tied"])
    def test_polarize_bit_identical(self, spec, values):
        rng = np.random.default_rng(7)
        if values == "random":
            vals = rng.random(spec.shape)
        else:
            vals = rng.integers(0, 3, spec.shape).astype(float)
        u = ScalarField(spec, vals)
        for H in admissible_half_spaces(spec):
            assert np.array_equal(polarize(u, H).values,
                                  oracle_polarize(vals, H, spec)), H

    @pytest.mark.parametrize("spec", [SPEC_1D, SPEC_2D, SPEC_3D],
                             ids=["1d", "2d", "3d"])
    def test_reflect_every_point(self, spec):
        for H in admissible_half_spaces(spec):
            partner, _, _ = oracle_tables(spec, H)
            for flat, idx in enumerate(np.ndindex(spec.shape)):
                if partner[flat] < 0:
                    with pytest.raises(ValueError, match="outside the box"):
                        reflect(spec, H, idx)
                else:
                    expect = np.unravel_index(partner[flat], spec.shape)
                    assert reflect(spec, H, idx) == tuple(map(int, expect))


class TestBounds:
    def test_off_lattice_offset_rejected(self):
        H = HalfSpace((1,), -0.3)
        with pytest.raises(ValueError, match="not grid-compatible"):
            polarize(ScalarField(SPEC_1D, [0, 3, 1, 0, 0]), H)
        with pytest.raises(ValueError, match="not grid-compatible"):
            reflect(SPEC_1D, H, (2,))

    @pytest.mark.parametrize("H", [HalfSpace((1,), -2.5),
                                   HalfSpace((-1,), -7.0),
                                   HalfSpace((0, 1), -2.5),
                                   HalfSpace((1, -1), -9 * 0.5 / math.sqrt(2)),
                                   HalfSpace((-1, -1), -40 * 0.5 / math.sqrt(2))])
    def test_offset_beyond_box_is_identity(self, H):
        spec = SPEC_1D if len(H.normal) == 1 else SPEC_2D
        vals = np.random.default_rng(4).random(spec.shape)
        assert np.array_equal(polarize(ScalarField(spec, vals), H).values,
                              vals)

    def test_memory_bounded_over_many_half_spaces(self):
        spec = make_grid(3, 17, 2.0)
        u = ScalarField(spec, np.random.default_rng(5).random(spec.shape))
        family = admissible_half_spaces(spec)
        picks = np.random.default_rng(6).choice(len(family), 200,
                                                replace=False)
        tracemalloc.start()
        try:
            for k in picks:
                polarize(u, family[k])
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 1 << 20


class TestSchwarz:
    def test_hand_example(self):
        u = ScalarField(SPEC_1D, [0, 2, 1, 0, 3])
        assert np.array_equal(schwarz(u).values, [0, 2, 3, 1, 0])

    def test_constant_fixed(self):
        u = ScalarField(SPEC_2D, np.full((9, 9), 2.0))
        assert np.array_equal(schwarz(u).values, u.values)

    @given(nonneg_2d)
    @settings(max_examples=40, deadline=None)
    def test_idempotent_and_equimeasurable(self, vals):
        u = ScalarField(SPEC_2D, vals)
        us = schwarz(u)
        assert np.array_equal(schwarz(us).values, us.values)
        assert np.array_equal(np.sort(vals.ravel()),
                              np.sort(us.values.ravel()))

    @given(nonneg_2d)
    @settings(max_examples=40, deadline=None)
    def test_non_increasing_along_canonical_order(self, vals):
        us = schwarz(ScalarField(SPEC_2D, vals)).values.ravel()
        ordered = us[canonical_order(SPEC_2D)]
        assert np.all(np.diff(ordered) <= 0.0)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            schwarz(ScalarField(SPEC_1D, [0, -1, 0, 0, 0]))


class TestIteratePolarizations:
    def test_symmetric_input_converges_immediately(self):
        u = schwarz(ScalarField(SPEC_2D,
                                np.random.default_rng(1).random((9, 9))))
        schedule = PolarizationSchedule(mode="sweep", max_iter=10, tol=1e-12)
        U, trace = iterate_polarizations(MultiField([u]), schedule)
        assert trace.status == "converged"
        assert trace.rows[0].rel_dist == (0.0,)

    def test_1d_shifted_bump_sweep(self):
        u = ScalarField(SPEC_1D, [0, 3, 1, 0, 0])
        schedule = PolarizationSchedule(mode="sweep", max_iter=50, tol=1e-12)
        U, trace = iterate_polarizations(MultiField([u]), schedule)
        assert trace.status == "converged"
        assert np.array_equal(U.components[0].values, [0, 1, 3, 0, 0])

    @pytest.mark.parametrize("mode", ["random", "sweep", "greedy"])
    def test_trace_non_increasing(self, mode):
        rng = np.random.default_rng(3)
        vals = rng.random((9, 9))
        schedule = PolarizationSchedule(mode=mode, seed=5, max_iter=60,
                                        tol=1e-9)
        _, trace = iterate_polarizations(
            MultiField([ScalarField(SPEC_2D, vals)]), schedule)
        dists = [max(r.rel_dist) for r in trace.rows]
        assert all(b <= a for a, b in zip(dists, dists[1:]))

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            PolarizationSchedule(mode="zigzag")
        with pytest.raises(ValueError):
            PolarizationSchedule(max_iter=0)

    def test_trace_csv_columns(self, tmp_path):
        u = ScalarField(SPEC_1D, [0, 3, 1, 0, 0])
        schedule = PolarizationSchedule(mode="sweep", max_iter=20, tol=1e-12)
        _, trace = iterate_polarizations(MultiField([u]), schedule)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,normal,offset,rel_dist_1"
        assert lines[1].startswith("0,,")


class TestSymmetryDeficit:
    def test_symmetric_zero(self):
        u = schwarz(ScalarField(SPEC_2D,
                                np.random.default_rng(2).random((9, 9))))
        deficit, shift = symmetry_deficit(u, 2.0)
        assert deficit == 0.0 and shift == (0, 0)

    def test_translation_detected(self):
        base = schwarz(ScalarField(make_grid(1, 9, 4.0),
                                   [0, 0, 0, 1, 3, 1, 0, 0, 0]))
        moved = ScalarField(base.spec, np.roll(base.values, 2))
        deficit, shift = symmetry_deficit(moved, 2.0)
        assert deficit == 0.0 and shift == (-2,)

    def test_hand_value(self):
        u = ScalarField(SPEC_1D, [0, 3, 1, 0, 0])
        deficit, shift = symmetry_deficit(u, 2.0)
        assert shift == (1,)
        assert deficit == pytest.approx(math.sqrt(2.0 / 10.0), rel=1e-13)

    def test_zero_field_rejected(self):
        with pytest.raises(ValueError, match="zero field"):
            symmetry_deficit(ScalarField(SPEC_1D, np.zeros(5)), 2.0)
