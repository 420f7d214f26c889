import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polarmin import rearrange
from polarmin.grid import MultiField, ScalarField, lp_norm, make_grid
from polarmin.rearrange import (HalfSpace, PolarizationSchedule, TraceRow,
                                _block, _moves, _objective_scale,
                                _polarized_objective, admissible_half_spaces,
                                iterate_polarizations, polarize, polarize_multi,
                                schwarz, schwarz_multi, shift_field,
                                symmetry_deficit)
from polarmin.verify import random_bump_field

import oracles
from oracles import objective, rel_dists

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


# Independent oracle for the driver: score every picked half-space afresh
# on every iteration, keeping the best candidate field.
def oracle_iterate(U0, schedule):
    """(U, rows, status, accepted iterations)."""
    family = admissible_half_spaces(U0.spec)
    rng = np.random.default_rng(schedule.seed)
    p = schedule.p
    targets = [schwarz(c) for c in U0.components]
    target_norms = [lp_norm(t, p) for t in targets]
    U = U0
    rows = [TraceRow(0, None, rel_dists(U, targets, target_norms, p))]
    accepted = []
    if max(rows[0].rel_dist) <= schedule.tol:
        return U, rows, "converged", accepted
    obj = objective(U, targets, p)
    for it in range(1, schedule.max_iter + 1):
        if schedule.mode == "sweep":
            H = family[(it - 1) % len(family)]
            cand = polarize_multi(U, H)
            cand_obj = objective(cand, targets, p)
        elif schedule.mode == "random":
            H = family[rng.integers(len(family))]
            cand = polarize_multi(U, H)
            cand_obj = objective(cand, targets, p)
        else:
            picks = rng.choice(len(family),
                               size=min(schedule.greedy_candidates, len(family)),
                               replace=False)
            H, cand, cand_obj = None, None, np.inf
            for k in picks:
                trial = polarize_multi(U, family[k])
                trial_obj = objective(trial, targets, p)
                if trial_obj < cand_obj:
                    H, cand, cand_obj = family[k], trial, trial_obj
        if cand_obj < obj:
            U, obj = cand, cand_obj
            accepted.append(it)
        rows.append(TraceRow(it, H, rel_dists(U, targets, target_norms, p)))
        if max(rows[-1].rel_dist) <= schedule.tol:
            return U, rows, "converged", accepted
    return U, rows, "max_iter_reached", accepted


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
    # the reflection is an involution, so a second polarization finds every
    # pair already ordered
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
        uh = polarize(ScalarField(SPEC_2D, vals), H).values.ravel()
        partner, in_h, _ = oracle_tables(SPEC_2D, H)
        sel = in_h & (partner >= 0)
        assert np.all(uh[sel] >= uh[partner[sel]])

    def test_leak_is_zero_for_admissible_family(self):
        # every point strictly outside H has its mirror image in the box,
        # strictly inside H, so no value is paired with the outside
        for spec in (SPEC_2D, SPEC_3D):
            for H in admissible_half_spaces(spec):
                partner, in_h, out_h = oracle_tables(spec, H)
                assert np.all(partner[out_h] >= 0)
                assert np.all(in_h[partner[out_h]])

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


class TestBounds:
    def test_off_lattice_offset_rejected(self):
        H = HalfSpace((1,), -0.3)
        with pytest.raises(ValueError, match="not grid-compatible"):
            polarize(ScalarField(SPEC_1D, [0, 3, 1, 0, 0]), H)

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
        ordered = us[oracles.canonical_order(SPEC_2D)]
        assert np.all(np.diff(ordered) <= 0.0)

    def test_rank_cached_once_per_grid_shape(self):
        # one rank array per grid shape, whatever the half-width
        rearrange._shape_rank.cache_clear()
        for L in np.linspace(0.5, 25.0, 50):
            spec = make_grid(2, 65, L)
            schwarz(ScalarField(spec, np.ones(spec.shape)))
        assert rearrange._shape_rank.cache_info().currsize == 1
        rank = rearrange._shape_rank(2, 65).ravel()
        assert np.array_equal(rank[oracles.canonical_order(spec)],
                              np.arange(spec.num_points))

    @pytest.mark.parametrize("n", oracles.STENCIL_POINTS)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bits_of_scatter_placement(self, dim, n):
        # the gather through the rank array against the scatter to
        # canonical_order, zero signs and tied values included, also on
        # non-contiguous views
        spec = make_grid(dim, n, oracles.STENCIL_HALF_WIDTH)
        vals = oracles.stencil_field(spec, np.random.default_rng(dim * n))
        for v in oracles.views(vals):
            expected = oracles.place_radially(spec, np.sort(v, axis=None))
            assert oracles.same_bits(schwarz(ScalarField(spec, v)).values,
                                     expected.values)

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

    @pytest.mark.parametrize("k", [0, -1, 65, 2.5, 16.0, "16", True, None])
    def test_greedy_candidates_validated(self, k):
        # 0 once ran every iteration with no candidate, -1 and 2.5 failed
        # inside numpy; above 64 rng.choice may leave Floyd's algorithm
        with pytest.raises(ValueError, match="greedy_candidates"):
            PolarizationSchedule(greedy_candidates=k)

    @pytest.mark.parametrize("k", [1, 64, np.int64(16)])
    def test_greedy_candidates_accepted(self, k):
        assert PolarizationSchedule(greedy_candidates=k).greedy_candidates == k

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, 0.5, 0.0,
                                   -2.0])
    def test_p_validated(self, p):
        # p = nan once ran to max_iter with nan distances
        with pytest.raises(ValueError, match="p must be"):
            PolarizationSchedule(p=p)


class TestIterateOracle:
    @pytest.mark.parametrize("spec", [make_grid(1, 9, 2.0),
                                      make_grid(2, 17, 2.0), SPEC_3D],
                             ids=["1d-n9", "2d-n17", "3d-n7"])
    @pytest.mark.parametrize("mode", ["greedy", "sweep", "random"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_bit_identical(self, spec, mode, m):
        for p, values in itertools.product((1.0, 2.0, 3.5),
                                           ("random", "tied")):
            rng = np.random.default_rng(m + 10 * int(p))
            comps = []
            for _ in range(m):
                if values == "random":
                    vals = rng.random(spec.shape)
                else:
                    vals = rng.integers(0, 3, spec.shape).astype(float)
                comps.append(ScalarField(spec, vals))
            U0 = MultiField(comps)
            schedule = PolarizationSchedule(mode=mode, seed=m, max_iter=120,
                                            tol=1e-12, p=p)
            U, trace = iterate_polarizations(U0, schedule)
            U_ref, rows_ref, status_ref, _ = oracle_iterate(U0, schedule)
            case = (p, values)
            assert trace.status == status_ref, case
            assert trace.rows == rows_ref, case
            for c, c_ref in zip(U.components, U_ref.components):
                assert np.array_equal(c.values, c_ref.values), case

    def test_each_half_space_scored_once_per_iterate(self):
        spec = make_grid(2, 33, 4.0)
        family = admissible_half_spaces(spec)
        U0 = MultiField([random_bump_field(spec, np.random.default_rng(0))])
        schedule = PolarizationSchedule(mode="greedy", seed=0, max_iter=600,
                                        tol=1e-3)
        _, trace = iterate_polarizations(U0, schedule)
        _, rows_ref, _, accepted = oracle_iterate(U0, schedule)
        assert trace.rows == rows_ref
        picks = schedule.greedy_candidates
        assert trace.candidates == picks * (len(trace.rows) - 1)
        # up to the last acceptance at most every pick is scored; after it
        # each half-space at most once; and each accepted one once more
        bound = picks * accepted[-1] + len(family) + len(accepted)
        assert trace.polarizations <= bound
        # scoring every pick on every iteration would break the bound
        assert picks * schedule.max_iter > bound

    def test_counters_add_up(self):
        # replay the draws: each pick new to its iterate is either scored
        # or, when polarizing by it gives back U, counted as unchanged
        spec = make_grid(2, 17, 2.0)
        family = admissible_half_spaces(spec)
        rng = np.random.default_rng(1)
        U0 = MultiField([random_bump_field(spec, rng) for _ in range(2)])
        schedule = PolarizationSchedule(mode="greedy", seed=3, max_iter=300,
                                        tol=1e-12)
        _, trace = iterate_polarizations(U0, schedule)
        _, rows_ref, _, accepted = oracle_iterate(U0, schedule)
        assert trace.rows == rows_ref
        draws = np.random.default_rng(schedule.seed)
        U, seen, scored, unchanged = U0, set(), 0, 0
        for row in trace.rows[1:]:
            for k in draws.choice(len(family), size=schedule.greedy_candidates,
                                  replace=False).tolist():
                if k in seen:
                    continue
                seen.add(k)
                if all(np.array_equal(polarize(c, family[k]).values, c.values)
                       for c in U.components):
                    unchanged += 1
                else:
                    scored += 1
            if row.iteration in accepted:
                U, seen = polarize_multi(U, row.half_space), set()
        assert trace.candidates == schedule.greedy_candidates * schedule.max_iter
        assert trace.unchanged == unchanged > scored
        assert trace.polarizations == scored + len(accepted)

    def test_signed_zeros_bit_identical(self):
        # ties of +0.0 and -0.0 leave U unchanged; the driver's values,
        # zero signs included, are the oracle's
        spec = make_grid(2, 17, 2.0)
        rng = np.random.default_rng(4)
        vals = np.where(rng.random(spec.shape) < 0.5, 0.0, -0.0)
        vals[rng.random(spec.shape) < 0.2] = 1.0
        U0 = MultiField([ScalarField(spec, vals)])
        schedule = PolarizationSchedule(mode="greedy", seed=2, max_iter=200,
                                        tol=1e-12)
        U, trace = iterate_polarizations(U0, schedule)
        U_ref, rows_ref, status_ref, _ = oracle_iterate(U0, schedule)
        assert (trace.rows, trace.status) == (rows_ref, status_ref)
        assert trace.unchanged > 0
        assert U.components[0].values.tobytes() == \
            U_ref.components[0].values.tobytes()


class TestPicks:
    """The batched picks of ``_picks`` are the picks of one scalar draw
    per iteration, the draws ``oracle_iterate`` makes."""

    @staticmethod
    def picks(mode, n, seed, max_iter, k=16):
        schedule = PolarizationSchedule(mode=mode, seed=seed,
                                        max_iter=max_iter, greedy_candidates=k)
        return list(rearrange._picks(schedule, n))

    # the families of 1D n=3 and n=7 (size == n), 2D n=3 and n=65, one
    # size between, and 2D n=1447, above the 10,000 where numpy's choice
    # may switch algorithm
    @pytest.mark.parametrize("n", [6, 14, 24, 520, 2304, 11576])
    @pytest.mark.parametrize("batch", [1024, 7])
    def test_greedy_rows_are_choice_rows(self, monkeypatch, n, batch):
        monkeypatch.setattr(rearrange, "_PICK_BATCH", batch)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            expected = [rng.choice(n, min(16, n), replace=False).tolist()
                        for _ in range(30)]
            assert self.picks("greedy", n, seed, 30) == expected, seed

    @pytest.mark.parametrize("n", [64, 11576])
    def test_most_candidates(self, n):
        rng = np.random.default_rng(6)
        expected = [rng.choice(n, 64, replace=False).tolist()
                    for _ in range(20)]
        assert self.picks("greedy", n, 6, 20, k=64) == expected

    @pytest.mark.parametrize("n", [6, 520, 11576])
    @pytest.mark.parametrize("batch", [1024, 7])
    def test_random_rows_are_scalar_draws(self, monkeypatch, n, batch):
        monkeypatch.setattr(rearrange, "_PICK_BATCH", batch)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            expected = [[int(rng.integers(n))] for _ in range(30)]
            assert self.picks("random", n, seed, 30) == expected, seed

    @pytest.mark.parametrize("mode", ["greedy", "random"])
    def test_across_batches_bit_identical(self, monkeypatch, mode):
        # batches of 7 iterations, so the run crosses many batch ends
        monkeypatch.setattr(rearrange, "_PICK_BATCH", 7)
        spec = make_grid(2, 17, 2.0)
        rng = np.random.default_rng(8)
        U0 = MultiField([random_bump_field(spec, rng) for _ in range(2)])
        schedule = PolarizationSchedule(mode=mode, seed=4, max_iter=150,
                                        tol=1e-12)
        U, trace = iterate_polarizations(U0, schedule)
        U_ref, rows_ref, status_ref, _ = oracle_iterate(U0, schedule)
        assert (trace.rows, trace.status) == (rows_ref, status_ref)
        for c, c_ref in zip(U.components, U_ref.components):
            assert c.values.tobytes() == c_ref.values.tobytes()


class TestMoves:
    """``_moves`` finds a half-space that leaves the fields unchanged
    exactly when polarizing by it gives back every component's values."""

    @staticmethod
    def outcomes(fields):
        """The (moves, components changed) pair of every admissible
        half-space, after checking that the two agree."""
        spec = fields[0].spec
        out = []
        for H in admissible_half_spaces(spec):
            changed = sum(not np.array_equal(polarize(f, H).values, f.values)
                          for f in fields)
            moves = _moves([f.values for f in fields], _block(spec, H))
            assert moves == (changed > 0), H
            out.append((moves, changed))
        return out

    @pytest.mark.parametrize("spec", [make_grid(1, 9, 2.0),
                                      make_grid(2, 17, 2.0), SPEC_3D],
                             ids=["1d-n9", "2d-n17", "3d-n7"])
    @pytest.mark.parametrize("values", ["random", "tied", "schwarz"])
    def test_agrees_with_polarize(self, spec, values):
        rng = np.random.default_rng(7)
        if values == "random":
            vals = rng.random(spec.shape)
        else:
            vals = rng.integers(0, 3, spec.shape).astype(float)
        field = ScalarField(spec, vals)
        if values == "schwarz":
            field = schwarz(field)
        moves = [m for m, _ in self.outcomes([field])]
        # beyond the box every field is unchanged; a Schwarz field is left
        # unchanged by most half-spaces, the others are moved by some
        assert not all(moves)
        if values == "schwarz":
            assert sum(moves) < len(moves) / 4
        else:
            assert any(moves)

    def test_signed_zeros_do_not_move(self):
        # +0.0 against -0.0 is a tie, and polarize gives back equal values
        vals = np.array([0.0, -0.0, 2.0, -0.0, 0.0, 0.0, 1.0, 0.0, -0.0])
        self.outcomes([ScalarField(make_grid(1, 9, 2.0), vals)])
        zeros = np.where(np.random.default_rng(2).random((17, 17)) < 0.5,
                         0.0, -0.0)
        field = ScalarField(make_grid(2, 17, 2.0), zeros)
        assert {m for m, _ in self.outcomes([field])} == {False}

    @pytest.mark.parametrize("spec", [make_grid(1, 9, 2.0),
                                      make_grid(2, 17, 2.0), SPEC_3D],
                             ids=["1d-n9", "2d-n17", "3d-n7"])
    def test_two_components_one_moving(self, spec):
        rng = np.random.default_rng(5)
        still = schwarz(ScalarField(spec, rng.random(spec.shape)))
        moving = ScalarField(spec, rng.random(spec.shape))
        for fields in ([still, moving], [moving, still]):
            changed = {c for _, c in self.outcomes(fields)}
            assert 1 in changed


class TestScoring:
    @pytest.mark.parametrize("spec", [make_grid(1, 9, 2.0),
                                      make_grid(2, 17, 2.0), SPEC_3D],
                             ids=["1d-n9", "2d-n17", "3d-n7"])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("magnitude", [1.0, 1e160])
    def test_score_bit_identical_to_objective(self, spec, m, magnitude):
        # near 1e160 the p > 1 objectives overflow and take the scaled branch
        rng = np.random.default_rng(m)
        U = MultiField([ScalarField(spec, magnitude * rng.random(spec.shape))
                        for _ in range(m)])
        before = [c.values.copy() for c in U.components]
        values = [c.values for c in U.components]
        buf = np.empty(spec.shape)
        for p in (1.0, 2.0, 3.5):
            targets = [schwarz(c) for c in U.components]
            target_values = [t.values for t in targets]
            scale = _objective_scale(target_values, p)
            assert (scale is not None) == (magnitude > 1.0 and p > 1.0)
            # block None scores U itself, the driver's start value
            start = _polarized_objective(values, target_values, p, scale,
                                         None, buf)
            assert start == objective(U, targets, p, scale), p
            for H in admissible_half_spaces(spec):
                score = _polarized_objective(values, target_values, p, scale,
                                             _block(spec, H), buf)
                assert score == objective(polarize_multi(U, H), targets, p,
                                          scale), (p, H)
        for c, vals in zip(U.components, before):
            assert np.array_equal(c.values, vals)

    def test_negative_value_rejected_before_any_scoring(self, monkeypatch):
        calls = []

        def record(name):
            def stub(*args):
                calls.append(name)
                raise AssertionError(f"{name} ran")
            return stub

        monkeypatch.setattr(rearrange, "_polarized_objective",
                            record("_polarized_objective"))
        monkeypatch.setattr(rearrange, "_polarize_into",
                            record("_polarize_into"))
        vals = np.random.default_rng(8).random(SPEC_2D.shape)
        vals[3, 5] = -1e-3
        with pytest.raises(ValueError, match="non-negative"):
            iterate_polarizations(MultiField([ScalarField(SPEC_2D, vals)]),
                                  PolarizationSchedule(mode="greedy"))
        assert calls == []

    def test_greedy_run_memory_is_a_few_fields(self):
        # a greedy run keeps the family, one block geometry and at most one
        # score per half-space, and works in a handful of field-sized
        # arrays (its peak is about 14 fields here); an index array per
        # half-space, 306 of them, would hold over a hundred fields
        spec = make_grid(3, 17, 2.0)
        field_bytes = spec.num_points * 8
        U0 = MultiField([random_bump_field(spec, np.random.default_rng(0))])
        schwarz(U0.components[0])  # the spec's rank array is cached
        schedule = PolarizationSchedule(mode="greedy", seed=0, max_iter=200,
                                        tol=1e-12)
        tracemalloc.start()
        try:
            _, trace = iterate_polarizations(U0, schedule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.polarizations > len(admissible_half_spaces(spec))
        assert peak < 20 * field_bytes


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

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n,L", [(99, 2.0), (99, 3.7), (17, 3.0)])
    def test_bits_of_stacked_coordinates(self, dim, n, L):
        # n=99 at L=2 and 3.7 has coordinates that are not exact negatives
        # of their mirrors; the centroid must still round the same way
        spec = make_grid(dim, n, L)
        rng = np.random.default_rng(dim + n)
        for _ in range(2):
            field = random_bump_field(spec, rng)
            assert symmetry_deficit(field, 2.0) == \
                oracles.symmetry_deficit(field, 2.0)
        off_centre = np.zeros(spec.shape)
        off_centre[(slice(n // 5, n // 2),) * dim] = 1.0
        field = ScalarField(spec, off_centre)
        deficit, shift = symmetry_deficit(field, 2.0)
        assert (deficit, shift) == oracles.symmetry_deficit(field, 2.0)
        assert all(s > 0 for s in shift)


class TestShiftField:
    @pytest.mark.parametrize("n", [3, 5, 9])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bits_of_per_axis_shift(self, dim, n):
        # every step vector in [-n-1, n+1]^dim, shifts off the box included,
        # on values with +0.0 and -0.0 entries
        spec = make_grid(dim, n, oracles.STENCIL_HALF_WIDTH)
        vals = oracles.stencil_field(spec, np.random.default_rng(dim * n))
        for steps in itertools.product(range(-n - 1, n + 2), repeat=dim):
            assert oracles.same_bits(shift_field(vals, steps),
                                     oracles.shift_field(vals, steps)), steps
