import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polarmin.grid import (MAX_HALF_WIDTH, MAX_POINTS, MIN_HALF_WIDTH,
                           FieldFormatError,
                           MultiField, ScalarField, axis_derivative,
                           axis_derivative_adjoint, axis_sum,
                           gradient_components, gradient_magnitude, lp_norm,
                           make_grid, read_field, write_field)

import oracles
from oracles import (STENCIL_HALF_WIDTH, STENCIL_POINTS, coords, same_bits,
                     stencil_field, views, write_field_per_value)


def field_1d(values, half_width=2.0):
    vals = np.asarray(values, dtype=float)
    return ScalarField(make_grid(1, len(vals), half_width), vals)


small_values = arrays(np.float64, (5,),
                      elements=st.floats(0.0, 10.0, allow_nan=False))


class TestMakeGrid:
    def test_five_points(self):
        spec = make_grid(1, 5, 2.0)
        assert spec.h == 1.0
        assert np.array_equal(spec.axis_coords, [-2.0, -1.0, 0.0, 1.0, 2.0])

    def test_even_count_rejected(self):
        with pytest.raises(ValueError, match="odd point count"):
            make_grid(1, 4, 2.0)

    def test_3d_size(self):
        spec = make_grid(3, 17, 8.0)
        assert spec.h == 1.0
        assert spec.num_points == 4913

    def test_bad_dim_and_width(self):
        with pytest.raises(ValueError):
            make_grid(4, 5, 1.0)
        with pytest.raises(ValueError):
            make_grid(1, 5, 0.0)

    def test_half_width_bound(self):
        # the largest box keeps the nonlocal weight h^(2N) finite in 3D
        spec = make_grid(3, 3, MAX_HALF_WIDTH)
        assert math.isfinite(spec.cell_volume**2)
        for L in (math.nextafter(MAX_HALF_WIDTH, math.inf), 1e160, math.inf):
            with pytest.raises(ValueError, match="at most"):
                make_grid(1, 3, L)
        # the smallest box keeps it nonzero in 3D at the largest grid
        spec = make_grid(3, 127, MIN_HALF_WIDTH)
        assert spec.cell_volume**2 > 0.0
        for L in (math.nextafter(MIN_HALF_WIDTH, 0.0), 1e-60, 5e-324):
            with pytest.raises(ValueError, match="at least 1e-30"):
                make_grid(1, 3, L)

    def test_point_count_bound(self):
        # the largest odd grids under the bound are accepted, the next
        # odd ones rejected before any array is allocated
        for dim, n in ((1, MAX_POINTS - 1), (2, 1447), (3, 127)):
            assert make_grid(dim, n, 1.0).num_points <= MAX_POINTS
            with pytest.raises(ValueError, match="at most 2097152 points"):
                make_grid(dim, n + 2, 1.0)
        with pytest.raises(ValueError, match="at most"):
            make_grid(3, 100001, 1.0)

    def test_origin_is_grid_point(self):
        spec = make_grid(2, 9, 3.0)
        assert 0.0 in spec.axis_coords
        center = (spec.points_per_axis - 1) // 2
        assert spec.axis_coords[center] == 0.0

    def test_axis_sum_bits_of_stacked_sum(self):
        rng = np.random.default_rng(0)
        for dim in (1, 2, 3):
            terms = [rng.standard_normal(k) for k in (4, 5, 6)[:dim]]
            stacked = np.stack(np.meshgrid(*terms, indexing="ij"), axis=-1)
            assert np.array_equal(axis_sum(terms), np.sum(stacked, axis=-1))

    # n = 99 at L = 2: the centre coordinate is -2.2e-16, not 0
    @pytest.mark.parametrize("dim,n,L", [(1, 99, 2.0), (2, 17, 3.7),
                                         (3, 9, 1.0)])
    def test_radii_bits_of_stacked_sum(self, dim, n, L):
        spec = make_grid(dim, n, L)
        assert np.array_equal(spec.radii,
                              np.sqrt(np.sum(coords(spec)**2, axis=-1)))


class TestLpNorm:
    def test_hand_value(self):
        u = field_1d([0, 2, 1, 0, 3])
        assert lp_norm(u, 2.0) == pytest.approx(math.sqrt(14.0), rel=1e-15)

    def test_zero_field(self):
        u = field_1d([0, 0, 0, 0, 0])
        for p in (1.0, 1.5, 2.0, 3.0):
            assert lp_norm(u, p) == 0.0

    def test_exponent_range(self):
        with pytest.raises(ValueError):
            lp_norm(field_1d([1, 2, 3, 4, 5]), 0.5)

    @given(small_values, st.permutations(range(5)))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant_bit_exact(self, vals, perm):
        u = field_1d(vals)
        v = field_1d(vals[np.array(perm)])
        for p in (1.5, 2.0, 3.0):
            assert lp_norm(u, p) == lp_norm(v, p)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    def test_homogeneous_beyond_overflow(self, dim, p):
        # |u|^p of values near 1e160 overflows at p >= 2
        spec = make_grid(dim, 9, 2.0)
        f = np.random.default_rng(dim).random(spec.shape)
        c = 1e160
        big = lp_norm(ScalarField(spec, c * f), p)
        assert math.isfinite(big)
        assert big == pytest.approx(c * lp_norm(ScalarField(spec, f), p),
                                    rel=1e-14)
        perm = np.random.default_rng(5).permutation(f.ravel())
        assert lp_norm(ScalarField(spec, c * perm), p) == big

    def test_finite_sums_keep_plain_formula_bits(self):
        spec = make_grid(2, 9, 2.0)
        rng = np.random.default_rng(11)
        checked = 0
        with np.errstate(over="ignore", under="ignore"):
            for scale in (1e-100, 1.0, 1e80, 1e100, 1e150):
                vals = scale * rng.standard_normal(spec.shape)
                for p in (1.0, 1.5, 2.0, 3.5):
                    v = np.sort(np.abs(vals).ravel())
                    plain = float(np.sum(v**p)) * spec.cell_volume
                    if np.finfo(float).tiny <= plain < math.inf:
                        assert (lp_norm(ScalarField(spec, vals), p)
                                == plain ** (1.0 / p))
                        checked += 1
        # of the other 3 of the 20 pairs, 2 overflow and 1 underflows
        assert checked == 17

    @pytest.mark.parametrize("p", [3.5, 1e6, 1e300])
    def test_underflowing_sums_rescaled(self, p):
        # sum |u|^p underflows to 0 for values 1e-100 at p = 3.5 and for
        # values below 1 at huge p; the maximum is factored out instead
        spec = make_grid(1, 5, 1.0)
        vals = np.array([0.1, 0.2, 0.5, 0.2, 0.1])
        scale = 1e-100 if p == 3.5 else 1.0
        got = lp_norm(ScalarField(spec, scale * vals), p)
        expected = scale * 0.5 * (float(np.sum((vals / 0.5) ** p))
                                  * spec.cell_volume) ** (1.0 / p)
        assert got == pytest.approx(expected, rel=1e-14) and got > 0.0
        perm = ScalarField(spec, scale * vals[::-1].copy())
        assert lp_norm(perm, p) == got

    @pytest.mark.parametrize("p", [math.inf, math.nan, -math.inf])
    def test_non_finite_exponent_rejected(self, p):
        with pytest.raises(ValueError, match="finite"):
            lp_norm(field_1d([0.1, 0.2, 0.5, 0.2, 0.1], 1.0), p)


class TestDerivatives:
    def test_affine_exact(self):
        spec = make_grid(1, 5, 2.0)
        d = axis_derivative(spec.axis_coords.copy(), 0, spec.h)
        assert np.array_equal(d, np.ones(5))

    def test_quadratic_interior(self):
        u = np.array([0.0, 1.0, 4.0, 9.0, 16.0])
        d = axis_derivative(u, 0, 1.0)
        assert np.array_equal(d[1:-1], [2.0, 4.0, 6.0])

    def test_constant_has_zero_gradient(self):
        spec = make_grid(2, 7, 1.0)
        u = ScalarField(spec, np.full(spec.shape, 3.7))
        assert np.all(gradient_magnitude(u).values == 0.0)

    @given(arrays(np.float64, (6, 6),
                  elements=st.floats(-5.0, 5.0, allow_nan=False)),
           st.floats(-10.0, 10.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance(self, vals, c):
        spec = make_grid(2, 7, 3.0)
        grid_vals = np.pad(vals, ((0, 1), (0, 1)))
        a = gradient_magnitude(ScalarField(spec, grid_vals)).values
        b = gradient_magnitude(ScalarField(spec, grid_vals + c)).values
        # (u + c) differences cancel c only up to rounding of u + c itself
        assert np.allclose(a, b, atol=1e-13 * (1.0 + abs(c)))

    @pytest.mark.parametrize("dim,n", [(1, 33), (2, 65), (3, 17), (3, 33)])
    def test_magnitude_bits_of_stacked_sum(self, dim, n):
        spec = make_grid(dim, n, 4.0)
        rng = np.random.default_rng(n + dim)
        for scale in (1e-3, 1.0, 1e3):
            u = ScalarField(spec, scale * rng.standard_normal(spec.shape))
            comps = gradient_components(u)
            stacked = np.sqrt(np.sum([c**2 for c in comps], axis=0))
            assert np.array_equal(gradient_magnitude(u).values, stacked)

    @given(arrays(np.float64, (7,), elements=st.floats(-3.0, 3.0)),
           arrays(np.float64, (7,), elements=st.floats(-3.0, 3.0)))
    @settings(max_examples=50, deadline=None)
    def test_adjoint_identity(self, u, w):
        h = 0.5
        lhs = float(np.dot(axis_derivative(u, 0, h), w))
        rhs = float(np.dot(u, axis_derivative_adjoint(w, 0, h)))
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestStencilOracle:
    """The contiguous stencils against the moved-axis ones of the oracles,
    bit for bit, zero signs included."""

    @staticmethod
    def field(dim, n):
        spec = make_grid(dim, n, STENCIL_HALF_WIDTH)
        return spec, stencil_field(spec, np.random.default_rng(dim * n))

    @pytest.mark.parametrize("n", STENCIL_POINTS)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_derivative_and_adjoint_bits(self, dim, n):
        spec, vals = self.field(dim, n)
        for v in views(vals):
            for axis in range(dim):
                assert same_bits(axis_derivative(v, axis, spec.h),
                                 oracles.axis_derivative(v, axis, spec.h))
                assert same_bits(
                    axis_derivative_adjoint(v, axis, spec.h),
                    oracles.axis_derivative_adjoint(v, axis, spec.h))

    @pytest.mark.parametrize("n", STENCIL_POINTS)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_magnitude_bits(self, dim, n):
        spec, vals = self.field(dim, n)
        for v in views(vals):
            u = ScalarField(spec, v)
            comps = oracles.gradient_components(u)
            expected = np.sqrt(np.sum([c**2 for c in comps], axis=0))
            assert same_bits(gradient_magnitude(u).values, expected)

    def test_fields_hold_both_zero_signs(self):
        # and so do their derivatives, the adjoints' inputs in energy
        spec, vals = self.field(2, 9)
        for a in (vals, axis_derivative(vals, 1, spec.h)):
            zeros = a[a == 0.0]
            assert np.signbit(zeros).any() and not np.signbit(zeros).all()


class TestFields:
    def test_non_finite_rejected(self):
        spec = make_grid(1, 3, 1.0)
        with pytest.raises(ValueError, match="finite"):
            ScalarField(spec, [0.0, np.inf, 0.0])

    def test_multifield_spec_mismatch(self):
        a = ScalarField(make_grid(1, 3, 1.0), [0, 1, 2])
        b = ScalarField(make_grid(1, 5, 1.0), [0, 1, 2, 3, 4])
        with pytest.raises(ValueError, match="share one GridSpec"):
            MultiField([a, b])

    def test_multifield_needs_component(self):
        with pytest.raises(ValueError):
            MultiField([])


class TestFieldFile:
    def test_round_trip_identity(self, tmp_path):
        spec = make_grid(2, 5, 1.5)
        rng = np.random.default_rng(7)
        U = MultiField([ScalarField(spec, rng.random(spec.shape))
                        for _ in range(2)])
        path = tmp_path / "u.rfld"
        write_field(U, path)
        V = read_field(path)
        assert V.spec == spec and V.m == 2
        for a, b in zip(U.components, V.components):
            assert np.array_equal(a.values, b.values)

    def test_bytes_of_per_value_writer(self, tmp_path):
        spec = make_grid(2, 5, 1.5)
        rng = np.random.default_rng(3)
        edge = rng.random(spec.shape)
        edge.flat[:5] = [-0.0, 5e-324, 1e-300, 1.7976931348623157e308, 0.0]
        wide = (rng.standard_normal(spec.shape)
                * 10.0 ** rng.uniform(-300, 300, spec.shape))
        for U in (MultiField([ScalarField(spec, edge)]),
                  MultiField([ScalarField(spec, edge),
                              ScalarField(spec, wide)])):
            got, want = tmp_path / "got.rfld", tmp_path / "want.rfld"
            write_field(U, got)
            write_field_per_value(U, want)
            assert got.read_bytes() == want.read_bytes()
        assert (b"\n-0\n4.9406564584124654e-324\n1e-300\n"
                b"1.7976931348623157e+308\n") in got.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "u.rfld"
        path.write_text("RFLD 2\n1 1 3 1.0\n0\n0\n0\n")
        with pytest.raises(FieldFormatError, match="line 1"):
            read_field(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "u.rfld"
        path.write_text("RFLD 1\n1 1 5 2.0\n0\n1\n2\n3\n")
        with pytest.raises(FieldFormatError,
                           match="expected 5 values, got 4"):
            read_field(path)

    @pytest.mark.parametrize("header,match", [
        ("3 1 100001 2.0", "grid must have at most 2097152 points"),
        ("1 2 2097151 2.0", "m \\* n\\^N must be at most 2097152"),
        ("3 1 9 1e-60", "half-width must be at least 1e-30"),
    ])
    def test_header_size_bound(self, tmp_path, header, match):
        path = tmp_path / "u.rfld"
        path.write_text(f"RFLD 1\n{header}\n0\n")
        with pytest.raises(FieldFormatError, match=f"^line 2: {match}$"):
            read_field(path)

    def test_bad_token_reports_line(self, tmp_path):
        path = tmp_path / "u.rfld"
        path.write_text("RFLD 1\n1 1 3 1.0\n0\nxyz\n0\n")
        with pytest.raises(FieldFormatError, match="line 4"):
            read_field(path)

    # every line break of str.splitlines; open() turns "\r" and "\r\n"
    # into "\n", the others reach the parser
    @pytest.mark.parametrize("brk", ["\r", "\r\n", "\x0b", "\x0c", "\x1c",
                                     "\x1d", "\x1e", "\x85", "\u2028",
                                     "\u2029"])
    def test_splitlines_breaks(self, tmp_path, brk):
        path = tmp_path / "u.rfld"
        text = f"RFLD 1{brk}1 1 5 2.0{brk}0 1{brk}2\n3{brk}{brk}4{brk}"
        path.write_text(text, newline="")
        assert self.per_token_values(path).tolist() == [0, 1, 2, 3, 4]
        assert read_field(path).components[0].values.tolist() == [
            0, 1, 2, 3, 4]
        for bad, error in (("x", "bad value 'x'"), ("nan", "non-finite value")):
            path.write_text(text.replace("3", bad), newline="")
            with open(path) as fh:
                lines = fh.read().splitlines()
            lineno = 1 + next(i for i, line in enumerate(lines)
                              if bad in line.split())
            with pytest.raises(FieldFormatError,
                               match=f"^line {lineno}: {error}$"):
                read_field(path)
        path.write_text(f"RFLD 1{brk}", newline="")
        with pytest.raises(FieldFormatError, match="^line 2: missing header$"):
            read_field(path)
        path.write_text(f"RFLD 1{brk}{brk}0\n", newline="")
        with pytest.raises(FieldFormatError,
                           match="^line 2: header must be 'N m n L'$"):
            read_field(path)

    @staticmethod
    def per_token_values(path):
        # the token-by-token parse that read_field replaces with one pass
        with open(path) as fh:
            lines = fh.read().splitlines()
        return np.array([float(tok) for line in lines[2:]
                         for tok in line.split()])

    def test_values_bits_of_per_token_parse(self, tmp_path):
        spec = make_grid(3, 9, 2.5)
        rng = np.random.default_rng(11)
        U = MultiField([ScalarField(spec, rng.standard_normal(spec.shape)
                                    * 10.0 ** rng.uniform(-300, 300,
                                                          spec.shape))
                        for _ in range(2)])
        path = tmp_path / "u.rfld"
        write_field(U, path)
        # also several tokens per line, tabs and blank lines, and tokens
        # in the rarer corners of Python float's grammar: underscores,
        # digits of other scripts, an underflow and a subnormal
        text = path.read_text().splitlines()
        odd = ["1_0", "1e5_0", "\u0661\u0662\u0663", "\uff10.\uff15", "+.5",
               "5.", "-0", "1e-400", "2.5e-324", "7E-1"]
        text[2:2 + len(odd)] = odd
        path.write_text("\n".join(text) + "\n")
        rows = ["\t".join(text[i:i + 5]) for i in range(2, len(text), 5)]
        packed = tmp_path / "packed.rfld"
        packed.write_text("\n".join(text[:2] + rows + ["", "  "]) + "\n")
        for p in (path, packed):
            got = np.concatenate([c.values.ravel()
                                  for c in read_field(p).components])
            want = self.per_token_values(p)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tokens,match", [
        ({1200: "1.0.0"}, "line 1203: bad value '1.0.0'"),
        ({54: "nan"}, "line 57: non-finite value"),
        ({1999: "-inf"}, "line 2002: non-finite value"),
        ({1500: "inf", 1700: "x"}, "line 1503: non-finite value"),
        ({1500: "x", 1700: "nan"}, "line 1503: bad value 'x'"),
        ({300: "0x10"}, "line 303: bad value '0x10'"),
        ({300: "1__0"}, "line 303: bad value '1__0'"),
        ({300: "1.5.2"}, "line 303: bad value '1.5.2'"),
        ({300: "infinity"}, "line 303: non-finite value"),
        ({300: "1e500"}, "line 303: non-finite value"),
    ], ids=["bad-past-1000", "nan", "inf", "inf-first", "bad-first", "hex",
            "double-underscore", "two-points", "infinity", "overflow"])
    def test_bad_value_names_its_line(self, tmp_path, tokens, match):
        spec = make_grid(3, 13, 1.0)  # 2197 values, one per line
        vals = [repr(x) for x in
                np.linspace(0.0, 1.0, spec.num_points).tolist()]
        for i, tok in tokens.items():
            vals[i] = tok
        path = tmp_path / "u.rfld"
        path.write_text("RFLD 1\n3 1 13 1.0\n" + "\n".join(vals) + "\n")
        with pytest.raises(FieldFormatError, match=f"^{re.escape(match)}$"):
            read_field(path)

    def test_count_mismatch_too_many(self, tmp_path):
        path = tmp_path / "u.rfld"
        path.write_text("RFLD 1\n1 1 3 2.0\n0 1 2\n3\n")
        with pytest.raises(FieldFormatError,
                           match="^expected 3 values, got 4$"):
            read_field(path)
