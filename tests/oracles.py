"""Plain-formula oracles for the tests.

The dense pairwise oracle for the nonlocal term is built from the grid's
point coordinates, independently of the sampled kernel and the FFT route
of polarmin.energy; its memory grows as P^2 for P grid points: about
190 MB at 17^3.  The polarization driver's objective and distances, and
the symmetry deficit, are written on whole fields, as the library wrote
them before it worked on arrays in place.  The Barzilai-Borwein step takes
its numerator from DST coefficients, and the RFLD writer writes one value
at a time, as the library did before.  The finite-difference stencils run
on the array with the derivative's axis moved to the front, the Schwarz
placement scatters the values to the canonical order, and the shift of a
field makes one zero-filled copy per shifted axis, as the library did
before it ran them as contiguous passes, a gather and one slice
assignment; the fields and the bit comparison that their tests share are
at the end.
"""

import numpy as np

from polarmin.energy import origin_value
from polarmin.grid import ScalarField, lp_norm
from polarmin.minimize import _dst
from polarmin.rearrange import schwarz


def coords(spec):
    """Point coordinates of the grid, shape (*spec.shape, dim)."""
    mesh = np.meshgrid(*([spec.axis_coords] * spec.dim), indexing="ij")
    return np.stack(mesh, axis=-1)


def dense_kernel_matrix(V, spec):
    """Pairwise matrix V(|x - y|) over all grid points, with origin_value
    on the diagonal; distances one block of rows and one axis at a time."""
    P = spec.num_points
    x = coords(spec).reshape(-1, spec.dim)
    origin = origin_value(V, spec)
    mat = np.empty((P, P))
    rows = max(1, 2**20 // P)  # about 2^20 entries per temporary
    for i in range(0, P, rows):
        d2 = np.zeros((min(rows, P - i), P))
        for k in range(spec.dim):
            d2 += (x[i:i + rows, k, None] - x[None, :, k]) ** 2
        d = np.sqrt(d2)
        nz = d > 0.5 * spec.h
        block = mat[i:i + rows]
        block[nz] = V(d[nz])
        block[~nz] = origin
    assert np.all(np.isfinite(mat))
    return mat


def dense_sum(g, V, spec):
    """sum_y V(|x - y|) g(y) by an explicit pairwise sum over the grid."""
    return (dense_kernel_matrix(V, spec) @ g.ravel()).reshape(g.shape)


def dense_q(U, model, mat):
    """Q = h^2N sum_x sum_y g(x) V(|x - y|) g(y), g = G(U), with mat from
    dense_kernel_matrix; E3 is -Q."""
    g = np.asarray(model.G.g([c.values for c in U.components])).ravel()
    return float(g @ (mat @ g)) * U.spec.cell_volume**2


def objective(U, targets, p, scale=None):
    """sum_i sum |u_i - t_i|^p over the components of U and the target
    fields, divided by scale^p when scale is given."""
    if scale is None:
        return sum(
            float(np.sum(np.abs(c.values - t.values) ** p))
            for c, t in zip(U.components, targets))
    return sum(
        float(np.sum((np.abs(c.values - t.values) / scale) ** p))
        for c, t in zip(U.components, targets))


def rel_dists(U, targets, target_norms, p):
    """lp_norm of each component's distance to its target field, relative
    to the target's norm (0 where that norm is 0)."""
    out = []
    for comp, tgt, nrm in zip(U.components, targets, target_norms):
        if nrm == 0.0:
            out.append(0.0)
            continue
        diff = ScalarField(comp.spec, np.abs(comp.values - tgt.values))
        out.append(lp_norm(diff, p) / nrm)
    return tuple(out)


def shift_field(values, steps):
    """rearrange.shift_field one axis at a time, each shifted axis into a
    new zero-filled array."""
    out = values
    for axis, s in enumerate(steps):
        s = int(s)
        if s == 0:
            continue
        shifted = np.zeros_like(out)
        src = [slice(None)] * out.ndim
        dst = [slice(None)] * out.ndim
        if s > 0:
            src[axis] = slice(s, None)
            dst[axis] = slice(None, -s)
        else:
            src[axis] = slice(None, s)
            dst[axis] = slice(-s, None)
        shifted[tuple(dst)] = out[tuple(src)]
        out = shifted
    return out


def symmetry_deficit(field, p):
    """rearrange.symmetry_deficit with the centroid summed over the
    stacked coordinates array and the field shifted by shift_field."""
    total = float(np.sum(field.values))
    spec = field.spec
    x = coords(spec)
    centroid = np.array([float(np.sum(x[..., k] * field.values)) / total
                         for k in range(spec.dim)])
    shift = -np.rint(centroid / spec.h).astype(int)
    centered = ScalarField(spec, shift_field(field.values, -shift))
    target = schwarz(centered)
    diff = ScalarField(spec, np.abs(centered.values - target.values))
    deficit = lp_norm(diff, p) / lp_norm(field, p)
    return deficit, tuple(int(s) for s in shift)


def bb_step_dst(s, y, symbol):
    """minimize._bb_step with <s_i, P^-1 s_i> = sum symbol * DST(s_i)^2,
    symbol from minimize._sobolev_symbol."""
    sy = sum(float(np.vdot(si, yi)) for si, yi in zip(s, y))
    if not sy > 0.0:
        return None
    return sum(float(np.vdot(symbol, _dst(si) ** 2)) for si in s) / sy


def write_field_per_value(U, path):
    """grid.write_field with one write per value."""
    spec = U.spec
    with open(path, "w", newline="\n") as fh:
        fh.write("RFLD 1\n")
        fh.write(f"{spec.dim} {U.m} {spec.points_per_axis} "
                 f"{spec.half_width:.17g}\n")
        for comp in U.components:
            for v in comp.values.ravel():
                fh.write(f"{v:.17g}\n")


def axis_derivative(values, axis, h):
    """grid.axis_derivative on the array with the axis moved to the front."""
    out = np.empty_like(values)
    u = np.moveaxis(values, axis, 0)
    o = np.moveaxis(out, axis, 0)
    np.subtract(u[2:], u[:-2], out=o[1:-1])
    o[1:-1] /= 2.0 * h
    np.subtract(u[1:2], u[:1], out=o[:1])
    o[:1] /= h
    np.subtract(u[-1:], u[-2:-1], out=o[-1:])
    o[-1:] /= h
    return out


def axis_derivative_adjoint(w, axis, h):
    """grid.axis_derivative_adjoint on the arrays with the axis moved to
    the front."""
    d = np.zeros_like(w)
    wv = np.moveaxis(w, axis, 0)
    out = np.moveaxis(d, axis, 0)
    # interior stencil (u[i+1]-u[i-1])/(2h) for i=1..n-2
    out[2:] += wv[1:-1] / (2.0 * h)
    out[:-2] -= wv[1:-1] / (2.0 * h)
    # one-sided stencils at the faces
    out[1] += wv[0] / h
    out[0] -= wv[0] / h
    out[-1] += wv[-1] / h
    out[-2] -= wv[-1] / h
    return d


def gradient_components(field):
    """grid.gradient_components from the moved-axis stencil."""
    return [axis_derivative(field.values, k, field.spec.h)
            for k in range(field.spec.dim)]


def canonical_order(spec):
    """Flat indices sorted by squared integer radius, then by lexicographic
    coordinates: the order whose inverse is rearrange._shape_rank."""
    n = spec.points_per_axis
    idx = np.indices(spec.shape).reshape(spec.dim, -1) - (n - 1) // 2
    r2 = np.sum(idx**2, axis=0)
    keys = tuple(idx[k] for k in reversed(range(spec.dim))) + (r2,)
    return np.lexsort(keys)


def place_radially(spec, ascending):
    """rearrange._place_radially by a scatter to canonical_order."""
    out = np.empty_like(ascending)
    out[canonical_order(spec)] = ascending[::-1]
    return ScalarField(spec, out.reshape(spec.shape))


# --- fields and a bit comparison for the stencil and placement oracles ------

# points per axis of the stencil oracle tests; h = 2.6 / (n - 1) at
# STENCIL_HALF_WIDTH is a power of 2 for none of them
STENCIL_POINTS = (3, 5, 9, 33)
STENCIL_HALF_WIDTH = 1.3


def same_bits(a, b):
    """True when a and b hold the same float64 bits, zero signs included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def stencil_field(spec, rng):
    """Non-negative values with +0.0 and -0.0 entries, a repeated value,
    and a radial part inside half the box, whose values tie wherever the
    grid's radii tie."""
    vals = rng.random(spec.shape)
    flat = vals.reshape(-1)
    flat[::3] = 0.0
    flat[1::5] = -0.0
    flat[2::7] = 0.75
    inner = spec.radii < spec.half_width / 2
    vals[inner] = np.exp(-spec.radii[inner])
    return vals


def views(a):
    """a, its transpose and its reversals along the first and last axes:
    the reversals are non-contiguous views, and so is the transpose when a
    has more than one axis."""
    return [a, a.T, a[::-1], a[..., ::-1]]
