"""Plain-formula oracles for the tests.

The dense pairwise oracle for the nonlocal term is built from the grid's
point coordinates, independently of the sampled kernel and the FFT route
of polarmin.energy; its memory grows as P^2 for P grid points: about
190 MB at 17^3.  The polarization driver's objective and distances, and
the symmetry deficit, are written on whole fields, as the library wrote
them before it worked on arrays in place.  The Barzilai-Borwein step takes
its numerator from DST coefficients, and the RFLD writer writes one value
at a time, as the library did before.
"""

import numpy as np

from polarmin.energy import origin_value
from polarmin.grid import ScalarField, lp_norm
from polarmin.minimize import _dst
from polarmin.rearrange import schwarz, shift_field


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
        block[nz] = V.v(d[nz])
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


def symmetry_deficit(field, p):
    """rearrange.symmetry_deficit with the centroid summed over the
    stacked coordinates array."""
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
