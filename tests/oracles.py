"""Dense pairwise oracle for the nonlocal term.

Built from the grid's point coordinates, independently of the sampled
kernel and the FFT route of polarmin.energy.  Memory grows as P^2 for P
grid points: about 190 MB at 17^3.
"""

import numpy as np

from polarmin.energy import origin_value


def dense_kernel_matrix(V, spec):
    """Pairwise matrix V(|x - y|) over all grid points, with origin_value
    on the diagonal; distances one block of rows and one axis at a time."""
    P = spec.num_points
    x = spec.coords.reshape(-1, spec.dim)
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
