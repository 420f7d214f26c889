"""Energy functional E = E1 + E2 + E3 with pluggable integrands.

E1 sums j_i(u_i, |Du_i|) over components, E2 is minus a local integral
-int F(|x|, U), and E3 is minus the nonlocal quadratic form
-int int G(U(x)) V(|x-y|) G(U(y)).  All integrand evaluators must accept
numpy arrays (broadcasting) and be pure.

The nonlocal term is an FFT convolution built from numpy's one-dimensional
transforms.  They run in the axis order of scipy.fft.rfftn and irfftn, which
wrap the same pocketfft library, so the results carry the same bits as
those calls; numpy.fft.rfftn runs its axes in the opposite order and
differs in the last bits.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import _worker
from .grid import (GridSpec, MultiField, ScalarField, _magnitude, axis_sum,
                   axis_derivative_adjoint, gradient_components,
                   gradient_magnitude)


@dataclasses.dataclass
class IntegrandJ:
    """Gradient integrand j(s, b) with partial derivatives.

    a1 is the coercivity constant in j(s, b) >= a1 * b^p; strictly_convex
    declares strict convexity of j(s, .).  Every caller builds |Du| and
    passes it as b, also to an integrand that ignores it.
    """

    j: callable
    dj_ds: callable
    dj_db: callable
    a1: float = 1.0
    strictly_convex: bool = False


@dataclasses.dataclass
class LocalTermF:
    """Local term F(r, s_1, ..., s_m) with growth data (F1).

    f takes (r, s) with s a list of m arrays; df_ds returns the list of m
    partial derivatives.  f2_triple, when set, is one (eps, R0, s0) sample
    point for the vanishing-tail condition (F2); otherwise (F2) is treated
    as declared metadata.
    """

    f: callable
    df_ds: callable
    growth_K: float
    exponents_l: tuple
    f2_triple: tuple | None = None


@dataclasses.dataclass
class CouplingG:
    g: callable
    dg_ds: callable
    growth_K: float
    exponents_mu: tuple


@dataclasses.dataclass
class EnergyModel:
    """js (one gradient integrand per component), optional F, and G with V
    together; p is the exponent of the L^p constraint spheres.

    V is the radial non-increasing interaction kernel: a function that maps
    an array of radii r > 0 to V(r).  The value at zero offset is the cell
    average of V (origin_value).  The weak-L^q membership of V that the
    model assumes is not stored: no finite check certifies it (see
    check_assumptions).  kernel_transform caches on the function itself, so
    models that share one V share its transform on each grid.
    """

    p: float
    js: list
    F: LocalTermF | None = None
    G: CouplingG | None = None
    V: callable | None = None

    def __post_init__(self):
        if (self.G is None) != (self.V is None):
            raise ValueError("coupling G and kernel V must be configured together")

    @property
    def m(self) -> int:
        return len(self.js)


@dataclasses.dataclass
class EnergyBreakdown:
    """Energy terms of one field.

    potential is V*g, the nonlocal potential behind E3 (None without a
    nonlocal term); discrete_gradient reuses it.
    """

    E1: float
    E2: float
    E3: float
    potential: np.ndarray | None = dataclasses.field(
        default=None, repr=False, compare=False)

    @property
    def total(self) -> float:
        return self.E1 + self.E2 + self.E3


def _require_finite(vals: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(vals)):
        idx = np.unravel_index(int(np.argmax(~np.isfinite(vals))), vals.shape)
        raise ValueError(f"{what} produced non-finite value at "
                         f"{tuple(map(int, idx))}")


def origin_value(V: callable, spec: GridSpec) -> float:
    """Kernel value assigned to zero offset: the average of V(|x|) over the
    cell [-h/2, h/2]^N, by a fixed 16-point-per-axis midpoint rule."""
    h = spec.h
    q = 16
    pts = (np.arange(q) + 0.5) / q * h - h / 2.0
    r = np.sqrt(axis_sum([pts**2] * spec.dim))
    vals = V(r)
    _require_finite(np.asarray(vals), "kernel")
    return float(np.mean(vals))


def sample_kernel(V: callable, spec: GridSpec) -> np.ndarray:
    """V at every pairwise lattice offset, in the circulant layout of rfftn.

    Along each axis of length M = _fast_len(2n - 2), index q holds offset
    d = q for q < n and d = q - M for q > M - n, and 0 in between; where
    M = 2n - 2, offsets n - 1 and 1 - n share index n - 1.  Every entry is
    sampled at the radius of |d|, so the kernel is exactly even along each
    axis and the shared index holds the one value of both offsets.  Index
    (0, ..., 0), the zero offset, holds origin_value.
    """
    n, dim = spec.points_per_axis, spec.dim
    size = _fast_len(2 * n - 2)
    # -2L + h(|d| + n - 1) are the coordinates of the grid with 2n - 1
    # points and half-width 2L, whose step 4L/(2n - 2) equals spec.h
    # exactly; the exactly symmetric h*|d| rounds differently where h is not
    # a power of 2.
    x = -2.0 * spec.half_width + spec.h * (np.arange(n) + n - 1)
    r = np.sqrt(axis_sum([x**2] * dim)).ravel()
    vals = np.empty_like(r)
    vals[0] = origin_value(V, spec)  # offset (0, ..., 0) comes first
    vals[1:] = V(r[1:])
    _require_finite(vals[1:], "kernel")
    # index q holds |d| = min(q, M - q) where that is below n
    q = np.arange(size)
    dist = np.minimum(q, size - q)
    used = dist < n
    kernel = np.zeros((size,) * dim)
    kernel[np.ix_(*[used] * dim)] = vals.reshape((n,) * dim)[
        np.ix_(*[dist[used]] * dim)]
    return kernel


def _fast_len(target: int) -> int:
    """The smallest 2^a 3^b 5^c >= target (scipy's next_fast_len for real
    input)."""
    size = target
    while True:
        rest = size
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return size
        size += 1


# Smallest rfftn spectrum, in points, from which the convolution runs its
# middle passes in slabs of columns (_SLAB_POINTS) and each of its three
# stages in two halves, one on the worker thread (3D n >= 27, 2D n >= 183).
# Below it the calls of more slabs cost more than the cache misses they
# save: on a 2-core Xeon VM, one core, one slab of every column ran 17^3 in
# a median 0.53-0.55 ms per process, and the slab rule's own width (16
# columns, then 1) in 0.57-0.91 ms, over 4 processes each, alternated.
# Each width ran in a process of its own, so neither width's buffers sat in
# the other's heap; alternated call by call in one process, the slab rule
# took 1.11-1.12 times as long.
_SPLIT_MIN = 2**16

# Points of one slab buffer above _SPLIT_MIN.  A slab holds as many columns
# of the half-spectrum axis as fit, but one where that is four or fewer:
# one column's lines along axis N - 2 are contiguous, while slabs of two or
# three columns, rows of less than one 64-byte cache line, ran 1.2-1.5
# times as long.  On the VM above, one core, calls alternating with a
# convolution through two full spectra: 2^14 points ran 2D n=193 and 257
# in 0.92-0.95 of its time, 2^12 in 1.06-1.07 and 2^11 in 1.2-1.3; in 3D
# one column ran 65^3 in 0.70 and 33^3 in 0.97-0.99.
_SLAB_POINTS = 2**14

def _slab_width(size: int, dim: int, columns: int, split: bool) -> int:
    """Columns per slab: every column below the gate, else as many as
    _SLAB_POINTS holds where that is more than four, else one."""
    if not split:
        return columns
    width = min(columns, _SLAB_POINTS // size ** (dim - 1))
    return width if width > 4 else 1


def _slabs(columns: slice, width: int) -> list:
    """Indices of the slabs of at most width last-axis columns that cover
    columns, in order."""
    return [(Ellipsis, slice(start, min(start + width, columns.stop)))
            for start in range(columns.start, columns.stop, width)]


def _into(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    """The leading points of a flat buffer as a C-ordered array of shape."""
    return buffer[:math.prod(shape)].reshape(shape)


def _forward(x: np.ndarray, size: int, buffers: list) -> np.ndarray:
    """The complex passes of rfftn on one slab x of last-axis columns: the
    transform zero-padded to size along axes 0, 1, ..., N - 2 in turn,
    written into the two buffers alternately, starting with buffers[0].
    Each pass pads only its own axis, so lines that are all padding are
    never transformed (FFT pruning, Markel, IEEE Trans. Audio Electroacoust.
    19, 1971); they would transform to zeros.  Returns the last output (x
    itself in 1D)."""
    for k in range(x.ndim - 1):
        out = _into(buffers[k % 2], (size,) * (k + 1) + x.shape[k + 1:])
        np.fft.fft(x, size, axis=k, out=out)
        x = out
    return x


def _convolve_slabs(spectrum: np.ndarray, kernel_hat: np.ndarray, n: int,
                    columns: slice, width: int) -> None:
    """The middle passes of kernel_convolve on spectrum's columns, in place.

    spectrum holds the real transform of g along the last axis, shape
    (n, ..., n, H).  Each slab of width columns runs the forward complex
    passes (_forward), the product with kernel_hat, and the inverse complex
    passes along axes 0, 1, ..., N - 2, each of which keeps only the first
    n points of the axis before it, so no line that the result drops is
    transformed.  The slab's first n points per axis go back into
    spectrum.
    """
    size, lead = kernel_hat.shape[0], kernel_hat.ndim - 1
    # two flat buffers, each the size of one slab's full forward transform
    buffers = ([np.empty(size**lead * width, dtype=complex) for _ in range(2)]
               if lead else None)
    for cols in _slabs(columns, width):
        x = _forward(spectrum[cols], size, buffers)
        np.multiply(x, kernel_hat[cols], out=x)
        for k in range(lead):
            x = x[(slice(n),) * k]
            out = _into(buffers[(lead + k) % 2], x.shape)
            np.fft.ifft(x, axis=k, norm="forward", out=out)
            x = out
        if lead:
            spectrum[cols] = x[(slice(n),) * lead]


@functools.lru_cache(maxsize=4)
def kernel_transform(V: callable, spec: GridSpec) -> np.ndarray:
    """The transform of V on spec that kernel_convolve takes, from a small
    least-recently-used cache keyed on V and spec.

    It is the rFFT of the kernel's circulant embedding (sample_kernel):
    offset d along an axis sits at index d mod M, with
    M = _fast_len(2n - 2) >= 2n - 2.  The offsets x - y of two grid points
    lie in [1 - n, n - 1], and only +-(n - 1) can meet at one index, which
    the even kernel gives one value; so the cyclic convolution of the
    zero-padded g equals the free-space sum on the first n points per axis
    (Hockney & Eastwood, Computer Simulation Using Particles, 1988).

    The real transform along the last axis makes the returned array, and
    the complex transforms along axes 0, 1, ..., N - 2 then run in place in
    it, in scipy.fft.rfftn's axis order, so the array has rfftn's bits.
    numpy transforms each line through its own buffer, so an in-place pass
    needs no full-size array: the peak, about 2.2-2.6 result sizes at 3D
    n=33 and 65 and 2D n=257, is while the sample and the real transform are
    both alive.  The array is read-only, since the cache shares it.
    """
    kernel_hat = np.fft.rfft(sample_kernel(V, spec), axis=-1)
    for k in range(kernel_hat.ndim - 1):
        np.fft.fft(kernel_hat, axis=k, out=kernel_hat)
    kernel_hat.flags.writeable = False
    return kernel_hat


def kernel_convolve(g: np.ndarray, kernel_hat: np.ndarray) -> np.ndarray:
    """Free-space linear convolution sum_y V(|x - y|) g(y) (no volume factor).

    kernel_hat is kernel_transform of V on g's grid, and the circulant
    length M = _fast_len(2n - 2) follows from g's shape.  Every nonlocal
    application goes through here, as the cyclic convolution of the
    circulant embedding.  It gives the bits of
    irfftn(rfftn(g, M) * kernel_hat, M)[:n, ...] in scipy.fft, in three
    stages:

    1. the real transform of g, padded to M, along the last axis into a
       spectrum array of shape (n, ..., n, H), H = M // 2 + 1;
    2. _convolve_slabs: each index of that half-spectrum axis is on its own
       in every later pass of the forward transform, the product and the
       inverse, so these passes run one slab of columns at a time in two
       small buffers, and the slab's first n points per axis go back into
       the spectrum array;
    3. the real inverse along the last axis into a real array of shape
       (n, ..., n, M), whose first n points per line, times 1/M^N, are the
       result, as irfftn's last pass scales.

    The pruned passes do about 0.57 times the line work of the full
    transforms in 3D, and 0.74 times in 2D.  The spectrum and real arrays
    and the slab buffers are made for the call and dropped on return, so
    the call keeps nothing but the result and is safe from any number of
    threads.  Its peak, result included, is about 5.2-6.3 field sizes
    (n^N float64 values) on one core: 1.5 MB at 33^3, 10.9 MB at 65^3 and
    81 MB at 127^3, where one full (M, ..., M, H) spectrum takes 2.2, 17
    and 135 MB.

    From 2D and 3D spectra of _SPLIT_MIN points on, a slab holds
    _SLAB_POINTS points (one column in 3D from n = 29), and each stage runs
    in two halves, one on the calling thread and one on the package's
    worker thread (_worker.in_halves): stages 1 and 3 split the rows along
    axis 0, stage 2 the columns, so a call waits three times.  Each half
    of stage 2 makes its own slab buffers.  Below the gate, and in 1D,
    stage 2 runs as one slab of every column on the calling thread: at
    17^3 the calls of one-column slabs cost more than the cache misses they
    save.  Each line goes through the same transform call either way, so
    the result has the same bits on any number of cores and for any slab
    width.  The worker's halves call numpy only: no traced public function
    runs off the calling thread.
    """
    n, dim = g.shape[-1], g.ndim
    size = _fast_len(2 * n - 2)
    half = size // 2 + 1
    rows = (n,) * (dim - 1)
    spectrum = np.empty(rows + (half,), dtype=complex)
    real = np.empty(rows + (size,))
    result = np.empty(g.shape)
    split = dim > 1 and kernel_hat.size >= _SPLIT_MIN
    width = _slab_width(size, dim, half, split)

    def forward(part):
        np.fft.rfft(g[part], size, axis=-1, out=spectrum[part])

    def middle(part):
        _convolve_slabs(spectrum, kernel_hat, n, part, width)

    def inverse(part):
        out, dest = real[part], result[part]
        np.fft.irfft(spectrum[part], size, axis=-1, norm="forward", out=out)
        # copied, then scaled in place: np.multiply from the strided
        # out[..., :n] would make numpy's iterator allocate a buffer
        np.copyto(dest, out[..., :n])
        dest *= 1.0 / size**dim

    if not split:
        forward(slice(None))
        middle(slice(0, half))
        inverse(slice(None))
        return result
    _worker.in_halves(forward, n)
    _worker.in_halves(middle, half)
    _worker.in_halves(inverse, n)
    return result


def _nonlocal_sum(U: MultiField, model: EnergyModel) -> tuple:
    """(Q, V*g) with Q = h^2N sum_x g(x) (V*g)(x), g = G(U), the positive
    nonlocal sum that E3 negates; (0.0, None) without a nonlocal term.

    The component count is checked first, for every model.
    """
    if len(U.components) != model.m:
        raise ValueError("component count does not match model")
    if model.G is None:
        return 0.0, None
    g = np.asarray(model.G.g([c.values for c in U.components]),
                   dtype=np.float64)
    _require_finite(g, "coupling")
    potential = kernel_convolve(g, kernel_transform(model.V, U.spec))
    return float(np.sum(g * potential)) * U.spec.cell_volume**2, potential


def eval_total(U: MultiField, model: EnergyModel) -> EnergyBreakdown:
    """E1, E2 and E3 of U and the potential V*g behind E3.

    E1 = h^N sum_i sum_x j_i(u_i, |Du_i|) with |Du_i| from
    gradient_magnitude, E2 = -h^N sum_x F(|x|, U) and E3 = -Q from
    _nonlocal_sum, whose V*g runs through kernel_convolve.  E3 is
    evaluated first.
    """
    Q, potential = _nonlocal_sum(U, model)
    E3 = 0.0 if potential is None else -Q
    spec = U.spec
    hN = spec.cell_volume
    E1 = 0.0
    for comp, integrand in zip(U.components, model.js):
        j = integrand.j(comp.values, gradient_magnitude(comp).values)
        _require_finite(np.asarray(j), "integrand")
        E1 += float(np.sum(j))
    E2 = 0.0
    if model.F is not None:
        f = model.F.f(spec.radii, [c.values for c in U.components])
        _require_finite(np.asarray(f), "integrand")
        E2 = -float(np.sum(f)) * hN
    return EnergyBreakdown(E1 * hN, E2, E3, potential)


def discrete_gradient(U: MultiField, model: EnergyModel,
                      energy: EnergyBreakdown) -> MultiField:
    """Exact gradient of the discrete energy with respect to grid values.

    energy is eval_total(U, model); its potential V*g gives the E3 part.
    E1 differentiates through the finite-difference stencils of
    gradient_magnitude; E2 is pointwise; E3 contributes
    -2 h^2N (V * g) dG/ds_i (the factor 2 comes from the symmetric double
    sum).
    """
    spec = U.spec
    h, hN = spec.h, spec.cell_volume
    vals = [c.values for c in U.components]
    grads = [np.zeros(spec.shape) for _ in range(U.m)]

    for i, (comp, integrand) in enumerate(zip(U.components, model.js)):
        u, d = comp.values, gradient_components(comp)
        b = _magnitude(d)
        grads[i] += hN * integrand.dj_ds(u, b)
        db = integrand.dj_db(u, b)
        safe = np.where(b > 0, b, 1.0)
        for k in range(spec.dim):
            # dj_db * d_k u / |Du|, with zero direction where the gradient
            # vanishes (there d_k u = 0 as well)
            w = db * np.where(b > 0, d[k] / safe, 0.0)
            grads[i] += hN * axis_derivative_adjoint(w, k, h)

    if model.F is not None:
        df = model.F.df_ds(spec.radii, vals)
        for i in range(U.m):
            grads[i] -= hN * np.asarray(df[i])

    if model.G is not None:
        dg = model.G.dg_ds(vals)
        for i in range(U.m):
            grads[i] -= 2.0 * hN**2 * energy.potential * np.asarray(dg[i])

    return MultiField([ScalarField(spec, gi) for gi in grads])


# --- sampled verification of the structural assumptions ---------------------

@dataclasses.dataclass
class CheckResult:
    name: str
    passed: bool
    witness: object = None


@dataclasses.dataclass
class AssumptionReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]


_EPS = 1e-12


def check_assumptions(model: EnergyModel, trials: int, seed: int) -> AssumptionReport:
    """Sample the structural inequalities on random points.

    A failed check carries a concrete counterexample tuple.  The weak-L^q
    membership of V (G2) has no finite certificate and is not sampled.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    m = model.m
    p = model.p
    checks = []

    def split(s):
        return [s[i] for i in range(m)]

    def supermodular_pair(rng, fn, y, hh, kk):
        """Components (i, j), drawn from rng, with
        fn(y + hh e_i + kk e_j) + fn(y) < fn(y + hh e_i) + fn(y + kk e_j),
        or None; nothing is drawn for m < 2."""
        if m < 2:
            return None
        i, jdx = rng.choice(m, size=2, replace=False)
        ya, yb, yc = y.copy(), y.copy(), y.copy()
        ya[i] += hh
        ya[jdx] += kk
        yb[i] += hh
        yc[jdx] += kk
        if fn(ya) + fn(y) < fn(yb) + fn(yc) - _EPS:
            return int(i), int(jdx)
        return None

    def run(name, sampler):
        for _ in range(trials):
            witness = sampler(rng)
            if witness is not None:
                checks.append(CheckResult(name, False, witness))
                return
        checks.append(CheckResult(name, True))

    for i, integrand in enumerate(model.js):
        jf = integrand.j

        def j0(rng, jf=jf):
            s, b = rng.uniform(-3, 3), rng.uniform(0, 3)
            if jf(abs(s), b) > jf(s, b) + _EPS:
                return (s, b)

        def j1(rng, jf=jf, a1=integrand.a1):
            s, b = rng.uniform(0, 3), rng.uniform(0, 3)
            if jf(s, b) < a1 * b**p - _EPS:
                return (s, b)

        def j2(rng, jf=jf, strict=integrand.strictly_convex):
            s = rng.uniform(0, 3)
            b, b2 = np.sort(rng.uniform(0, 3, size=2))
            if jf(s, b) > jf(s, b2) + _EPS:  # non-decreasing
                return (s, b, b2)
            mid = jf(s, (b + b2) / 2.0)
            avg = (jf(s, b) + jf(s, b2)) / 2.0
            if mid > avg + _EPS:
                return (s, b, b2)
            if strict and b2 - b > 1e-3 and mid > avg - _EPS:
                return (s, b, b2)

        run(f"J0[{i}]", j0)
        run(f"J1[{i}]", j1)
        run(f"J2[{i}]", j2)

    if model.F is not None:
        F = model.F

        def f0(rng):
            r = rng.uniform(0, 5)
            s = rng.uniform(-3, 3, size=m)
            if F.f(r, split(s)) > F.f(r, split(np.abs(s))) + _EPS:
                return (r, tuple(s))

        def f1(rng):
            r = rng.uniform(0, 5)
            s = rng.uniform(0, 3, size=m)
            val = F.f(r, split(s))
            bound = F.growth_K * (
                np.sum(s**2) ** (p / 2.0)
                + sum(s[i] ** (F.exponents_l[i] + p) for i in range(m)))
            if val < -_EPS or val > bound + _EPS:
                return (r, tuple(s))

        def f3(rng):
            r = rng.uniform(0, 5)
            y = rng.uniform(0, 3, size=m)
            hh, kk = rng.uniform(0, 2, size=2)
            pair = supermodular_pair(rng, lambda v: F.f(r, split(v)),
                                     y, hh, kk)
            if pair is not None:
                return ("s-supermod", r, tuple(y), hh, kk) + pair
            # mixed radius/value inequality with R >= r
            R = r + rng.uniform(0, 5)
            i = rng.integers(m)
            yb = y.copy()
            yb[i] += hh
            lhs = F.f(r, split(yb)) + F.f(R, split(y))
            rhs = F.f(R, split(yb)) + F.f(r, split(y))
            if lhs < rhs - _EPS:
                return ("r-supermod", r, R, tuple(y), hh, int(i))

        run("F0", f0)
        run("F1", f1)
        run("F3", f3)

        if F.f2_triple is not None:
            eps, r0, s0 = F.f2_triple

            def f2(rng):
                r = r0 + rng.uniform(0, 5)
                s = rng.uniform(0, s0, size=m)
                if F.f(r, split(s)) > eps * np.sum(s**2) ** (p / 2.0) + _EPS:
                    return (r, tuple(s))

            run("F2", f2)

    if model.G is not None:
        G, V = model.G, model.V

        def g0(rng):
            s = rng.uniform(-3, 3, size=m)
            if G.g(split(s)) > G.g(split(np.abs(s))) + _EPS:
                return tuple(s)

        def g1(rng):
            s = rng.uniform(0, 3, size=m)
            val = G.g(split(s))
            bound = G.growth_K * sum(
                s[i] ** G.exponents_mu[i] for i in range(m))
            if val < -_EPS or val > bound + _EPS:
                return tuple(s)

        def g4(rng):
            y = rng.uniform(0, 3, size=m)
            hh, kk = rng.uniform(0, 2, size=2)
            i = rng.integers(m)
            yb = y.copy()
            yb[i] += hh
            if G.g(split(yb)) < G.g(split(y)) - _EPS:  # monotone
                return ("monotone", tuple(y), hh, int(i))
            pair = supermodular_pair(rng, lambda v: G.g(split(v)), y, hh, kk)
            if pair is not None:
                return ("supermod", tuple(y), hh, kk) + pair

        def g3(rng):
            r1 = rng.uniform(1e-3, 5)
            r2 = r1 + rng.uniform(0, 5)
            if V(np.array(r1)) < V(np.array(r2)) - _EPS:
                return (r1, r2)

        run("G0", g0)
        run("G1", g1)
        run("G3", g3)
        run("G4", g4)

    return AssumptionReport(checks)
