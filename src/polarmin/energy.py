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
import threading

import numpy as np

from . import _worker
from .grid import (GridSpec, MultiField, ScalarField, _magnitude, axis_sum,
                   axis_derivative_adjoint, gradient_components,
                   gradient_magnitude)


@dataclasses.dataclass
class IntegrandJ:
    """Gradient integrand j(s, b) with partial derivatives.

    a1 is the coercivity constant in j(s, b) >= a1 * b^p; strictly_convex
    declares strict convexity of j(s, .).  depends_on_gradient=False marks
    integrands that ignore b, for which polarization invariance is exact;
    the checks in ``verify`` never build |Du| for them and pass zeros as b.
    """

    j: callable
    dj_ds: callable
    dj_db: callable
    a1: float = 1.0
    strictly_convex: bool = False
    depends_on_gradient: bool = True


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


# Smallest rfftn spectrum, in points, whose convolution passes run in two
# halves on two cores (3D n >= 27, 2D n >= 183).  Each phase costs a handoff
# to the worker thread.  Measured on a 2-core Xeon VM, split against one
# core, calls alternating in one process: 17^3 (17408 points) 906 against
# 521 us; 25^3 (57600) faster in 67% of calls; 2D n=193 (74112) in 94%,
# 2073 against 3224 us; 33^3 (135168) in 98%, 3462 against 6044 us.
_SPLIT_MIN = 2**16

# each thread's two work arrays for its last grid shape
_local = threading.local()


def _spectrum_buffers(size: int, dim: int) -> list:
    """Two work arrays of the rfftn shape (M, ..., M, M // 2 + 1), which
    the passes of _forward_passes and kernel_convolve write in turn."""
    shape = (size,) * (dim - 1) + (size // 2 + 1,)
    return [np.empty(shape, dtype=complex) for _ in range(2)]


def _work_arrays(size: int, dim: int) -> list:
    """The calling thread's _spectrum_buffers for this shape, kept for its
    next convolution and replaced when the shape changes."""
    if getattr(_local, "key", None) != (size, dim):
        _local.work = None  # free the old pair before making the new one
        _local.work = _spectrum_buffers(size, dim)
        _local.key = (size, dim)
    return _local.work


def _part(index: tuple, part) -> tuple:
    """index with part = (axis, slice) in place of its slice along axis;
    index's own slice there starts at 0 and covers part's.  part None
    leaves index as it is."""
    if part is None:
        return index
    axis, s = part
    return index[:axis] + (s,) + index[axis + 1:]


def _forward_passes(a: np.ndarray, size: int, work: list) -> list:
    """The passes of the rfftn of a zero-padded to size along every axis.

    Each pass is (axes, extents, run): the axes it transforms, the shape
    of the array it reads, and run(part), which transforms the lines whose
    index along part's axis lies in part's slice (part None: every line).
    The axes run as in scipy.fft.rfftn: the real transform along the last
    axis, then the complex one along axes 0, 1, ....  Each pass pads only
    its own axis, so lines that are all padding are never transformed
    (FFT pruning, Markel, IEEE Trans. Audio Electroacoust. 19, 1971); they
    would transform to zeros.  The passes write the leading blocks of the
    two work arrays in turn, starting with work[0], so the result lies in
    work[(a.ndim - 1) % 2].
    """
    lead = a.ndim - 1
    half = size // 2 + 1
    every = (slice(None),) * a.ndim

    def block(k):  # axes 0..k-1 transformed to length size
        return ((slice(None),) * k + tuple(slice(n) for n in a.shape[k:lead])
                + (slice(None),))

    def rfft(part):
        np.fft.rfft(a[_part(every, part)], size, axis=-1,
                    out=work[0][_part(block(0), part)])

    passes = [((lead,), a.shape, rfft)]
    for k in range(lead):
        def fft(part, k=k):
            np.fft.fft(work[k % 2][_part(block(k), part)], size, axis=k,
                       out=work[(k + 1) % 2][_part(block(k + 1), part)])
        passes.append(((k,), (size,) * k + a.shape[k:lead] + (half,), fft))
    return passes


def _phases(passes: list, dim: int) -> list:
    """passes grouped into phases that split along one axis, as
    (axis, extent, runs).

    A pass joins the phase before it while both leave one axis
    untransformed; the phase splits along the first such axis.  Axes
    before the last are preferred: halves along the last axis cut every
    contiguous row, and a 3D phase split so ran slower than two phases
    split along other axes.  kernel_convolve lists the phases this gives.
    dim is 2 or 3.
    """
    last = dim - 1
    phases = []  # [untransformed axes, extents, runs]
    for axes, extents, run in passes:
        if phases:
            free = phases[-1][0] - set(axes)
            if free and (min(free) < last or min(phases[-1][0]) == last):
                phases[-1][0] = free
                phases[-1][2].append(run)
                continue
        phases.append([set(range(dim)) - set(axes), extents, [run]])
    return [(min(free), extents[min(free)], runs)
            for free, extents, runs in phases]


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
    (Hockney & Eastwood, Computer Simulation Using Particles, 1988).  The
    array comes from _forward_passes of the sampled kernel, the bits of
    scipy.fft.rfftn, in arrays of its own, and is read-only, since the
    cache shares it.
    """
    kernel = sample_kernel(V, spec)
    size = kernel.shape[-1]
    work = _spectrum_buffers(size, kernel.ndim)
    for _, _, run in _forward_passes(kernel, size, work):
        run(None)
    kernel_hat = work[(kernel.ndim - 1) % 2]
    kernel_hat.flags.writeable = False
    return kernel_hat


def kernel_convolve(g: np.ndarray, kernel_hat: np.ndarray) -> np.ndarray:
    """Free-space linear convolution sum_y V(|x - y|) g(y) (no volume factor).

    kernel_hat is kernel_transform of V on g's grid, and the circulant
    length M = _fast_len(2n - 2) follows from g's shape.  Every nonlocal
    application goes through here, as the cyclic convolution of the
    circulant embedding.  It gives the bits of
    irfftn(rfftn(g, M) * kernel_hat, M)[:n, ...] in scipy.fft.  The
    forward passes are _forward_passes.  The inverse runs the complex
    transforms along axes 0, 1, ... and then the real one along the last
    axis, as irfftn does, but keeps only the first n points of each axis
    before the next pass, so no line that the final slice drops is
    transformed.  The passes leave out the 1/M^N factor; one product
    applies it to each kept point, as irfftn's last pass does.  The pruned
    passes do about 0.57 times the line work of the full transforms in 3D,
    and 0.74 times in 2D.

    Every pass writes into the calling thread's two work arrays
    (_work_arrays, 4.3 MB at 33^3 and 270 MB at 127^3), the last into a
    real view of one of them, so the only array made is the result.

    From 2D and 3D spectra of _SPLIT_MIN points on, the passes run in the
    phases of _phases, each split along an axis that none of its passes
    transforms, half on the calling thread and half on the package's
    worker thread (_worker.in_halves), with one wait per phase.  In 3D:
    the real transform and the one along axis 0, split along axis 1; the
    transform along axis 1 and the kernel product, along axis 0; the
    inverse along axis 0, along axis 1; the inverse along axis 1, the real
    inverse and the scale, along axis 0.  In 2D: the real transform; the
    transform along axis 0, the product and its inverse, split along the
    last axis; the real inverse and the scale.  Below the gate, or with
    one core, the passes run in order on the calling thread.  Each line
    goes through the same transform call either way, so the result has the
    same bits on any number of cores.  The worker's halves call numpy
    only: no traced public function runs off the calling thread.
    """
    n, dim = g.shape[-1], g.ndim
    size = _fast_len(2 * n - 2)
    half = size // 2 + 1
    work = _work_arrays(size, dim)
    result = np.empty(g.shape)
    lead = dim - 1
    every = (slice(None),) * dim
    passes = _forward_passes(g, size, work)

    def product(part):
        spectrum = work[lead % 2][_part(every, part)]
        np.multiply(spectrum, kernel_hat[_part(every, part)], out=spectrum)

    passes.append(((), (size,) * lead + (half,), product))
    for k in range(lead):
        kept = (slice(n),) * k + (slice(None),) * (dim - k)

        def ifft(part, k=k, kept=kept):
            np.fft.ifft(work[(lead + k) % 2][_part(kept, part)], axis=k,
                        norm="forward",
                        out=work[(lead + k + 1) % 2][_part(kept, part)])

        passes.append(((k,), (n,) * k + (size,) * (lead - k) + (half,), ifft))
    kept = (slice(n),) * lead + (slice(None),)
    real = work[1].view(np.float64)[(slice(n),) * lead + (slice(size),)]

    def irfft(part):
        out = real[_part(every, part)]
        np.fft.irfft(work[0][_part(kept, part)], size, axis=-1,
                     norm="forward", out=out)
        np.multiply(out[..., :n], 1.0 / size**dim,
                    out=result[_part(every, part)])

    passes.append(((lead,), (n,) * lead + (half,), irfft))
    if dim < 2 or kernel_hat.size < _SPLIT_MIN:
        for _, _, run in passes:
            run(None)
        return result
    for axis, extent, runs in _phases(passes, dim):
        _worker.in_halves(
            lambda s: [run((axis, s)) for run in runs], extent)
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
