"""Polarization, Schwarz symmetrization and the iterated-polarization driver.

All half-spaces contain the origin and have reflections that permute grid
points, so polarization is an exact value exchange: the sorted multiset of
values is preserved bit-exactly.
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache

import numpy as np

from .grid import GridSpec, MultiField, ScalarField, lp_norm


@dataclasses.dataclass(frozen=True)
class HalfSpace:
    """Closed half-space {x . e >= t} with 0 in H (t <= 0).

    ``normal`` is the unnormalized direction: a tuple with entries in
    {-1, 0, 1}, either a single nonzero entry (axis normal) or two
    (two-axis diagonal).  The unit normal is normal / |normal|.
    """

    normal: tuple
    offset: float

    def __post_init__(self):
        nz = [v for v in self.normal if v != 0]
        if not (len(nz) in (1, 2) and all(v in (-1, 1) for v in nz)):
            raise ValueError("reflection not grid-compatible")
        if self.offset > 0:
            raise ValueError("half-space must contain the origin (t <= 0)")

    def label(self) -> str:
        terms = []
        for k, v in enumerate(self.normal):
            if v > 0:
                terms.append(f"+e{k}")
            elif v < 0:
                terms.append(f"-e{k}")
        return "".join(terms)


def admissible_half_spaces(spec: GridSpec) -> list:
    """All grid-compatible half-spaces containing the origin.

    Axis normals carry offsets at whole and half grid steps down to -L;
    two-axis diagonals carry offsets at whole grid steps along the normal
    (t = -j*h/sqrt(2)), which also reflect grid points to grid points.
    """
    n, h = spec.points_per_axis, spec.h
    out = []
    for k in range(spec.dim):
        for sign in (1, -1):
            d = [0] * spec.dim
            d[k] = sign
            for j in range(n):
                out.append(HalfSpace(tuple(d), -j * h / 2.0))
    if spec.dim >= 2:
        for a in range(spec.dim):
            for b in range(a + 1, spec.dim):
                for sa, sb in ((1, -1), (-1, 1), (1, 1), (-1, -1)):
                    d = [0] * spec.dim
                    d[a], d[b] = sa, sb
                    for j in range(n):
                        out.append(HalfSpace(tuple(d), -j * h / np.sqrt(2.0)))
    return out


def _mirror_steps(spec: GridSpec, H: HalfSpace) -> int:
    """Offset of dH as a whole count j of half grid steps along the normal:
    t = -j*h/2 for an axis normal, t = -j*h/sqrt(2) for a diagonal."""
    steps = -2.0 * H.offset / (spec.h * math.hypot(*H.normal))
    j = round(steps)
    if abs(steps - j) > 1e-9:
        raise ValueError("reflection not grid-compatible")
    return j


def reflect(spec: GridSpec, H: HalfSpace, index: tuple) -> tuple:
    """Grid index of the reflection x_H of a grid point across dH.

    On centred indices i and the integer normal d the reflection is
    i - (2 d.i / |d|^2 + j) d, with j from ``_mirror_steps``.
    """
    c = (spec.points_per_axis - 1) // 2
    d = np.array(H.normal)
    i = np.array(index) - c
    r = i - (2 * (d @ i) // (d @ d) + _mirror_steps(spec, H)) * d + c
    if np.any((r < 0) | (r >= spec.points_per_axis)):
        raise ValueError("reflected point lies outside the box")
    return tuple(int(v) for v in r)


def polarize(field: ScalarField, H: HalfSpace) -> ScalarField:
    """Two-point rearrangement u^H.

    For each reflection pair {x, x_H} with x in H, the larger value goes to
    x and the smaller to x_H.  Points on dH, and points of H whose image
    leaves the box, keep their value; since 0 is in H, every point outside
    H has its image in the box.  With axes flipped so the normal reads +e_k
    or +e_a - e_b, the pairs fill a block on which the reflection is a view:
    the first n - j planes along k reversed, or [0, n-j) x [j, n) on (a, b)
    transposed.
    """
    if np.any(field.values < 0):
        raise ValueError("polarization requires non-negative fields")
    n = field.spec.points_per_axis
    j = _mirror_steps(field.spec, H)
    m = max(n - j, 0)
    axes = [k for k, v in enumerate(H.normal) if v != 0]
    flips = [k for k, s in zip(axes, (1, -1)) if H.normal[k] != s]
    window = (slice(0, m), slice(j, n))[:len(axes)]

    def block(values):
        return np.moveaxis(np.flip(values, flips), axes,
                           range(len(axes)))[window]

    out = field.values.copy()
    u, dst = block(field.values), block(out)
    if len(axes) == 1:
        # the first m // 2 planes lie outside H, the last m // 2 inside
        half = m // 2
        mirror = u[::-1]
        np.minimum(u[:half], mirror[:half], out=dst[:half])
        np.maximum(u[m - half:], mirror[m - half:], out=dst[m - half:])
    else:
        # the strict upper triangle on (a, b) lies outside H
        mirror = u.swapaxes(0, 1)
        q = np.arange(m)
        outside = q[:, None] < q[None, :]
        np.maximum(u, mirror, out=dst)
        np.copyto(dst, np.minimum(u, mirror),
                  where=outside.reshape(outside.shape + (1,) * (u.ndim - 2)))
    return ScalarField(field.spec, out)


def polarize_multi(U: MultiField, H: HalfSpace) -> MultiField:
    return MultiField([polarize(c, H) for c in U.components])


@lru_cache(maxsize=None)
def canonical_order(spec: GridSpec) -> np.ndarray:
    """Flat indices sorted by (distance to origin, lexicographic coords).

    Radii are compared through the integer squared index offsets, so ties
    are exact.
    """
    c = (spec.points_per_axis - 1) // 2
    idx = np.indices(spec.shape).reshape(spec.dim, -1) - c
    r2 = np.sum(idx**2, axis=0)
    keys = tuple(idx[k] for k in reversed(range(spec.dim))) + (r2,)
    return np.lexsort(keys)


def schwarz(field: ScalarField) -> ScalarField:
    """Discrete Schwarz rearrangement: values sorted descending along the
    canonical radial point order."""
    if np.any(field.values < 0):
        raise ValueError("Schwarz rearrangement requires non-negative fields")
    order = canonical_order(field.spec)
    vals = np.sort(field.values.ravel())[::-1]
    out = np.empty_like(vals)
    out[order] = vals
    return ScalarField(field.spec, out.reshape(field.spec.shape))


def schwarz_multi(U: MultiField) -> MultiField:
    return MultiField([schwarz(c) for c in U.components])


@dataclasses.dataclass
class PolarizationSchedule:
    mode: str = "greedy"  # random | sweep | greedy
    seed: int = 0
    max_iter: int = 2000
    tol: float = 1e-3
    p: float = 2.0
    greedy_candidates: int = 16

    def __post_init__(self):
        if self.mode not in ("random", "sweep", "greedy"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.max_iter < 1 or self.tol <= 0:
            raise ValueError("max_iter >= 1 and tol > 0 required")


@dataclasses.dataclass
class TraceRow:
    iteration: int
    half_space: HalfSpace | None
    rel_dist: tuple


@dataclasses.dataclass
class ConvergenceTrace:
    rows: list
    status: str  # converged | max_iter_reached

    def to_csv(self, path, header_comment=None) -> None:
        m = len(self.rows[0].rel_dist)
        cols = ",".join(f"rel_dist_{i + 1}" for i in range(m))
        with open(path, "w", newline="\n") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            fh.write(f"iter,normal,offset,{cols}\n")
            for row in self.rows:
                if row.half_space is None:
                    normal, offset = "", ""
                else:
                    normal = row.half_space.label()
                    offset = f"{row.half_space.offset:.17g}"
                d = ",".join(f"{v:.17g}" for v in row.rel_dist)
                fh.write(f"{row.iteration},{normal},{offset},{d}\n")


def _rel_dists(U: MultiField, targets, target_norms, p: float) -> tuple:
    out = []
    for comp, tgt, nrm in zip(U.components, targets, target_norms):
        if nrm == 0.0:
            out.append(0.0)
            continue
        diff = ScalarField(comp.spec, np.abs(comp.values - tgt.values))
        out.append(lp_norm(diff, p) / nrm)
    return tuple(out)


def _objective(U: MultiField, targets, p: float) -> float:
    return sum(
        float(np.sum(np.abs(c.values - t.values) ** p))
        for c, t in zip(U.components, targets))


def iterate_polarizations(U0: MultiField, schedule: PolarizationSchedule):
    """Iterated polarizations driving U toward its Schwarz rearrangement.

    A candidate polarization is only accepted if it strictly decreases the
    distance objective to the target.  This keeps the recorded distance
    sequence non-increasing even on tie shells of the discrete target, and
    rules out cycles of equal-distance exchanges (a point mass can otherwise
    bounce between mirror positions forever under a sweep schedule).

    Given enough iterations, the driver therefore settles at a fixed point
    of the admissible family: no admissible half-space strictly lowers the
    objective.  That fixed point is the Schwarz rearrangement only when
    compositions of the family's reflections reach it, for example for a
    lattice translate of a radial field that vanishes on the faces.  Off-lattice data in general stop at
    a floor above ``tol``, since only axis and diagonal mirrors map the
    lattice to itself.
    """
    spec = U0.spec
    family = admissible_half_spaces(spec)
    if not family:
        raise ValueError("empty admissible half-space family")
    rng = np.random.default_rng(schedule.seed)
    p = schedule.p

    targets = [schwarz(c) for c in U0.components]
    target_norms = [lp_norm(t, p) for t in targets]

    U = U0.copy()
    rows = [TraceRow(0, None, _rel_dists(U, targets, target_norms, p))]
    status = "max_iter_reached"
    if max(rows[0].rel_dist) <= schedule.tol:
        return U, ConvergenceTrace(rows, "converged")

    obj = _objective(U, targets, p)
    for it in range(1, schedule.max_iter + 1):
        if schedule.mode == "sweep":
            H = family[(it - 1) % len(family)]
            cand = polarize_multi(U, H)
            cand_obj = _objective(cand, targets, p)
        elif schedule.mode == "random":
            H = family[rng.integers(len(family))]
            cand = polarize_multi(U, H)
            cand_obj = _objective(cand, targets, p)
        else:  # greedy
            picks = rng.choice(len(family),
                               size=min(schedule.greedy_candidates, len(family)),
                               replace=False)
            H, cand, cand_obj = None, None, np.inf
            for k in picks:
                trial = polarize_multi(U, family[k])
                trial_obj = _objective(trial, targets, p)
                if trial_obj < cand_obj:
                    H, cand, cand_obj = family[k], trial, trial_obj
        if cand_obj < obj:
            U, obj = cand, cand_obj
        rows.append(TraceRow(it, H, _rel_dists(U, targets, target_norms, p)))
        if max(rows[-1].rel_dist) <= schedule.tol:
            status = "converged"
            break
    return U, ConvergenceTrace(rows, status)


def shift_field(values: np.ndarray, steps) -> np.ndarray:
    """Translate by whole grid steps with zero fill outside the box."""
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


def symmetry_deficit(field: ScalarField, p: float):
    """Relative L^p distance to the Schwarz rearrangement after centering
    the mass centroid at the origin by whole grid steps."""
    total = float(np.sum(field.values))
    if total == 0.0:
        raise ValueError("deficit undefined for zero field")
    spec = field.spec
    centroid = np.array([
        float(np.sum(spec.coords[..., k] * field.values)) / total
        for k in range(spec.dim)
    ])
    shift = -np.rint(centroid / spec.h).astype(int)
    centered = ScalarField(spec, shift_field(field.values, -shift))
    target = schwarz(centered)
    diff = ScalarField(spec, np.abs(centered.values - target.values))
    deficit = lp_norm(diff, p) / lp_norm(field, p)
    return deficit, tuple(int(s) for s in shift)
