"""Polarization, Schwarz symmetrization and the iterated-polarization driver.

All half-spaces contain the origin and have reflections that permute grid
points, so polarization is an exact value exchange: the sorted multiset of
values is preserved bit-exactly.
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .grid import GridSpec, MultiField, ScalarField, _lp_norm_sorted, lp_norm


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


class _Block(NamedTuple):
    """Where the reflection pairs of a half-space sit in a field.

    Indexing a field with ``flip``, transposing it by ``perm`` and taking
    ``window``, as ``view`` does, gives the block of pairs: m planes along the normal, which
    the reflection reverses, or an m x m square on the two normal axes,
    which it transposes.  ``flip`` and ``window`` are basic slices and
    ``perm`` an axis order, so the block is a view of the field and a
    half-space costs only this tuple, with no index array.
    """

    m: int
    flip: tuple
    perm: tuple
    window: tuple

    def view(self, a: np.ndarray) -> np.ndarray:
        """The block of pairs in a, as a view of it."""
        return a[self.flip].transpose(self.perm)[self.window]


def _block(spec: GridSpec, H: HalfSpace) -> _Block:
    """The block of H: with axes flipped so the normal reads +e_k or
    +e_a - e_b, the pairs fill the first n - j planes along k, or
    [0, n-j) x [j, n) on (a, b), with j from ``_mirror_steps``."""
    n = spec.points_per_axis
    j = _mirror_steps(spec, H)
    m = max(n - j, 0)
    axes = [k for k, v in enumerate(H.normal) if v != 0]
    flipped = {k for k, s in zip(axes, (1, -1)) if H.normal[k] != s}
    flip = tuple(slice(None, None, -1) if k in flipped else slice(None)
                 for k in range(spec.dim))
    perm = tuple(axes) + tuple(k for k in range(spec.dim) if k not in axes)
    window = (slice(0, m), slice(j, n))[:len(axes)]
    return _Block(m, flip, perm, window)


@lru_cache(maxsize=None)
def _strict_upper(m: int, ndim: int) -> np.ndarray:
    """The strict upper triangle of an m x m block, padded to ndim axes.
    It depends only on m, so diagonal half-spaces with one block size
    share it: at most n + 1 masks per grid."""
    q = np.arange(m)
    mask = (q[:, None] < q[None, :]).reshape((m, m) + (1,) * (ndim - 2))
    mask.flags.writeable = False
    return mask


def _polarize_into(src: np.ndarray, out: np.ndarray, block: _Block) -> None:
    """Write the polarization of src by the half-space of ``block`` into
    out, an array of src's shape that does not overlap it."""
    np.copyto(out, src)
    m = block.m
    u = block.view(src)
    dst = block.view(out)
    if len(block.window) == 1:
        # the first m // 2 planes lie outside H, the last m // 2 inside
        half = m // 2
        mirror = u[::-1]
        np.minimum(u[:half], mirror[:half], out=dst[:half])
        np.maximum(u[m - half:], mirror[m - half:], out=dst[m - half:])
    else:
        # the strict upper triangle on (a, b) lies outside H
        mirror = u.swapaxes(0, 1)
        np.maximum(u, mirror, out=dst)
        np.copyto(dst, np.minimum(u, mirror), where=_strict_upper(m, u.ndim))


def _moves(values, block: _Block) -> bool:
    """Whether polarizing the component arrays ``values`` by the half-space
    of ``block`` changes any value: in some component, a point outside H
    holds more than its mirror image.  On the block views of
    ``_polarize_into``, that is an entry of the first m // 2 planes above
    its mirror, or a strict-upper entry above its transpose.  When it is
    False, polarizing gives back every array, up to the sign of zeros."""
    for src in values:
        u = block.view(src)
        if len(block.window) == 1:
            half = block.m // 2
            above = u[:half] > u[::-1][:half]
        else:
            above = u > u.swapaxes(0, 1)
            above &= _strict_upper(block.m, u.ndim)
        if np.count_nonzero(above):
            return True
    return False


def polarize(field: ScalarField, H: HalfSpace) -> ScalarField:
    """Two-point rearrangement u^H.

    For each reflection pair {x, x_H} with x in H, the larger value goes to
    x and the smaller to x_H.  Points on dH, and points of H whose image
    leaves the box, keep their value; since 0 is in H, every point outside
    H has its image in the box.  The exchange runs through the block views
    of ``_block`` in ``_polarize_into``, the one implementation, through
    which ``iterate_polarizations`` also scores and applies its candidates.
    """
    if np.any(field.values < 0):
        raise ValueError("polarization requires non-negative fields")
    out = np.empty(field.spec.shape)
    _polarize_into(field.values, out, _block(field.spec, H))
    return ScalarField(field.spec, out)


def polarize_multi(U: MultiField, H: HalfSpace) -> MultiField:
    return MultiField([polarize(c, H) for c in U.components])


@lru_cache(maxsize=None)
def _shape_rank(dim: int, n: int) -> np.ndarray:
    """The place of each grid point in the radial order, shaped as the
    grid, for every grid of this shape whatever its half-width.

    The order sorts points by squared integer radius, the sum of their
    squared index offsets from the centre, so radius ties are exact; it
    breaks ties by the lexicographic order of the coordinates.

    ``run_property_suite`` builds it, through ``_build_caches``, before
    its worker thread starts.  Built in the worker, it would stay in use
    in that thread's malloc arena, and the arena could not hand the
    trials' freed arrays beneath it back to the system.
    """
    idx = np.indices((n,) * dim).reshape(dim, -1) - (n - 1) // 2
    r2 = np.sum(idx**2, axis=0)
    order = np.lexsort(tuple(idx[k] for k in reversed(range(dim))) + (r2,))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank.reshape((n,) * dim)


def _build_caches(spec: GridSpec) -> None:
    """Build the cached arrays that polarizations and Schwarz placements
    on spec's grid read: the radial rank, and the strict upper triangle
    of every block size up to n, a few kilobytes at n = 33."""
    n = spec.points_per_axis
    _shape_rank(spec.dim, n)
    if spec.dim > 1:
        for m in range(n + 1):
            _strict_upper(m, spec.dim)


def schwarz(field: ScalarField) -> ScalarField:
    """Discrete Schwarz rearrangement: values sorted descending along the
    canonical radial point order."""
    if np.any(field.values < 0):
        raise ValueError("Schwarz rearrangement requires non-negative fields")
    return _place_radially(field.spec, np.sort(field.values, axis=None))


def _place_radially(spec: GridSpec, ascending: np.ndarray) -> ScalarField:
    """The Schwarz rearrangement of a non-negative field from its values
    in ascending order: the largest at the first point of the radial order
    (_shape_rank), and so on outward: a gather of the descending values
    through the rank of each point in that order."""
    rank = _shape_rank(spec.dim, spec.points_per_axis)
    return ScalarField(spec, ascending[::-1][rank])


def schwarz_multi(U: MultiField) -> MultiField:
    return MultiField([schwarz(c) for c in U.components])


SCHEDULE_MODES = ("random", "sweep", "greedy")
_MAX_GREEDY_CANDIDATES = 64


@dataclasses.dataclass
class PolarizationSchedule:
    mode: str = "greedy"  # one of SCHEDULE_MODES
    seed: int = 0
    max_iter: int = 2000
    tol: float = 1e-3
    p: float = 2.0
    greedy_candidates: int = 16

    def __post_init__(self):
        if self.mode not in SCHEDULE_MODES:
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.max_iter < 1 or self.tol <= 0:
            raise ValueError("max_iter >= 1 and tol > 0 required")
        if not math.isfinite(self.p) or self.p < 1:
            raise ValueError("p must be finite and >= 1")
        # past 64 picks, rng.choice may leave Floyd's algorithm, which
        # _choice_rows replays
        k = self.greedy_candidates
        if (isinstance(k, bool) or not isinstance(k, (int, np.integer))
                or not 1 <= k <= _MAX_GREEDY_CANDIDATES):
            raise ValueError("greedy_candidates must be an integer from 1 "
                             f"to {_MAX_GREEDY_CANDIDATES}")


@dataclasses.dataclass
class TraceRow:
    iteration: int
    half_space: HalfSpace | None
    rel_dist: tuple


@dataclasses.dataclass
class ConvergenceTrace:
    """Trace rows, final status, and three deterministic work counters:
    ``candidates``, the half-spaces picked over all iterations;
    ``polarizations``, the polarizations of U made, candidates scored plus
    candidates accepted; and ``unchanged``, the candidates found to leave
    U unchanged, whose objective is then U's own and not scored.

    Each pick that is new for the current iterate is either scored or
    unchanged, and every other pick reuses the value kept for it, so
    ``candidates`` = (``polarizations`` - accepted) + ``unchanged`` + the
    picks whose value was kept.  The CLI's ``trace.csv`` holds the rows
    only."""

    rows: list
    status: str  # converged | max_iter_reached
    candidates: int = 0
    polarizations: int = 0
    unchanged: int = 0


def _rel_dists(values, targets, norms, p: float, hN: float) -> tuple:
    """``lp_norm(u - t) / lp_norm(t)`` per component, 0 where t is 0."""
    out = []
    for u, t, nrm in zip(values, targets, norms):
        if nrm == 0.0:
            out.append(0.0)
            continue
        diff = np.sort(np.abs(u - t), axis=None)
        out.append(_lp_norm_sorted(diff, p, hN) / nrm)
    return tuple(out)


def _objective_scale(targets, p: float) -> float | None:
    """One scale for every candidate objective of an iterate_polarizations
    run, or None when the plain sum cannot overflow.

    Every iterate is a rearrangement of the target arrays' values, all
    non-negative, so each |u - t| is at most max t.  Only fields where
    size * (2 max t)^p overflows (max t above about 1e153 at p=2) are
    scaled, by max t; the others keep the plain formula and its bits.
    """
    top = max(float(t.max()) for t in targets)
    size = sum(t.size for t in targets)
    with np.errstate(over="ignore"):
        bound = size * np.float64(2.0 * top) ** p
    return None if np.isfinite(bound) else top


def _polarized_objective(values, targets, p: float, scale: float | None,
                         block: _Block | None, buf: np.ndarray) -> float:
    """sum_i sum |u_i - t_i|^p, divided by scale^p when scale is given, of
    the component arrays ``values`` polarized by the half-space of
    ``block`` (as they are when block is None) against the target arrays.

    Every step is written into buf, so the start value and every candidate
    of a run get the same elementwise formula over the whole contiguous
    array and the same ``np.sum``.  values must be non-negative and finite.
    """
    total = 0
    for u, t in zip(values, targets):
        if block is None:
            np.copyto(buf, u)
        else:
            _polarize_into(u, buf, block)
        np.subtract(buf, t, out=buf)
        np.abs(buf, out=buf)
        if scale is not None:
            np.divide(buf, scale, out=buf)
        buf **= p
        total += float(np.sum(buf))
    return total


def _choice_rows(rng: np.random.Generator, n: int, size: int,
                 count: int) -> np.ndarray:
    """A (count, size) array of distinct indices below n, whose rows are
    those of count successive ``rng.choice(n, size, replace=False)``
    calls, from one bounded draw.

    For these sizes (size at most 64, so never above n // 50 when n
    exceeds 10,000) numpy's choice runs Floyd's algorithm: a bounded draw
    in [0, j] for each j from n - size to n - 1, kept unless already taken,
    in which case j is taken.  A Fisher-Yates shuffle then swaps slot i
    with a bounded draw in [0, i], for i from size - 1 down to 1.  A row's
    2 size - 1 draws, row after row, come from one ``integers`` call with
    those bounds, which consumes the stream as the scalar draws do; Floyd's
    steps and the swaps then run column by column across all rows.
    """
    highs = np.concatenate([np.arange(n - size, n), np.arange(size - 1, 0, -1)])
    draws = rng.integers(0, np.tile(highs, count), endpoint=True)
    # one column per row of picks, so each step reads contiguous lines
    draws = draws.reshape(count, 2 * size - 1).T
    cols = draws[:size].copy()
    for c in range(1, size):
        taken = (cols[:c] == cols[c]).any(axis=0)
        cols[c, taken] = n - size + c
    flat = cols.reshape(-1)
    at = np.arange(count)
    for i, slot in zip(range(size - 1, 0, -1), draws[size:]):
        swap = slot * count + at
        moved = flat[swap]
        flat[swap] = cols[i].copy()
        cols[i] = moved
    return cols.T


_PICK_BATCH = 1024  # iterations whose random picks are drawn at once


def _picks(schedule: PolarizationSchedule, n: int):
    """The indices into a family of n half-spaces that each iteration of
    ``iterate_polarizations`` picks, one list per iteration, up to
    ``schedule.max_iter`` lists.

    Sweep takes the family in order.  Random and greedy draw the picks of
    up to ``_PICK_BATCH`` iterations at once, the same picks as one scalar
    ``rng.integers(n)`` or ``rng.choice`` call per iteration: numpy fills
    a batch of bounded draws from the stream as successive scalar draws
    do.  The generator, seeded by ``schedule.seed``, is private to the run,
    so picks drawn past its last iteration change nothing else.
    """
    if schedule.mode == "sweep":
        for it in range(schedule.max_iter):
            yield [it % n]
        return
    rng = np.random.default_rng(schedule.seed)
    size = min(schedule.greedy_candidates, n)
    left = schedule.max_iter
    while left > 0:
        count = min(_PICK_BATCH, left)
        if schedule.mode == "random":
            rows = rng.integers(n, size=(count, 1))
        else:  # greedy
            rows = _choice_rows(rng, n, size, count)
        yield from rows.tolist()
        left -= count


def iterate_polarizations(U0: MultiField, schedule: PolarizationSchedule):
    """Iterated polarizations driving U toward its Schwarz rearrangement.

    Each iteration picks half-spaces from the admissible family (``_picks``):
    the next one in order (sweep), one at random (random), or
    ``greedy_candidates`` distinct ones at random (greedy), of which the one
    whose polarization lowers the distance objective most is the candidate.
    A candidate polarization is only accepted if it strictly decreases the
    distance objective to the target.  This keeps the recorded distance
    sequence non-increasing even on tie shells of the discrete target, and
    rules out cycles of equal-distance exchanges (a point mass can otherwise
    bounce between mirror positions forever under a sweep schedule).

    Given enough iterations, the driver therefore settles at a fixed point
    of the admissible family: no admissible half-space strictly lowers the
    objective.  That fixed point is the Schwarz rearrangement only when
    compositions of the family's reflections reach it, for example for a
    lattice translate of a radial field that vanishes on the faces.
    Off-lattice data in general stop at a floor above ``tol``, since only
    axis and diagonal mirrors map the lattice to itself.

    The objective of each half-space is kept until a candidate is accepted,
    since U, and so that objective, stays the same until then: each
    half-space is polarized at most once per distinct iterate, plus once
    more for the accepted one.  Only the objective values are kept, at most
    one float per half-space of the family.  Iterations at a fixed point
    still run and are traced, but cost only their share of a batched draw
    and the lookups.

    U is held as its component arrays, from a copy of U0's to the one
    MultiField built, the returned one.  Each half-space's ``_block`` is
    built once per run, and non-negativity is checked once, by ``schwarz``
    on the targets.  A half-space new to the current iterate that
    ``_moves`` finds to leave U unchanged (``|u - t|`` drops the sign of
    zeros) keeps the current objective, bit for bit, unscored, as most
    candidates of a long greedy run do.  Other candidates, and U at the
    start, are scored by ``_polarized_objective`` in one buffer; every
    polarization runs through ``_polarize_into``, and an accepted one
    writes fresh arrays.
    """
    spec = U0.spec
    family = admissible_half_spaces(spec)
    p, hN = schedule.p, spec.cell_volume

    # schwarz rejects negative fields, and polarization only exchanges
    # values, so every iterate is non-negative and finite from here on
    targets = [schwarz(c) for c in U0.components]
    target_norms = [lp_norm(t, p) for t in targets]
    targets = [t.values for t in targets]

    values = [c.values.copy() for c in U0.components]
    dists = _rel_dists(values, targets, target_norms, p, hN)
    trace = ConvergenceTrace([TraceRow(0, None, dists)], "max_iter_reached")
    if max(dists) <= schedule.tol:
        trace.status = "converged"
        return MultiField([ScalarField(spec, v) for v in values]), trace

    scale = _objective_scale(targets, p)
    buf = np.empty(spec.shape)
    obj = _polarized_objective(values, targets, p, scale, None, buf)
    blocks = [_block(spec, H) for H in family]
    scores = {}  # family index -> objective of U polarized by that half-space
    for it, picks in enumerate(_picks(schedule, len(family)), start=1):
        trace.candidates += len(picks)
        best_k, best = None, np.inf
        for k in picks:
            if k not in scores:
                if _moves(values, blocks[k]):
                    scores[k] = _polarized_objective(
                        values, targets, p, scale, blocks[k], buf)
                    trace.polarizations += 1
                else:
                    scores[k] = obj
                    trace.unchanged += 1
            if scores[k] < best:
                best_k, best = k, scores[k]
        if best < obj:
            polarized = [np.empty(spec.shape) for _ in values]
            for u, out in zip(values, polarized):
                _polarize_into(u, out, blocks[best_k])
            values, obj = polarized, best
            trace.polarizations += 1
            scores.clear()
            dists = _rel_dists(values, targets, target_norms, p, hN)
        H = None if best_k is None else family[best_k]
        trace.rows.append(TraceRow(it, H, dists))
        if max(dists) <= schedule.tol:
            trace.status = "converged"
            break
    return MultiField([ScalarField(spec, v) for v in values]), trace


def shift_field(values: np.ndarray, steps) -> np.ndarray:
    """Translate by whole grid steps with zero fill outside the box."""
    steps = [int(s) for s in steps]
    src = tuple(slice(s, None) if s >= 0 else slice(None, s) for s in steps)
    dst = tuple(slice(None, -s) if s > 0 else slice(-s, None) for s in steps)
    out = np.zeros_like(values)
    out[dst] = values[src]
    return out


def symmetry_deficit(field: ScalarField, p: float):
    """Relative L^p distance to the Schwarz rearrangement after centering
    the mass centroid at the origin by whole grid steps."""
    total = float(np.sum(field.values))
    if total == 0.0:
        raise ValueError("deficit undefined for zero field")
    spec = field.spec
    centroid = np.array([float(np.sum(
        spec.axis_coords.reshape((-1,) + (1,) * (spec.dim - 1 - k))
        * field.values)) / total for k in range(spec.dim)])
    shift = -np.rint(centroid / spec.h).astype(int)
    centered = ScalarField(spec, shift_field(field.values, -shift))
    target = schwarz(centered)
    diff = ScalarField(spec, np.abs(centered.values - target.values))
    deficit = lp_norm(diff, p) / lp_norm(field, p)
    return deficit, tuple(int(s) for s in shift)
