"""Uniform Cartesian grids on a centered box and scalar/multi-component fields.

Functions on R^N are truncated to the box [-L, L]^N with implicit extension
by zero outside.  The grid always has an odd number of points per axis so the
origin is a grid point, the centre index, and reflections through grid planes
map grid points to grid points.  Quadrature is the rectangle rule with weight
h^N.  The centre's coordinate -L + h(n-1)/2 is within an ulp of 0 but not
always 0 (n=99 at L = 1, 2, 4 or 8), so no code compares a position with 0.
"""

from __future__ import annotations

import dataclasses
import re
from functools import cached_property

import numpy as np


class FieldFormatError(ValueError):
    """Raised when a field file cannot be parsed."""


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [-L, L]^N with n (odd) points per axis."""

    dim: int
    points_per_axis: int
    half_width: float

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.points_per_axis - 1)

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def num_points(self) -> int:
        return self.points_per_axis**self.dim

    @cached_property
    def axis_coords(self) -> np.ndarray:
        n, L = self.points_per_axis, self.half_width
        return -L + self.h * np.arange(n)

    @cached_property
    def radii(self) -> np.ndarray:
        """Distance of each grid point to the origin."""
        return np.sqrt(axis_sum([self.axis_coords**2] * self.dim))


def axis_sum(arrays) -> np.ndarray:
    """Sum of 1-D arrays, the k-th varying along axis k of the result.

    The arrays are broadcast and added left to right: the order, and so the
    bits, of a sum over a stacked last axis, without the stacked copy.
    """
    dim = len(arrays)
    total = np.array(arrays[0]).reshape((-1,) + (1,) * (dim - 1))
    for k in range(1, dim):
        total = total + np.reshape(arrays[k], (-1,) + (1,) * (dim - 1 - k))
    return total


# Largest and smallest accepted half-width L.  Between them, the nonlocal
# weight h^(2N), squared coordinates and squared bump widths stay far inside
# the float range for N <= 3.  Above about 1e51 the Python-float powers of h
# and of the bump widths overflow and raise.  Well below the lower bound
# h^(2N) underflows in 3D and the energy reads nan (n = 9 at 1e-60).
MAX_HALF_WIDTH = 1e30
MIN_HALF_WIDTH = 1e-30

# Largest accepted n^N of a grid and m * n^N of a run: 3D n <= 127.
MAX_POINTS = 2**21


def make_grid(dim: int, points_per_axis: int, half_width: float) -> GridSpec:
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2, or 3")
    if points_per_axis < 3 or points_per_axis % 2 == 0:
        raise ValueError("grid must have odd point count >= 3")
    if not half_width > 0:
        raise ValueError("half-width must be positive")
    if not half_width <= MAX_HALF_WIDTH:
        raise ValueError(f"half-width must be at most {MAX_HALF_WIDTH:g}")
    if not half_width >= MIN_HALF_WIDTH:
        raise ValueError(f"half-width must be at least {MIN_HALF_WIDTH:g}")
    if points_per_axis**dim > MAX_POINTS:
        raise ValueError(f"grid must have at most {MAX_POINTS} points")
    return GridSpec(dim, points_per_axis, float(half_width))


@dataclasses.dataclass
class ScalarField:
    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.spec.shape:
            self.values = self.values.reshape(self.spec.shape)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")


@dataclasses.dataclass
class MultiField:
    components: list

    def __post_init__(self):
        if len(self.components) < 1:
            raise ValueError("MultiField needs at least one component")
        spec = self.components[0].spec
        if any(f.spec != spec for f in self.components):
            raise ValueError("all components must share one GridSpec")

    @property
    def spec(self) -> GridSpec:
        return self.components[0].spec

    @property
    def m(self) -> int:
        return len(self.components)


def lp_norm(field: ScalarField, p: float) -> float:
    """Grid L^p norm (sum |u|^p h^N)^(1/p).

    The powers are accumulated in ascending sorted order, so equimeasurable
    fields (value permutations) produce bit-identical norms.
    """
    if not 1 <= p < np.inf:
        raise ValueError("p must be finite and >= 1")
    return _lp_norm_sorted(np.sort(np.abs(field.values), axis=None),
                           p, field.spec.cell_volume)


# the smallest normal float: a power sum below it has lost bits
_TINY = float(np.finfo(float).tiny)


def _lp_norm_sorted(v: np.ndarray, p: float, hN: float) -> float:
    """lp_norm from the ascending |values| v and the cell volume hN."""
    with np.errstate(over="ignore"):
        s = float(np.sum(v**p)) * hN
    if not _TINY <= s < np.inf and v[-1] > 0:
        # |u|^p overflows (above about 1e154 at p=2) or underflows (below
        # about 1e-154, or at huge p) for finite nonzero fields: factor out
        # the maximum.  Only such sums take this branch, so every sum in the
        # normal range keeps its bits.
        top = v[-1]
        return top * (float(np.sum((v / top) ** p)) * hN) ** (1.0 / p)
    return s ** (1.0 / p)


def axis_derivative(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Finite-difference derivative: centered interior, one-sided at faces.

    A non-contiguous input is copied first: the stencil runs on the
    flattened C-contiguous array.
    """
    values = np.ascontiguousarray(values)
    return _axis_derivative_into(values, axis, h, np.empty_like(values))


def _faces(axis: int):
    """Index tuples of the planes 0, 1, n - 2 and n - 1 along axis."""
    pre = (slice(None),) * axis
    return (pre + (slice(0, 1),), pre + (slice(1, 2),),
            pre + (slice(-2, -1),), pre + (slice(-1, None),))


def _axis_derivative_into(values: np.ndarray, axis: int, h: float,
                          out: np.ndarray) -> np.ndarray:
    """axis_derivative written into out; values and out are C-contiguous
    arrays of one shape that do not overlap.  Returns out.

    Along the flattened arrays the axis has stride s, so the interior
    difference is one contiguous pass, f[2s:] - f[:-2s] into o[s:-s],
    then /= 2h.  That pass also writes the face planes, from values in
    neighbouring lines; the one-sided values then overwrite them.
    """
    s = values.strides[axis] // values.itemsize
    f, o = values.reshape(-1), out.reshape(-1)
    np.subtract(f[2 * s:], f[:-2 * s], out=o[s:-s])
    o[s:-s] /= 2.0 * h
    first, second, before, last = _faces(axis)
    np.subtract(values[second], values[first], out=out[first])
    out[first] /= h
    np.subtract(values[last], values[before], out=out[last])
    out[last] /= h
    return out


def axis_derivative_adjoint(w: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Transpose of axis_derivative as a linear map on grid values.

    The interior stencil's transpose adds and subtracts t = w / (2h),
    shifted by the axis stride along the flattened arrays, in two
    contiguous passes.  t's face planes are zeroed first, so the terms
    that cross into a neighbouring line add +0.0; the sum starts at +0.0
    and never becomes -0.0, so they change no bit.
    """
    d = np.zeros_like(w, order="C")
    t = np.empty_like(w, order="C")
    np.divide(w, 2.0 * h, out=t)
    first, second, before, last = _faces(axis)
    t[first] = 0.0
    t[last] = 0.0
    s = t.strides[axis] // t.itemsize
    dv, tv = d.reshape(-1), t.reshape(-1)
    dv[2 * s:] += tv[s:-s]
    dv[:-2 * s] -= tv[s:-s]
    # one-sided stencils at the faces
    d[second] += w[first] / h
    d[first] -= w[first] / h
    d[last] += w[last] / h
    d[before] -= w[last] / h
    return d


def gradient_components(field: ScalarField) -> list:
    h = field.spec.h
    return [axis_derivative(field.values, k, h) for k in range(field.spec.dim)]


def gradient_magnitude(field: ScalarField) -> ScalarField:
    """Pointwise Euclidean norm of the finite-difference gradient.

    The derivatives are made one at a time into one array, each consumed
    by _magnitude before the next overwrites it.
    """
    h, values = field.spec.h, np.ascontiguousarray(field.values)
    work = np.empty_like(values)
    return ScalarField(field.spec, _magnitude(
        _axis_derivative_into(values, k, h, work)
        for k in range(values.ndim)))


def _magnitude(comps) -> np.ndarray:
    """Pointwise Euclidean norm of the arrays comps, which stay unchanged.

    comps may be a list or an iterator that reuses one array: each array is
    read once, before the next is drawn.  The squares are added left to
    right: the order, and so the bits, of a sum over a stacked axis 0,
    without the stacked copy.  Every |Du| of the package goes through here.
    """
    comps = iter(comps)
    s = np.square(next(comps))
    sq = None
    for c in comps:
        sq = np.square(c, out=sq)
        s += sq
    return np.sqrt(s, out=s)


# --- RFLD file format -------------------------------------------------------
#
# line 1: "RFLD 1"
# line 2: "N m n L"
# then m * n^N whitespace-separated decimal reals, component-major then
# row-major; text, LF line endings.

_MAGIC = "RFLD 1"


def write_field(U: MultiField, path) -> None:
    spec = U.spec
    with open(path, "w", newline="\n") as fh:
        fh.write(_MAGIC + "\n")
        fh.write(f"{spec.dim} {U.m} {spec.points_per_axis} "
                 f"{spec.half_width:.17g}\n")
        # one % operation per component: the bytes of f"{v:.17g}\n" per value
        for comp in U.components:
            values = comp.values.ravel().tolist()
            fh.write(("%.17g\n" * len(values)) % tuple(values))


# the line breaks of str.splitlines, "\r\n" counting as one
_LINE_BREAK = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _header_lines(text: str) -> tuple:
    """(lines, rest): text's first two lines, fewer if it has fewer, by the
    line-break rules of str.splitlines, and the text after them."""
    lines, start = [], 0
    while len(lines) < 2 and start < len(text):
        brk = _LINE_BREAK.search(text, start)
        stop, after = brk.span() if brk else (len(text), len(text))
        lines.append(text[start:stop])
        start = after
    return lines, text[start:]


def read_field(path) -> MultiField:
    with open(path) as fh:
        lines, rest = _header_lines(fh.read())
    if not lines or lines[0] != _MAGIC:
        raise FieldFormatError(f"line 1: expected magic line {_MAGIC!r}")
    if len(lines) < 2:
        raise FieldFormatError("line 2: missing header")
    parts = lines[1].split()
    if len(parts) != 4:
        raise FieldFormatError("line 2: header must be 'N m n L'")
    try:
        dim, m, n = int(parts[0]), int(parts[1]), int(parts[2])
        half_width = float(parts[3])
        if not np.isfinite(half_width):
            raise ValueError("half-width must be finite")
        if m < 1:
            raise ValueError("m must be >= 1")
        spec = make_grid(dim, n, half_width)
        if m * spec.num_points > MAX_POINTS:
            raise ValueError(f"m * n^N must be at most {MAX_POINTS}")
    except ValueError as err:
        raise FieldFormatError(f"line 2: {err}") from None
    expected = m * spec.num_points
    # one split and one numpy conversion of every token: each line break is
    # str.split whitespace, so the tokens are those of the lines.  The
    # per-line loop runs only to name the line of the first bad or
    # non-finite value.  numpy parses a string with the grammar and rounding
    # of Python float (digits of any script, underscores between digits,
    # "infinity"), so both give the same values and reject the same tokens.
    try:
        data = np.array(rest.split(), dtype=np.float64)
        valid = bool(np.all(np.isfinite(data)))
    except ValueError:
        valid = False
    if not valid:
        data = np.array(_parse_by_line(rest.splitlines()))
    if data.size != expected:
        raise FieldFormatError(f"expected {expected} values, got {data.size}")
    data = data.reshape(m, *spec.shape)
    return MultiField([ScalarField(spec, data[i]) for i in range(m)])


def _parse_by_line(lines) -> list:
    """Values of the data lines (file line 3 on), token by token; raises
    FieldFormatError naming the line of the first bad or non-finite value."""
    raw = []
    for lineno, line in enumerate(lines, start=3):
        for tok in line.split():
            try:
                x = float(tok)
            except ValueError:
                raise FieldFormatError(f"line {lineno}: bad value {tok!r}") from None
            if not np.isfinite(x):
                raise FieldFormatError(f"line {lineno}: non-finite value")
            raw.append(x)
    return raw
