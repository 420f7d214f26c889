"""Uniform Cartesian grids on a centered box and scalar/multi-component fields.

Functions on R^N are truncated to the box [-L, L]^N with implicit extension
by zero outside.  The grid always has an odd number of points per axis so the
origin is a grid point and reflections through grid planes map grid points to
grid points.  Quadrature is the rectangle rule with weight h^N.
"""

from __future__ import annotations

import dataclasses
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
    def coords(self) -> np.ndarray:
        """Point coordinates, shape (*grid_shape, dim)."""
        mesh = np.meshgrid(*([self.axis_coords] * self.dim), indexing="ij")
        return np.stack(mesh, axis=-1)

    @cached_property
    def radii(self) -> np.ndarray:
        """Distance of each grid point to the origin."""
        return np.sqrt(np.sum(self.coords**2, axis=-1))


def make_grid(dim: int, points_per_axis: int, half_width: float) -> GridSpec:
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2, or 3")
    if points_per_axis < 3 or points_per_axis % 2 == 0:
        raise ValueError("grid must have odd point count >= 3")
    if not half_width > 0:
        raise ValueError("half-width must be positive")
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

    def copy(self) -> "ScalarField":
        return ScalarField(self.spec, self.values.copy())


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

    def copy(self) -> "MultiField":
        return MultiField([f.copy() for f in self.components])


def lp_norm(field: ScalarField, p: float) -> float:
    """Grid L^p norm (sum |u|^p h^N)^(1/p).

    The powers are accumulated in ascending sorted order, so equimeasurable
    fields (value permutations) produce bit-identical norms.
    """
    if p < 1:
        raise ValueError("exponent out of range")
    v = np.sort(np.abs(field.values).ravel())
    s = float(np.sum(v**p)) * field.spec.cell_volume
    return s ** (1.0 / p)


def distribution_function(field: ScalarField, level: float) -> float:
    """Discrete measure of the superlevel set {u > level}."""
    if level <= 0:
        raise ValueError("level must be positive")
    return float(np.count_nonzero(field.values > level)) * field.spec.cell_volume


def axis_derivative(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Finite-difference derivative: centered interior, one-sided at faces."""
    d = np.empty_like(values)
    u = np.moveaxis(values, axis, 0)
    out = np.moveaxis(d, axis, 0)
    out[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
    out[0] = (u[1] - u[0]) / h
    out[-1] = (u[-1] - u[-2]) / h
    return d


def axis_derivative_adjoint(w: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Transpose of axis_derivative as a linear map on grid values."""
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


def gradient_components(field: ScalarField) -> list:
    h = field.spec.h
    return [axis_derivative(field.values, k, h) for k in range(field.spec.dim)]


def gradient_magnitude(field: ScalarField) -> ScalarField:
    """Pointwise Euclidean norm of the finite-difference gradient."""
    comps = gradient_components(field)
    mag = np.sqrt(np.sum([c**2 for c in comps], axis=0))
    return ScalarField(field.spec, mag)


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
        for comp in U.components:
            for v in comp.values.ravel():
                fh.write(f"{v:.17g}\n")


def read_field(path) -> MultiField:
    with open(path) as fh:
        lines = fh.read().splitlines()
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
    except ValueError as err:
        raise FieldFormatError(f"line 2: {err}") from None
    expected = m * spec.num_points
    raw = []
    for lineno, line in enumerate(lines[2:], start=3):
        for tok in line.split():
            try:
                x = float(tok)
            except ValueError:
                raise FieldFormatError(f"line {lineno}: bad value {tok!r}") from None
            if not np.isfinite(x):
                raise FieldFormatError(f"line {lineno}: non-finite value")
            raw.append(x)
    if len(raw) != expected:
        raise FieldFormatError(f"expected {expected} values, got {len(raw)}")
    data = np.array(raw).reshape(m, *spec.shape)
    return MultiField([ScalarField(spec, data[i]) for i in range(m)])
