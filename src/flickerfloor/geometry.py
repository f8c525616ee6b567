"""Geometric factors for cuboid samples.

The longitudinal factor is

    g = 1/(3*Omega) * integral over the sample of (1/|r-x1| + 1/|r-x2|) d^3r,

in cm^-1, with the voltage probes at x1, x2; the transverse factor carries an
extra (w/l)^2.  The Coulomb volume integral has a closed form built from the
arctan/log primitive of the Newtonian potential of a homogeneous cuboid; an
adaptive octree quadrature provides an independent cross-check path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .units import InputError, Quantity, quantity

if TYPE_CHECKING:
    import numpy as np

Point = tuple[float, float, float]


class GeometryError(InputError):
    """Invalid sample geometry or probe placement."""


@dataclass(frozen=True)
class SampleGeometry:
    """Cuboid sample, origin at one corner, axes along the edges.

    l is along the current, w across it, a the thickness; all in cm.
    """

    l: float
    w: float
    a: float

    def __post_init__(self):
        for name in ("l", "w", "a"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise GeometryError(f"sample dimension {name} must be positive, got {v}")

    @property
    def dims(self) -> Point:
        return (self.l, self.w, self.a)

    @property
    def volume(self) -> float:
        return self.l * self.w * self.a

    def contains(self, x) -> bool:
        p = _point(x)
        return p is not None and all(0.0 <= c <= d for c, d in zip(p, self.dims))


def _point(x) -> Optional[Point]:
    """x as a tuple of 3 floats, or None unless it is a finite 3-vector.

    Takes any sequence of numbers, a numpy array of rank 1 among them.
    """
    if getattr(x, "ndim", 1) != 1:
        return None
    try:
        p = tuple(float(c) for c in x)
    except (TypeError, ValueError):
        return None
    return p if len(p) == 3 and all(map(math.isfinite, p)) else None


@dataclass(frozen=True)
class ProbePair:
    """Positions of the two voltage probes, in cm, inside the closed cuboid."""

    x1: Point
    x2: Point

    def __post_init__(self):
        p1, p2 = _point(self.x1), _point(self.x2)
        if p1 is None or p2 is None:
            raise GeometryError("probe positions must be finite 3-vectors")
        if p1 == p2:
            raise GeometryError("the two probes must not coincide")

    def validate_on(self, geom: SampleGeometry) -> None:
        for label, x in (("x1", self.x1), ("x2", self.x2)):
            if not geom.contains(x):
                raise GeometryError(f"probe {label}={tuple(x)} lies outside the sample cuboid")


@dataclass(frozen=True)
class GeometricFactor:
    value: Quantity                 # cm^-1
    configuration: str              # "longitudinal" | "transverse"


def longitudinal_probes(geom: SampleGeometry) -> ProbePair:
    """Default placement: centers of the two w x a end faces (current leads)."""
    return ProbePair((0.0, geom.w / 2, geom.a / 2), (geom.l, geom.w / 2, geom.a / 2))


def transverse_probes(geom: SampleGeometry) -> ProbePair:
    """Default placement: centers of the two l x a side faces."""
    return ProbePair((geom.l / 2, 0.0, geom.a / 2), (geom.l / 2, geom.w, geom.a / 2))


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def _corner_primitive(x: float, y: float, z: float) -> float:
    # primitive of 1/r for a box corner integral; arguments are >= 0 and terms
    # with vanishing prefactor are dropped so that surface/edge/corner points
    # never hit log(0) or 0/0
    r = math.sqrt(x * x + y * y + z * z)
    out = 0.0
    if x > 0 and y > 0:
        out += x * y * math.log(z + r)
        if z > 0:
            out -= 0.5 * z * z * math.atan(x * y / (z * r))
    if y > 0 and z > 0:
        out += y * z * math.log(x + r)
        if x > 0:
            out -= 0.5 * x * x * math.atan(y * z / (x * r))
    if x > 0 and z > 0:
        out += x * z * math.log(y + r)
        if y > 0:
            out -= 0.5 * y * y * math.atan(x * z / (y * r))
    return out


def _corner_box_integral(u: Point, v: Point) -> float:
    # integral of 1/|r| over [u1,v1]x[u2,v2]x[u3,v3], 0 <= u <= v componentwise
    total = 0.0
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                # (-1)^(number of lower limits substituted)
                sign = 1.0 if (i + j + k) % 2 else -1.0
                total += sign * _corner_primitive(v[0] if i else u[0],
                                                  v[1] if j else u[1],
                                                  v[2] if k else u[2])
    return total


def _axis_segments(extent: float, xi: float) -> list[tuple[float, float]]:
    # coordinate ranges relative to the singular point, reflected to be >= 0
    lo, hi = -xi, extent - xi
    if lo < 0.0 < hi:
        return [(0.0, -lo), (0.0, hi)]
    if hi <= 0.0:
        return [(-hi, -lo)]
    return [(lo, hi)]


def _corner_boxes(dims: Point, x: Point):
    # the box split at x into at most 8 corner boxes (u, v) of positive
    # volume, each with x at the origin, reflected to 0 <= u <= v
    segs = [_axis_segments(dims[i], x[i]) for i in range(3)]
    for sx in segs[0]:
        for sy in segs[1]:
            for sz in segs[2]:
                if sx[1] - sx[0] <= 0.0 or sy[1] - sy[0] <= 0.0 or sz[1] - sz[0] <= 0.0:
                    continue
                yield (sx[0], sy[0], sz[0]), (sx[1], sy[1], sz[1])


# ---------------------------------------------------------------------------
# adaptive quadrature
# ---------------------------------------------------------------------------

_GAUSS_ORDER = 8
_ETA = 2.5          # admissibility: cell used when dist >= eta * half-diagonal
_SIZE_FLOOR = 3e-4  # singular-cell half-diagonal floor, relative to the sample box's diagonal
_GAUSS_BATCH = 64   # admissible cells per Gauss call: 64 * 8^3 doubles per array


def _gauss_cells(los: np.ndarray, his: np.ndarray,
                 nodes: np.ndarray, weights: np.ndarray) -> float:
    # tensor-product Gauss-Legendre of 1/|r| over a batch of admissible cells, summed
    import numpy as np

    centers = 0.5 * (los + his)
    halves = 0.5 * (his - los)
    x = (centers[:, None, 0] + halves[:, None, 0] * nodes)[:, :, None, None]
    y = (centers[:, None, 1] + halves[:, None, 1] * nodes)[:, None, :, None]
    z = (centers[:, None, 2] + halves[:, None, 2] * nodes)[:, None, None, :]
    inv_r = x * x + y * y + z * z
    np.reciprocal(np.sqrt(inv_r, out=inv_r), out=inv_r)
    # contract each cell's nodes with the flattened weight tensor in one product
    return float(np.prod(halves, axis=1) @ (inv_r.reshape(len(los), -1) @ weights))


@functools.cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """The _GAUSS_ORDER-point Gauss-Legendre nodes on [-1, 1] and the tensor
    of weight products w_i w_j w_k, flattened, built on first use, so that
    importing the module imports no numpy."""
    from numpy.polynomial.legendre import leggauss

    nodes, w = leggauss(_GAUSS_ORDER)
    return nodes, (w[:, None, None] * w[:, None] * w).ravel()


def _octree_corner_integral(u: Point, v: Point, floor_h: float) -> float:
    """Octree quadrature of 1/|r| over [u1,v1]x[u2,v2]x[u3,v3], 0 <= u <= v.

    The singular point is the origin, at the box's lower corner or outside
    it.  Cells are walked as plain floats: a cell whose lower corner is
    _ETA half-diagonals from the origin or farther is admissible and gets the
    tensor Gauss rule, in batches of _GAUSS_BATCH after the walk; any other
    cell is bisected across its longest side until its half-diagonal is at
    most floor_h, and then integrated with the exact corner primitive.
    """
    import numpy as np

    total = 0.0
    far = []
    cells = [(u, v)]
    while cells:
        lo, hi = cells.pop()
        ext = (hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2])
        h = 0.5 * math.sqrt(ext[0] * ext[0] + ext[1] * ext[1] + ext[2] * ext[2])
        if math.sqrt(lo[0] * lo[0] + lo[1] * lo[1] + lo[2] * lo[2]) >= _ETA * h:
            far.append(lo + hi)
        elif h <= floor_h:
            total += _corner_box_integral(lo, hi)
        else:
            axis = ext.index(max(ext))
            mid = 0.5 * (lo[axis] + hi[axis])
            cells.append((lo, hi[:axis] + (mid,) + hi[axis + 1:]))
            cells.append((lo[:axis] + (mid,) + lo[axis + 1:], hi))
    nodes, weights = _gauss_rule()
    boxes = np.array(far)
    for start in range(0, len(boxes), _GAUSS_BATCH):
        batch = boxes[start:start + _GAUSS_BATCH]
        total += _gauss_cells(batch[:, :3], batch[:, 3:], nodes, weights)
    return total


def _box_integral(dims: Point, x: Point, method: str) -> float:
    """Integral of 1/|r - x| over the box [0, dims]; the one place where the
    method picks the rule.

    The box is split at x into its corner boxes.  Each distinct one is
    evaluated once, by the exact corner primitive ("closed_form") or by
    _octree_corner_integral with cells down to _SIZE_FLOOR times the diagonal
    of `dims` ("quadrature"), and its value is added once per occurrence, in
    the split's order: a probe at the centre of a face evaluates one box.
    """
    if method == "closed_form":
        rule = _corner_box_integral
    elif method == "quadrature":
        floor_h = _SIZE_FLOOR * math.sqrt(dims[0] ** 2 + dims[1] ** 2 + dims[2] ** 2)
        rule = lambda u, v: _octree_corner_integral(u, v, floor_h)
    else:
        raise GeometryError(f"unknown method '{method}'")
    values = {}
    total = 0.0
    for box in _corner_boxes(dims, x):
        if box not in values:
            values[box] = rule(*box)
        total += values[box]
    return total


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def coulomb_box_integral(geom: SampleGeometry, x, method: str = "closed_form") -> Quantity:
    """Integral of 1/|r - x| over the sample cuboid, in cm^2.

    The integrand's 1/r singularity is integrable, so x may lie inside the
    box or on its surface.  method is "closed_form" (exact) or "quadrature"
    (adaptive octree, cross-check path).
    """
    p = _point(x)
    if p is None:
        raise GeometryError(f"evaluation point must be a finite 3-vector, got {x!r}")
    return quantity(_box_integral(geom.dims, p, method), "cm^2")


def _probe_integral_sum(geom: SampleGeometry, probes: ProbePair, method: str) -> float:
    probes.validate_on(geom)
    dims, p1, p2 = geom.dims, _point(probes.x1), _point(probes.x2)
    # the integral is even under each of the box's three mirror planes; the
    # distance to the nearer face per axis is exact (d - c is, for c >= d/2)
    fold1, fold2 = (tuple(min(c, d - c) for c, d in zip(p, dims)) for p in (p1, p2))
    if fold1 == fold2:
        return 2.0 * _box_integral(dims, p1, method)
    return _box_integral(dims, p1, method) + _box_integral(dims, p2, method)


def geometric_factor(geom: SampleGeometry, probes: ProbePair,
                     method: str = "closed_form") -> GeometricFactor:
    """Longitudinal geometric factor g, in cm^-1."""
    g = _probe_integral_sum(geom, probes, method) / (3.0 * geom.volume)
    return GeometricFactor(quantity(g, "cm^-1"), "longitudinal")


def geometric_factor_transverse(geom: SampleGeometry, probes: ProbePair,
                                method: str = "closed_form") -> GeometricFactor:
    """Transverse geometric factor g_tr = (w/l)^2 * g, in cm^-1."""
    scale = (geom.w / geom.l) ** 2 / (3.0 * geom.volume)
    g_tr = _probe_integral_sum(geom, probes, method) * scale
    return GeometricFactor(quantity(g_tr, "cm^-1"), "transverse")
