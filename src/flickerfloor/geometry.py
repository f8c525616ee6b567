"""Geometric factors for cuboid samples.

The longitudinal factor is

    g = 1/(3*Omega) * integral over the sample of (1/|r-x1| + 1/|r-x2|) d^3r,

in cm^-1, with the voltage probes at x1, x2; the transverse factor carries an
extra (w/l)^2.  The Coulomb volume integral has a closed form built from the
arctan/log primitive of the Newtonian potential of a homogeneous cuboid; an
adaptive octree quadrature provides an independent cross-check path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .units import Quantity, quantity


class GeometryError(ValueError):
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
    def dims(self) -> np.ndarray:
        return np.array([self.l, self.w, self.a])

    @property
    def volume(self) -> float:
        return self.l * self.w * self.a

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= 0.0) and np.all(x <= self.dims))


@dataclass(frozen=True)
class ProbePair:
    """Positions of the two voltage probes, in cm, inside the closed cuboid."""

    x1: tuple[float, float, float]
    x2: tuple[float, float, float]

    def __post_init__(self):
        a1, a2 = np.asarray(self.x1, float), np.asarray(self.x2, float)
        if a1.shape != (3,) or a2.shape != (3,):
            raise GeometryError("probe positions must be 3-vectors")
        if not (np.all(np.isfinite(a1)) and np.all(np.isfinite(a2))):
            raise GeometryError("probe positions must be finite")
        if np.array_equal(a1, a2):
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


def _corner_box_integral(u: np.ndarray, v: np.ndarray) -> float:
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


def _closed_form_box_integral(dims: np.ndarray, x: np.ndarray) -> float:
    segs = [_axis_segments(dims[i], x[i]) for i in range(3)]
    total = 0.0
    for sx in segs[0]:
        for sy in segs[1]:
            for sz in segs[2]:
                u = np.array([sx[0], sy[0], sz[0]])
                v = np.array([sx[1], sy[1], sz[1]])
                if np.any(v - u <= 0.0):
                    continue
                total += _corner_box_integral(u, v)
    return total


# ---------------------------------------------------------------------------
# adaptive quadrature
# ---------------------------------------------------------------------------

_GAUSS_ORDER = 8
_ETA = 2.5          # admissibility: cell used when dist >= eta * half-diagonal
_SIZE_FLOOR = 3e-4  # singular-cell size floor, relative to the box diagonal


def _gauss_cells(los: np.ndarray, his: np.ndarray, x: np.ndarray,
                 nodes: np.ndarray, weights: np.ndarray) -> float:
    # tensor-product Gauss-Legendre over a batch of admissible cells, summed
    centers = 0.5 * (los + his)
    halves = 0.5 * (his - los)
    gx = centers[:, None, 0] + halves[:, None, 0] * nodes
    gy = centers[:, None, 1] + halves[:, None, 1] * nodes
    gz = centers[:, None, 2] + halves[:, None, 2] * nodes
    dx = gx[:, :, None, None] - x[0]
    dy = gy[:, None, :, None] - x[1]
    dz = gz[:, None, None, :] - x[2]
    inv_r = 1.0 / np.sqrt(dx * dx + dy * dy + dz * dz)
    wxyz = weights[None, :, None, None] * weights[None, None, :, None] * weights[None, None, None, :]
    vals = np.prod(halves, axis=1) * np.einsum("cijk,cijk->c", inv_r, np.broadcast_to(wxyz, inv_r.shape))
    return float(np.sum(vals))


def _quadrature_box_integral(dims: np.ndarray, x: np.ndarray) -> float:
    """Octree quadrature of the box Coulomb integral.

    Cells well separated from the singular point get a tensor Gauss rule;
    cells containing or touching it are subdivided down to a size floor and
    the residual singular cells are evaluated with the exact corner primitive.
    """
    nodes, weights = leggauss(_GAUSS_ORDER)
    floor_h = _SIZE_FLOOR * float(np.linalg.norm(dims))
    total = 0.0
    los = np.zeros((1, 3))
    his = dims[None, :].astype(float)
    batch = 4096
    while len(los):
        centers = 0.5 * (los + his)
        halves = 0.5 * (his - los)
        h = np.linalg.norm(halves, axis=1)
        d = np.linalg.norm(np.maximum(np.abs(x - centers) - halves, 0.0), axis=1)
        far = d >= _ETA * h
        tiny = h <= floor_h
        use_gauss = np.flatnonzero(far)
        for start in range(0, len(use_gauss), batch):
            idx = use_gauss[start:start + batch]
            total += _gauss_cells(los[idx], his[idx], x, nodes, weights)
        sing = np.flatnonzero(~far & tiny)
        for i in sing:
            total += _closed_form_box_integral(his[i] - los[i], x - los[i])
        split = np.flatnonzero(~far & ~tiny)
        if len(split) == 0:
            break
        slos, shis = los[split], his[split]
        axis = np.argmax(shis - slos, axis=1)
        mid = 0.5 * (slos[np.arange(len(split)), axis] + shis[np.arange(len(split)), axis])
        left_hi = shis.copy()
        left_hi[np.arange(len(split)), axis] = mid
        right_lo = slos.copy()
        right_lo[np.arange(len(split)), axis] = mid
        los = np.concatenate([slos, right_lo])
        his = np.concatenate([left_hi, shis])
    return total


def _box_integral(dims: np.ndarray, x: np.ndarray, method: str) -> float:
    # the one place where the method picks the rule
    if method == "closed_form":
        return _closed_form_box_integral(dims, x)
    if method == "quadrature":
        return _quadrature_box_integral(dims, x)
    raise GeometryError(f"unknown method '{method}'")


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def coulomb_box_integral(geom: SampleGeometry, x, method: str = "closed_form") -> Quantity:
    """Integral of 1/|r - x| over the sample cuboid, in cm^2.

    The integrand's 1/r singularity is integrable, so x may lie inside the
    box or on its surface.  method is "closed_form" (exact) or "quadrature"
    (adaptive octree, cross-check path).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (3,) or not np.all(np.isfinite(x)):
        raise GeometryError(f"evaluation point must be a finite 3-vector, got {x!r}")
    return quantity(_box_integral(geom.dims, x, method), "cm^2")


def _probe_integral_sum(geom: SampleGeometry, probes: ProbePair, method: str) -> float:
    probes.validate_on(geom)
    return (_box_integral(geom.dims, np.asarray(probes.x1, float), method)
            + _box_integral(geom.dims, np.asarray(probes.x2, float), method))


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
