"""Geometric factors for cuboid samples.

The longitudinal factor is

    g = 1/(3*Omega) * integral over the sample of (1/|r-x1| + 1/|r-x2|) d^3r,

in cm^-1, with the voltage probes at x1, x2; the transverse factor carries an
extra (w/l)^2.  The Coulomb volume integral has a closed form built from the
arctan/log primitive of the Newtonian potential of a homogeneous cuboid; an
adaptive quadrature on columns, exact along the box's shortest axis and on a
quadtree in the other two, provides an independent cross-check path.
"""

from __future__ import annotations

import functools
import math
import sys

from .units import InputError, Quantity, Record, parse_unit, quantity

TYPE_CHECKING = False  # a type checker reads it as True; importing typing slows a cold start
if TYPE_CHECKING:
    import numpy as np

Point = tuple[float, float, float]


class GeometryError(InputError):
    """Invalid sample geometry or probe placement."""


class SampleGeometry(Record):
    """Cuboid sample, origin at one corner, axes along the edges.

    l is along the current, w across it, a the thickness; all in cm.
    """

    __slots__ = ("l", "w", "a")

    def __init__(self, l: float, w: float, a: float):
        for name, v in (("l", l), ("w", w), ("a", a)):
            if not (math.isfinite(v) and v > 0):
                raise GeometryError(f"sample dimension {name} must be positive, got {v}")
        # g is built from the squared sides and the squared diagonal and is
        # divided by the volume: each must be a normal float, neither
        # underflowing nor overflowing
        squares = (l * l, w * w, a * a)
        if not all(sys.float_info.min <= x <= sys.float_info.max
                   for x in (*squares, sum(squares), l * w * a)):
            raise GeometryError(f"sample dimensions {l:g} x {w:g} x {a:g} cm leave the float "
                                "range: their squares, squared diagonal or volume are not "
                                "normal floats")
        self._fill(locals())

    @property
    def dims(self) -> Point:
        return (self.l, self.w, self.a)

    @property
    def volume(self) -> float:
        return self.l * self.w * self.a


def _point(x) -> Point | None:
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


class ProbePair(Record):
    """Positions of the two voltage probes, 3-tuples in cm, inside the closed cuboid."""

    __slots__ = ("x1", "x2")

    def __init__(self, x1: Point, x2: Point):
        x1, x2 = _point(x1), _point(x2)
        if x1 is None or x2 is None:
            raise GeometryError("probe positions must be finite 3-vectors")
        if x1 == x2:
            raise GeometryError("the two probes must not coincide")
        self._fill(locals())

    def validate_on(self, geom: SampleGeometry) -> None:
        for label, x in (("x1", self.x1), ("x2", self.x2)):
            if not all(0.0 <= c <= d for c, d in zip(x, geom.dims)):
                raise GeometryError(f"probe {label}={x} lies outside the sample cuboid")


class GeometricFactor(Record):
    """g as a Quantity in cm^-1; a value of another dimension is a GeometryError."""

    __slots__ = ("value",)

    def __init__(self, value: Quantity):
        if getattr(value, "dim", None) != parse_unit("cm^-1").dim:
            raise GeometryError(f"g must be a Quantity in cm^-1, got {value!r}")
        self._fill(locals())


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

# the 8-point Gauss-Legendre rule on [-1, 1]: (node, weight) of its positive
# nodes, frozen as numpy 2.4.6 computes them
_GAUSS_8 = ((0.18343464249564978, 0.36268378337836166),
            (0.525532409916329, 0.3137066458778869),
            (0.7966664774136267, 0.22238103445337443),
            (0.9602898564975362, 0.10122853629037706))
_ETA = 2.5          # admissibility: column used when dist >= eta * its (x, y) half-diagonal
_SIZE_FLOOR = 3e-4  # singular columns' (x, y) half-diagonal, relative to the sample box's diagonal


def _gauss_columns(cells: list, z_lo: float, z_hi: float) -> float:
    # tensor-product Gauss-Legendre in (x, y) of the exact z integral of 1/|r|
    # over a walk's admissible columns (x_lo, y_lo, x_hi, y_hi), summed
    import numpy as np

    nodes, weights = _gauss_rule()
    box = np.array(cells)
    halves = 0.5 * (box[:, 2:] - box[:, :2])
    xy = (0.5 * (box[:, :2] + box[:, 2:]))[:, :, None] + halves[:, :, None] * nodes
    rho2 = xy[:, 0, :, None] ** 2 + xy[:, 1, None, :] ** 2
    r_lo = np.sqrt(rho2 + z_lo * z_lo)
    r_sum = np.sqrt(rho2 + z_hi * z_hi, out=rho2) + r_lo
    # log((z_hi + R_hi) / (z_lo + R_lo)), with R_hi - R_lo written as
    # (z_hi^2 - z_lo^2) / (R_hi + R_lo) so that a thin column does not cancel
    col = np.log1p((z_hi - z_lo) * (1.0 + (z_hi + z_lo) / r_sum) / (z_lo + r_lo))
    return float((halves[:, 0] * halves[:, 1]) @ (col.reshape(len(box), -1) @ weights))


def gauss_legendre(half) -> tuple[np.ndarray, np.ndarray]:
    """Nodes, ascending, and weights of the even-order Gauss-Legendre rule on
    [-1, 1] whose positive nodes, ascending, have the (node, weight) pairs half.
    The rule is mirrored, not computed, so no numpy subpackage is loaded."""
    import numpy as np

    nodes, weights = np.array(half).T
    return np.concatenate([-nodes[::-1], nodes]), np.concatenate([weights[::-1], weights])


@functools.cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 8-point Gauss-Legendre nodes on [-1, 1] and the weight products
    w_i w_j, flattened; built on first use, so importing imports no numpy."""
    nodes, w = gauss_legendre(_GAUSS_8)
    return nodes, (w[:, None] * w).ravel()


def _column_corner_integral(u: Point, v: Point, floor_h: float) -> float:
    """Quadrature of 1/|r| over [u1,v1]x[u2,v2]x[u3,v3], 0 <= u <= v, on columns.

    The singular point is the origin, at the box's lower corner or outside it.
    Columns span the shortest axis, z, exactly; their (x, y) cells are walked
    as plain floats: a cell whose lower corner (x_lo, y_lo, z_lo) lies _ETA
    (x, y) half-diagonals from the origin or farther takes the Gauss rule, in
    one call after the walk; any other is bisected across its longer side down
    to a half-diagonal of floor_h and takes the corner primitive.
    """
    x, y, z = sorted(range(3), key=lambda i: u[i] - v[i])  # z is the shortest side
    z_lo, z_hi = u[z], v[z]
    total, far, cells = 0.0, [], [(u[x], u[y], v[x], v[y])]
    while cells:
        x_lo, y_lo, x_hi, y_hi = cell = cells.pop()
        dx, dy = x_hi - x_lo, y_hi - y_lo
        h = 0.5 * math.sqrt(dx * dx + dy * dy)
        if math.sqrt(x_lo * x_lo + y_lo * y_lo + z_lo * z_lo) >= _ETA * h:
            far.append(cell)
        elif h <= floor_h:
            total += _corner_box_integral((x_lo, y_lo, z_lo), (x_hi, y_hi, z_hi))
        elif dx >= dy:
            mid = 0.5 * (x_lo + x_hi)
            cells += (x_lo, y_lo, mid, y_hi), (mid, y_lo, x_hi, y_hi)
        else:
            mid = 0.5 * (y_lo + y_hi)
            cells += (x_lo, y_lo, x_hi, mid), (x_lo, mid, x_hi, y_hi)
    if far:
        total += _gauss_columns(far, z_lo, z_hi)
    return total


_MEMO_SIZE = 256  # (dims, points, method) keys kept; catalog passes draw 110


@functools.lru_cache(maxsize=_MEMO_SIZE)  # a pure function; an error is not cached
def _box_integral(dims: Point, points, method: str) -> float:
    """Sum over points of the integral of 1/|r - x| over the box [0, dims];
    the one place where the method picks the rule.

    The box is split at each x into its corner boxes.  Each distinct one is
    evaluated once per call, by the exact corner primitive ("closed_form") or
    by _column_corner_integral with columns down to _SIZE_FLOOR times the
    diagonal of `dims` ("quadrature"): a face-centre probe and its mirror image
    evaluate one box.  Each x's values add in its split order, then the sums.
    The last _MEMO_SIZE results are kept, so a repeated key is not integrated
    again; keys that compare equal (0.0 and -0.0, a float and a numpy float64)
    split the box alike and give the same float.
    """
    if method == "closed_form":
        rule = _corner_box_integral
    elif method == "quadrature":
        floor_h = _SIZE_FLOOR * math.sqrt(dims[0] ** 2 + dims[1] ** 2 + dims[2] ** 2)
        rule = lambda u, v: _column_corner_integral(u, v, floor_h)
    else:
        raise GeometryError(f"unknown method '{method}'")
    values = {}
    total = 0.0
    for x in points:
        part = 0.0
        for box in _corner_boxes(dims, x):
            if box not in values:
                values[box] = rule(*box)
            part += values[box]
        total += part
    return total


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def coulomb_box_integral(geom: SampleGeometry, x, method: str = "closed_form") -> Quantity:
    """Integral of 1/|r - x| over the sample cuboid, in cm^2.

    The integrand's 1/r singularity is integrable, so x may lie inside the
    box or on its surface.  method is "closed_form" (exact) or "quadrature"
    (adaptive columns, cross-check path).
    """
    p = _point(x)
    if p is None:
        raise GeometryError(f"evaluation point must be a finite 3-vector, got {x!r}")
    return quantity(_box_integral(geom.dims, (p,), method), "cm^2")


def _probe_integral_sum(geom: SampleGeometry, probes: ProbePair, method: str) -> float:
    probes.validate_on(geom)
    return _box_integral(geom.dims, (probes.x1, probes.x2), method)


def _factor(g: float) -> GeometricFactor:
    # far from a cube the corner sum cancels, and 3 * volume or (w/l)^2 /
    # volume may overflow: a g that is not a positive float is no answer
    if not 0.0 < g < math.inf:
        raise GeometryError(f"g = {g:g} cm^-1 is not finite and positive: the sample is "
                            "too large, or too far from a cube, for the floats")
    return GeometricFactor(quantity(g, "cm^-1"))


def geometric_factor(geom: SampleGeometry, probes: ProbePair,
                     method: str = "closed_form") -> GeometricFactor:
    """Longitudinal geometric factor g, in cm^-1."""
    return _factor(_probe_integral_sum(geom, probes, method) / (3.0 * geom.volume))


def geometric_factor_transverse(geom: SampleGeometry, probes: ProbePair,
                                method: str = "closed_form") -> GeometricFactor:
    """Transverse geometric factor g_tr = (w/l)^2 * g, in cm^-1."""
    scale = (geom.w / geom.l) ** 2 / (3.0 * geom.volume)
    return _factor(_probe_integral_sum(geom, probes, method) * scale)
