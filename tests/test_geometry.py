"""Coulomb box integrals and geometric factors.

Independent oracle: by the divergence theorem with 1/|r-x| = div_r[(r-x)/(2|r-x|)],
the volume integral of 1/|r-x| over a box equals a sum of six smooth surface
integrals, one per face (FACE_ORACLE).  This shares no code with the
closed-form corner primitive or the adaptive quadrature under test.
"""

import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flickerfloor import geometry
from flickerfloor.workbench import bundled_config_text, load_catalog
from flickerfloor.geometry import (
    GeometryError,
    ProbePair,
    SampleGeometry,
    coulomb_box_integral,
    geometric_factor,
    geometric_factor_transverse,
    longitudinal_probes,
    transverse_probes,
)

# frozen; the closed form's value, 5.6e-16 below FACE_ORACLE's
UNIT_CUBE_CENTER = 2.3800773639795523
# The volume integral of 1/|r-x| over [0,d0]x[0,d1]x[0,d2], as the sum over the
# six faces of (1/2) h int_face dA/|r-x|, h the signed distance from x to the
# face plane along the outward normal (a face through x adds 0).  Each face
# integral is mpmath's 2-d tanh-sinh quadrature at 30 digits, split at the
# projection of x, at the exact binary dims and points; 30 and 40 digits agree
# to 1e-31.  Rounded to double: (dims, point): integral, cm^2.
FACE_ORACLE = {
    ((1.0, 1.0, 1.0), (0.5, 0.5, 0.5)): 2.3800773639795536,   # center
    ((1.0, 0.7, 0.4), (0.3, 0.4, 0.5)): 0.6353558178438907,   # beyond the top face
    ((1.0, 0.7, 0.4), (0.0, 0.5, 0.5)): 0.4884161569056394,   # in the x = 0 plane
    ((1.0, 0.7, 0.4), (1.0, 1.0, 0.25)): 0.350548007953927,   # in the x = 1 plane
    ((1.0, 0.7, 0.4), (2.0, -1.0, 0.5)): 0.13813022964713276,  # beyond a corner
}

TABLE_G = {  # published reference values, cm^-1
    "V1": ((2.2e-4, 1e-4, 1e-6), 9630.0, 1990.0),
    "V1.5": ((3.3e-4, 1.5e-4, 1e-6), 6420.0, 1330.0),
    "V2": ((4e-4, 2e-4, 1e-6), 5140.0, 1280.0),
    "V5": ((20e-4, 5e-4, 2e-6), 1260.0, 80.0),
    "V80": ((300e-4, 80e-4, 2e-6), 80.0, 6.0),
}


# closed-form results frozen as printed by repr; the closed form's arithmetic
# is fixed, so they must be reproduced exactly, not to a tolerance
CLOSED_FORM_G = {  # (catalog, sample): (longitudinal, transverse g), cm^-1
    ("ingaas", "V1"): (9609.606705535512, 2308.5341354353504),
    ("ingaas", "V1.5"): (6411.674164556851, 1540.112888495618),
    ("ingaas", "V2"): (5134.426162540443, 1467.320959806447),
    ("ingaas", "V5"): (1256.915783619522, 100.18704476365954),
    ("ingaas", "V80"): (82.42954353424345, 7.408179307011526),
    ("ybco", "bulk-B"): (7.890849846868367, 7.890849846868367),
    ("ybco", "film"): (5.80362631225493, 0.1553619718211278),
    ("gaas_piezo", "bar"): (1256.915783619522, 100.18704476365954),
}
# g of every catalog pair, rounded to double from a 60-digit mpmath sum of the
# corner primitive at the exact binary dimensions (the benchmark's references)
REFERENCE_G = {  # (catalog, sample): (longitudinal, transverse g), cm^-1
    ("ingaas", "V1"): (9609.60670553685, 2308.5341354355105),
    ("ingaas", "V1.5"): (6411.674164559561, 1540.1128884959433),
    ("ingaas", "V2"): (5134.426162540667, 1467.3209598071408),
    ("ingaas", "V5"): (1256.9157836188838, 100.18704476362215),
    ("ingaas", "V80"): (82.42954353457384, 7.408179307020917),
    ("ybco", "bulk-B"): (7.890849846868358, 7.890849846868358),
    ("ybco", "film"): (5.803626312264334, 0.15536197182196868),
    ("gaas_piezo", "bar"): (1256.9157836188838, 100.18704476362215),
}
# the closed form's worst catalog pair and its error against REFERENCE_G: the
# 8-term corner sum cancels on the 85 nm film (condition number 5.3e4)
CLOSED_FORM_WORST = (("ybco", "film", "transverse"), 5.41e-12)
CLOSED_FORM_POINTS = [  # points of the box (1, 0.7, 0.4) and the integral, cm^2
    ((0.3, 0.2, 0.1), 0.8469212525228589),      # interior
    ((0.5, 0.35, 0.2), 0.953396798964545),      # center
    ((0.0, 0.35, 0.2), 0.6608309885160616),     # face
    ((0.5, 0.7, 0.1), 0.6923427865462597),      # face
    ((1.0, 0.0, 0.25), 0.5230231638203),        # edge
    ((0.0, 0.0, 0.0), 0.47669839948227277),     # corner
    ((1.0, 0.7, 0.4), 0.47669839948227277),     # opposite corner
    ((1.5, -0.2, 0.3), 0.2525811345718919),     # exterior
    ((20.0, 15.0, -10.0), 0.01059155447910598),  # exterior, 25 diagonals out
]


def box_integral(dims, x, method="closed_form"):
    geom = SampleGeometry(l=dims[0], w=dims[1], a=dims[2])
    return coulomb_box_integral(geom, np.asarray(x, dtype=float), method=method).to("cm^2")


# ---------------------------------------------------------------------------
# coulomb_box_integral
# ---------------------------------------------------------------------------

def test_unit_cube_center_frozen_value():
    assert box_integral((1, 1, 1), (0.5, 0.5, 0.5)) == pytest.approx(
        UNIT_CUBE_CENTER, rel=1e-12)


# the closed form's 8 corner terms are of one size on these boxes, so it is
# good to a few ulps (7e-16 at worst, measured)
def test_unit_cube_center_against_face_oracle():
    oracle = FACE_ORACLE[(1.0, 1.0, 1.0), (0.5, 0.5, 0.5)]
    assert box_integral((1, 1, 1), (0.5, 0.5, 0.5)) == pytest.approx(oracle, rel=1e-14)


@pytest.mark.parametrize("point", [
    (0.3, 0.4, 0.5),
    (0.0, 0.5, 0.5),
    (1.0, 1.0, 0.25),
    (2.0, -1.0, 0.5),
])
def test_closed_form_against_face_oracle(point):
    dims = (1.0, 0.7, 0.4)
    assert box_integral(dims, point) == pytest.approx(FACE_ORACLE[dims, point], rel=1e-14)


@pytest.mark.parametrize("point, frozen", CLOSED_FORM_POINTS)
def test_closed_form_frozen_points(point, frozen):
    assert box_integral((1.0, 0.7, 0.4), point) == frozen


@pytest.mark.parametrize("point", [
    [0.3, 0.2, 0.1], (0.3, 0.2, 0.1), np.array([0.3, 0.2, 0.1]), (0.3, 0.2, np.float64(0.1)),
])
def test_point_accepted_as_list_tuple_or_array(point):
    geom = SampleGeometry(l=1.0, w=0.7, a=0.4)
    assert coulomb_box_integral(geom, point).to("cm^2") == CLOSED_FORM_POINTS[0][1]


@pytest.mark.parametrize("point", [
    (0.3, 0.2), (0.3, 0.2, 0.1, 0.0), np.zeros((3, 1)), np.zeros((1, 3)), np.float64(0.3),
    [[0.3], [0.2], [0.1]], (0.3, math.nan, 0.1), [0.3, 0.2, -math.inf], None,
])
def test_point_of_wrong_shape_or_not_finite_rejected(point):
    geom = SampleGeometry(l=1.0, w=0.7, a=0.4)
    with pytest.raises(GeometryError, match="finite 3-vector"):
        coulomb_box_integral(geom, point)
    with pytest.raises(GeometryError, match="probe positions must be"):
        ProbePair(x1=(0.0, 0.2, 0.1), x2=point)


def test_cube_corner_is_half_of_center():
    # Octant decomposition: a cube of side L around its center splits into 8
    # corner cubes of side L/2, and the integral scales as L^2, so
    # I_center(L) = 8 * (1/2)^2 * I_corner(L) = 2 * I_corner(L).
    center = box_integral((1, 1, 1), (0.5, 0.5, 0.5))
    corner = box_integral((1, 1, 1), (0.0, 0.0, 0.0))
    assert corner == pytest.approx(center / 2.0, rel=1e-12)


def test_far_field_monopole_limit():
    dims = (1.0, 0.7, 0.4)
    volume = dims[0] * dims[1] * dims[2]
    for r_dist in (50.0, 200.0):
        x = (r_dist, 0.0, 0.0)
        center = np.array(dims) / 2.0
        dist = np.linalg.norm(np.asarray(x) - center)
        val = box_integral(dims, x)
        assert val == pytest.approx(volume / dist, rel=(1.5 / r_dist) ** 2)


def test_quadrature_matches_closed_form_on_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(100):
        dims = tuple(rng.uniform(0.2, 3.0, size=3))
        if rng.random() < 0.5:
            x = rng.uniform(0.0, 1.0, size=3) * dims           # inside
        else:
            x = rng.uniform(-2.0, 2.0, size=3) * np.asarray(dims)  # anywhere
        closed = box_integral(dims, x)
        quad = box_integral(dims, x, method="quadrature")
        assert quad == pytest.approx(closed, rel=1e-12)


def test_non_finite_point_rejected():
    geom = SampleGeometry(l=1.0, w=1.0, a=1.0)
    with pytest.raises(GeometryError):
        coulomb_box_integral(geom, np.array([np.nan, 0.5, 0.5]))
    with pytest.raises(GeometryError):
        coulomb_box_integral(geom, np.array([np.inf, 0.5, 0.5]))


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(min_value=0.01, max_value=100.0),
       seed=st.integers(min_value=0, max_value=2**16))
def test_integral_scaling_property(lam, seed):
    rng = np.random.default_rng(seed)
    dims = rng.uniform(0.2, 2.0, size=3)
    x = rng.uniform(-0.5, 1.5, size=3) * dims
    base = box_integral(tuple(dims), x)
    scaled = box_integral(tuple(lam * dims), lam * x)
    assert scaled == pytest.approx(lam ** 2 * base, rel=1e-10)


# ---------------------------------------------------------------------------
# geometric factors
# ---------------------------------------------------------------------------

def test_sample_geometry_validation():
    with pytest.raises(GeometryError):
        SampleGeometry(l=1.0, w=1.0, a=0.0)
    with pytest.raises(GeometryError):
        SampleGeometry(l=-1.0, w=1.0, a=1.0)
    # a square, the squared diagonal or the volume below the smallest normal
    # float or past the largest: the first three ended in a math domain error
    # and a ZeroDivisionError, in g = nan, and in g = 0 with no error
    for dims in ((1e-170,) * 3, (1e-160, 1e-160, 1e200), (1e150, 1e150, 1e-200),
                 (1e-155, 1.0, 1.0), (1e155, 1.0, 1.0), (1e154, 1e154, 1e-100),
                 (2e-103,) * 3, (1e103,) * 3):
        with pytest.raises(GeometryError, match="leave the float range"):
            SampleGeometry(*dims)
    # the limits are the float range's own: just inside them the box stands,
    # and a cube at the smallest volume or nearly the largest has its g
    SampleGeometry(2.0 * math.sqrt(sys.float_info.min), 1.0, 1.0)
    for side in (3e-103, 3e102):
        cube = SampleGeometry(side, side, side)
        g = geometric_factor(cube, longitudinal_probes(cube)).value.to("cm^-1")
        assert g * side == pytest.approx(1.1952068287858463, rel=1e-12)


def test_g_that_is_not_a_positive_float_is_refused():
    # 3 * volume overflows for this cube; the corner sum of a box 1e18 times
    # thinner than wide cancels to 0; (w/l)^2 / volume overflows here
    cube, thin = SampleGeometry(4e102, 4e102, 4e102), SampleGeometry(1.0, 1.0, 1e-18)
    sliver = SampleGeometry(2e-154, 1.0, 1.0)
    for factor, geom, probes, method in (
            (geometric_factor, cube, longitudinal_probes, "quadrature"),
            (geometric_factor, thin, longitudinal_probes, "closed_form"),
            (geometric_factor_transverse, sliver, transverse_probes, "closed_form")):
        with pytest.raises(GeometryError, match="is not finite and positive"):
            factor(geom, probes(geom), method=method)


def test_probe_pair_validation():
    geom = SampleGeometry(l=2.0, w=1.0, a=0.5)
    p = np.array([0.0, 0.5, 0.25])
    with pytest.raises(GeometryError):
        ProbePair(x1=p, x2=p.copy())  # coincident probes
    with pytest.raises(GeometryError):
        ProbePair(x1=p, x2=np.array([5.0, 0.5, 0.25])).validate_on(geom)
    ProbePair(x1=p, x2=np.array([2.0, 0.5, 0.25])).validate_on(geom)


def test_probe_pair_takes_lists_tuples_and_arrays():
    geom = SampleGeometry(l=2.0, w=1.0, a=0.5)
    want = geometric_factor(geom, ProbePair((0.0, 0.5, 0.25), (2.0, 0.5, 0.25))).value
    for x1, x2 in (([0.0, 0.5, 0.25], [2.0, 0.5, 0.25]),
                   (np.array([0.0, 0.5, 0.25]), (2.0, 0.5, 0.25))):
        assert geometric_factor(geom, ProbePair(x1, x2)).value == want
    with pytest.raises(GeometryError, match="coincide"):
        ProbePair([0.0, 0.5, 0.25], np.array([0.0, 0.5, 0.25]))
    with pytest.raises(GeometryError, match="outside"):
        ProbePair([0.0, 0.5, 0.25], [2.0, 0.5, 0.6]).validate_on(geom)
    with pytest.raises(GeometryError, match=r"x2=\(2\.0, 0\.5, 0\.6\) lies outside"):
        ProbePair([0.0, 0.5, 0.25], np.array([2.0, 0.5, 0.6])).validate_on(geom)
    # the pair keeps the float tuples it checked: the three spellings are one
    # record, equal and with one hash
    pairs = [ProbePair([0, .5, .25], (2, .5, .25)), ProbePair((0.0, 0.5, 0.25), (2.0, 0.5, 0.25)),
             ProbePair(np.array([0.0, 0.5, 0.25]), np.array([2.0, 0.5, 0.25]))]
    assert all(p == pairs[0] for p in pairs) and len({hash(p) for p in pairs}) == 1
    assert pairs[2].x1 == (0.0, 0.5, 0.25) and type(pairs[2].x1[0]) is float


@pytest.mark.parametrize("catalog, sample", sorted(CLOSED_FORM_G))
def test_closed_form_g_frozen_for_bundled_samples(catalog, sample):
    entries, _ = load_catalog(bundled_config_text(catalog))
    entry = next(e for e in entries if e.sample_id == sample)
    g = geometric_factor(entry.geom, entry.probes_longitudinal).value.to("cm^-1")
    g_tr = geometric_factor_transverse(entry.geom, entry.probes_transverse).value.to("cm^-1")
    assert (g, g_tr) == CLOSED_FORM_G[catalog, sample]


def catalog_pairs():
    """(label, geometry, probes, factor) for every catalog sample in both modes."""
    for catalog, sample in sorted(CLOSED_FORM_G):
        entries, _ = load_catalog(bundled_config_text(catalog))
        entry = next(e for e in entries if e.sample_id == sample)
        yield (f"{catalog}/{sample}", entry.geom, entry.probes_longitudinal, geometric_factor)
        yield (f"{catalog}/{sample} tr", entry.geom, entry.probes_transverse,
               geometric_factor_transverse)


def two_integral_factor(geom, probes, factor, method="closed_form"):
    # g as the sum of the two probes' Coulomb integrals, one call each
    total = sum(coulomb_box_integral(geom, x, method=method).to("cm^2")
                for x in (probes.x1, probes.x2))
    if factor is geometric_factor:
        return total / (3.0 * geom.volume)
    return total * ((geom.w / geom.l) ** 2 / (3.0 * geom.volume))


def test_catalog_pairs_are_mirror_images_with_bit_equal_halves():
    # each catalog probe is the other's mirror image, so both split the box
    # into the same corner boxes and their closed-form integrals are
    # bit-equal; g, the two per-probe sums from one memo, is the two-call sum
    pairs = list(catalog_pairs())
    assert len(pairs) == 2 * len(CLOSED_FORM_G)
    for label, geom, probes, factor in pairs:
        f1, f2 = (tuple(min(c, d - c) for c, d in zip(x, geom.dims))
                  for x in (probes.x1, probes.x2))
        assert f1 == f2, label
        t1, t2 = (coulomb_box_integral(geom, x).to("cm^2") for x in (probes.x1, probes.x2))
        assert t1 == t2, label
        assert factor(geom, probes).value.to("cm^-1") == two_integral_factor(
            geom, probes, factor), label


@pytest.mark.parametrize("method", ["closed_form", "quadrature"])
def test_asymmetric_pair_sums_two_integrals(method):
    geom = SampleGeometry(l=2.0, w=1.0, a=0.5)
    probes = ProbePair((0.3, 0.2, 0.1), (2.0, 0.5, 0.25))  # off-centre interior, end face
    for factor in (geometric_factor, geometric_factor_transverse):
        assert factor(geom, probes, method=method).value.to("cm^-1") == two_integral_factor(
            geom, probes, factor, method)


def test_quadrature_mirror_pairs_within_1e_14():
    # on a well-conditioned box the closed form is exact to rounding
    for geom in (SampleGeometry(l=2.0, w=1.0, a=0.5), SampleGeometry(l=0.2, w=0.2, a=0.2)):
        for factor, probes in ((geometric_factor, longitudinal_probes),
                               (geometric_factor_transverse, transverse_probes)):
            closed = factor(geom, probes(geom)).value.to("cm^-1")
            quad = factor(geom, probes(geom), method="quadrature").value.to("cm^-1")
            assert quad == pytest.approx(closed, rel=1e-14, abs=0)
    # on the thin catalog boxes, g from the shared corner-box memo stays
    # within 1e-14 of two separate quadrature calls, one per probe
    for label, geom, probes, factor in catalog_pairs():
        quad = factor(geom, probes, method="quadrature").value.to("cm^-1")
        assert quad == pytest.approx(two_integral_factor(geom, probes, factor, "quadrature"),
                                     rel=1e-14, abs=0), label


def reference_errors(method):
    """{(catalog, sample, mode): relative error of g against REFERENCE_G}."""
    errors = {}
    for label, geom, probes, factor in catalog_pairs():
        catalog, sample = label.split()[0].split("/")
        mode = "transverse" if factor is geometric_factor_transverse else "longitudinal"
        want = REFERENCE_G[catalog, sample][mode == "transverse"]
        errors[catalog, sample, mode] = abs(
            factor(geom, probes, method=method).value.to("cm^-1") / want - 1.0)
    return errors


def test_quadrature_g_within_1e_14_of_references():
    errors = reference_errors("quadrature")
    assert len(errors) == 16
    assert max(errors.values()) <= 1e-14, errors


# the numpy release whose leggauss the frozen Gauss halves were read from;
# another may round a node or weight differently
FROZEN_RULES_NUMPY = "2.4.6"


@pytest.mark.parametrize("order", [8, 24])
def test_frozen_gauss_rules_are_leggauss(order):
    from numpy.polynomial.legendre import leggauss

    from flickerfloor import spectral

    half = {8: geometry._GAUSS_8, 24: spectral._GAUSS_24}[order]
    nodes, weights = geometry.gauss_legendre(half)
    ref_nodes, ref_weights = leggauss(order)
    maxulp = 0 if np.__version__ == FROZEN_RULES_NUMPY else 2
    np.testing.assert_array_max_ulp(nodes, ref_nodes, maxulp)
    np.testing.assert_array_max_ulp(weights, ref_weights, maxulp)
    assert np.array_equal(nodes, -nodes[::-1]) and np.all(np.diff(nodes) > 0)
    assert np.array_equal(weights, weights[::-1])
    assert math.fsum(weights) == pytest.approx(2.0, rel=4e-16)


def test_closed_form_g_error_against_references_is_recorded():
    # the worst pair stays within its recorded error; every other pair is
    # below 4.1e-12 (V80 longitudinal reads 4.0e-12)
    pair, recorded = CLOSED_FORM_WORST
    errors = reference_errors("closed_form")
    assert errors.pop(pair) <= recorded * 1.001
    assert max(errors.values()) <= 4.1e-12, errors


@pytest.fixture
def column_runs(monkeypatch):
    """Arguments of every corner-box column walk made while the test runs."""
    runs = []
    real = geometry._column_corner_integral
    monkeypatch.setattr(geometry, "_column_corner_integral",
                        lambda *args: runs.append(args) or real(*args))
    return runs


def test_catalog_pair_takes_one_column_walk(column_runs):
    # a mirror pair's second probe finds its corner boxes in the memo, and a
    # probe at the centre of a face splits the box into four equal quarters
    # that reflect to one corner box: one walk in all
    for label, geom, probes, factor in catalog_pairs():
        column_runs.clear()
        factor(geom, probes, method="quadrature")
        assert len(column_runs) == 1, label


@pytest.fixture
def column_work(monkeypatch):
    """Counts of the Gauss and the singular columns integrated while the test runs."""
    work = {"gauss": 0, "singular": 0}
    real_gauss, real_corner = geometry._gauss_columns, geometry._corner_box_integral

    def gauss_columns(cells, *args):
        work["gauss"] += len(cells)
        return real_gauss(cells, *args)

    def corner_box_integral(u, v):
        work["singular"] += 1
        return real_corner(u, v)

    monkeypatch.setattr(geometry, "_gauss_columns", gauss_columns)
    monkeypatch.setattr(geometry, "_corner_box_integral", corner_box_integral)
    return work


@pytest.mark.parametrize("catalog, sample, gauss, singular", [
    ("ingaas", "V1", 80, 5),       # the octree walk took 148 Gauss cells and 15 singular
    ("ybco", "bulk-B", 84, 4),     # and 254 and 13
])
def test_column_walk_work_is_pinned(column_work, catalog, sample, gauss, singular):
    # the end probe's one quarter-box walk; a change that inflates it fails here
    entries, _ = load_catalog(bundled_config_text(catalog))
    entry = next(e for e in entries if e.sample_id == sample)
    geometric_factor(entry.geom, entry.probes_longitudinal, method="quadrature")
    assert column_work == {"gauss": gauss, "singular": singular}


@pytest.mark.parametrize("point", [(0.3, 0.2, 0.04), (0.0, 0.2, 0.04), (1.4, -0.2, 0.25)],
                         ids=["interior", "face", "exterior"])
def test_quadrature_does_not_depend_on_the_column_axis(column_work, point):
    # the box's shortest side, along which the columns run, moved to x, y and
    # z in turn, with the point permuted alike: the same columns every time
    work = []
    for thin_axis in range(3):
        order = [0, 1]
        order.insert(thin_axis, 2)
        dims = tuple((1.0, 0.7, 0.1)[i] for i in order)
        x = tuple(point[i] for i in order)
        column_work.update(gauss=0, singular=0)
        quad = box_integral(dims, x, method="quadrature")
        work.append(dict(column_work))
        assert quad == pytest.approx(box_integral(dims, x), rel=1e-14, abs=0), thin_axis
    assert work[0] == work[1] == work[2]


@pytest.mark.parametrize("point, runs", [
    ((0.3, 0.2, 0.1), 8),     # off-centre interior
    ((0.5, 0.35, 0.2), 1),    # centre: eight bit-equal octants
    ((0.0, 0.2, 0.1), 4),     # face
    ((0.3, 0.7, 0.0), 2),     # edge
    ((1.0, 0.0, 0.4), 1),     # corner
])
def test_distinct_corner_boxes_are_walked_once(column_runs, point, runs):
    dims = (1.0, 0.7, 0.4)
    quad = box_integral(dims, point, method="quadrature")
    assert len(column_runs) == runs
    assert quad == pytest.approx(box_integral(dims, point), rel=1e-14)


@pytest.mark.parametrize("point, boxes, evaluations", [
    ((0.0, 0.35, 0.2), 4, 1),     # centre of a face: four bit-equal quarters
    ((0.5, 0.35, 0.2), 8, 1),     # centre: eight bit-equal octants
    ((0.3, 0.2, 0.1), 8, 8),      # off-centre interior
])
def test_closed_form_evaluates_each_distinct_corner_box_once(monkeypatch, point, boxes,
                                                             evaluations):
    dims = (1.0, 0.7, 0.4)
    assert len(list(geometry._corner_boxes(dims, point))) == boxes
    calls = []
    real = geometry._corner_box_integral
    monkeypatch.setattr(geometry, "_corner_box_integral",
                        lambda u, v: calls.append((u, v)) or real(u, v))
    got = box_integral(dims, point)
    assert len(calls) == evaluations
    # added back once per corner box, in the split's order: the unfolded sum
    want = 0.0
    for u, v in geometry._corner_boxes(dims, point):
        want += real(u, v)
    assert got == want


@pytest.mark.parametrize("method, rule", [("closed_form", "_corner_box_integral"),
                                          ("quadrature", "_column_corner_integral")])
def test_mirror_pair_evaluates_one_probes_corner_boxes(monkeypatch, method, rule):
    # x2 is x1 mirrored across x = l/2, exactly (1 - 0.75 is 0.25), and not a
    # catalog pair: x2 splits the box into x1's eight corner boxes in another
    # order and finds each one evaluated
    geom = SampleGeometry(l=1.0, w=0.7, a=0.4)
    probes = ProbePair((0.25, 0.2, 0.1), (0.75, 0.2, 0.1))
    split1, split2 = (list(geometry._corner_boxes(geom.dims, x)) for x in (probes.x1, probes.x2))
    assert split1 != split2 and sorted(split1) == sorted(split2) and len(set(split1)) == 8
    calls = []
    real = getattr(geometry, rule)
    monkeypatch.setattr(geometry, rule,
                        lambda u, v, *rest: calls.append((u, v)) or real(u, v, *rest))
    for factor in (geometric_factor, geometric_factor_transverse):
        calls.clear()
        g = factor(geom, probes, method=method).value.to("cm^-1")
        assert sorted(calls) == sorted(split1)
        assert g == two_integral_factor(geom, probes, factor, method)


@pytest.mark.parametrize("side", [s for s in itertools.product((-1, 0, 1), repeat=3)
                                  if s != (0, 0, 0)])
def test_quadrature_matches_closed_form_beyond_faces_edges_and_corners(column_runs, side):
    # a point beyond a face, an edge or a corner splits the box in 4, 2 or 1
    dims = (1.0, 0.7, 0.4)
    point = tuple(0.3 * d if s == 0 else (-0.25 * d if s < 0 else 1.4 * d)
                  for s, d in zip(side, dims))
    quad = box_integral(dims, point, method="quadrature")
    assert len(column_runs) == 2 ** side.count(0)
    assert quad == pytest.approx(box_integral(dims, point), rel=1e-14)


def test_quadrature_factor_peak_memory_under_1_mb():
    # the Gauss sweep takes a walk's admissible columns in one call, whose
    # arrays hold 8^2 doubles a column
    entries, _ = load_catalog(bundled_config_text("ybco"))
    entry = next(e for e in entries if e.sample_id == "bulk-B")
    geometric_factor(entry.geom, entry.probes_longitudinal, method="quadrature")  # warm up
    tracemalloc.start()
    try:
        geometric_factor(entry.geom, entry.probes_longitudinal, method="quadrature")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_table_g_within_20_percent():
    for name, ((l, w, a), g_ref, _) in TABLE_G.items():
        geom = SampleGeometry(l=l, w=w, a=a)
        gf = geometric_factor(geom, longitudinal_probes(geom))
        assert gf.value.to("cm^-1") == pytest.approx(g_ref, rel=0.20), name


def test_v1_longitudinal_within_15_percent():
    (l, w, a), g_ref, _ = TABLE_G["V1"]
    geom = SampleGeometry(l=l, w=w, a=a)
    gf = geometric_factor(geom, longitudinal_probes(geom))
    assert gf.value.to("cm^-1") == pytest.approx(g_ref, rel=0.15)


def test_v1_transverse_within_20_percent():
    (l, w, a), _, g_tr_ref = TABLE_G["V1"]
    geom = SampleGeometry(l=l, w=w, a=a)
    gf = geometric_factor_transverse(geom, transverse_probes(geom))
    assert gf.value.to("cm^-1") == pytest.approx(g_tr_ref, rel=0.20)


def test_transverse_ratio_is_exact_aspect_square():
    for name, ((l, w, a), _, _) in TABLE_G.items():
        geom = SampleGeometry(l=l, w=w, a=a)
        probes = transverse_probes(geom)
        g = geometric_factor(geom, probes).value.to("cm^-1")
        g_tr = geometric_factor_transverse(geom, probes).value.to("cm^-1")
        assert g_tr / g == pytest.approx((w / l) ** 2, rel=1e-10), name


def test_published_table_ratios():
    # cross-table consistency of the published values themselves; V80's
    # transverse value is rounded to one significant figure (6 vs 5.69),
    # which alone puts its ratio 5% off, so it is excluded here
    for name, ((l, w, a), g_ref, g_tr_ref) in TABLE_G.items():
        if name == "V80":
            continue
        assert g_tr_ref / g_ref == pytest.approx((w / l) ** 2, rel=0.03), name


def test_transverse_equals_longitudinal_for_square():
    geom = SampleGeometry(l=1.0, w=1.0, a=0.1)
    probes = transverse_probes(geom)
    g = geometric_factor(geom, probes).value.to("cm^-1")
    g_tr = geometric_factor_transverse(geom, probes).value.to("cm^-1")
    assert g_tr == pytest.approx(g, rel=1e-14)


def test_symmetric_probes_have_equal_terms():
    geom = SampleGeometry(l=2.0, w=1.0, a=0.5)
    probes = longitudinal_probes(geom)  # mirror images through the center
    t1 = coulomb_box_integral(geom, np.asarray(probes.x1)).to("cm^2")
    t2 = coulomb_box_integral(geom, np.asarray(probes.x2)).to("cm^2")
    assert t1 == pytest.approx(t2, rel=1e-12)


def test_factor_additivity_in_probe_terms():
    geom = SampleGeometry(l=2.0, w=1.0, a=0.5)
    probes = longitudinal_probes(geom)
    volume = geom.volume
    t1 = coulomb_box_integral(geom, np.asarray(probes.x1)).to("cm^2")
    t2 = coulomb_box_integral(geom, np.asarray(probes.x2)).to("cm^2")
    g = geometric_factor(geom, probes).value.to("cm^-1")
    assert g == pytest.approx((t1 + t2) / (3.0 * volume), rel=1e-12)


def test_factor_scaling_inverse_length():
    base_geom = SampleGeometry(l=2.0, w=1.0, a=0.5)
    g0 = geometric_factor(base_geom, longitudinal_probes(base_geom)).value.to("cm^-1")
    for lam in (0.5, 2.0, 10.0):
        geom = SampleGeometry(l=2.0 * lam, w=1.0 * lam, a=0.5 * lam)
        g = geometric_factor(geom, longitudinal_probes(geom)).value.to("cm^-1")
        assert g == pytest.approx(g0 / lam, rel=1e-10)


def test_probe_term_decreases_moving_outward():
    geom = SampleGeometry(l=1.0, w=1.0, a=1.0)
    values = [coulomb_box_integral(geom, np.array([x, 0.5, 0.5])).to("cm^2")
              for x in (1.0, 1.5, 3.0, 10.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_factor_positive_with_error_estimate():
    geom = SampleGeometry(l=2.0, w=1.0, a=0.5)
    gf = geometric_factor(geom, longitudinal_probes(geom), method="quadrature")
    assert gf.value.to("cm^-1") > 0


@pytest.mark.parametrize("factor, probes", [
    (geometric_factor, longitudinal_probes),
    (geometric_factor_transverse, transverse_probes),
])
@pytest.mark.parametrize("method", ["closed-form", "Quadrature", ""])
def test_unknown_method_rejected(factor, probes, method):
    # a misspelt method must not fall through to one of the two rules
    geom = SampleGeometry(l=1.0, w=1.0, a=1.0)
    with pytest.raises(GeometryError, match="unknown method"):
        factor(geom, probes(geom), method=method)
    with pytest.raises(GeometryError, match="unknown method"):
        coulomb_box_integral(geom, np.array([0.5, 0.5, 0.5]), method=method)
