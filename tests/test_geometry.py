"""Coulomb box integrals and geometric factors.

Independent oracle: by the divergence theorem with 1/|r-x| = div_r[(r-x)/(2|r-x|)],
the volume integral of 1/|r-x| over a box equals a sum of six smooth surface
integrals, one per face.  This shares no code with the closed-form corner
primitive or the adaptive quadrature under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad

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

# frozen; computed by the face-integral oracle below and cross-checked against
# nested adaptive quadrature with the singular cell excised
UNIT_CUBE_CENTER = 2.3800773639795523

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


def face_integral_oracle(dims, x, epsabs=1e-11):
    """Volume integral of 1/|r-x| over [0,d0]x[0,d1]x[0,d2] via face integrals.

    Each face with outward normal n contributes (1/2) * integral of
    n.(r-x)/|r-x| dA; the constant n.(r-x) factor equals the signed distance
    from x to the face plane.
    """
    total = 0.0
    for axis in range(3):
        u_ax, v_ax = (axis + 1) % 3, (axis + 2) % 3
        for face_coord, orientation in ((0.0, -1.0), (dims[axis], 1.0)):
            h = orientation * (face_coord - x[axis])  # signed normal distance

            def rho(u, v):
                du, dv = u - x[u_ax], v - x[v_ax]
                dn = face_coord - x[axis]
                return 1.0 / math.sqrt(du * du + dv * dv + dn * dn)

            val, _ = dblquad(rho, 0.0, dims[v_ax], 0.0, dims[u_ax],
                             epsabs=epsabs, epsrel=1e-11)
            total += 0.5 * h * val
    return total


def box_integral(dims, x, method="closed_form"):
    geom = SampleGeometry(l=dims[0], w=dims[1], a=dims[2])
    return coulomb_box_integral(geom, np.asarray(x, dtype=float), method=method).to("cm^2")


# ---------------------------------------------------------------------------
# coulomb_box_integral
# ---------------------------------------------------------------------------

def test_unit_cube_center_frozen_value():
    assert box_integral((1, 1, 1), (0.5, 0.5, 0.5)) == pytest.approx(
        UNIT_CUBE_CENTER, rel=1e-12)


def test_unit_cube_center_against_face_oracle():
    oracle = face_integral_oracle((1.0, 1.0, 1.0), (0.5, 0.5, 0.5))
    assert box_integral((1, 1, 1), (0.5, 0.5, 0.5)) == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("point", [
    (0.3, 0.4, 0.5),      # interior, off-center
    (0.0, 0.5, 0.5),      # on a face
    (1.0, 1.0, 0.25),     # on an edge
    (2.0, -1.0, 0.5),     # exterior
])
def test_closed_form_against_face_oracle(point):
    dims = (1.0, 0.7, 0.4)
    oracle = face_integral_oracle(dims, point)
    assert box_integral(dims, point) == pytest.approx(oracle, rel=1e-8)


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
        assert quad == pytest.approx(closed, rel=1e-6)


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


@pytest.mark.parametrize("catalog, sample", sorted(CLOSED_FORM_G))
def test_closed_form_g_frozen_for_bundled_samples(catalog, sample):
    entries, _ = load_catalog(bundled_config_text(catalog))
    entry = next(e for e in entries if e.sample_id == sample)
    g = geometric_factor(entry.geom, entry.probes_longitudinal).value.to("cm^-1")
    g_tr = geometric_factor_transverse(entry.geom, entry.probes_transverse).value.to("cm^-1")
    assert (g, g_tr) == CLOSED_FORM_G[catalog, sample]


def test_table_g_within_20_percent():
    for name, ((l, w, a), g_ref, _) in TABLE_G.items():
        geom = SampleGeometry(l=l, w=w, a=a)
        gf = geometric_factor(geom, longitudinal_probes(geom))
        assert gf.value.to("cm^-1") == pytest.approx(g_ref, rel=0.20), name
        assert gf.configuration == "longitudinal"


def test_v1_longitudinal_within_15_percent():
    (l, w, a), g_ref, _ = TABLE_G["V1"]
    geom = SampleGeometry(l=l, w=w, a=a)
    gf = geometric_factor(geom, longitudinal_probes(geom))
    assert gf.value.to("cm^-1") == pytest.approx(g_ref, rel=0.15)


def test_v1_transverse_within_20_percent():
    (l, w, a), _, g_tr_ref = TABLE_G["V1"]
    geom = SampleGeometry(l=l, w=w, a=a)
    gf = geometric_factor_transverse(geom, transverse_probes(geom))
    assert gf.configuration == "transverse"
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
