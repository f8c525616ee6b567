"""Noise magnitude kappa, phonon exponent delta, and the validity bound."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flickerfloor import workbench
from flickerfloor.spectral import SignalRecord, power_spectrum_estimate
from flickerfloor.geometry import (
    GeometricFactor,
    GeometryError,
    SampleGeometry,
    geometric_factor,
    longitudinal_probes,
    transverse_probes,
)
from flickerfloor.noise_floor import (
    CarrierSpecies,
    Material,
    MissingPiezoDataError,
    NoiseFloorError,
    build_model,
    corner_frequency,
    corner_power,
    evaluate_spectrum,
    kappa,
    phonon_delta,
)
from flickerfloor.units import CODATA2018, DIMENSIONLESS, TIME, parse_quantity, quantity

TWO_SPECIES = (CarrierSpecies("n", 0.06), CarrierSpecies("p", 0.09))


def make_material(**overrides):
    fields = dict(
        name="well",
        carriers=TWO_SPECIES,
        rho0=quantity(5.3, "g/cm^3"),
        u=quantity(2.5e5, "cm/s"),
        d=quantity(5e-8, "cm"),
        dos=quantity(1e22, "1/(eV*cm^3)"),
        h14=parse_quantity("1.4e9 V/m"),
        acoustic_match="reflecting",
    )
    fields.update(overrides)
    return Material(**fields)


def gfactor(value):
    return GeometricFactor(value=quantity(value, "cm^-1"))


def model_on(material, geom):
    """The model of geom's default longitudinal pair, from a given g: its
    fmax and excess factor depend on the material and the volume only."""
    return build_model(geom, longitudinal_probes(geom), material, g=gfactor(1.0))


# ---------------------------------------------------------------------------
# kappa
# ---------------------------------------------------------------------------

def test_kappa_two_species_reference_row():
    # published reference: g = 9630 cm^-1 -> kappa 3.5e-10
    k = kappa(gfactor(9630.0), make_material())
    assert k == pytest.approx(3.5e-10, rel=0.01)


def test_kappa_transverse_reference_row():
    k = kappa(gfactor(1990.0), make_material())
    assert k == pytest.approx(7.2e-11, rel=0.01)


def test_kappa_single_species_uses_lightest():
    mat = make_material()
    k_both = kappa(gfactor(9630.0), mat)
    k_single = kappa(gfactor(9630.0), mat, single_species=True)
    # 1/0.06 / (1/0.06 + 1/0.09) = 0.6 of the two-species value
    assert k_single == pytest.approx(0.6 * k_both, rel=1e-12)


def test_kappa_linear_in_g():
    mat = make_material()
    k1 = kappa(gfactor(1234.5), mat)
    k2 = kappa(gfactor(2469.0), mat)
    assert k2 == pytest.approx(2.0 * k1, rel=1e-15)


@settings(max_examples=30, deadline=None)
@given(g=st.floats(min_value=1e-3, max_value=1e6),
       masses=st.lists(st.floats(min_value=0.01, max_value=10.0),
                       min_size=1, max_size=4))
def test_kappa_linear_in_inverse_mass_sum(g, masses):
    carriers = tuple(CarrierSpecies(f"c{i}", m) for i, m in enumerate(masses))
    mat = make_material(carriers=carriers)
    k = kappa(gfactor(g), mat)
    per_species = [kappa(gfactor(g), make_material(carriers=(c,))) for c in carriers]
    assert k == pytest.approx(sum(per_species), rel=1e-12)


def test_kappa_requires_carriers():
    with pytest.raises(NoiseFloorError):
        Material(name="empty", carriers=(),
                 rho0=quantity(5.3, "g/cm^3"), u=quantity(2.5e5, "cm/s"),
                 d=quantity(5e-8, "cm"), dos=quantity(1e22, "1/(eV*cm^3)"))


def test_kappa_of_a_vanishing_mass_names_the_carrier():
    # pi*m*hbar underflows to 0 before c^3 can lift it: a ZeroDivisionError
    mat = make_material(carriers=(CarrierSpecies("n", 1e-300),))
    with pytest.raises(NoiseFloorError, match=r"^material 'well': kappa of carrier 'n' "
                                              r"\(m = 1e-300 m0\) is out of floating"):
        kappa(gfactor(9630.0), mat)


@pytest.mark.parametrize("bad", [quantity(1.0, "s"), 1.0], ids=["seconds", "float"])
@pytest.mark.parametrize("field", list(Material.UNITS))
def test_material_refuses_a_field_in_a_wrong_unit(field, bad):
    with pytest.raises(NoiseFloorError,
                       match=f"material 'well': {field} must be a Quantity in "
                             f"{re.escape(Material.UNITS[field])}"):
        make_material(**{field: bad})


@pytest.mark.parametrize("value", [-1.0, 0.0])
@pytest.mark.parametrize("field", [field for field in Material.UNITS if field != "h14"])
def test_material_refuses_a_field_that_is_not_positive(field, value):
    # a negative m2_lambda was once refused only by phonon_delta, naming
    # neither the material nor the field
    with pytest.raises(NoiseFloorError, match=f"^material 'well': {field} must be positive"):
        make_material(**{field: quantity(value, Material.UNITS[field])})


@pytest.mark.parametrize("bad", [quantity(1.0, "cm"), quantity(1.0), 1.0],
                         ids=["cm", "dimensionless", "float"])
def test_geometric_factor_refuses_a_value_not_in_inverse_cm(bad):
    with pytest.raises(GeometryError, match=r"in cm\^-1"):
        GeometricFactor(bad)


# ---------------------------------------------------------------------------
# delta / gamma
# ---------------------------------------------------------------------------

def test_phonon_delta_reference_value():
    mat = make_material(acoustic_match="matched")
    assert phonon_delta(mat) == pytest.approx(0.14, rel=0.05)


def test_magnification_factor():
    # (f*)^delta for delta = 0.05, f* = 5e12 Hz
    assert (5e12) ** 0.05 == pytest.approx(4.3, rel=0.01)


def test_reflecting_boundary_forces_delta_zero():
    mat = make_material(acoustic_match="reflecting")
    assert phonon_delta(mat) == 0.0


def test_missing_piezo_data_raises():
    mat = make_material(acoustic_match="matched", h14=None)
    with pytest.raises(MissingPiezoDataError):
        phonon_delta(mat)


def test_direct_coupling_matches_h14_route():
    mat_h = make_material(acoustic_match="matched")
    e = CODATA2018.e
    m2 = (e * mat_h.h14) ** 2
    mat_m = make_material(acoustic_match="matched", h14=None, m2_lambda=m2)
    assert phonon_delta(mat_m) == pytest.approx(phonon_delta(mat_h), rel=1e-12)


def test_corner_frequency():
    assert corner_frequency(make_material()).to("Hz") == pytest.approx(5e12, rel=1e-12)


def test_corner_power_overflow_names_the_material():
    # (f*)^delta was inf here, which each caller had to check for
    ybco = workbench.load_catalog(workbench.bundled_config_text("ybco"))[1]["ybco"]
    with pytest.raises(NoiseFloorError,
                       match=r"^material 'ybco': \(f\*\)\^delta overflows at delta = 100$"):
        corner_power(ybco, 100.0)


@pytest.mark.parametrize("u, d", [(2.5e5, 1e-320), (1e-320, 1e10)], ids=["overflow", "underflow"])
def test_corner_frequency_out_of_float_range_names_the_material(u, d):
    # u/d was returned as inf or 0 Hz
    mat = make_material(u=quantity(u, "cm/s"), d=quantity(d, "cm"))
    with pytest.raises(NoiseFloorError, match=r"^material 'well': f\* = u/d is out of "
                                              r"floating-point range$"):
        corner_frequency(mat)


def test_corner_power_at_delta_0_is_1_for_any_f_star():
    # u/d overflows, but (f*)^0 is 1 and f* is not computed
    mat = make_material(d=quantity(1e-320, "cm"))
    assert corner_power(mat, 0.0) == 1.0


# ---------------------------------------------------------------------------
# validity bound
# ---------------------------------------------------------------------------

def test_validity_bound_reference_value():
    # hbar*D*Omega = 6.58e-6 s -> fmax = 1/(2*pi*6.58e-6) ~ 2.4e4 Hz
    geom = SampleGeometry(l=1e-4, w=1e-4, a=1e-4)  # 1e-12 cm^3
    model = model_on(make_material(), geom)
    assert model.fmax.to("Hz") == pytest.approx(2.4e4, rel=0.02)


def test_validity_bound_scales_inversely_with_volume():
    mat = make_material()
    b1 = model_on(mat, SampleGeometry(l=1e-4, w=1e-4, a=1e-4))
    b2 = model_on(mat, SampleGeometry(l=1e-3, w=1e-4, a=1e-4))
    assert b1.fmax.to("Hz") == pytest.approx(10.0 * b2.fmax.to("Hz"), rel=1e-12)


def test_excess_factor_values():
    geom = SampleGeometry(l=1e-4, w=1e-4, a=1e-4)
    model = model_on(make_material(), geom)
    fmax = model.fmax.to("Hz")
    assert model.excess_factor(fmax) == pytest.approx(1.0, rel=1e-12)
    assert model.excess_factor(10.0 * fmax) == pytest.approx(100.0, rel=1e-12)


def test_excess_factor_overflow_names_the_frequency():
    model = model_on(make_material(), SampleGeometry(l=1e-4, w=1e-4, a=1e-4))
    with pytest.raises(NoiseFloorError, match=r"f = 1e\+308 Hz"):
        model.excess_factor(1e308)


@pytest.mark.parametrize("dos", [1e-300, 1e-290])
def test_fmax_out_of_float_range_names_the_material(dos):
    # hbar*D*Omega underflows to 0 (a ZeroDivisionError) or 1/(2 pi hbar*D*Omega)
    # overflows to inf, which the model once carried as its fmax
    mat = make_material(dos=quantity(dos, "1/(eV*cm^3)"))
    with pytest.raises(NoiseFloorError, match=r"^material 'well': fmax = 1/\(2 pi hbar D "
                                              r"Omega\) is out of floating-point range"):
        model_on(mat, v1_geometry())


def test_hbar_d_omega_overflow_names_the_material():
    # hbar*D*Omega overflowed to inf, and the model carried fmax = 1/inf = 0 Hz
    mat = make_material(dos=quantity(1e296, "1/(eV*cm^3)"))
    with pytest.raises(NoiseFloorError, match=r"^material 'well': hbar D Omega is out of "
                                              r"floating-point range$"):
        model_on(mat, SampleGeometry(l=1e10, w=1e10, a=1e10))


# ---------------------------------------------------------------------------
# build_model / evaluate_spectrum
# ---------------------------------------------------------------------------

def v1_geometry():
    return SampleGeometry(l=2.2e-4, w=1e-4, a=1e-6)


def test_build_model_longitudinal():
    geom = v1_geometry()
    model = build_model(geom, longitudinal_probes(geom), make_material())
    assert model.kappa == pytest.approx(3.5e-10, rel=0.05)
    assert model.gamma == 1.0


def test_build_model_transverse():
    geom = v1_geometry()
    model = build_model(geom, transverse_probes(geom), make_material(),
                        configuration="transverse")
    assert model.kappa == pytest.approx(7.2e-11, rel=0.20)


def test_build_model_reflecting_leaves_kappa_unchanged():
    geom = v1_geometry()
    reflecting = build_model(geom, longitudinal_probes(geom),
                             make_material(acoustic_match="reflecting"))
    assert reflecting.gamma == 1.0


def test_build_model_delta_override():
    geom = v1_geometry()
    base = build_model(geom, longitudinal_probes(geom), make_material())
    model = build_model(geom, longitudinal_probes(geom), make_material(),
                        delta_override=0.06)
    assert model.gamma == pytest.approx(1.06)
    assert model.kappa == pytest.approx(base.kappa * 5e12 ** 0.06, rel=1e-10)
    with pytest.raises(NoiseFloorError, match="got nan"):
        build_model(geom, longitudinal_probes(geom), make_material(), delta_override=np.nan)


def test_build_model_with_given_g():
    geom = v1_geometry()
    probes = longitudinal_probes(geom)
    computed = build_model(geom, probes, make_material())
    tabulated = build_model(geom, probes, make_material(), g=gfactor(100.0))
    assert tabulated.kappa == kappa(gfactor(100.0), make_material())
    assert build_model(geom, probes, make_material(),
                       g=geometric_factor(geom, probes)) == computed
    with pytest.raises(NoiseFloorError):
        build_model(geom, probes, make_material(), configuration="diagonal", g=gfactor(1.0))


def test_build_model_missing_piezo_caveat():
    geom = v1_geometry()
    model = build_model(geom, longitudinal_probes(geom),
                        make_material(h14=None, acoustic_match="matched"))
    assert model.gamma == 1.0
    assert model.caveats == ("no piezo data; gamma=1",)


def test_evaluate_spectrum_reference_point():
    geom = v1_geometry()
    model = build_model(geom, longitudinal_probes(geom), make_material())
    series = evaluate_spectrum(model, parse_quantity("1 V"), np.array([1.0]))
    assert series.value[0] == pytest.approx(model.kappa, rel=1e-12)
    assert series.value[0] == pytest.approx(3.5e-10, rel=0.05)


def test_evaluate_spectrum_quadratic_in_bias():
    geom = v1_geometry()
    model = build_model(geom, longitudinal_probes(geom), make_material())
    f = np.array([0.5, 5.0, 50.0])
    s1 = evaluate_spectrum(model, parse_quantity("1 V"), f).value
    s2 = evaluate_spectrum(model, parse_quantity("2 V"), f).value
    np.testing.assert_allclose(s2, 4.0 * np.asarray(s1), rtol=1e-12)


def test_evaluate_spectrum_loglog_slope():
    geom = v1_geometry()
    model = build_model(geom, longitudinal_probes(geom), make_material())
    f = np.logspace(-2, 3, 40)
    s = evaluate_spectrum(model, parse_quantity("1 mV"), f).value
    slopes = np.diff(np.log(s)) / np.diff(np.log(f))
    np.testing.assert_allclose(slopes, -model.gamma, rtol=1e-10)


def test_spectrum_power_law_ratio_with_delta():
    geom = v1_geometry()
    model = build_model(geom, longitudinal_probes(geom),
                        make_material(acoustic_match="matched"))
    assert model.gamma > 1.0
    f = np.array([0.3, 7.0])
    s = evaluate_spectrum(model, parse_quantity("1 V"), f).value
    assert s[0] / s[1] == pytest.approx((f[1] / f[0]) ** model.gamma, rel=1e-12)


def test_evaluate_spectrum_rejects_zero_frequency():
    geom = v1_geometry()
    model = build_model(geom, longitudinal_probes(geom), make_material())
    with pytest.raises(NoiseFloorError):
        evaluate_spectrum(model, parse_quantity("1 V"), np.array([0.0, 1.0]))


def test_evaluate_spectrum_flags_beyond_validity():
    geom = v1_geometry()
    model = build_model(geom, longitudinal_probes(geom), make_material())
    fmax = model.fmax.to("Hz")
    series = evaluate_spectrum(model, parse_quantity("1 V"),
                               np.array([fmax / 10.0, fmax * 10.0]))
    flags = series.annotations["beyond_validity"]
    assert not flags[0] and flags[1]
    assert series.annotations["excess_factor"][1] == pytest.approx(100.0, rel=1e-12)
    assert series.annotations["excess_factor"][0] == 1.0


@pytest.mark.parametrize("grid", [[2.0, 1.0], [1.0, 1.0], [1.0, 3.0, 2.0]])
def test_spectra_refuse_a_grid_that_is_not_strictly_increasing(grid):
    geom = v1_geometry()
    model = build_model(geom, longitudinal_probes(geom), make_material())
    record = SignalRecord(np.zeros(8), 0.5)
    for spectrum in (lambda: evaluate_spectrum(model, parse_quantity("1 V"), grid),
                     lambda: power_spectrum_estimate([record], grid)):
        with pytest.raises(NoiseFloorError, match="^frequency grid must be strictly increasing$"):
            spectrum()


def test_evaluate_spectrum_refuses_a_floor_below_the_normal_range():
    # kappa is about 3.5e-10: U0 = 1e-150 V leaves subnormal floors, whose
    # last digits are lost, and U0 = 1e-160 V underflows them to 0
    geom = v1_geometry()
    model = build_model(geom, longitudinal_probes(geom), make_material())
    f = [1e-2, 1.0, 1e4]
    for u0 in ("1e-160 V", "1e-150 V", "-1e-150 V"):
        with pytest.raises(NoiseFloorError, match=re.escape(
                f"U0 = {float(u0[:-2]):g} V: the floor kappa*U0^2/|f|^gamma leaves the "
                "float range on this grid")):
            evaluate_spectrum(model, parse_quantity(u0), f)
    assert min(evaluate_spectrum(model, parse_quantity("1e-140 V"), f).value) > 2.0 ** -1022
    assert evaluate_spectrum(model, parse_quantity("0 V"), f).value == [0.0, 0.0, 0.0]


def _quantity_oracle(entry, mode, g, single_species):
    """The model's numbers by Quantity arithmetic, checking each dimension:
    kappa with (f*)^delta, phonon_delta (None without piezo data), the
    model's delta, (f*)^delta, hbar*D*Omega and fmax."""
    c, mat = CODATA2018, entry.material
    species = mat.carriers
    if single_species:
        species = [min(mat.carriers, key=lambda s: s.mass_m0)]
    total = 0.0
    for sp in species:
        term = 2.0 * c.e ** 4 * g.value / (math.pi * (sp.mass_m0 * c.m0) * c.hbar * c.c ** 3)
        assert term.dim == DIMENSIONLESS
        total = total + term.value
    phonon = None
    if mat.acoustic_match == "reflecting":
        phonon = 0.0
    elif (mat.m2_lambda, mat.h14) != (None, None):
        m2 = mat.m2_lambda if mat.m2_lambda is not None else (c.e * mat.h14) ** 2
        q = m2 / ((2.0 * math.pi) ** 2 * c.hbar * mat.rho0 * mat.u ** 3)
        assert q.dim == DIMENSIONLESS
        phonon = q.value
    delta = entry.delta_override if entry.delta_override is not None else phonon or 0.0
    power = (mat.u / mat.d).to("Hz") ** delta
    hbar_d_omega = c.hbar * mat.dos * quantity(entry.geom.volume, "cm^3")
    assert hbar_d_omega.dim == TIME
    fmax = quantity(1.0) / (2.0 * math.pi * hbar_d_omega)
    return total * power, phonon, delta, power, hbar_d_omega.value, fmax


@pytest.mark.parametrize("catalog", ["ingaas", "ybco", "gaas_piezo"])
def test_float_formulas_equal_quantity_arithmetic_bit_for_bit(catalog):
    entries, _ = workbench.load_catalog(workbench.bundled_config_text(catalog))
    for entry in entries:
        for mode in ("longitudinal", "transverse"):
            for g in {entry.g(mode), entry.g(mode, "table") or entry.g(mode)}:
                for single in (False, True):
                    k, phonon, delta, power, hbar_d_omega, fmax = _quantity_oracle(
                        entry, mode, g, single)
                    model = entry.model(mode, single, g)
                    assert kappa(g, entry.material, single) * power == k == model.kappa
                    if phonon is not None:
                        assert phonon_delta(entry.material) == phonon
                    assert corner_power(entry.material, delta) == power
                    assert model.gamma == 1.0 + delta
                    assert model.hbar_d_omega == hbar_d_omega
                    assert model.fmax == fmax


def test_carrier_species_validation():
    for mass in (-1.0, np.inf, np.nan):
        with pytest.raises(NoiseFloorError):
            CarrierSpecies("bad", mass)
