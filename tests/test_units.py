"""Dimensional bookkeeping and unit conversion."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from flickerfloor.units import (
    CODATA2018,
    Dimension,
    DimensionError,
    Quantity,
    UnitsError,
    parse_quantity,
    parse_unit,
    quantity,
)


def test_statvolt_per_cm_in_si():
    q = quantity(1.0, "statvolt/cm")
    assert q.to("V/m") == pytest.approx(29979.2458, rel=1e-12)


def test_piezo_coupling_to_gaussian():
    # 1.4e9 V/m -> 4.6699e4 statvolt/cm
    q = parse_quantity("1.4e9 V/m")
    assert q.to("statvolt/cm") == pytest.approx(1.4e9 / (299.792458 * 100), rel=1e-12)
    assert q.to("statvolt/cm") == pytest.approx(4.6699e4, rel=1e-4)


def test_zero_is_unit_invariant():
    for unit in ("cm", "eV", "V/m", "g/cm^3"):
        assert quantity(0.0, unit).to(unit) == 0.0


@given(value=st.floats(min_value=1e-20, max_value=1e20),
       unit=st.sampled_from(["cm", "m", "nm", "eV", "J", "V", "statvolt",
                             "g/cm^3", "1/(eV*cm^3)", "erg*s"]))
def test_conversion_round_trip(value, unit):
    q = quantity(value, unit)
    back = quantity(q.to(unit), unit)
    assert back.dim == q.dim
    assert back.to(unit) == pytest.approx(q.to(unit), rel=1e-15)


def test_conversion_dimension_mismatch_names_both():
    with pytest.raises(DimensionError) as err:
        quantity(1.0, "cm").to("s")
    msg = str(err.value)
    assert "cm" in msg and "s" in msg  # both dimensions rendered in the message


def test_addition_requires_equal_dimensions():
    with pytest.raises(DimensionError):
        quantity(1.0, "cm") + quantity(1.0, "s")
    total = quantity(1.0, "m") + quantity(1.0, "cm")
    assert total.to("cm") == pytest.approx(101.0)


def test_dimension_exponents_are_exact():
    d = Dimension.of(length=Fraction(3, 2), mass=Fraction(1, 2), time=-1)
    assert (d * d).length == 3
    assert (d ** 2) / (d ** 2) == Dimension.of()
    assert ((d ** Fraction(1, 3)) ** 3) == d


def test_kappa_combination_is_dimensionless():
    # e^4 * g / (m * hbar * c^3)
    k = CODATA2018
    g = quantity(9630.0, "cm^-1")
    dim = (k.e ** 4 * g / (k.m0 * k.hbar * k.c ** 3)).dim
    assert dim.is_dimensionless


def test_delta_combination_is_dimensionless():
    # (e*h14)^2 / (hbar * rho0 * u^3)
    k = CODATA2018
    h14 = quantity(4.6699e4, "statvolt/cm")
    rho0 = quantity(5.3, "g/cm^3")
    u = quantity(2.5e5, "cm/s")
    dim = ((k.e * h14) ** 2 / (k.hbar * rho0 * u ** 3)).dim
    assert dim.is_dimensionless


def test_validity_combination_is_inverse_time():
    k = CODATA2018
    dos = quantity(1e22, "1/(eV*cm^3)")
    volume = quantity(1e-12, "cm^3")
    dim = (1.0 / (k.hbar * dos * volume)).dim
    assert dim == Dimension.of(time=-1)


def test_constants_table_values():
    k = CODATA2018
    assert k.e.to("esu") == 4.80320471e-10
    assert k.m0.to("g") == 9.1093837e-28
    assert k.hbar.to("erg*s") == 1.05457182e-27
    assert k.c.to("cm/s") == 2.99792458e10
    assert k.eV.to("erg") == 1.602176634e-12


def test_parse_quantity_and_errors():
    q = parse_quantity("10 nm")
    assert q.to("cm") == pytest.approx(1e-6)
    assert parse_quantity("0.06").dim.is_dimensionless
    with pytest.raises(UnitsError):
        parse_quantity("ten nm")
    with pytest.raises(UnitsError):
        parse_quantity("")
    with pytest.raises(UnitsError):
        parse_unit("furlong")


@pytest.mark.parametrize("text", ["nan mV", "inf V", "-inf cm", "1 V^-400",
                                  "1 cm^1e400", "1e308 m", "1e300 V^-4",
                                  "1 m/(V^-100*V^-100)", "1 V^100*V^100",
                                  "1 m/(V^100*V^100)"])
def test_parse_quantity_rejects_non_finite_and_overflow(text):
    # the last three overflow or underflow mid-parse: they once returned 0.0
    # or ended in a ZeroDivisionError
    with pytest.raises(UnitsError) as err:
        parse_quantity(text)
    assert repr(text) in str(err.value)


def test_quantity_arithmetic():
    a = quantity(2.0, "cm")
    b = quantity(4.0, "cm")
    assert (a * b).to("cm^2") == pytest.approx(8.0)
    assert (b / a).dim.is_dimensionless
    assert (1.0 / a).to("cm^-1") == pytest.approx(0.5)
    assert (a ** Fraction(1, 2)).dim == Dimension.of(length=Fraction(1, 2))


def test_quantity_to_returns_plain_float():
    assert isinstance(quantity(3.0, "m").to("cm"), float)
    assert quantity(3.0, "m").to("cm") == pytest.approx(300.0)
