"""Dimensional bookkeeping and unit conversion."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from flickerfloor.units import (
    CHARGE,
    CODATA2018,
    LENGTH,
    MASS,
    TIME,
    VOLTAGE,
    Dimension,
    DimensionError,
    Quantity,
    UnitsError,
    parse_quantity,
    _parse_unit,
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


def test_dimension_exponents_are_exact():
    # exponents are ints counting halves: esu = g^(1/2) cm^(3/2) / s
    d = CHARGE
    assert (d.length_halves, d.mass_halves, d.time_halves) == (3, 1, -2)
    assert (d * d) == MASS * LENGTH ** 3 / TIME ** 2
    assert (d * d).length_halves == 6
    assert (d ** 2) / (d ** 2) == Dimension()
    assert (d ** 2) ** Fraction(1, 2) == d
    assert (d ** 2) ** 0.5 == d
    root = (d ** 2) ** Fraction(1, 2)
    assert all(type(h) is int for h in (root.length_halves, root.mass_halves, root.time_halves))


def test_dimension_str_prints_half_exponents():
    assert str(CHARGE) == "cm^3/2*g^1/2*s^-1"
    assert str(VOLTAGE) == "cm^1/2*g^1/2*s^-1"
    assert str(parse_unit("1/(eV*cm^3)").dim) == "cm^-5*g^-1*s^2"
    assert str(Dimension()) == "dimensionless"


def test_powers_finer_than_halves_are_errors_naming_them():
    with pytest.raises(DimensionError, match=r"\^1/3 "):
        CHARGE ** Fraction(1, 3)
    with pytest.raises(DimensionError, match=r"\^0.3 "):
        quantity(2.0, "cm") ** 0.3


@pytest.mark.parametrize("text, token", [("1 cm^0.25", "cm^0.25"),
                                         ("2 g*s^-0.75", "s^-0.75"),
                                         ("3 erg^1.2/s", "erg^1.2")])
def test_unit_powers_finer_than_halves_are_units_errors(text, token):
    with pytest.raises(UnitsError, match=f"'{re.escape(token)}'"):
        parse_quantity(text)


def test_kappa_combination_is_dimensionless():
    # e^4 * g / (m * hbar * c^3)
    k = CODATA2018
    g = quantity(9630.0, "cm^-1")
    dim = (k.e ** 4 * g / (k.m0 * k.hbar * k.c ** 3)).dim
    assert dim == Dimension()


def test_delta_combination_is_dimensionless():
    # (e*h14)^2 / (hbar * rho0 * u^3)
    k = CODATA2018
    h14 = quantity(4.6699e4, "statvolt/cm")
    rho0 = quantity(5.3, "g/cm^3")
    u = quantity(2.5e5, "cm/s")
    dim = ((k.e * h14) ** 2 / (k.hbar * rho0 * u ** 3)).dim
    assert dim == Dimension()


def test_validity_combination_is_inverse_time():
    k = CODATA2018
    dos = quantity(1e22, "1/(eV*cm^3)")
    volume = quantity(1e-12, "cm^3")
    dim = (quantity(1.0) / (k.hbar * dos * volume)).dim
    assert dim == Dimension(time_halves=-2)


def test_constants_table_values():
    k = CODATA2018
    assert k.e.to("esu") == 4.80320471e-10
    assert k.m0.to("g") == 9.1093837e-28
    assert k.hbar.to("erg*s") == 1.05457182e-27
    assert k.c.to("cm/s") == 2.99792458e10
    assert quantity(1.0, "eV").to("erg") == 1.602176634e-12


def test_parse_quantity_and_errors():
    q = parse_quantity("10 nm")
    assert q.to("cm") == pytest.approx(1e-6)
    assert parse_quantity("0.06").dim == Dimension()
    with pytest.raises(UnitsError):
        parse_quantity("ten nm")
    with pytest.raises(UnitsError):
        parse_quantity("")
    with pytest.raises(UnitsError):
        parse_unit("furlong")


@pytest.mark.parametrize("text", ["nan mV", "inf V", "-inf cm", "1 V^-400",
                                  "1 cm^1e400", "1 cm^-1e400", "1e308 m", "1e300 V^-4",
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
    assert (b / a).dim == Dimension()
    assert (a ** Fraction(1, 2)).dim == Dimension(length_halves=1)


def test_quantity_to_returns_plain_float():
    assert isinstance(quantity(3.0, "m").to("cm"), float)
    assert quantity(3.0, "m").to("cm") == pytest.approx(300.0)


def test_unit_tags_parsed_once_in_a_bounded_cache():
    assert _parse_unit.cache_info().maxsize is not None
    first = parse_unit("1/(erg*cm^3)")
    hits = _parse_unit.cache_info().hits
    assert parse_unit("1/(erg*cm^3)") is first
    assert _parse_unit.cache_info().hits == hits + 1
    with pytest.raises(AttributeError):  # frozen, so a cached value cannot change
        first.value = 2.0


@pytest.mark.parametrize("tag, value, dim", [
    ("1/(eV*cm^3)", 1.0 / 1.602176634e-12, TIME ** 2 / (LENGTH ** 5 * MASS)),
    ("(g*cm)/s", 1.0, MASS * LENGTH / TIME),
    ("g/cm^3/s", 1.0, MASS / (LENGTH ** 3 * TIME)),
])
def test_unit_tag_segments_split_on_slash(tag, value, dim):
    assert parse_unit(tag) == Quantity(value, dim)


@pytest.mark.parametrize("tag", ["furlong", "V^100*V^100", "cm^x",
                                 # a '/' inside parentheses is not parsed
                                 "1/(cm/s)", "(cm/s)", "cm^(1/2)"])
def test_bad_unit_tag_raises_on_every_call(tag):
    # errors are not cached: a repeated bad tag fails the same way each time
    for _ in range(3):
        with pytest.raises(UnitsError):
            parse_unit(tag)
        with pytest.raises(UnitsError):
            quantity(1.0, tag)
