"""Dimensioned quantities in Gaussian-CGS base units.

Internally everything is stored in (cm, g, s); electrostatic charge is folded
into the mechanical base as esu = g^(1/2) cm^(3/2) s^(-1), so Gaussian
formulas like e^4*g/(m*hbar*c^3) come out dimensionless at the exponent
level.  Exponents are exact integers counted in halves, all that esu needs.
SI units are accepted at the I/O boundary only, and dimensions are checked
where a record takes a Quantity; formulas then run on CGS floats, so a
Quantity multiplies, divides and raises to powers but does not add.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable


class InputError(ValueError):
    """Base of every layer's input error; the CLI reports these with exit 1."""


class UnitsError(InputError):
    """Invalid unit tag or malformed quantity string."""


class DimensionError(TypeError):
    """Incompatible dimensions; not an InputError, since user paths wrap it."""


_set = object.__setattr__  # sets a field of a Record, whose own setattr refuses


class Record:
    """Base of the package's records: read-only fields and value equality.

    A subclass names its fields in __slots__, and its __init__ takes them in
    that order, checks them and sets them once: _fill(locals()) sets them
    all, _set one.  Two records are equal when their types and fields are;
    records have no order and are not sequences.
    """

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def _fill(self, fields: dict) -> None:
        for name in self.__slots__:
            _set(self, name, fields[name])

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return type(self).__name__ + repr(self._fields())

    def __reduce__(self):  # copy and pickle build a record anew
        return type(self), self._fields()


class Dimension(Record):
    """Exponents over the Gaussian-CGS base (length, mass, time), each an
    int counting halves: cm^(3/2) has length_halves = 3."""

    __slots__ = ("length_halves", "mass_halves", "time_halves")

    def __init__(self, length_halves: int = 0, mass_halves: int = 0, time_halves: int = 0):
        _set(self, "length_halves", length_halves)
        _set(self, "mass_halves", mass_halves)
        _set(self, "time_halves", time_halves)

    def __eq__(self, other):  # every sum and conversion compares dimensions
        if type(other) is not Dimension:
            return NotImplemented
        return (self.length_halves == other.length_halves
                and self.mass_halves == other.mass_halves
                and self.time_halves == other.time_halves)

    __hash__ = Record.__hash__

    def __mul__(self, other: "Dimension") -> "Dimension":
        return Dimension(self.length_halves + other.length_halves,
                         self.mass_halves + other.mass_halves,
                         self.time_halves + other.time_halves)

    def __truediv__(self, other: "Dimension") -> "Dimension":
        return Dimension(self.length_halves - other.length_halves,
                         self.mass_halves - other.mass_halves,
                         self.time_halves - other.time_halves)

    def __pow__(self, n: float) -> "Dimension":
        # n is an int, or a float parsed from a unit token
        halves = (self.length_halves * n, self.mass_halves * n, self.time_halves * n)
        if type(n) is not int and any(h % 1 for h in halves):  # nan % 1 is nan: true
            raise DimensionError(f"[{self}]^{n} has an exponent that is not a multiple of 1/2")
        return Dimension(*map(int, halves))

    def __str__(self) -> str:
        exps = (("cm", self.length_halves), ("g", self.mass_halves), ("s", self.time_halves))
        return "*".join(sym + ("" if h == 2 else f"^{h // 2}" if h % 2 == 0 else f"^{h}/2")
                        for sym, h in exps if h) or "dimensionless"


DIMENSIONLESS = Dimension()
LENGTH = Dimension(length_halves=2)
MASS = Dimension(mass_halves=2)
TIME = Dimension(time_halves=2)
# esu = g^(1/2) cm^(3/2) / s in the Gaussian system
CHARGE = (MASS * LENGTH ** 3) ** 0.5 / TIME
ENERGY = MASS * LENGTH ** 2 / TIME ** 2
FREQUENCY = DIMENSIONLESS / TIME
VOLTAGE = ENERGY / CHARGE  # statvolt


class Quantity(Record):
    """A float value with a physical dimension, stored in CGS base units."""

    __slots__ = ("value", "dim")

    def __init__(self, value: float, dim: Dimension = DIMENSIONLESS):
        _set(self, "value", value)
        _set(self, "dim", dim)

    def __mul__(self, other):
        if isinstance(other, Quantity):
            return Quantity(self.value * other.value, self.dim * other.dim)
        return Quantity(self.value * other, self.dim)

    __rmul__ = __mul__

    def __truediv__(self, other):  # by a Quantity only
        if not isinstance(other, Quantity):
            return NotImplemented
        return Quantity(self.value / other.value, self.dim / other.dim)

    def __pow__(self, n: float) -> "Quantity":
        return Quantity(self.value ** float(n), self.dim ** n)

    def to(self, unit: str) -> float:
        """Magnitude of this quantity expressed in ``unit``."""
        u = parse_unit(unit)
        if u.dim != self.dim:
            raise DimensionError(
                f"cannot express [{self.dim}] in '{unit}' which has dimension [{u.dim}]")
        return self.value / u.value


# Base and named units, as Quantity values in CGS base.  Compound tags like
# "V/m" or "1/(eV*cm^3)" are parsed on the fly from these atoms.
_ATOMS: dict[str, Quantity] = {}


def _define(names: Iterable[str], value: float, dim: Dimension) -> None:
    for name in names:
        _ATOMS[name] = Quantity(value, dim)


_define(["cm"], 1.0, LENGTH)
_define(["m"], 100.0, LENGTH)
_define(["mm"], 0.1, LENGTH)
_define(["um", "µm"], 1e-4, LENGTH)
_define(["nm"], 1e-7, LENGTH)
_define(["g"], 1.0, MASS)
_define(["kg"], 1000.0, MASS)
_define(["s"], 1.0, TIME)
_define(["ms"], 1e-3, TIME)
_define(["us_time"], 1e-6, TIME)
_define(["Hz"], 1.0, FREQUENCY)
_define(["kHz"], 1e3, FREQUENCY)
_define(["MHz"], 1e6, FREQUENCY)
_define(["GHz"], 1e9, FREQUENCY)
_define(["erg"], 1.0, ENERGY)
_define(["J"], 1e7, ENERGY)
_define(["eV"], 1.602176634e-12, ENERGY)
_define(["esu"], 1.0, CHARGE)
_define(["statvolt"], 1.0, VOLTAGE)
# 1 statvolt = 299.792458 V by definition of the SI volt
_define(["V"], 1.0 / 299.792458, VOLTAGE)
_define(["mV"], 1e-3 / 299.792458, VOLTAGE)


def _parse_factor(token: str) -> Quantity:
    token = token.strip()
    if "^" in token:
        name, _, exp = token.partition("^")
        name, exp = name.strip(), exp.strip()
        try:
            power = float(exp)
        except ValueError:
            power = math.nan
        if math.isnan(power):
            raise UnitsError(f"bad exponent in unit token '{token}'")
        if math.isinf(power):
            raise OverflowError  # '^1e400': a power past the float range
    else:
        name, power = token, 1
    if name == "1":
        return Quantity(1.0)
    if name not in _ATOMS:
        raise UnitsError(f"unknown unit '{name}'")
    try:
        return _ATOMS[name] ** power
    except DimensionError as err:
        raise UnitsError(f"unit token '{token}' has an exponent that is not a multiple "
                         "of 1/2") from err


def _parse_product(text: str) -> Quantity:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    out = Quantity(1.0)
    for token in text.split("*"):
        if token.strip():
            out = out * _parse_factor(token)
    return out


def _in_range(q: Quantity) -> Quantity:
    # inf, nan and 0 persist through products: per-segment checks see every running value
    if not (math.isfinite(q.value) and q.value != 0):
        raise OverflowError
    return q


@functools.lru_cache(maxsize=256)  # results are frozen; an error is not cached
def _parse_unit(tag: str) -> Quantity:
    """parse_unit, raising OverflowError when a magnitude leaves the float range."""
    tag = tag.strip()
    if tag in ("", "1", "dimensionless"):
        return Quantity(1.0)
    # every segment after the first divides; no '/' inside parentheses
    first, *rest = tag.split("/")
    out = _in_range(_parse_product(first))
    for seg in rest:
        out = _in_range(out / _in_range(_parse_product(seg)))
    return out


def parse_unit(tag: str) -> Quantity:
    """Parse a unit tag like 'cm', 'V/m', 'g/cm^3' or '1/(eV*cm^3)'.

    A magnitude that overflows, underflows to 0 or turns nan mid-parse is a UnitsError.
    """
    try:
        return _parse_unit(tag)
    except OverflowError as err:
        raise UnitsError(f"unit '{tag}' is out of floating-point range") from err


def quantity(value: float, unit: str = "") -> Quantity:
    """Build a Quantity from a magnitude and a unit tag."""
    return float(value) * parse_unit(unit)


def parse_quantity(text: str) -> Quantity:
    """Parse strings like '1.4e9 V/m' or '10 nm' or '0.06' (dimensionless).

    The value, and its magnitude in CGS base units, must be finite.
    """
    parts = text.strip().split(None, 1)
    if not parts:
        raise UnitsError("empty quantity string")
    try:
        value = float(parts[0])
    except ValueError as err:
        raise UnitsError(f"bad numeric value in '{text}'") from err
    if not math.isfinite(value):
        raise UnitsError(f"non-finite value in '{text}'")
    try:
        q = value * _parse_unit(parts[1] if len(parts) > 1 else "")
    except OverflowError as err:
        raise UnitsError(f"unit power out of floating-point range in '{text}'") from err
    if not math.isfinite(q.value):
        raise UnitsError(f"'{text}' overflows in CGS base units")
    return q


class ConstantsTable(Record):
    """Physical constants, CODATA 2018, Gaussian-CGS: the elementary charge e
    (esu), electron mass m0 (g), hbar (erg*s) and c (cm/s)."""

    __slots__ = ("e", "m0", "hbar", "c")

    def __init__(self, e: Quantity, m0: Quantity, hbar: Quantity, c: Quantity):
        self._fill(locals())


CODATA2018 = ConstantsTable(
    e=quantity(4.80320471e-10, "esu"),
    m0=quantity(9.1093837e-28, "g"),
    hbar=quantity(1.05457182e-27, "erg*s"),
    c=quantity(2.99792458e10, "cm/s"),
)
