"""Dimensioned quantities in Gaussian-CGS base units.

Internally everything is stored in (cm, g, s); electrostatic charge is folded
into the mechanical base as esu = g^(1/2) cm^(3/2) s^(-1), so Gaussian
formulas like e^4*g/(m*hbar*c^3) come out dimensionless at the exponent
level, with exact Fraction arithmetic.  SI units are accepted at the I/O
boundary only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Exponent = Union[int, Fraction]


class InputError(ValueError):
    """Base of every layer's input error; the CLI reports these with exit 1."""


class UnitsError(InputError):
    """Invalid unit tag or malformed quantity string."""


class DimensionError(TypeError):
    """Incompatible dimensions; not an InputError, since user paths wrap it."""


@dataclass(frozen=True)
class Dimension:
    """Exponents over the Gaussian-CGS base (length, mass, time)."""

    length: Fraction = Fraction(0)
    mass: Fraction = Fraction(0)
    time: Fraction = Fraction(0)

    @staticmethod
    def of(length: Exponent = 0, mass: Exponent = 0, time: Exponent = 0) -> "Dimension":
        return Dimension(Fraction(length), Fraction(mass), Fraction(time))

    def __mul__(self, other: "Dimension") -> "Dimension":
        return Dimension(self.length + other.length,
                         self.mass + other.mass,
                         self.time + other.time)

    def __truediv__(self, other: "Dimension") -> "Dimension":
        return Dimension(self.length - other.length,
                         self.mass - other.mass,
                         self.time - other.time)

    def __pow__(self, n: Exponent) -> "Dimension":
        n = Fraction(n)
        return Dimension(self.length * n, self.mass * n, self.time * n)

    @property
    def is_dimensionless(self) -> bool:
        return self.length == 0 and self.mass == 0 and self.time == 0

    def __str__(self) -> str:
        if self.is_dimensionless:
            return "dimensionless"
        parts = []
        for sym, exp in (("cm", self.length), ("g", self.mass), ("s", self.time)):
            if exp != 0:
                parts.append(sym if exp == 1 else f"{sym}^{exp}")
        return "*".join(parts)


DIMENSIONLESS = Dimension()
LENGTH = Dimension.of(length=1)
MASS = Dimension.of(mass=1)
TIME = Dimension.of(time=1)
# esu = g^(1/2) cm^(3/2) / s in the Gaussian system
CHARGE = Dimension.of(length=Fraction(3, 2), mass=Fraction(1, 2), time=-1)
ENERGY = Dimension.of(length=2, mass=1, time=-2)
FREQUENCY = Dimension.of(time=-1)
VOLTAGE = ENERGY / CHARGE  # statvolt


@dataclass(frozen=True)
class Quantity:
    """A float value with a physical dimension, stored in CGS base units."""

    value: float
    dim: Dimension = DIMENSIONLESS

    def _require_same_dim(self, other: "Quantity", op: str) -> None:
        if self.dim != other.dim:
            raise DimensionError(
                f"cannot {op} quantities of dimension [{self.dim}] and [{other.dim}]")

    def __add__(self, other: "Quantity") -> "Quantity":
        self._require_same_dim(other, "add")
        return Quantity(self.value + other.value, self.dim)

    def __mul__(self, other):
        if isinstance(other, Quantity):
            return Quantity(self.value * other.value, self.dim * other.dim)
        return Quantity(self.value * other, self.dim)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Quantity):
            return Quantity(self.value / other.value, self.dim / other.dim)
        return Quantity(self.value / other, self.dim)

    def __rtruediv__(self, other) -> "Quantity":
        return Quantity(other / self.value, DIMENSIONLESS / self.dim)

    def __pow__(self, n: Exponent) -> "Quantity":
        return Quantity(self.value ** float(Fraction(n)), self.dim ** n)

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
            power = Fraction(exp)
        except ValueError as err:
            raise UnitsError(f"bad exponent in unit token '{token}'") from err
    else:
        name, power = token, Fraction(1)
    if name == "1":
        return Quantity(1.0)
    if name not in _ATOMS:
        raise UnitsError(f"unknown unit '{name}'")
    return _ATOMS[name] ** power


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


def _parse_unit(tag: str) -> Quantity:
    """parse_unit, raising OverflowError when a magnitude leaves the float range."""
    tag = tag.strip()
    if tag in ("", "1", "dimensionless"):
        return Quantity(1.0)
    # split on '/' outside parentheses; every segment after the first divides
    segments, depth, cur = [], 0, []
    for ch in tag:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "/" and depth == 0:
            segments.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    segments.append("".join(cur))
    out = _in_range(_parse_product(segments[0]))
    for seg in segments[1:]:
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


@dataclass(frozen=True)
class ConstantsTable:
    """Physical constants, CODATA 2018, Gaussian-CGS."""

    e: Quantity        # elementary charge, esu
    m0: Quantity       # electron mass, g
    hbar: Quantity     # erg*s
    c: Quantity        # cm/s
    eV: Quantity       # erg


CODATA2018 = ConstantsTable(
    e=quantity(4.80320471e-10, "esu"),
    m0=quantity(9.1093837e-28, "g"),
    hbar=quantity(1.05457182e-27, "erg*s"),
    c=quantity(2.99792458e10, "cm/s"),
    eV=quantity(1.602176634e-12, "erg"),
)
