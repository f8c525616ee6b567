"""Quantum lower bound on the 1/f voltage-noise magnitude.

The floor spectrum is S_F(f) = kappa * U0^2 / |f|^gamma with

    kappa = 2 e^4 (f*)^delta g / (pi m hbar c^3),   gamma = 1 + delta,

summed over the carrier species (kappa is linear in 1/m).  delta is the
piezoelectric electron-phonon shift M^2 / ((2 pi)^2 hbar rho0 u^3) and
f* = u/d the corner frequency scale.  The finite-measurement-time result is
valid up to fmax = 1/(2 pi hbar D Omega); above it the measured spectrum
exceeds the bound roughly by (hbar * 2 pi f * D * Omega)^2.

Units are checked where Material (against its UNITS) and GeometricFactor
(cm^-1) are built, so the formulas run on CGS floats; _in_range refuses one
that leaves the float range, naming the material and the quantity.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .geometry import (GeometricFactor, ProbePair, SampleGeometry,
                       geometric_factor, geometric_factor_transverse)
from .units import CODATA2018, InputError, Quantity, Record, parse_unit, quantity


class NoiseFloorError(InputError):
    """Invalid material or model input."""


class MissingPiezoDataError(NoiseFloorError):
    """No piezoelectric coupling available; fall back to gamma = 1."""


class CarrierSpecies(Record):
    """One charge-carrier species: label, effective mass in units of m0."""

    __slots__ = ("label", "mass_m0")

    def __init__(self, label: str, mass_m0: float):
        if not 0 < mass_m0 < math.inf:
            raise NoiseFloorError(f"carrier '{label}': effective mass must be finite and "
                                  "positive")
        self._fill(locals())


class Material(Record):
    """Material parameters entering kappa, delta, f* and the validity bound.

    Mass density rho0, sound velocity u, lattice constant d, density of
    states dos and, when known (the OPTIONAL fields), the piezoelectric
    constant h14 or the angular mean coupling m2_lambda: each a Quantity of
    its unit in UNITS, a CGS base unit, else a NoiseFloorError.
    acoustic_match is "matched" or "reflecting".
    """

    __slots__ = ("name", "carriers", "rho0", "u", "d", "dos", "h14", "m2_lambda",
                 "acoustic_match")
    UNITS = {"rho0": "g/cm^3", "u": "cm/s", "d": "cm", "dos": "1/(erg*cm^3)",
             "h14": "statvolt/cm", "m2_lambda": "erg^2/cm^2"}
    OPTIONAL = ("h14", "m2_lambda")

    def __init__(self, name: str, carriers: tuple[CarrierSpecies, ...], rho0: Quantity,
                 u: Quantity, d: Quantity, dos: Quantity, h14: Quantity | None = None,
                 m2_lambda: Quantity | None = None, acoustic_match: str = "matched"):
        if not carriers:
            raise NoiseFloorError(f"material '{name}': needs at least one carrier species")
        given = locals()
        for field, unit in self.UNITS.items():
            q = given[field]
            if q is None and field in self.OPTIONAL:
                continue
            if getattr(q, "dim", None) != parse_unit(unit).dim:
                raise NoiseFloorError(f"material '{name}': {field} must be a Quantity in "
                                      f"{unit}, got {q!r}")
            if not (field == "h14" or q.value > 0):  # only h14^2 enters delta
                raise NoiseFloorError(f"material '{name}': {field} must be positive")
        if acoustic_match not in ("matched", "reflecting"):
            raise NoiseFloorError(
                f"material '{name}': acoustic_match must be 'matched' or 'reflecting'")
        self._fill(locals())


class SpectrumSeries(Record):
    """(f, S(f)) on a strictly increasing grid, with per-point standard errors.

    The three are sequences of floats, lists or arrays.  Each annotation is a
    per-point sequence (a flag or a factor); the CLI's spectrum and estimate
    tables print it as one more column.
    """

    __slots__ = ("f", "value", "stderr", "annotations")

    def __init__(self, f: Sequence[float], value: Sequence[float], stderr: Sequence[float],
                 annotations: dict | None = None):
        if any(b <= a for a, b in zip(f, f[1:])):
            raise NoiseFloorError("frequency grid must be strictly increasing")
        if not (all(map(math.isfinite, value)) and all(map(math.isfinite, stderr))):
            raise NoiseFloorError("spectrum values must be finite")
        annotations = {} if annotations is None else annotations
        self._fill(locals())


class NoiseFloorModel(Record):
    """Evaluated floor: kappa (with the (f*)^delta factor folded in), gamma
    = 1 + delta, the validity limit fmax = 1/(2 pi hbar D Omega) (Hz), with
    hbar_d_omega = hbar*D*Omega in seconds, and the model's caveats."""

    __slots__ = ("kappa", "gamma", "fmax", "hbar_d_omega", "caveats")

    def __init__(self, kappa: float, gamma: float, fmax: Quantity, hbar_d_omega: float,
                 caveats: tuple[str, ...] = ()):
        self._fill(locals())

    def excess_factor(self, f_hz: float) -> float:
        """(hbar * omega * D * Omega)^2 with omega = 2*pi*f; 1 at fmax.

        A frequency at which the factor overflows is a NoiseFloorError.
        """
        x = 2.0 * math.pi * f_hz * self.hbar_d_omega
        excess = x * x
        if not math.isfinite(excess):
            raise NoiseFloorError(f"f = {f_hz:g} Hz: the excess factor "
                                  "(2*pi*f*hbar*D*Omega)^2 overflows")
        return excess


def _in_range(material: Material, compute, what: str, positive=False, **fields) -> float:
    """compute(), a noise-floor float.  An OverflowError or ZeroDivisionError
    in it, or a result not finite (with positive, not positive), is a
    NoiseFloorError: the material, then what.format(value=result, **fields)."""
    try:
        x = compute()
    except (OverflowError, ZeroDivisionError):
        x = math.inf
    if not math.isfinite(x) or (positive and not x > 0):
        raise NoiseFloorError(f"material '{material.name}': " + what.format(value=x, **fields))
    return x


def kappa(g: GeometricFactor, material: Material, single_species: bool = False) -> float:
    """Dimensionless noise magnitude 2 e^4 g / (pi m hbar c^3), summed over species.

    With single_species=True only the lightest carrier contributes.
    """
    species: Sequence[CarrierSpecies] = material.carriers
    if single_species:
        species = [min(material.carriers, key=lambda s: s.mass_m0)]
    c = CODATA2018
    total = 0.0
    for sp in species:  # a tiny mass underflows the denominator to 0, a ZeroDivisionError
        total = _in_range(material, lambda: total + 2.0 * c.e.value ** 4 * g.value.value / (
            math.pi * (sp.mass_m0 * c.m0.value) * c.hbar.value * c.c.value ** 3),
            "kappa of carrier '{label}' (m = {mass:g} m0) is out of floating-point range",
            label=sp.label, mass=sp.mass_m0)
    return total


def phonon_delta(material: Material) -> float:
    """Frequency-exponent shift delta = M^2 / ((2 pi)^2 hbar rho0 u^3).

    M^2 is taken directly when given, otherwise as (e*h14)^2.  A reflecting
    acoustic boundary cuts off the long-wavelength phonons: delta = 0.  A
    delta that leaves the float range is a NoiseFloorError.
    """
    if material.acoustic_match == "reflecting":
        return 0.0
    if material.m2_lambda is None and material.h14 is None:
        raise MissingPiezoDataError(
            f"material '{material.name}' has neither m2_lambda nor h14; "
            "delta unavailable, use gamma = 1")
    c, m2_lambda = CODATA2018, material.m2_lambda
    # (e*h14)^2 or u^3 may overflow, and the denominator underflow to 0
    return _in_range(material, lambda: (
        m2_lambda.value if m2_lambda is not None else (c.e.value * material.h14.value) ** 2
    ) / ((2.0 * math.pi) ** 2 * c.hbar.value * material.rho0.value * material.u.value ** 3),
        "delta = M^2/((2 pi)^2 hbar rho0 u^3) is out of floating-point range")


def corner_frequency(material: Material) -> Quantity:
    """Corner scale f* = u/d, in Hz; a NoiseFloorError unless finite and positive."""
    return quantity(_in_range(material, lambda: material.u.value / material.d.value,
                              "f* = u/d is out of floating-point range", positive=True), "Hz")


def corner_power(material: Material, delta: float) -> float:
    """(f*)^delta, f* in Hz, which kappa carries; a NoiseFloorError if it overflows."""
    if delta == 0.0:  # 1 for any f*, so an f* out of range refuses no kappa
        return 1.0
    return _in_range(material, lambda: corner_frequency(material).value ** delta,
                     "(f*)^delta overflows at delta = {delta:g}", delta=delta)


def build_model(geom: SampleGeometry, probes: ProbePair, material: Material,
                configuration: str = "longitudinal", single_species: bool = False,
                delta_override: float | None = None,
                g: GeometricFactor | None = None) -> NoiseFloorModel:
    """Compose geometry and material into an evaluable noise-floor model.

    delta_override substitutes a measured exponent shift for the computed
    piezoelectric one (used e.g. when only gamma_exp is known).  g, when
    given (e.g. a tabulated value), is used instead of computing it from
    geom and probes.
    """
    if configuration not in ("longitudinal", "transverse"):
        raise NoiseFloorError(f"unknown configuration '{configuration}'")
    if g is None:
        factor = (geometric_factor if configuration == "longitudinal"
                  else geometric_factor_transverse)
        g = factor(geom, probes)
    caveats = []
    if delta_override is not None:
        delta = float(delta_override)
        if not delta >= 0:
            raise NoiseFloorError(f"delta_override must be >= 0, got {delta:g}")
        caveats.append("delta from measured exponent")
    else:
        try:
            delta = phonon_delta(material)
        except MissingPiezoDataError:
            delta = 0.0
            caveats.append("no piezo data; gamma=1")
        if delta > 0:
            caveats.append("state filling smears the effective delta; empty-band value used")
    k = _in_range(material, lambda: kappa(g, material, single_species=single_species)
                  * corner_power(material, delta), "kappa = {value:g} is not finite and positive",
                  positive=True)
    # hbar*D*Omega in s; an underflow to 0 is left to the fmax gate
    hbar_d_omega = _in_range(material, lambda: CODATA2018.hbar.value * material.dos.value
                             * geom.volume, "hbar D Omega is out of floating-point range")
    fmax = _in_range(material, lambda: 1.0 / (2.0 * math.pi * hbar_d_omega),
                     "fmax = 1/(2 pi hbar D Omega) is out of floating-point range")
    return NoiseFloorModel(kappa=k, gamma=1.0 + delta, fmax=quantity(fmax, "Hz"),
                           hbar_d_omega=hbar_d_omega, caveats=tuple(caveats))


def evaluate_spectrum(model: NoiseFloorModel, u0: Quantity, f_grid) -> SpectrumSeries:
    """Floor spectrum S_F(f) = kappa * U0^2 / |f|^gamma on a frequency grid.

    Values are in V^2/Hz (times Hz^delta when gamma > 1).  Points beyond the
    validity limit are flagged and annotated with the excess factor; the
    series holds lists.  A floor that is not finite at some grid point is a
    NoiseFloorError.
    """
    f = [float(x) for x in f_grid]
    if 0.0 in f:
        raise NoiseFloorError("the floor spectrum diverges at f = 0")
    u0_volts = u0.to("V")
    try:
        k = model.kappa * u0_volts ** 2
        s = [k / abs(x) ** model.gamma for x in f]
    except (OverflowError, ZeroDivisionError):  # |f|^gamma may underflow to 0
        s = [math.inf]
    if not all(map(math.isfinite, s)):
        raise NoiseFloorError(f"U0 = {u0_volts:g} V: the floor kappa*U0^2/|f|^gamma "
                              "is not finite on this grid")
    fmax = model.fmax.to("Hz")
    beyond = [abs(x) > fmax for x in f]
    excess = [model.excess_factor(abs(x)) if b else 1.0 for x, b in zip(f, beyond)]
    return SpectrumSeries(f=f, value=s, stderr=[0.0] * len(s),
                          annotations={"beyond_validity": beyond, "excess_factor": excess})
