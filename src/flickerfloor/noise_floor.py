"""Quantum lower bound on the 1/f voltage-noise magnitude.

The floor spectrum is S_F(f) = kappa * U0^2 / |f|^gamma with

    kappa = 2 e^4 (f*)^delta g / (pi m hbar c^3),   gamma = 1 + delta,

summed over the carrier species (kappa is linear in 1/m).  delta is the
piezoelectric electron-phonon shift M^2 / ((2 pi)^2 hbar rho0 u^3) and
f* = u/d the corner frequency scale.  The finite-measurement-time result is
valid up to fmax = 1/(2 pi hbar D Omega); above it the measured spectrum
exceeds the bound roughly by (hbar * 2 pi f * D * Omega)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .geometry import (GeometricFactor, ProbePair, SampleGeometry,
                       geometric_factor, geometric_factor_transverse)
from .units import CODATA2018, DIMENSIONLESS, InputError, Quantity, quantity

if TYPE_CHECKING:
    import numpy as np

    from .spectral import SpectrumSeries


class NoiseFloorError(InputError):
    """Invalid material or model input."""


class MissingPiezoDataError(NoiseFloorError):
    """No piezoelectric coupling available; fall back to gamma = 1."""


@dataclass(frozen=True)
class CarrierSpecies:
    """One charge-carrier species: label, effective mass in units of m0."""

    label: str
    mass_m0: float

    def __post_init__(self):
        if not self.mass_m0 > 0:
            raise NoiseFloorError(f"carrier '{self.label}': effective mass must be positive")

    @property
    def mass(self) -> Quantity:
        return self.mass_m0 * CODATA2018.m0


@dataclass(frozen=True)
class Material:
    """Material parameters entering kappa, delta, f* and the validity bound."""

    name: str
    carriers: tuple[CarrierSpecies, ...]
    rho0: Quantity                      # mass density, g/cm^3
    u: Quantity                         # sound velocity, cm/s
    d: Quantity                         # lattice constant, cm
    dos: Quantity                       # density of states, 1/(erg*cm^3)
    h14: Optional[Quantity] = None      # piezoelectric constant, statvolt/cm
    m2_lambda: Optional[Quantity] = None  # angular mean coupling, erg^2/cm^2
    acoustic_match: str = "matched"     # "matched" | "reflecting"

    def __post_init__(self):
        if not self.carriers:
            raise NoiseFloorError(
                f"material '{self.name}': needs at least one carrier species")
        for name in ("rho0", "u", "d", "dos"):
            if not getattr(self, name).value > 0:
                raise NoiseFloorError(f"material '{self.name}': {name} must be positive")
        if self.acoustic_match not in ("matched", "reflecting"):
            raise NoiseFloorError(
                f"material '{self.name}': acoustic_match must be 'matched' or 'reflecting'")


@dataclass(frozen=True)
class ValidityBound:
    """Frequency range where the finite-measurement-time bound applies."""

    fmax: Quantity    # Hz
    hbar_d_omega: float  # hbar*D*Omega, seconds

    def excess_factor(self, f_hz) -> np.ndarray:
        """(hbar * omega * D * Omega)^2 with omega = 2*pi*f; 1 at fmax.

        A frequency at which the factor overflows is a NoiseFloorError.
        """
        import numpy as np

        f = np.asarray(f_hz, dtype=float)
        with np.errstate(over="ignore"):
            excess = (2.0 * np.pi * f * self.hbar_d_omega) ** 2
        bad = ~np.isfinite(excess)
        if bad.any():
            raise NoiseFloorError(f"f = {f[bad].flat[0]:g} Hz: the excess factor "
                                  "(2*pi*f*hbar*D*Omega)^2 overflows")
        return excess


@dataclass(frozen=True)
class NoiseFloorModel:
    """Evaluated floor: kappa (with the (f*)^delta factor folded in), gamma
    = 1 + delta, and validity limit fmax."""

    kappa: float
    gamma: float
    fmax: Quantity
    bound: ValidityBound
    caveats: tuple[str, ...] = ()


def kappa(g: GeometricFactor, material: Material, single_species: bool = False) -> float:
    """Dimensionless noise magnitude 2 e^4 g / (pi m hbar c^3), summed over species.

    With single_species=True only the lightest carrier contributes.
    """
    species: Sequence[CarrierSpecies] = material.carriers
    if single_species:
        species = [min(material.carriers, key=lambda s: s.mass_m0)]
    c = CODATA2018
    total = quantity(0.0)
    for sp in species:
        term = 2.0 * c.e ** 4 * g.value / (math.pi * sp.mass * c.hbar * c.c ** 3)
        total = total + term
    assert total.dim == DIMENSIONLESS
    return total.value


def phonon_delta(material: Material) -> float:
    """Frequency-exponent shift delta = M^2 / ((2 pi)^2 hbar rho0 u^3).

    M^2 is taken directly when given, otherwise as (e*h14)^2.  A reflecting
    acoustic boundary cuts off the long-wavelength phonons: delta = 0.
    """
    if material.acoustic_match == "reflecting":
        return 0.0
    if material.m2_lambda is not None:
        m2 = material.m2_lambda
    elif material.h14 is not None:
        m2 = (CODATA2018.e * material.h14) ** 2
    else:
        raise MissingPiezoDataError(
            f"material '{material.name}' has neither m2_lambda nor h14; "
            "delta unavailable, use gamma = 1")
    c = CODATA2018
    delta = m2 / ((2.0 * math.pi) ** 2 * c.hbar * material.rho0 * material.u ** 3)
    assert delta.dim == DIMENSIONLESS
    if delta.value < 0:
        raise NoiseFloorError("piezoelectric coupling must give delta >= 0")
    return delta.value


def corner_frequency(material: Material) -> Quantity:
    """Corner scale f* = u/d, in Hz."""
    return material.u / material.d


def validity_bound(material: Material, geom: SampleGeometry) -> ValidityBound:
    """fmax = 1/(2 pi hbar D Omega), the upper edge of the validity range."""
    hbar_d_omega = (CODATA2018.hbar * material.dos * quantity(geom.volume, "cm^3"))
    assert hbar_d_omega.dim == quantity(1.0, "s").dim
    fmax = 1.0 / (2.0 * math.pi * hbar_d_omega)
    return ValidityBound(fmax=fmax, hbar_d_omega=hbar_d_omega.value)


def build_model(geom: SampleGeometry, probes: ProbePair, material: Material,
                configuration: str = "longitudinal", single_species: bool = False,
                delta_override: Optional[float] = None,
                g: Optional[GeometricFactor] = None) -> NoiseFloorModel:
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
        if delta < 0:
            raise NoiseFloorError("delta_override must be >= 0")
        caveats.append("delta from measured exponent")
    else:
        try:
            delta = phonon_delta(material)
        except MissingPiezoDataError:
            delta = 0.0
            caveats.append("no piezo data; gamma=1")
        if delta > 0:
            caveats.append("state filling smears the effective delta; empty-band value used")
    k = kappa(g, material, single_species=single_species)
    if delta > 0:
        # f* enters in Hz; the exponent shift makes kappa carry Hz^delta
        k *= corner_frequency(material).to("Hz") ** delta
    bound = validity_bound(material, geom)
    return NoiseFloorModel(kappa=k, gamma=1.0 + delta, fmax=bound.fmax, bound=bound,
                           caveats=tuple(caveats))


def evaluate_spectrum(model: NoiseFloorModel, u0: Quantity, f_grid) -> SpectrumSeries:
    """Floor spectrum S_F(f) = kappa * U0^2 / |f|^gamma on a frequency grid.

    Values are in V^2/Hz (times Hz^delta when gamma > 1).  Points beyond the
    validity limit are flagged and annotated with the excess factor.  A floor
    that is not finite at some grid point is a NoiseFloorError.
    """
    import numpy as np

    from .spectral import SpectrumSeries

    f = np.asarray(f_grid, dtype=float)
    if np.any(f == 0.0):
        raise NoiseFloorError("the floor spectrum diverges at f = 0")
    u0_volts = u0.to("V")
    with np.errstate(all="ignore"):  # a numpy float squares to inf, not OverflowError
        s = model.kappa * np.float64(u0_volts) ** 2 / np.abs(f) ** model.gamma
    if not np.all(np.isfinite(s)):
        raise NoiseFloorError(f"U0 = {u0_volts:g} V: the floor kappa*U0^2/|f|^gamma "
                              "is not finite on this grid")
    beyond = np.abs(f) > model.fmax.to("Hz")
    excess = np.where(beyond, model.bound.excess_factor(np.abs(f)), 1.0)
    return SpectrumSeries(f=f, value=s, stderr=np.zeros_like(s),
                          annotations={"beyond_validity": beyond,
                                       "excess_factor": excess})
