"""Catalog-driven reproduction of the noise-floor comparisons.

Loads materials and samples from flat INI-style configs with explicit unit
suffixes, computes geometric factors and kappa per row (with the option to
take g from the catalog instead of from the dimensions), and runs the
standing verification cases for the generalized Wiener-Khinchin machinery.
"""

from __future__ import annotations

import configparser
import math
import os

from . import geometry, noise_floor
from .geometry import ProbePair, SampleGeometry
from .noise_floor import CarrierSpecies, Material
from .units import (DimensionError, InputError, Record, UnitsError, parse_quantity,
                    quantity)


class ConfigError(InputError):
    """Malformed catalog config; message names the section and field."""


class CatalogEntry(Record):
    """One catalog sample.  g_override and g_tr_override are its published g
    in cm^-1, when tabulated; delta_override a measured exponent shift."""

    __slots__ = ("sample_id", "geom", "probes_longitudinal", "probes_transverse", "material",
                 "g_override", "g_tr_override", "kappa_exp", "kappa_exp_transverse",
                 "gamma_exp", "delta_override", "annotation")

    def __init__(self, sample_id: str, geom: SampleGeometry, probes_longitudinal: ProbePair,
                 probes_transverse: ProbePair, material: Material,
                 g_override: float | None = None, g_tr_override: float | None = None,
                 kappa_exp: float | None = None, kappa_exp_transverse: float | None = None,
                 gamma_exp: float | None = None, delta_override: float | None = None,
                 annotation: str = ""):
        self._fill(locals())

    def probes(self, mode: str) -> ProbePair:
        if mode not in ("longitudinal", "transverse"):
            raise ConfigError(f"unknown mode '{mode}'")
        return self.probes_longitudinal if mode == "longitudinal" else self.probes_transverse

    def g(self, mode: str, g_source: str = "computed",
          method: str = "closed_form") -> geometry.GeometricFactor | None:
        """The one pick of the sample's g in mode: the tabulated value for
        g_source "table" (None when there is none), else g computed by method
        from the dimensions and the default probes.  Refusals are ConfigErrors."""
        probes = self.probes(mode)  # refuses an unknown mode
        if g_source == "table":
            value = self.g_override if mode == "longitudinal" else self.g_tr_override
            return None if value is None else geometry.GeometricFactor(quantity(value, "cm^-1"))
        if g_source != "computed":
            raise ConfigError(f"unknown g_source '{g_source}'")
        factor = (geometry.geometric_factor if mode == "longitudinal"
                  else geometry.geometric_factor_transverse)
        try:
            return factor(self.geom, probes, method=method)
        except geometry.GeometryError as err:
            raise ConfigError(f"{err} in [sample:{self.sample_id}]") from err

    def model(self, mode: str, single_species: bool = False,
              g: geometry.GeometricFactor | None = None) -> noise_floor.NoiseFloorModel:
        """The sample's noise-floor model in mode, on g when given, else on the
        computed g.  A model the sample's data refuse is a ConfigError naming it."""
        g = self.g(mode) if g is None else g
        try:
            return noise_floor.build_model(self.geom, self.probes(mode), self.material,
                                           configuration=mode, single_species=single_species,
                                           delta_override=self.delta_override, g=g)
        except noise_floor.NoiseFloorError as err:
            raise ConfigError(f"{err} in [sample:{self.sample_id}]") from err


class Report(Record):
    """A table: its column names, and one dict per row keyed by them."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: list[str], rows: list[dict]):
        self._fill(locals())

    @property
    def failures(self) -> list[dict]:
        return [r for r in self.rows if r.get("status") == "FAIL"]


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _number(section: str, fields: dict, key: str, unit: str = "", positive: bool = False,
            required: bool = False) -> float | None:
    """Pop key from a section's fields and read it as <number> [unit]: its
    magnitude in unit (dimensionless by default), or None when it is absent
    and not required.  A value that does not parse, is not of unit's dimension
    or, with positive, is not positive is a ConfigError naming section and key."""
    raw = fields.pop(key, None)
    if raw is None:
        if required:
            raise ConfigError(f"[{section}] missing required field '{key}'")
        return None
    try:
        value = parse_quantity(raw).to(unit)
    except (UnitsError, DimensionError) as err:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {err}") from err
    if positive and not value > 0:
        raise ConfigError(f"[{section}] {key} = {raw!r}: must be positive")
    return value


def _parse_material(section: str, fields: dict) -> Material:
    raw_carriers = fields.pop("carriers", None)
    if raw_carriers is None:
        raise ConfigError(f"[{section}] missing required field 'carriers'")
    carriers = []
    for item in filter(None, map(str.strip, raw_carriers.split(","))):
        label, _, mass = item.partition(":")
        try:  # a mass in m0 is a dimensionless number
            carriers.append(CarrierSpecies(label.strip(), parse_quantity(mass).to("")))
        except (UnitsError, DimensionError, noise_floor.NoiseFloorError) as err:
            raise ConfigError(f"[{section}] carriers entry {item!r}: {err}") from err
    quantities = {}
    for key, unit in Material.UNITS.items():
        value = _number(section, fields, key, unit, required=key not in Material.OPTIONAL)
        if value is not None:  # the units are CGS base units: the same bits come back
            quantities[key] = quantity(value, unit)
    match = fields.pop("acoustic_match", "matched").strip()
    try:
        return Material(name=section.split(":", 1)[1], carriers=tuple(carriers),
                        acoustic_match=match, **quantities)
    except noise_floor.NoiseFloorError as err:
        raise ConfigError(f"[{section}]: {err}") from err


def _parse_sample(section: str, fields: dict, materials: dict[str, Material]) -> CatalogEntry:
    mat_name = fields.pop("material", None)
    if mat_name is None:
        raise ConfigError(f"[{section}] missing required field 'material'")
    mat_name = mat_name.strip()
    if mat_name not in materials:
        raise ConfigError(f"[{section}] references unknown material '{mat_name}'")
    try:
        geom = SampleGeometry(*(_number(section, fields, key, "cm", positive=True, required=True)
                                for key in ("length", "width", "thickness")))
    except geometry.GeometryError as err:
        raise ConfigError(f"[{section}]: {err}") from err
    g, g_tr = (_number(section, fields, key, "cm^-1", positive=True)
               for key in ("g", "g_transverse"))
    kappa_exp, kappa_exp_tr = (_number(section, fields, key, positive=True)
                               for key in ("kappa_exp", "kappa_exp_transverse"))
    delta = _number(section, fields, "delta")
    if delta is not None and delta < 0:
        raise ConfigError(f"[{section}] delta must be >= 0")
    return CatalogEntry(
        sample_id=section.split(":", 1)[1],
        geom=geom,
        probes_longitudinal=geometry.longitudinal_probes(geom),
        probes_transverse=geometry.transverse_probes(geom),
        material=materials[mat_name],
        g_override=g,
        g_tr_override=g_tr,
        kappa_exp=kappa_exp,
        kappa_exp_transverse=kappa_exp_tr,
        gamma_exp=_number(section, fields, "gamma_exp", positive=True),
        delta_override=delta,
        annotation=fields.pop("annotation", "").strip(),
    )


def load_catalog(config_text: str) -> tuple[list[CatalogEntry], dict[str, Material]]:
    """Parse a catalog config into validated entries (SI converted to CGS).

    The materials are read first, then the samples, each in file order; a
    field that no parser reads is a ConfigError, as is a [DEFAULT] field.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        parser.read_string(config_text)
    except configparser.Error as err:
        raise ConfigError(f"config parse failure: {' '.join(str(err).split())}") from err
    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}]; "
                          "expected material: or sample:")
    materials: dict[str, Material] = {}
    entries = []
    for section in sorted(parser.sections(), key=lambda s: not s.startswith("material:")):
        fields = dict(parser.items(section))
        kind, colon, name = section.partition(":")
        if not colon or kind not in ("material", "sample"):
            raise ConfigError(f"unknown section [{section}]; expected material: or sample:")
        if not name.strip():
            raise ConfigError(f"[{section}] has an empty {kind} id")
        if kind == "material":
            mat = _parse_material(section, fields)
            materials[mat.name] = mat
        else:
            entries.append(_parse_sample(section, fields, materials))
        if fields:
            raise ConfigError(f"[{section}] unknown field '{next(iter(fields))}'")
    return entries, materials


def bundled_config_text(name: str) -> str:
    """Text of a bundled example config: 'ingaas', 'ybco' or 'gaas_piezo'."""
    with open(os.path.join(os.path.dirname(__file__), "configs", f"{name}.cfg"),
              encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# table reproduction
# ---------------------------------------------------------------------------

def reproduce_tables(catalog: list[CatalogEntry], mode: str = "longitudinal",
                     g_source: str = "computed") -> Report:
    """Per-row kappa_th from geometry + noise_floor, against measured values.

    g_source "computed" derives g from the dimensions with the default probe
    placement; "table" uses the catalog's tabulated g, else the computed one.
    """
    if not catalog:
        raise ConfigError("catalog is empty")
    catalog[0].probes(mode)  # refuses an unknown mode before any row
    longitudinal = mode == "longitudinal"
    rows = []
    for entry in catalog:
        g_long, g_tr = (entry.g(m, g_source) or entry.g(m) for m in ("longitudinal", "transverse"))
        model = entry.model(mode, g=g_long if longitudinal else g_tr)
        kappa_exp = entry.kappa_exp if longitudinal else entry.kappa_exp_transverse
        ratio = None if kappa_exp is None else kappa_exp / model.kappa
        if ratio == math.inf:
            raise ConfigError(f"kappa_exp / kappa_th = {kappa_exp:g} / {model.kappa:g} "
                              f"overflows in [sample:{entry.sample_id}]")
        annotations = ([entry.annotation] if entry.annotation else []) + list(model.caveats)
        rows.append({
            "sample": entry.sample_id,
            "g_cm^-1": g_long.value.to("cm^-1"),
            "g_tr_cm^-1": g_tr.value.to("cm^-1"),
            "kappa_th": model.kappa,
            "kappa_exp": kappa_exp,
            "ratio_exp_th": ratio,
            "gamma": model.gamma,
            "fmax_Hz": model.fmax.to("Hz"),
            "annotations": "; ".join(annotations),
        })
    return Report(columns=list(rows[0]), rows=rows)  # each row's keys, in column order


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

_VERIFY_COLUMNS = ["case", "computed", "target", "rel_error", "tolerance", "status"]


def _verify_row(case: str, computed: float, target: float, tol: float) -> dict:
    rel = abs(computed - target) / abs(target) if target != 0 else abs(computed)
    return {"case": case, "computed": computed, "target": target,
            "rel_error": rel, "tolerance": tol,
            "status": "PASS" if rel <= tol else "FAIL"}


def run_verification_suite() -> Report:
    """Standing checks of the generalized Wiener-Khinchin identities."""
    from . import spectral

    # log-kernel identity difference -> -pi/|omega|, one row per t_m, then
    # the convergence trend over t_m
    rows, errors = [], []
    for t_m, tol in ((1e3, 0.05), (1e4, 0.01), (1e5, 0.05)):
        r = spectral.wk_identity_check(omega=1.0, t_m=t_m)
        errors.append(abs(r.difference - r.target))
        rows.append(_verify_row(f"wk_identity(omega=1, t_m={t_m:g})", r.difference, r.target, tol))
    rows.append({"case": "wk_identity error decreases with t_m",
                 "computed": errors[-1], "target": errors[0],
                 "rel_error": errors[-1] / errors[0],
                 "tolerance": 1.0,
                 "status": "PASS" if errors[2] < errors[1] < errors[0] else "FAIL"})
    # sign-function kernel: purely imaginary, closed form 2i(1 - cos(w t_m))/w
    sk = spectral.sign_function_transform(omega=1.0, t_m=10.0)
    rows.append(_verify_row("sign_kernel(omega=1, t_m=10)", sk.imag,
                            2.0 * (1.0 - math.cos(10.0)), 1e-10))
    # log-law covariance: Sigma(f) -> -1/|f| for f*tau0 << 1.  The additive
    # constant only shifts the corner scale: the exact transform of
    # ln(a + (tau/tau0)^2) is -(1/f) exp(-2 pi f tau0 sqrt(a)), so a small
    # `a` keeps the asymptotic regime within the checked band.
    loglaw = spectral.CovarianceModel(kind="log-law", tau0=1.0, a_cov=0.01)
    for f, t_m in ((1e-3, 1e6), (1e-2, 1e5)):
        sigma = spectral.sigma_spectrum(loglaw, f=f, t_m=t_m)
        rows.append(_verify_row(f"loglaw_sigma(f={f:g})", sigma, -1.0 / f, 0.02))
    # same covariance with a = 1 against the exact shifted transform
    loglaw1 = spectral.CovarianceModel(kind="log-law", tau0=1.0, a_cov=1.0)
    f = 1e-2
    sigma = spectral.sigma_spectrum(loglaw1, f=f, t_m=1e5)
    rows.append(_verify_row("loglaw_sigma(f=0.01, a=1) vs exact", sigma,
                            -math.exp(-2.0 * math.pi * f) / f, 0.01))
    # exponential covariance: ordinary Wiener-Khinchin Lorentzian
    expcov = spectral.CovarianceModel(kind="exponential", tau0=1.0)
    f = 0.05
    omega = 2.0 * math.pi * f
    sigma = spectral.sigma_spectrum(expcov, f=f, t_m=2000.0)
    rows.append(_verify_row(f"exponential_sigma(f={f:g})", sigma,
                            2.0 / (1.0 + omega ** 2), 0.01))
    return Report(columns=list(_VERIFY_COLUMNS), rows=rows)
