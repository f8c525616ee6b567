"""Catalog-driven reproduction of the noise-floor comparisons.

Loads materials and samples from flat INI-style configs with explicit unit
suffixes, computes geometric factors and kappa per row (with the option to
take g from the catalog instead of from the dimensions), and runs the
standing verification cases for the generalized Wiener-Khinchin machinery.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from . import geometry, noise_floor
from .geometry import ProbePair, SampleGeometry
from .noise_floor import CarrierSpecies, Material
from .units import DimensionError, InputError, Quantity, UnitsError, parse_quantity, quantity


class ConfigError(InputError):
    """Malformed catalog config; message names the section and field."""


@dataclass(frozen=True)
class CatalogEntry:
    sample_id: str
    geom: SampleGeometry
    probes_longitudinal: ProbePair
    probes_transverse: ProbePair
    material: Material
    g_override: Optional[float] = None       # cm^-1, published reference value
    g_tr_override: Optional[float] = None    # cm^-1
    kappa_exp: Optional[float] = None
    kappa_exp_transverse: Optional[float] = None
    gamma_exp: Optional[float] = None
    delta_override: Optional[float] = None
    annotation: str = ""


@dataclass
class Report:
    columns: list[str]
    rows: list[dict]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(",".join(self.columns) + "\n")
        for row in self.rows:
            cells = []
            for col in self.columns:
                v = row.get(col)
                if v is None:
                    cells.append("")
                elif isinstance(v, float):
                    cells.append(f"{v:.6g}")
                else:
                    cells.append(str(v))
            out.write(",".join(cells) + "\n")
        return out.getvalue()

    @property
    def failures(self) -> list[dict]:
        return [r for r in self.rows if r.get("status") == "FAIL"]


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _get_quantity(section: str, parser: configparser.ConfigParser, key: str,
                  unit: str, positive: bool = True) -> Quantity:
    raw = parser.get(section, key, fallback=None)
    if raw is None:
        raise ConfigError(f"[{section}] missing required field '{key}'")
    try:
        q = parse_quantity(raw)
        value = q.to(unit)
    except (UnitsError, DimensionError) as err:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {err}") from err
    if positive and not value > 0:
        raise ConfigError(f"[{section}] {key} = {raw!r}: must be positive")
    return q


def _get_float(section: str, parser, key: str, positive: bool = False) -> Optional[float]:
    raw = parser.get(section, key, fallback=None)
    if raw is None:
        return None
    try:
        v = float(raw)
    except ValueError as err:
        raise ConfigError(f"[{section}] {key} = {raw!r}: not a number") from err
    if positive and not v > 0:
        raise ConfigError(f"[{section}] {key} = {raw!r}: must be positive")
    return v


def _parse_material(section: str, parser: configparser.ConfigParser) -> Material:
    name = section.split(":", 1)[1]
    raw_carriers = parser.get(section, "carriers", fallback=None)
    if raw_carriers is None:
        raise ConfigError(f"[{section}] missing required field 'carriers'")
    carriers = []
    for item in raw_carriers.split(","):
        item = item.strip()
        if not item:
            continue
        label, _, mass = item.partition(":")
        try:
            carriers.append(CarrierSpecies(label=label.strip(), mass_m0=float(mass)))
        except (ValueError, noise_floor.NoiseFloorError) as err:
            raise ConfigError(f"[{section}] carriers entry {item!r}: {err}") from err
    if not carriers:
        raise ConfigError(f"[{section}] 'carriers' must list at least one species")
    h14 = m2 = None
    if parser.has_option(section, "h14"):
        h14 = _get_quantity(section, parser, "h14", "statvolt/cm", positive=False)
        # only the magnitude enters (e*h14)^2; statvolt/cm is a CGS base unit
        h14 = Quantity(abs(h14.value), h14.dim)
    if parser.has_option(section, "m2_lambda"):
        m2 = _get_quantity(section, parser, "m2_lambda", "erg^2/cm^2")
    match = parser.get(section, "acoustic_match", fallback="matched").strip()
    try:
        return Material(
            name=name,
            carriers=tuple(carriers),
            rho0=_get_quantity(section, parser, "rho0", "g/cm^3"),
            u=_get_quantity(section, parser, "u", "cm/s"),
            d=_get_quantity(section, parser, "d", "cm"),
            dos=_get_quantity(section, parser, "dos", "1/(erg*cm^3)"),
            h14=h14,
            m2_lambda=m2,
            acoustic_match=match,
        )
    except noise_floor.NoiseFloorError as err:
        raise ConfigError(f"[{section}]: {err}") from err


def _parse_sample(section: str, parser: configparser.ConfigParser,
                  materials: dict[str, Material]) -> CatalogEntry:
    sample_id = section.split(":", 1)[1]
    mat_name = parser.get(section, "material", fallback=None)
    if mat_name is None:
        raise ConfigError(f"[{section}] missing required field 'material'")
    mat_name = mat_name.strip()
    if mat_name not in materials:
        raise ConfigError(f"[{section}] references unknown material '{mat_name}'")
    try:
        geom = SampleGeometry(
            l=_get_quantity(section, parser, "length", "cm").to("cm"),
            w=_get_quantity(section, parser, "width", "cm").to("cm"),
            a=_get_quantity(section, parser, "thickness", "cm").to("cm"),
        )
    except geometry.GeometryError as err:
        raise ConfigError(f"[{section}]: {err}") from err

    def g_field(key: str) -> Optional[float]:
        if parser.get(section, key, fallback="computed").strip() == "computed":
            return None
        # cm^-1 is a CGS base unit, so the base value is g in cm^-1
        return _get_quantity(section, parser, key, "cm^-1").value

    kappa_exp = _get_float(section, parser, "kappa_exp", positive=True)
    kappa_exp_tr = _get_float(section, parser, "kappa_exp_transverse", positive=True)
    delta_override = _get_float(section, parser, "delta")
    if delta_override is not None and delta_override < 0:
        raise ConfigError(f"[{section}] delta must be >= 0")
    return CatalogEntry(
        sample_id=sample_id,
        geom=geom,
        probes_longitudinal=geometry.longitudinal_probes(geom),
        probes_transverse=geometry.transverse_probes(geom),
        material=materials[mat_name],
        g_override=g_field("g"),
        g_tr_override=g_field("g_transverse"),
        kappa_exp=kappa_exp,
        kappa_exp_transverse=kappa_exp_tr,
        gamma_exp=_get_float(section, parser, "gamma_exp", positive=True),
        delta_override=delta_override,
        annotation=parser.get(section, "annotation", fallback="").strip(),
    )


def load_catalog(config_text: str) -> tuple[list[CatalogEntry], dict[str, Material]]:
    """Parse a catalog config into validated entries (SI converted to CGS)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        parser.read_string(config_text)
    except configparser.Error as err:
        raise ConfigError(f"config parse failure: {err}") from err
    materials: dict[str, Material] = {}
    for section in parser.sections():
        if section.startswith("material:"):
            mat = _parse_material(section, parser)
            materials[mat.name] = mat
    entries = []
    for section in parser.sections():
        if section.startswith("sample:"):
            entries.append(_parse_sample(section, parser, materials))
        elif not section.startswith("material:"):
            raise ConfigError(f"unknown section [{section}]; expected material: or sample:")
    return entries, materials


def bundled_config_text(name: str) -> str:
    """Text of a bundled example config: 'ingaas', 'ybco' or 'gaas_piezo'."""
    fname = name if name.endswith(".cfg") else f"{name}.cfg"
    return resources.files("flickerfloor.configs").joinpath(fname).read_text()


# ---------------------------------------------------------------------------
# table reproduction
# ---------------------------------------------------------------------------

_REPORT_COLUMNS = ["sample", "g_cm^-1", "g_tr_cm^-1", "kappa_th", "kappa_exp",
                   "ratio_exp_th", "gamma", "fmax_Hz", "annotations"]


def reproduce_tables(catalog: list[CatalogEntry], mode: str = "longitudinal",
                     g_source: str = "computed") -> Report:
    """Per-row kappa_th from geometry + noise_floor, against measured values.

    g_source "computed" derives g from the dimensions with the default probe
    placement; "table" uses the catalog's g override where present.
    """
    if not catalog:
        raise ConfigError("catalog is empty")
    if mode not in ("longitudinal", "transverse"):
        raise ConfigError(f"unknown mode '{mode}'")
    if g_source not in ("computed", "table"):
        raise ConfigError(f"unknown g_source '{g_source}'")
    rows = []
    for entry in catalog:
        g_long = g_tr = None
        if g_source == "table":
            g_long, g_tr = entry.g_override, entry.g_tr_override
        if g_long is None:
            g_long = geometry.geometric_factor(
                entry.geom, entry.probes_longitudinal).value.to("cm^-1")
        if g_tr is None:
            g_tr = geometry.geometric_factor_transverse(
                entry.geom, entry.probes_transverse).value.to("cm^-1")
        longitudinal = mode == "longitudinal"
        g = geometry.GeometricFactor(quantity(g_long if longitudinal else g_tr, "cm^-1"), mode)
        model = noise_floor.build_model(
            entry.geom, entry.probes_longitudinal if longitudinal else entry.probes_transverse,
            entry.material, configuration=mode, delta_override=entry.delta_override, g=g)
        kappa_exp = entry.kappa_exp if longitudinal else entry.kappa_exp_transverse
        annotations = ([entry.annotation] if entry.annotation else []) + list(model.caveats)
        rows.append({
            "sample": entry.sample_id,
            "g_cm^-1": g_long,
            "g_tr_cm^-1": g_tr,
            "kappa_th": model.kappa,
            "kappa_exp": kappa_exp,
            "ratio_exp_th": (kappa_exp / model.kappa) if kappa_exp is not None else None,
            "gamma": model.gamma,
            "fmax_Hz": model.fmax.to("Hz"),
            "annotations": "; ".join(annotations),
        })
    return Report(columns=list(_REPORT_COLUMNS), rows=rows)


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

    wk = {t_m: spectral.wk_identity_check(omega=1.0, t_m=t_m) for t_m in (1e3, 1e4, 1e5)}
    # log-kernel identity difference -> -pi/|omega|
    res = wk[1e4]
    rows = [_verify_row("wk_identity(omega=1, t_m=1e4)", res.difference, res.target, 0.01)]
    # convergence trend over t_m
    errors = []
    for t_m, r in wk.items():
        errors.append(abs(r.difference - r.target))
        rows.append(_verify_row(f"wk_identity(omega=1, t_m={t_m:g})", r.difference, r.target, 0.05))
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
