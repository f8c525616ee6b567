"""Expected values the benchmark checks the program's outputs against.

The physics here is written out again from the paper's formulas with full
CODATA 2018 constants in Gaussian-CGS, independently of the program's units
layer.  The program hard-codes its constants to about 9 digits, so derived
quantities (kappa, delta, f*, fmax) are compared at PHYSICS_TOL.  Geometric
factors and Coulomb integrals come from the mpmath literals in ``refdata``.
"""

from __future__ import annotations

import math

import numpy as np

import refdata

EPS = 2.0 ** -52
PHYSICS_TOL = 1e-7     # full CODATA 2018 here against the program's 9-digit constants
PRINTED_TOL = 1.2e-5   # values the CLI prints with 6 significant digits

E_ESU = 1.602176634e-19 * 2.99792458e9   # elementary charge, esu
HBAR = 1.054571817e-27                   # erg s
C_LIGHT = 2.99792458e10                  # cm/s
M0 = 9.1093837015e-28                    # g
EV = 1.602176634e-12                     # erg
STATVOLT = 299.792458                    # V

# The bundled catalogs' materials, transcribed to CGS.
_INGAAS = dict(masses=(0.06, 0.09), rho0=5.3, u=2.5e5, d=5e-8, dos=1e22 / EV,
               h14=1.4e9 / 100.0 / STATVOLT)
MATERIALS = {
    "ingaas": dict(_INGAAS, reflecting=True),
    "gaas": dict(_INGAAS, reflecting=False),
    "ybco": dict(masses=(3.0,), rho0=6.3, u=2.5e5, d=5e-8, dos=1e22 / EV, h14=None,
                 reflecting=True),
}
# the bundled catalogs and each one's (first) material
CATALOG_MATERIAL = {"ingaas": "ingaas", "ybco": "ybco", "gaas_piezo": "gaas"}
CATALOGS = tuple(CATALOG_MATERIAL)
DELTA_OVERRIDE = {"bulk-B": 0.06}
TABLE_G = {  # catalog g and g_transverse fields, cm^-1
    "V1": (9630.0, 1990.0), "V1.5": (6420.0, 1330.0), "V2": (5140.0, 1280.0),
    "V5": (1260.0, 80.0), "V80": (80.0, 6.0),
}

SAMPLES = {(row[0], row[1]): row for row in refdata.CATALOG_G}
MODES = ("longitudinal", "transverse")


def max_rel_err(got, want) -> float:
    """Largest |got - want| / |want| over the elements (NaN if any is NaN)."""
    return float(np.max(np.abs(np.asarray(got) - want) / np.abs(want)))


def sample_dims(catalog: str, sample: str) -> tuple[float, float, float]:
    return SAMPLES[(catalog, sample)][2]


def ref_g(catalog: str, sample: str, mode: str) -> tuple[float, float]:
    """(g in cm^-1, tolerance) for the default probes in this mode."""
    _, _, _, g_long, c_long, g_tr, c_tr = SAMPLES[(catalog, sample)]
    g, cond = (g_long, c_long) if mode == "longitudinal" else (g_tr, c_tr)
    return g, tol_from_condition(cond)


def tol_from_condition(cond: float) -> float:
    # the closed form's rounding error stays below eps * cond; 8x margin, and a
    # floor for the final scaling by 1/(3V) and (w/l)^2
    return max(8.0 * EPS * cond, 64.0 * EPS)


# No Coulomb integral is accepted with a relative error above this, however
# ill-conditioned its corner sum: past it a check would pass any value.
POINT_TOL_CAP = 1e-3
FAR_DECADES = ("far1e+01", "far1e+02", "far1e+03", "far1e+04", "far1e+05")
# (pool category, box) groups where the closed form misses POINT_TOL_CAP
# today, a known program defect (cancellation in the corner sum).  Their
# points are timed but not checked per op; only accuracy.py's
# g_far*_max_rel_err metrics watch them.
KNOWN_POINT_MISSES = frozenset({
    ("far1e+04", (1.0, 1.0, 1.0)), ("far1e+05", (1.0, 1.0, 1.0)),
    ("far1e+04", (0.00022, 0.0001, 1e-06)), ("far1e+05", (0.00022, 0.0001, 1e-06)),
    ("far1e+03", (0.5, 0.07, 8.5e-06)), ("far1e+04", (0.5, 0.07, 8.5e-06)),
    ("far1e+05", (0.5, 0.07, 8.5e-06)),
})


def point_tol(category: str, dims: tuple, cond: float) -> float | None:
    """Tolerance of the Coulomb integral at a pool point; None when not checked."""
    if (category, dims) in KNOWN_POINT_MISSES:
        return None
    return min(tol_from_condition(cond), POINT_TOL_CAP)


def material_delta(material: str) -> float:
    m = MATERIALS[material]
    if m["reflecting"]:
        return 0.0
    return (E_ESU * m["h14"]) ** 2 / ((2.0 * math.pi) ** 2 * HBAR * m["rho0"] * m["u"] ** 3)


def sample_delta(catalog: str, sample: str) -> float:
    if sample in DELTA_OVERRIDE:
        return DELTA_OVERRIDE[sample]
    return material_delta(CATALOG_MATERIAL[catalog])


def fstar_hz(catalog: str) -> float:
    m = MATERIALS[CATALOG_MATERIAL[catalog]]
    return m["u"] / m["d"]


def kappa_bare(g: float, catalog: str, single_species: bool = False) -> float:
    """2 e^4 g / (pi m hbar c^3) summed over carrier species."""
    masses = MATERIALS[CATALOG_MATERIAL[catalog]]["masses"]
    if single_species:
        masses = (min(masses),)
    return sum(2.0 * E_ESU ** 4 * g / (math.pi * m * M0 * HBAR * C_LIGHT ** 3)
               for m in masses)


def kappa_model(g: float, catalog: str, sample: str, single_species: bool = False) -> float:
    """kappa with the (f*)^delta factor folded in, as the floor model states it."""
    delta = sample_delta(catalog, sample)
    return kappa_bare(g, catalog, single_species) * fstar_hz(catalog) ** delta


def fmax_hz(catalog: str, sample: str) -> float:
    l, w, a = sample_dims(catalog, sample)
    dos = MATERIALS[CATALOG_MATERIAL[catalog]]["dos"]
    return 1.0 / (2.0 * math.pi * HBAR * dos * l * w * a)


def report_rows(catalog: str, mode: str, g_source: str) -> dict[str, dict]:
    """Expected numeric cells of reproduce_tables, by sample id."""
    rows = {}
    for (cat, sample) in SAMPLES:
        if cat != catalog:
            continue
        g_long = ref_g(cat, sample, "longitudinal")[0]
        g_tr = ref_g(cat, sample, "transverse")[0]
        if g_source == "table" and sample in TABLE_G:
            g_long, g_tr = TABLE_G[sample]
        g = g_long if mode == "longitudinal" else g_tr
        rows[sample] = {
            "g_cm^-1": g_long,
            "g_tr_cm^-1": g_tr,
            "kappa_th": kappa_model(g, cat, sample),
            "gamma": 1.0 + sample_delta(cat, sample),
            "fmax_Hz": fmax_hz(cat, sample),
        }
    return rows


def floor_spectrum(kappa: float, gamma: float, u0_volts: float, f: np.ndarray) -> np.ndarray:
    return kappa * u0_volts ** 2 / np.abs(f) ** gamma


def direct_psd(samples: np.ndarray, dt: float, f: np.ndarray) -> np.ndarray:
    """Ensemble mean of (Us^2 + Uc^2)/t_m, one frequency at a time.

    Trapezoid rule written as the plain sum minus half of each end sample,
    so it shares no code with the program's weighted matrix product.
    """
    n = samples.shape[1]
    t = np.arange(n) * dt
    t_m = dt * (n - 1)
    out = np.empty(len(f))
    for j, fj in enumerate(f):
        phase = 2.0 * math.pi * fj * t
        parts = []
        for kernel in (np.sin(phase), np.cos(phase)):
            full = samples @ kernel
            ends = 0.5 * (samples[:, 0] * kernel[0] + samples[:, -1] * kernel[-1])
            parts.append(dt * (full - ends))
        out[j] = np.mean((parts[0] ** 2 + parts[1] ** 2) / t_m)
    return out


def estimate_grid(n: int, dt: float, count: int = 60) -> np.ndarray:
    """The frequency grid of the CLI's estimate subcommand."""
    t_m = dt * (n - 1)
    return np.logspace(np.log10(10.0 / t_m), np.log10(0.25 / dt), count)


def sigma_tol(ft: float) -> float:
    # the finite-time remainder is O(1/(f t_m)); observed about 1/(f t_m)
    return 5.0 / ft


def wk_tol(omega: float, t_m: float) -> float:
    # O(1/(omega t_m)) remainder; observed at most 5/(omega t_m)
    return 20.0 / (omega * t_m)


SIGMA_EXP_TOL = 5e-3   # t_m = 2000 tau0; observed at most 5e-4
SIGN_TOL = 1e-10
PSD_TOL = 1e-9         # matrix product against per-frequency sums, same float64 data
