"""Lower bound on 1/f voltage noise from sample geometry and material data.

Layers:

- ``units``: CGS-Gaussian quantities with exact dimensional bookkeeping.
- ``geometry``: singular Coulomb volume integrals over cuboid samples and
  the geometric factor g they define.
- ``noise_floor``: the noise magnitude kappa, the phonon-dressed exponent
  gamma = 1 + delta, and the measurement-time validity bound.
- ``spectral``: finite-measurement-time spectral estimation and the
  generalized Wiener-Khinchin identities behind it.
- ``workbench``: config-driven catalogs, comparison reports, verification
  suite, and the command-line interface (see ``cli``).

Each layer is imported on first use of one of its names (PEP 562), so a
caller that needs no arrays never imports numpy.
"""

import importlib

_LAYERS = {
    "units": ("CODATA2018", "Dimension", "DimensionError", "Quantity", "UnitsError",
              "parse_quantity", "quantity"),
    "geometry": ("GeometricFactor", "GeometryError", "ProbePair", "SampleGeometry",
                 "coulomb_box_integral", "geometric_factor", "geometric_factor_transverse",
                 "longitudinal_probes", "transverse_probes"),
    "noise_floor": ("CarrierSpecies", "Material", "MissingPiezoDataError", "NoiseFloorError",
                    "NoiseFloorModel", "ValidityBound", "build_model", "corner_frequency",
                    "evaluate_spectrum", "kappa", "phonon_delta", "validity_bound"),
    "spectral": ("CovarianceModel", "SignalRecord", "SpectralError", "SpectrumSeries",
                 "WkIdentityResult", "power_spectrum_estimate", "sigma_spectrum",
                 "sign_function_transform", "synthesize_power_law_noise",
                 "wk_identity_check"),
    "workbench": ("CatalogEntry", "ConfigError", "Report", "load_catalog", "reproduce_tables",
                  "run_verification_suite"),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_LAYERS, *_LAYER_OF])


def __getattr__(name):
    if name in _LAYERS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAYER_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
