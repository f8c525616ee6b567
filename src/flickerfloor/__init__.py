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
"""

from .units import (
    CODATA2018,
    Dimension,
    DimensionError,
    Quantity,
    UnitsError,
    parse_quantity,
    quantity,
)
from .geometry import (
    GeometricFactor,
    GeometryError,
    ProbePair,
    SampleGeometry,
    coulomb_box_integral,
    geometric_factor,
    geometric_factor_transverse,
    longitudinal_probes,
    transverse_probes,
)
from .noise_floor import (
    CarrierSpecies,
    Material,
    MissingPiezoDataError,
    NoiseFloorError,
    NoiseFloorModel,
    ValidityBound,
    build_model,
    corner_frequency,
    evaluate_spectrum,
    kappa,
    phonon_delta,
    validity_bound,
)
from .spectral import (
    CovarianceModel,
    SignalRecord,
    SpectralError,
    SpectrumSeries,
    WkIdentityResult,
    power_spectrum_estimate,
    sigma_spectrum,
    sign_function_transform,
    synthesize_power_law_noise,
    wk_identity_check,
)
from .workbench import (
    CatalogEntry,
    ConfigError,
    Report,
    load_catalog,
    reproduce_tables,
    run_verification_suite,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
