"""Lower bound on 1/f voltage noise from sample geometry and material data.

Layers (``from flickerfloor import spectral``; importing the package loads
none of them, so a caller that needs no arrays never imports numpy):

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

__version__ = "0.1.0"
