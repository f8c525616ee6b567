"""Finite-measurement-time spectral estimator and generalized Wiener-Khinchin
machinery.

The estimator follows the plain finite-time transform

    Us(w) = int_0^tm dU(t) sin(wt) dt,   Uc likewise with cos,
    S(f)  = < Us^2 + Uc^2 > / tm,        w = 2 pi f,

with trapezoidal discretization and literal ensemble averaging (no windowing
or overlap).  For covariances growing like log|tau|, which have no ordinary
Fourier transform, the difference construction

    Sigma(f) = int_{-tm}^{tm} S(tau) e^{iw tau} dtau
             - (1/tm) int_{-tm}^{tm} |tau| S(tau) e^{iw tau} dtau

stays finite as tm grows; the quadrature here uses per-period Gauss-Legendre
panels so that the log(tm)-sized oscillating pieces of the two terms cancel
without losing the -pi/|w| residual.

No phase is taken from a large argument: the nodes of every whole-period
panel sit at the same phases, so their cos/sin come from one table, and the
estimator reuses one block's phase table, rotated by each block's start angle
reduced to one cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss


class SpectralError(ValueError):
    """Invalid input to a spectral operation."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignalRecord:
    """Uniformly sampled voltage fluctuation record (volts, seconds)."""

    samples: np.ndarray
    dt: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size < 2:
            raise SpectralError("a signal record needs at least 2 samples")
        if not np.all(np.isfinite(samples)):
            raise SpectralError("signal samples must be finite")
        if not self.dt > 0:
            raise SpectralError(f"sampling step must be positive, got {self.dt}")

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def t_m(self) -> float:
        return self.dt * (self.n - 1)


@dataclass(frozen=True)
class SpectrumSeries:
    """(f, S(f)) result arrays, with per-point standard errors.

    Each annotation is a per-point array (a flag or a factor); the spectrum
    CSV writes it as one more column.
    """

    f: np.ndarray
    value: np.ndarray
    stderr: np.ndarray
    annotations: dict = field(default_factory=dict)

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "value", np.asarray(self.value, dtype=float))
        object.__setattr__(self, "stderr", np.asarray(self.stderr, dtype=float))
        if np.any(np.diff(f) <= 0):
            raise SpectralError("frequency grid must be strictly increasing")
        if not (np.all(np.isfinite(self.value)) and np.all(np.isfinite(self.stderr))):
            raise SpectralError("spectrum values must be finite")


@dataclass(frozen=True)
class CovarianceModel:
    """Covariance S(tau) models for the Sigma(f) construction.

    kinds: "log-law"  amplitude * ln(a_cov + (tau/tau0)^2)
           "exponential"  amplitude * exp(-|tau|/tau0)
           "constant"  amplitude
           "user-function"  func(tau), vectorized over numpy arrays
    """

    kind: str
    tau0: float = 1.0
    a_cov: float = 1.0
    amplitude: float = 1.0
    func: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.kind not in ("log-law", "exponential", "constant", "user-function"):
            raise SpectralError(f"unknown covariance kind '{self.kind}'")
        if not self.tau0 > 0:
            raise SpectralError("tau0 must be positive")
        if self.kind == "log-law" and not self.a_cov > 0:
            raise SpectralError("log-law covariance needs a_cov > 0")
        if self.kind == "user-function" and self.func is None:
            raise SpectralError("user-function covariance needs func")

    def evaluate(self, tau) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        if self.kind == "log-law":
            return self.amplitude * np.log(self.a_cov + (tau / self.tau0) ** 2)
        if self.kind == "exponential":
            return self.amplitude * np.exp(-np.abs(tau) / self.tau0)
        if self.kind == "constant":
            return np.full_like(tau, self.amplitude)
        return np.asarray(self.func(tau), dtype=float)


@dataclass(frozen=True)
class WkIdentityResult:
    """Both finite-time log-kernel integrals, their difference and the limit."""

    lhs1: float          # int_{-tm}^{tm} ln|tau| e^{iw tau} dtau (real part)
    lhs2: float          # (1/tm) int_{-tm}^{tm} |tau| ln|tau| e^{iw tau} dtau
    difference: float
    target: float        # -pi/|w|


# ---------------------------------------------------------------------------
# estimator
# ---------------------------------------------------------------------------

# time samples per block; one sin/cos table of this many samples serves every
# block, so peak memory is O(n_f * _SAMPLES_PER_BLOCK) whatever the record length
_SAMPLES_PER_BLOCK = 4096


def power_spectrum_estimate(ensemble: Sequence[SignalRecord], f_grid) -> SpectrumSeries:
    """Ensemble-averaged power spectrum (Us^2 + Uc^2)/tm on a frequency grid."""
    if len(ensemble) < 1:
        raise SpectralError("ensemble must contain at least one record")
    n, dt = ensemble[0].n, ensemble[0].dt
    for rec in ensemble:
        if rec.n != n or rec.dt != dt:
            raise SpectralError(
                f"inconsistent records: expected n={n}, dt={dt}, got n={rec.n}, dt={rec.dt}")
    f = np.asarray(f_grid, dtype=float)
    if np.any(f < 0):
        raise SpectralError("frequencies must be nonnegative")
    w = np.full(n, dt)
    w[0] = w[-1] = dt / 2.0  # trapezoid weights
    # phase table of the first block; block lo starts at angle theta, and
    # sin/cos(theta + phi) = rotation of the table's products by theta
    block = min(n, _SAMPLES_PER_BLOCK)
    phase = 2.0 * math.pi * np.outer(f, np.arange(block) * dt)             # (n_f, block)
    cos_table = np.cos(phase)
    sin_table = np.sin(phase, out=phase)
    us = np.zeros((len(ensemble), f.size))
    uc = np.zeros((len(ensemble), f.size))
    buffer = np.empty((len(ensemble), block))  # reused, so one block is alive at a time
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        x = np.stack([rec.samples[lo:hi] for rec in ensemble], out=buffer[:, :hi - lo])
        x *= w[lo:hi]                                                       # (n_rec, hi-lo)
        a = x @ cos_table[:, :hi - lo].T                                    # (n_rec, n_f)
        b = x @ sin_table[:, :hi - lo].T
        cycles = f * (lo * dt)
        theta = 2.0 * math.pi * (cycles - np.round(cycles))  # one cycle, then radians
        sin_theta, cos_theta = np.sin(theta), np.cos(theta)
        us += sin_theta * a + cos_theta * b
        uc += cos_theta * a - sin_theta * b
    t_m = ensemble[0].t_m
    p = (us ** 2 + uc ** 2) / t_m
    mean = p.mean(axis=0)
    if len(ensemble) > 1:
        stderr = p.std(axis=0, ddof=1) / math.sqrt(len(ensemble))
    else:
        stderr = np.zeros_like(mean)
    return SpectrumSeries(f=f, value=mean, stderr=stderr)


# ---------------------------------------------------------------------------
# oscillatory panel quadrature
# ---------------------------------------------------------------------------

_NODES_PER_PANEL = 24  # one panel per oscillation period
# panels per chunk; peak memory is O(_NODES_PER_PANEL * _PANELS_PER_CHUNK),
# independent of f * t_m.  A chunk's arrays (48 KB each) stay in a core's L2
# cache; 2048 panels ran Sigma(f) about 2.5 times slower on a 2-vCPU x86-64
# Xeon with 2 MB of L2 per core.
_PANELS_PER_CHUNK = 256
# work budget: the most panels one quadrature may use, about f * t_m; it
# bounds the run time of one call, as memory no longer grows with f * t_m
_MAX_PANELS = 5_000_000

# Maclaurin coefficients of Si(x)/x in powers of x^2: (-1)^k / ((2k+1) (2k+1)!)
_SI_COEFFS = tuple((-1) ** k / ((2 * k + 1) * math.factorial(2 * k + 1)) for k in range(8))


def _sine_integral(x: float) -> float:
    """Si(x) = int_0^x sin(t)/t dt by its Maclaurin series.

    Eight terms reach double precision for |x| <= pi/4, the only range used
    here; the first omitted term is below 4e-18 relative.
    """
    x2 = x * x
    acc = 0.0
    for c in reversed(_SI_COEFFS):
        acc = acc * x2 + c
    return x * acc


def _fourier_integrals(g: Callable[[np.ndarray], np.ndarray], omega: float, t_m: float,
                       head: Sequence[float] = (0.0,)) -> tuple[np.ndarray, np.ndarray]:
    """int g(tau) cos(omega tau) dtau and int g(tau) sin(omega tau) dtau from
    head[0] to t_m, for each row of g(tau) (shape (rows, tau.size)).

    Panels: the irregular head panels between the edges in `head` up to
    min(period, t_m) (edges at or beyond it are ignored), one Gauss panel per
    whole period [kP, (k+1)P], and the last partial panel.  The nodes of the
    whole-period panels fall at the same phases every time, so their cos/sin
    come from one _NODES_PER_PANEL-entry table; no phase is computed from a
    large tau.  Raises SpectralError before allocating anything when the
    panel count t_m/period exceeds the work budget _MAX_PANELS.
    """
    period = 2.0 * math.pi / abs(omega)
    needed = t_m / period
    if not needed <= _MAX_PANELS:
        raise SpectralError(
            f"t_m={t_m:g} s at |omega|={abs(omega):g} rad/s needs {needed:.3g} "
            f"quadrature panels; the limit is {_MAX_PANELS:,}")
    n_periods = int(math.floor(needed))
    nodes, weights = leggauss(_NODES_PER_PANEL)

    def phase_table(local, wts):  # (nodes, 2): weighted cos and sin
        return np.stack([wts * np.cos(omega * local), wts * np.sin(omega * local)], axis=1)

    first = min(period, t_m)
    edges = np.unique([e for e in head if e < first] + [first])
    # irregular panels [lo, hi] at offset base; phases are taken from the
    # in-panel coordinate, since omega * base is a multiple of 2 pi
    lo, hi, base = edges[:-1], edges[1:], np.zeros(edges.size - 1)
    last = t_m - n_periods * period
    if n_periods >= 1 and last > 0.0:
        lo, hi = np.append(lo, 0.0), np.append(hi, last)
        base = np.append(base, n_periods * period)
    half = 0.5 * (hi - lo)
    local = ((0.5 * (hi + lo))[:, None] + half[:, None] * nodes).ravel()
    wts = (half[:, None] * weights).ravel()
    acc = g(np.repeat(base, _NODES_PER_PANEL) + local) @ phase_table(local, wts)  # (rows, 2)
    # whole periods k = 1 .. n_periods - 1, a chunk of panels at a time
    local = 0.5 * period * (1.0 + nodes)
    table = phase_table(local, 0.5 * period * weights)
    for start in range(1, n_periods, _PANELS_PER_CHUNK):
        k = np.arange(start, min(start + _PANELS_PER_CHUNK, n_periods), dtype=float)
        tau = (period * k[:, None] + local).ravel()
        acc += (g(tau).reshape(-1, k.size, _NODES_PER_PANEL) @ table).sum(axis=1)
    return acc[:, 0], acc[:, 1]


def sigma_spectrum(cov: CovarianceModel, f: float, t_m: float) -> float:
    """Finite-time value of the generalized Wiener-Khinchin difference Sigma(f).

    Requires t_m >= 100/(2 pi |f|) so the O(1/t_m) remainder is below the
    percent scale.  For even covariances the imaginary part cancels; it is
    asserted to be < 1e-9 of the real part.
    """
    if not (math.isfinite(f) and f != 0):
        raise SpectralError(f"Sigma(f) is defined only at a finite f != 0, got {f}")
    if not math.isfinite(t_m):
        raise SpectralError(f"t_m must be finite, got {t_m}")
    omega = 2.0 * math.pi * f
    t_min = 100.0 / abs(omega)
    if t_m < t_min:
        raise SpectralError(
            f"t_m={t_m:g} s too small for f={f:g} Hz; need t_m >= {t_min:g} s")
    # resolve the covariance scale before the first oscillation boundary;
    # a start that underflows to 0 would never grow
    head, edge = [0.0], cov.tau0 * 1e-4
    while 0.0 < edge < t_m:
        head.append(edge)
        edge *= 10.0

    def integrand(tau):
        sp, sm = cov.evaluate(tau), cov.evaluate(-tau)
        even, odd = sp + sm, sp - sm
        return np.stack([even, odd, tau * even, tau * odd])

    # sp e^{iw tau} + sm e^{-iw tau} = (sp + sm) cos(w tau) + i (sp - sm) sin(w tau)
    c, s = _fourier_integrals(integrand, omega, t_m, head)
    result = complex(c[0], s[1]) - complex(c[2], s[3]) / t_m
    if abs(result.imag) >= 1e-9 * max(abs(result.real), 1e-300):
        raise SpectralError(
            f"imaginary part {result.imag:g} not negligible against {result.real:g}; "
            "covariance is not even")
    return float(result.real)


def wk_identity_check(omega: float, t_m: float) -> WkIdentityResult:
    """Numerically verify the log-kernel integral identities.

    Both integrals diverge like log(t_m) with an oscillating coefficient, but
    their difference converges to -pi/|omega|.  The log singularity at tau=0
    is integrated with its exact antiderivative (via the sine integral).
    """
    if not (math.isfinite(omega) and omega != 0 and math.isfinite(t_m) and t_m > 0):
        raise SpectralError(
            f"need a finite omega != 0 and a finite t_m > 0, got omega={omega}, t_m={t_m}")
    w = abs(omega)  # both integrals are even in omega
    period = 2.0 * math.pi / w
    b = min(period / 8.0, t_m / 2.0)
    # exact ln-weight panel: int_0^b ln(tau) cos(w tau) dtau, with w*b <= pi/4
    head = math.sin(w * b) * math.log(b) / w - _sine_integral(w * b) / w
    # |tau| ln|tau| is continuous at 0; log-refine its head panels instead.
    # ln|tau| is integrated by quadrature only above b, an edge of both.

    def integrand(tau):
        log_tau = np.log(tau)
        return np.stack([np.where(tau > b, log_tau, 0.0), tau * log_tau])

    c, _ = _fourier_integrals(integrand, w, t_m, [0.0, *(b * np.logspace(-8, 0, 9))])
    lhs1 = 2.0 * (head + float(c[0]))
    lhs2 = 2.0 * float(c[1]) / t_m
    return WkIdentityResult(lhs1=lhs1, lhs2=lhs2, difference=lhs1 - lhs2,
                            target=-math.pi / w)


def sign_function_transform(omega: float, t_m: float) -> complex:
    """int_{-tm}^{tm} (tau/|tau|) e^{i w tau} dtau by panel quadrature.

    Closed form: 2i (1 - cos(w t_m)) / w.
    """
    if not (math.isfinite(omega) and omega != 0 and math.isfinite(t_m) and t_m > 0):
        raise SpectralError(
            f"need a finite omega != 0 and a finite t_m > 0, got omega={omega}, t_m={t_m}")
    _, s = _fourier_integrals(lambda tau: np.ones((1, tau.size)), omega, t_m)
    return 2j * float(s[0])


# ---------------------------------------------------------------------------
# power-law noise synthesis
# ---------------------------------------------------------------------------

def synthesize_power_law_noise(gamma: float, n: int, dt: float, seed: int,
                               variance: float = 1.0) -> SignalRecord:
    """Deterministic 1/f^gamma noise via frequency-domain shaping.

    Random phases on a fixed amplitude profile |X(f)| ~ f^(-gamma/2) with
    Hermitian symmetry; the output is rescaled to the requested sample
    variance.  gamma must lie in [0, 2] and n must be a power of two.
    """
    if not 0.0 <= gamma <= 2.0:
        raise SpectralError(f"gamma must be in [0, 2], got {gamma}")
    if n < 2 or n & (n - 1):
        raise SpectralError(f"n must be a power of two >= 2, got {n}")
    if not (dt > 0 and variance > 0):
        raise SpectralError("dt and variance must be positive")
    rng = np.random.default_rng(seed)
    freqs = np.fft.rfftfreq(n, d=dt)
    amp = np.zeros(n // 2 + 1)
    amp[1:] = freqs[1:] ** (-gamma / 2.0)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n // 2 + 1)
    spectrum = amp * np.exp(1j * phases)
    spectrum[0] = 0.0
    spectrum[-1] = amp[-1] * math.cos(phases[-1])  # Nyquist bin must be real
    x = np.fft.irfft(spectrum, n=n)
    x *= math.sqrt(variance / np.mean(x ** 2))
    return SignalRecord(samples=x, dt=dt)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def spectrum_csv_text(series: SpectrumSeries) -> str:
    """CSV with columns f,S,stderr, then one column per annotation."""
    names = list(series.annotations)
    columns = [series.f, series.value, series.stderr] + [
        np.asarray(series.annotations[name], dtype=float) for name in names]
    lines = [",".join(["f", "S", "stderr"] + names)]
    for row in zip(*columns):
        lines.append(",".join(f"{v:.6g}" for v in row))
    return "\n".join(lines) + "\n"

