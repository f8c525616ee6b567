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

stays finite as tm grows.  Its quadrature takes Gauss-Legendre panels over
the first few periods and Filon-Clenshaw-Curtis panels, doubling in length,
beyond them, so its cost grows like log(f tm); both terms share every panel,
so their log(tm)-sized oscillating pieces cancel without losing the -pi/|w|
residual.

No phase is taken from a large argument: the kernels' panel edges sit at
whole periods, whose phases are small multiples of the exactly computed
amount by which omega * period misses 2 pi, and the estimator reuses one
block's phase table, rotated by each block's start angle reduced to one cycle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .units import InputError


class SpectralError(InputError):
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
            # past r = |tau|/tau0 = 1e150 (r^2 overflows at 1.3e154, and r
            # itself once tau0 is tiny) as 2 (ln|tau| - ln tau0) + ln(1 + a/r^2)
            t = np.abs(tau)
            far = t > 1e150 * self.tau0
            near = np.log(self.a_cov + (np.where(far, 0.0, t) / self.tau0) ** 2)
            if not far.any():
                return self.amplitude * near
            t = np.where(far, t, self.tau0)
            log_far = (2.0 * (np.log(t) - math.log(self.tau0))
                       + np.log1p(self.a_cov * (self.tau0 / t) ** 2))
            return self.amplitude * np.where(far, log_far, near)
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

_NODES_PER_PANEL = 24  # Gauss-Legendre nodes per period panel
# the first _GAUSS_PERIODS periods get one Gauss panel each.  Each adds about
# eps * max|g| * P of rounding, as its weighted phases do not sum to exactly 0:
# 8 periods leave about 1e-13 of Sigma(f) at f t_m = 1e12, where 32 left 6e-13
# and 512 left 1.2e-11.  A Chebyshev panel spans at least this many periods, so
# omega h >= 8 pi and the moment series below is accurate to 6e-13 at degree 24
# (at one period it loses every digit past degree 18)
_GAUSS_PERIODS = 8
# Chebyshev panels: degree, and the bound on the last two coefficients, relative
# to the largest |g| seen so far in the row, under which a panel counts as
# converged; 5.8^-24 = 4e-19 is the decay for tau ln tau on [a, 2a]
_CHEB_DEGREE = 24
_CHEB_TOL = 1e-14
# Chebyshev panels evaluated together; a batch whose panels all fall back to
# the Gauss rule holds about 1.5 MB
_PANEL_BATCH = 64
_TWO_PI = Fraction("6.283185307179586476925286766559005768394")


@functools.cache
def _panel_tables() -> tuple[np.ndarray, ...]:
    """Gauss-Legendre nodes and weights on [-1, 1]; Chebyshev-Lobatto nodes
    cos(pi j/m), the map from their values to the coefficients of the
    interpolant sum a_n T_n, and the derivative maps T_n^(r)(1) and
    T_n^(r)(-1) as arrays [r, n], r, n = 0..m.  Built on first use, so that
    importing the module runs no linear algebra."""
    m = _CHEB_DEGREE
    j = np.arange(m + 1)
    to_coeffs = (2.0 / m) * np.cos(np.pi * np.outer(j, j) / m)
    to_coeffs[[0, m], :] *= 0.5
    to_coeffs[:, [0, m]] *= 0.5
    # T_n^(r)(1) = prod_{k<r} (n^2 - k^2) / (2k + 1), zero for r > n
    steps = (j[None, :] ** 2 - j[:m, None] ** 2) / (2.0 * j[:m, None] + 1.0)
    at_one = np.vstack([np.ones(m + 1), np.cumprod(steps, axis=0)])
    at_minus_one = at_one * (-1.0) ** (j[:, None] + j[None, :])
    return (*leggauss(_NODES_PER_PANEL), np.cos(np.pi * j / m), to_coeffs, at_one, at_minus_one)


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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _fourier_integrals(g: Callable[[np.ndarray], np.ndarray], omega: float, t_m: float,
                       head: Sequence[float] = (0.0,)) -> np.ndarray:
    """int g(tau) e^{i omega tau} dtau from head[0] to t_m, for each row of
    the real g(tau) (shape (rows, tau.size)).

    Panels, with P = 2 pi/|omega| and n = floor(t_m/P): Gauss-Legendre panels
    between the `head` edges below min(P, t_m), over each period [kP, (k+1)P]
    for k < _GAUSS_PERIODS, and over [nP, t_m]; in between, panels [mP, 2mP]
    on which g is interpolated at Chebyshev points and the interpolant
    p(x) = sum a_n T_n(x) is integrated against e^{i omega tau} exactly
    (Filon-Clenshaw-Curtis: Iserles & Norsett 2005; Dominguez, Graham &
    Smyshlyaev 2011), by parts, with h the half-width and kappa = omega h:

        h sum_r -(i/kappa)^(r+1) [p^(r)(1) e^{i omega b} - p^(r)(-1) e^{i omega a}].

    A panel whose last two coefficients have not decayed is halved, and below
    2 _GAUSS_PERIODS periods gets the Gauss rule, so smooth g takes about
    log2(f t_m) panels.  Edge kP has the small phase k drift, with
    drift = omega P - 2 pi and t_m - nP found in exact arithmetic, so no phase
    comes from a large argument.  A non-finite g ends with nan sums.
    """
    w = abs(omega)
    period = 2.0 * math.pi / w
    if not math.isfinite(t_m / period):
        raise SpectralError(f"omega*t_m overflows at omega={omega:g} rad/s, t_m={t_m:g} s")
    n = math.floor(t_m / period)
    drift = float(Fraction(w) * Fraction(period) - _TWO_PI)
    gauss_nodes, gauss_weights, cheb_nodes, to_coeffs, at_one, at_minus_one = _panel_tables()

    local = 0.5 * period * (1.0 + gauss_nodes)
    table = 0.5 * period * gauss_weights * np.exp(1j * w * local)

    # products of real and complex factors are taken as real products: a
    # complex BLAS product keeps about 0.25 MB more resident in the process
    def periods(k):  # Gauss panels [kP, (k+1)P]: sums and max |g| per row
        values = g((k[:, None] * period + local).ravel()).reshape(-1, k.size, _NODES_PER_PANEL)
        sums = (values @ table.real + 1j * (values @ table.imag)) * np.exp(1j * drift * k)
        return sums.sum(axis=1), np.abs(values).max(axis=(1, 2))

    # irregular Gauss panels: the head below the first period, and [nP, t_m]
    first = min(period, t_m)
    edges = np.unique([e for e in head if e < first] + [first])
    k, lo, hi = np.zeros(edges.size - 1), edges[:-1], edges[1:]
    last = float(Fraction(t_m) - n * Fraction(period))
    if n >= 1 and last != 0.0:
        k, lo, hi = np.append(k, float(n)), np.append(lo, 0.0), np.append(hi, last)
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo))[:, None] + half[:, None] * gauss_nodes
    values = g((k[:, None] * period + nodes).ravel())
    weights = half[:, None] * gauss_weights * np.exp(1j * (w * nodes + drift * k[:, None]))
    weights = weights.ravel()
    total, scale = values @ weights.real + 1j * (values @ weights.imag), np.abs(values).max(axis=1)
    if n > 1:
        sums, peak = periods(np.arange(1.0, min(n, _GAUSS_PERIODS)))
        total, scale = total + sums, np.maximum(scale, peak)

    stack, start = [], _GAUSS_PERIODS  # (first period, periods) of each doubling panel
    while start < n:
        stack.append((start, min(start, n - start)))
        start *= 2
    while stack:
        start, count = np.array(stack[-_PANEL_BATCH:], dtype=float).T
        del stack[-_PANEL_BATCH:]
        h = 0.5 * count * period
        values = g(((start * period + h)[:, None] + h[:, None] * cheb_nodes).ravel())
        values = values.reshape(-1, start.size, _CHEB_DEGREE + 1)  # (rows, panels, nodes)
        if not np.all(np.isfinite(values)):
            return np.full_like(total, np.nan)
        coeffs = values @ to_coeffs  # symmetric; a transposed operand adds BLAS buffers
        scale = np.maximum(scale, np.abs(values).max(axis=(1, 2)))
        tail = np.abs(coeffs[:, :, -2:]).max(axis=2)
        done = (count >= _GAUSS_PERIODS) & np.all(tail <= _CHEB_TOL * scale[:, None], axis=0)
        q = (1j / (w * h[done]))[:, None] ** np.arange(1, _CHEB_DEGREE + 2)  # (panels, r)
        plus, minus = (q.real @ a + 1j * (q.imag @ a) for a in (at_one, at_minus_one))
        ends = (np.exp(1j * drift * (start + count))[done, None] * plus
                - np.exp(1j * drift * start)[done, None] * minus)
        total -= np.einsum("rpn,pn,p->r", coeffs[:, done], ends, h[done])
        split = ~done & (count >= 2 * _GAUSS_PERIODS)
        for begin, span in zip(start[split], count[split]):
            stack += [(begin, span // 2), (begin + span // 2, span - span // 2)]
        rest = ~done & ~split
        if rest.any():
            k = np.concatenate([np.arange(begin, begin + span)
                                for begin, span in zip(start[rest], count[rest])])
            sums, peak = periods(k)
            total, scale = total + sums, np.maximum(scale, peak)
    return total if omega > 0 else total.conj()


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
        return np.stack([sp, sm, tau * sp, tau * sm])

    # int_{-tm}^{tm} S(tau) e^{iw tau} dtau = int_0^tm S(tau) e^{iw tau} + conj(S(-tau) e^{iw tau})
    # combined as Python complex numbers, which turn an overflow into nan
    # without a warning, so that it reaches the check below
    zp, zm, tzp, tzm = map(complex, _fourier_integrals(integrand, omega, t_m, head))
    result = zp + zm.conjugate() - (tzp + tzm.conjugate()) / t_m
    if not (math.isfinite(result.real) and math.isfinite(result.imag)):
        raise SpectralError(
            f"Sigma(f) is not finite at f={f:g} Hz, t_m={t_m:g} s: the covariance "
            "is not finite, or overflows, on [-t_m, t_m]")
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

    z = _fourier_integrals(integrand, w, t_m, [0.0, *(b * np.logspace(-8, 0, 9))])
    lhs1 = 2.0 * (head + float(z[0].real))
    lhs2 = 2.0 * float(z[1].real) / t_m
    if not (math.isfinite(lhs1) and math.isfinite(lhs2)):
        raise SpectralError(
            f"the log-kernel integrals overflow at omega={omega:g} rad/s, t_m={t_m:g} s")
    return WkIdentityResult(lhs1=lhs1, lhs2=lhs2, difference=lhs1 - lhs2,
                            target=-math.pi / w)


def sign_function_transform(omega: float, t_m: float) -> complex:
    """int_{-tm}^{tm} (tau/|tau|) e^{i w tau} dtau by panel quadrature.

    Closed form: 2i (1 - cos(w t_m)) / w.
    """
    if not (math.isfinite(omega) and omega != 0 and math.isfinite(t_m) and t_m > 0):
        raise SpectralError(
            f"need a finite omega != 0 and a finite t_m > 0, got omega={omega}, t_m={t_m}")
    z = _fourier_integrals(lambda tau: np.ones((1, tau.size)), omega, t_m)
    return 2j * float(z[0].imag)


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
    for name, value in (("dt", dt), ("variance", variance)):
        if not (math.isfinite(value) and value > 0):
            raise SpectralError(f"{name} must be finite and positive, got {value}")
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

