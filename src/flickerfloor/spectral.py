"""Finite-measurement-time spectral estimator and generalized Wiener-Khinchin
machinery.

The estimator follows the plain finite-time transform

    U(w) = int_0^tm dU(t) e^{iwt} dt = Uc + i Us,
    S(f) = < |U|^2 > / tm = < Us^2 + Uc^2 > / tm,   w = 2 pi f,

with trapezoidal discretization and literal ensemble averaging (no windowing
or overlap).  For covariances growing like log|tau|, which have no ordinary
Fourier transform, the difference of the transforms of S and of |tau| S/tm,

    Sigma(f) = int_{-tm}^{tm} (1 - |tau|/tm) S(tau) e^{iw tau} dtau,

stays finite as tm grows; its window is the triangle (Fejer) one that
<|U|^2>/tm puts on a stationary covariance (Percival & Walden 1993, sec. 6.3).
Gauss-Legendre panels over the first few periods and Filon-Clenshaw-Curtis
panels, doubling in length, beyond them make its cost grow like log(f tm).
The log-kernel check's two rows share every panel, so their log(tm)-sized
pieces cancel without losing the -pi/|w| residual.  One routine weights,
rotates and budgets every Gauss panel.

No phase is taken from a large argument: the kernels' panel edges sit at
whole periods, whose phases are small multiples of the amount, carried in two
doubles, by which omega * period misses 2 pi, and the estimator reuses one
block's complex phase table, rotated by each block's start angle.  That
table is the outer product of two tables of about sqrt(block) phase factors
each, and all its angles, like the block angles, are reduced to one cycle
exactly before they are rounded.  The noise synthesizer draws Gaussian
Fourier amplitudes, so neither takes a trig function per sample.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence

import numpy as np

from .geometry import gauss_legendre
from .noise_floor import SpectrumSeries
from .units import InputError, Record


class SpectralError(InputError):
    """Invalid input to a spectral operation."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class SignalRecord(Record):
    """Uniformly sampled voltage fluctuation record (volts, seconds)."""

    __slots__ = ("samples", "dt")

    def __init__(self, samples: np.ndarray, dt: float):
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise SpectralError("a signal record needs at least 2 samples")
        if not np.all(np.isfinite(samples)):
            raise SpectralError("signal samples must be finite")
        if not (math.isfinite(dt) and dt > 0):
            raise SpectralError(f"sampling step must be finite and positive, got {dt}")
        self._fill(locals())

    @property
    def n(self) -> int:
        return self.samples.size


class CovarianceModel(Record):
    """Covariance S(tau) models for the Sigma(f) construction.

    kinds: "log-law"  ln(a_cov + (tau/tau0)^2)
           "exponential"  exp(-|tau|/tau0)
    """

    __slots__ = ("kind", "tau0", "a_cov")

    def __init__(self, kind: str, tau0: float = 1.0, a_cov: float = 1.0):
        if kind not in ("log-law", "exponential"):
            raise SpectralError(f"unknown covariance kind '{kind}'")
        if not tau0 > 0:
            raise SpectralError("tau0 must be positive")
        if kind == "log-law" and not a_cov > 0:
            raise SpectralError("log-law covariance needs a_cov > 0")
        self._fill(locals())

    def evaluate(self, tau) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        if self.kind == "log-law":
            # past r = |tau|/tau0 = 1e150 (r^2 overflows at 1.3e154, and r
            # itself once tau0 is tiny) as 2 (ln|tau| - ln tau0) + ln(1 + a/r^2)
            t = np.abs(tau)
            far = t > 1e150 * self.tau0
            near = np.log(self.a_cov + (np.where(far, 0.0, t) / self.tau0) ** 2)
            if not far.any():
                return near
            t = np.where(far, t, self.tau0)
            log_far = (2.0 * (np.log(t) - math.log(self.tau0))
                       + np.log1p(self.a_cov * (self.tau0 / t) ** 2))
            return np.where(far, log_far, near)
        return np.exp(-np.abs(tau) / self.tau0)


class WkIdentityResult(Record):
    """Both finite-time log-kernel integrals, their difference and the limit:
    lhs1 = Re int_{-tm}^{tm} ln|tau| e^{iw tau} dtau, lhs2 = (1/tm) times the
    same integral of |tau| ln|tau|, and target = -pi/|w|."""

    __slots__ = ("lhs1", "lhs2", "difference", "target")

    def __init__(self, lhs1: float, lhs2: float, difference: float, target: float):
        self._fill(locals())


# ---------------------------------------------------------------------------
# estimator
# ---------------------------------------------------------------------------

# time samples per block; one phase table of this many samples serves every
# block, so peak memory is O(n_f * _SAMPLES_PER_BLOCK) whatever the record length
_SAMPLES_PER_BLOCK = 4096
# the phase table's sample index j = _PHASE_SPLIT * q + r: its phase factor is
# the product of those of q and r, so a 4096-sample table takes 128 complex
# exponentials per frequency instead of 4096
_PHASE_SPLIT = 64


def _phase_table(f: np.ndarray, dt: float, block: int) -> np.ndarray:
    """exp(2 pi i f t_j) at t_j = j dt, j < block, as a (block, n_f) complex array.

    With j = m q + r it is the outer product exp(i a_q) exp(i b_r) of two
    short tables, whose angles are reduced to one cycle before they are
    rounded; a ragged block's last row is cut from the product.
    """
    m = min(block, _PHASE_SPLIT)
    rows = -(-block // m)
    fine, coarse = (np.exp(2j * math.pi * _cycle_fraction(f, k[:, None], dt))  # b_r, a_q
                    for k in (np.arange(m), m * np.arange(rows)))
    return (coarse[:, None] * fine).reshape(rows * m, f.size)[:block]


def _two_product(a, b):
    """(p, e) with p = a*b rounded and p + e = a*b exactly (Dekker 1971).

    Veltkamp's splitter 2^27 + 1 cuts each factor into two 26-bit halves,
    whose four products are exact.  A factor past 2^996, where 2^27 times it
    could overflow, is split as a copy scaled by 2^-28, which is exact.
    """
    def split(v):
        scale = np.where(np.abs(v) > 2.0 ** 996, 2.0 ** -28, 1.0)
        c = 134217729.0 * (v * scale)
        hi = (c - (c - v * scale)) / scale
        return hi, v - hi

    p = a * b
    (a_hi, a_lo), (b_hi, b_lo) = split(a), split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _cycle_fraction(f: np.ndarray, k, dt: float) -> np.ndarray:
    """f * (k * dt) less its nearest integer: the phase of sample k, in cycles,
    for an index or an array of indices k that broadcasts against f.

    Both products are carried with their rounding errors, so the whole cycles
    (about 1.5e4 at the last block of n = 2^16) are dropped before anything
    but the small error terms is rounded.
    """
    t, t_err = _two_product(np.asarray(k, dtype=float), dt)
    c, c_err = _two_product(f, t)
    err = c_err + f * t_err
    # where a split still overflows (a factor near the float limit), the
    # rounded product alone is kept
    frac = (c - np.round(c)) + np.where(np.isfinite(err), err, 0.0)
    return frac - np.round(frac)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported at the end
def power_spectrum_estimate(ensemble: Sequence[SignalRecord], f_grid) -> SpectrumSeries:
    """Ensemble-averaged power spectrum (Us^2 + Uc^2)/tm on a frequency grid.

    Its standard error S/sqrt(N) over N records assumes Gaussian records,
    whose periodogram is S chi^2_2 / 2, of standard deviation S, away from
    f = 0 and the Nyquist frequency (Percival & Walden 1993, sec. 6.6); at
    those two it is S chi^2_1, and the bar is low by sqrt(2).  A spectrum
    that overflows the float range is a SpectralError naming dt and n.
    """
    if len(ensemble) < 1:
        raise SpectralError("ensemble must contain at least one record")
    n, dt = ensemble[0].n, ensemble[0].dt
    for rec in ensemble:
        if rec.n != n or rec.dt != dt:
            raise SpectralError(
                f"inconsistent records: expected n={n}, dt={dt}, got n={rec.n}, dt={rec.dt}")
    f = np.asarray(f_grid, dtype=float)
    if not np.all(np.isfinite(f) & (f >= 0)):
        raise SpectralError("frequencies must be finite and nonnegative")
    # phase table of the first block; block lo starts at angle theta, and
    # e^{i(theta + phi)} = e^{i theta} e^{i phi} rotates the block's sums
    block = min(n, _SAMPLES_PER_BLOCK)
    table = _phase_table(f, dt, block)
    u = np.zeros((len(ensemble), f.size), dtype=complex)
    buffer = np.empty((len(ensemble), block))  # reused, so one block is alive at a time
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        x = np.stack([rec.samples[lo:hi] for rec in ensemble], out=buffer[:, :hi - lo])
        if lo == 0:
            x[:, 0] *= 0.5  # trapezoid weights at the two ends
        if hi == n:
            x[:, -1] *= 0.5
        # one real product on the table's (re, im) float view: x stays real
        sums = (x @ table[:hi - lo].view(float)).view(complex)                 # (n_rec, n_f)
        u += np.exp(2j * math.pi * _cycle_fraction(f, lo, dt)) * sums
    # u is (Uc + i Us)/dt, and t_m = (n - 1) dt, so the periodogram is
    # (c Re u)^2 + (c Im u)^2: scaled before it is squared, it leaves the float
    # range only where the spectrum itself does
    c = math.sqrt(dt / (n - 1))
    p = (c * u.real) ** 2 + (c * u.imag) ** 2
    mean = (p / len(ensemble)).sum(axis=0)  # divided first: the sum of p may overflow
    if not np.all(np.isfinite(mean)):
        raise SpectralError(f"power_spectrum_estimate: the spectrum <Us^2 + Uc^2>/t_m "
                            f"overflows at dt = {dt:g} s, n = {n}")
    return SpectrumSeries(f=f, value=mean, stderr=mean / math.sqrt(len(ensemble)))


# ---------------------------------------------------------------------------
# oscillatory panel quadrature
# ---------------------------------------------------------------------------

# the 24-point Gauss-Legendre rule of each period panel: (node, weight) of its
# positive nodes, frozen as numpy 2.4.6 computes them
_GAUSS_24 = ((0.06405689286260563, 0.12793819534675202),
             (0.1911188674736163, 0.12583745634682825),
             (0.3150426796961634, 0.1216704729278033),
             (0.4337935076260451, 0.11550566805372552),
             (0.5454214713888396, 0.10744427011596556),
             (0.6480936519369755, 0.09761865210411393),
             (0.7401241915785544, 0.0861901615319532),
             (0.820001985973903, 0.07334648141108016),
             (0.8864155270044011, 0.05929858491543636),
             (0.9382745520027328, 0.04427743881741941),
             (0.9747285559713095, 0.02853138862893356),
             (0.9951872199970213, 0.01234122979998869))
_NODES_PER_PANEL = 2 * len(_GAUSS_24)
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
# work budget: the most Chebyshev and Gauss panels one quadrature
# may evaluate.  Smooth integrands take a few dozen (under 60 at f t_m = 1e12);
# one that never resolves on 8 periods takes about 1.3 f t_m, near 0.5 s per
# 1e5 periods, so the budget stops such a call within about 20 s
_MAX_PANELS = 5_000_000
# 2 pi as a rounded head and its tail, to about 1e-32
_TWO_PI_HI, _TWO_PI_LO = 2.0 * math.pi, 2.4492935982947064e-16


@functools.cache
def _panel_tables() -> tuple[np.ndarray, ...]:
    """Gauss-Legendre nodes and weights on [-1, 1]; Chebyshev-Lobatto nodes
    cos(pi j/m), the map from their values to the coefficients of the
    interpolant sum a_n T_n, and the derivative maps T_n^(r)(1) and
    T_n^(r)(-1) as arrays [r, n], r, n = 0..m.  Built on first use, so that
    importing the module runs no linear algebra; the Gauss rule is mirrored
    from _GAUSS_24."""
    m = _CHEB_DEGREE
    j = np.arange(m + 1)
    to_coeffs = (2.0 / m) * np.cos(np.pi * np.outer(j, j) / m)
    to_coeffs[[0, m], :] *= 0.5
    to_coeffs[:, [0, m]] *= 0.5
    # T_n^(r)(1) = prod_{k<r} (n^2 - k^2) / (2k + 1), zero for r > n
    steps = (j[None, :] ** 2 - j[:m, None] ** 2) / (2.0 * j[:m, None] + 1.0)
    at_one = np.vstack([np.ones(m + 1), np.cumprod(steps, axis=0)])
    at_minus_one = at_one * (-1.0) ** (j[:, None] + j[None, :])
    return (*gauss_legendre(_GAUSS_24), np.cos(np.pi * j / m), to_coeffs, at_one, at_minus_one)


def _period(omega: float, t_m: float) -> float:
    """2 pi/|omega|, once (omega, t_m) passes the Fourier kernels' one argument rule.
    Under 2^53 periods the period indices are exact floats; a subnormal t_m
    would round the panels' half-widths away (to 0 at t_m = 1e-323 s)."""
    period = 2.0 * math.pi / abs(omega) if math.isfinite(omega) and omega != 0 else math.nan
    if not (math.isfinite(period) and t_m >= 2.0 ** -1022 and t_m / period < 2.0 ** 53):
        raise SpectralError(f"omega={omega:g} rad/s, t_m={t_m:g} s: need a finite omega != 0 and "
                            "a finite t_m of at least 2.2e-308 s and under 2^53 periods, "
                            "where 2 pi/|omega| and omega*t_m do not overflow")
    return period


def _log_head(s: int, w: float, b: float, t_m: float) -> complex:
    """int_0^b (tau/t_m)^s ln(tau) e^{i w tau} dtau by its Maclaurin series,

        sum_k (i w)^k b^m (ln b - 1/m) / (k! m t_m^s),   m = s + k + 1,

    whose 24 terms reach double precision for w b <= pi/4.  Its first term
    b (b/t_m)^s, b <= t_m/2, is a complex product: it overflows to inf, not
    to an OverflowError, and does not underflow where b^(s+1) would."""
    term, log_b, total = complex(b) * (b / t_m) ** s, math.log(b), 0j  # (i w)^k b^m/(k! t_m^s)
    for k in range(24):
        m = s + k + 1
        total += term * (log_b - 1.0 / m) / m
        term *= 1j * w * b / (k + 1)
    return total


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
    log2(f t_m) panels.  Edge kP has the small phase k drift; Dekker
    two-products give drift = omega P - 2 pi to twice double precision and
    t_m - nP exactly, so no phase comes from a large argument.  A non-finite
    g ends with nan sums.  Panels are counted before each batch is
    evaluated; past _MAX_PANELS the call is a SpectralError naming omega and t_m.
    """
    w, period = abs(omega), _period(omega, t_m)
    n = math.floor(t_m / period)
    # w P = p + e; p - 2 pi's head, and t_m - nP below, are exact (Sterbenz)
    p, e = _two_product(w, period)
    drift = float((p - _TWO_PI_HI) + (e - _TWO_PI_LO))
    gauss_nodes, gauss_weights, cheb_nodes, to_coeffs, at_one, at_minus_one = _panel_tables()
    used, total, scale = 0, 0j, 0.0

    def spend(panels):  # the work budget, charged before the panels are evaluated
        nonlocal used
        used += panels
        if used > _MAX_PANELS:
            raise SpectralError(
                f"omega={omega:g} rad/s, t_m={t_m:g} s needs more than {_MAX_PANELS:,} "
                "quadrature panels, the work budget: the integrand does not become "
                "smooth on the scale of several periods")

    def gauss(k, lo=0.0, hi=period):
        """Add the Gauss panels [kP + lo, kP + hi] to total and their max |g| to scale."""
        nonlocal total, scale
        spend(k.size)
        half = 0.5 * (hi - lo)
        nodes = lo + half * (1.0 + gauss_nodes)  # (nodes,) or (k.size, nodes)
        weights = half * gauss_weights * np.exp(1j * w * nodes)
        values = g((k[:, None] * period + nodes).ravel()).reshape(-1, k.size, _NODES_PER_PANEL)
        sums = np.einsum("rpn,pn->rp", values, np.broadcast_to(weights, values.shape[1:]))
        total = total + (sums * np.exp(1j * drift * k)).sum(axis=1)
        scale = np.maximum(scale, np.abs(values).max(axis=(1, 2)))

    # (k, lo, hi) of the head below the first period, of periods 1 to
    # _GAUSS_PERIODS - 1 and of [nP, t_m], evaluated in one batch
    first = min(period, t_m)
    edges = sorted({e for e in head if e < first} | {first})  # numpy's unique would load numpy.ma
    panels = [(0.0, a, b) for a, b in zip(edges[:-1], edges[1:])]
    panels += [(k, 0.0, period) for k in range(1, min(n, _GAUSS_PERIODS))]
    p, e = _two_product(float(n), period)  # nP lies in [t_m/2, t_m] for n >= 1
    last = float((t_m - p) - e)
    if n >= 1 and last != 0.0:
        panels.append((float(n), 0.0, last))
    k, lo, hi = map(np.array, zip(*panels))
    gauss(k, lo[:, None], hi[:, None])

    stack, start = [], _GAUSS_PERIODS  # (first period, periods) of each doubling panel
    while start < n:
        stack.append((start, min(start, n - start)))
        start *= 2
    while stack:
        start, count = np.array(stack[-_PANEL_BATCH:], dtype=float).T
        del stack[-_PANEL_BATCH:]
        spend(start.size)
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
            spans = count[rest].astype(int)  # a Gauss panel at each k = begin ... begin + span - 1
            gauss(np.arange(spans.sum()) + np.repeat(start[rest] - spans.cumsum() + spans, spans))
    return total if omega > 0 else total.conj()


def sigma_spectrum(cov: CovarianceModel, f: float, t_m: float) -> float:
    """Sigma(f) at a finite t_m: the transform of S(tau) windowed by 1 - |tau|/t_m.

    Requires t_m >= 100/(2 pi |f|) so the O(1/t_m) remainder is below the
    percent scale.  For even covariances the imaginary part cancels; it is
    asserted to be < 1e-9 of the real part.
    """
    omega = 2.0 * math.pi * f
    _period(omega, t_m)  # the kernels' one argument rule, named in omega
    if abs(omega) * t_m < 100.0:
        raise SpectralError(f"t_m={t_m:g} s too small for f={f:g} Hz; need 2 pi |f| t_m >= 100")
    # resolve the covariance scale before the first oscillation boundary;
    # a start that underflows to 0 would never grow
    head, edge = [0.0], cov.tau0 * 1e-4
    while 0.0 < edge < t_m:
        head.append(edge)
        edge *= 10.0

    def integrand(tau):  # S's even and odd parts times w/2, w = 1 - tau/t_m: none exceeds max|S|
        sp, sm, half_w = cov.evaluate(tau), cov.evaluate(-tau), 0.5 - 0.5 * tau / t_m
        return np.stack([half_w * (sp + sm), half_w * (sp - sm)])

    # S(-tau) enters conjugated: Sigma = 2 Re(even row) + 2i Im(odd row)
    even, odd = _fourier_integrals(integrand, omega, t_m, head)
    re, im = 2.0 * float(even.real), 2.0 * float(odd.imag)
    if not (math.isfinite(re) and math.isfinite(im)):
        raise SpectralError(
            f"Sigma(f) is not finite at f={f:g} Hz, t_m={t_m:g} s: the covariance "
            "is not finite, or overflows, on [-t_m, t_m]")
    if abs(im) >= 1e-9 * max(abs(re), 1e-300):
        raise SpectralError(
            f"Sigma(f) at f={f:g} Hz, t_m={t_m:g} s has an imaginary part {im:g} not "
            f"negligible against {re:g}; the covariance is not even")
    return re


def wk_identity_check(omega: float, t_m: float) -> WkIdentityResult:
    """Numerically verify the log-kernel integral identities.

    Both integrals diverge like log(t_m) with an oscillating coefficient, but
    their difference converges to -pi/|omega|.  The rows ln(tau) and
    (tau/t_m) ln(tau), scaled so that the second does not underflow at a small
    t_m, take [0, b], b = min(P/8, t_m/2), from the one head series _log_head,
    exact at the ln(tau) singularity, and [b, t_m] from the panel quadrature.
    """
    w, period = abs(omega), _period(omega, t_m)  # both integrals are even in omega
    b = min(period / 8.0, t_m / 2.0)

    def integrand(tau):
        log_tau = np.log(tau)
        return np.stack([log_tau, tau / t_m * log_tau])

    z = _fourier_integrals(integrand, w, t_m, (b,))
    lhs1, lhs2 = (2.0 * (_log_head(s, w, b, t_m) + complex(z[s])).real for s in (0, 1))
    if not (math.isfinite(lhs1) and math.isfinite(lhs2)):
        raise SpectralError(
            f"the log-kernel integrals overflow at omega={omega:g} rad/s, t_m={t_m:g} s")
    return WkIdentityResult(lhs1=lhs1, lhs2=lhs2, difference=lhs1 - lhs2,
                            target=-math.pi / w)


def sign_function_transform(omega: float, t_m: float) -> complex:
    """int_{-tm}^{tm} (tau/|tau|) e^{i w tau} dtau by panel quadrature.

    Closed form: 2i (1 - cos(w t_m)) / w.
    """
    z = _fourier_integrals(lambda tau: np.ones((1, tau.size)), omega, t_m)
    return 2j * float(z[0].imag)


# ---------------------------------------------------------------------------
# power-law noise synthesis
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)  # an ensemble draws every record with one key
def _amplitude_profile(gamma: float, n: int) -> np.ndarray:
    """Standard deviation of the real and of the imaginary part of each rfft
    bin, interleaved as in the bins' float view: (re_0, im_0, re_1, ...).

    s_k ~ k^(-gamma/2), or f_k^(-gamma/2) up to a factor that the scaling
    removes; the DC bin is 0, and the Nyquist bin is real, with sqrt(2) s_k
    so that E|X_k|^2 ~ f_k^(-gamma) on every bin.  By Parseval the expected
    mean square of irfft(X) is the sum of E|X_k|^2 over the full spectrum
    over n^2, which the profile is scaled to make 1.  Read-only: it is shared.
    """
    sd = np.zeros(n // 2 + 1)
    sd[1:] = np.arange(1, n // 2 + 1) ** (-gamma / 2.0)
    sd[-1] *= math.sqrt(2.0)
    expected = (4.0 * np.sum(sd[1:-1] ** 2) + sd[-1] ** 2) / n ** 2
    sd *= math.sqrt(1.0 / expected)
    parts = np.repeat(sd, 2)
    parts[-1] = 0.0  # the Nyquist bin is real
    parts.flags.writeable = False
    return parts


def synthesize_power_law_noise(gamma: float, n: int, dt: float, seed: int) -> SignalRecord:
    """Deterministic Gaussian 1/f^gamma noise (Timmer & Koenig 1995, A&A 300, 707).

    Each rfft bin k > 0 gets independent Gaussian real and imaginary parts of
    standard deviation ~ f_k^(-gamma/2), drawn from default_rng(seed); the
    DC bin is 0 and the Nyquist bin is real.  The profile is scaled so that
    the expected sample variance is 1: each record's own variance scatters
    about it, as its periodogram scatters about the spectrum (as S chi^2_2 / 2
    on a bin).  gamma must lie in [0, 2] and n must be a power of two.
    """
    if not 0.0 <= gamma <= 2.0:
        raise SpectralError(f"gamma must be in [0, 2], got {gamma}")
    if n < 2 or n & (n - 1):
        raise SpectralError(f"n must be a power of two >= 2, got {n}")
    if not (math.isfinite(dt) and dt > 0):
        raise SpectralError(f"dt must be finite and positive, got {dt}")
    spectrum = np.empty(n // 2 + 1, dtype=complex)
    parts = spectrum.view(float)  # real and imaginary part of each bin in turn
    np.random.default_rng(seed).standard_normal(out=parts)
    parts *= _amplitude_profile(gamma, n)
    return SignalRecord(samples=np.fft.irfft(spectrum, n=n), dt=dt)
