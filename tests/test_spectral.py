"""Finite-measurement-time spectral estimation and its integral identities."""

import math
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flickerfloor import spectral
from flickerfloor.spectral import (
    CovarianceModel,
    SignalRecord,
    SpectralError,
    _log_head,
    power_spectrum_estimate,
    sigma_spectrum,
    sign_function_transform,
    synthesize_power_law_noise,
    wk_identity_check,
)


def user_covariance(func, tau0=1.0):
    """A covariance S(tau) = func(tau) for sigma_spectrum, which reads only
    tau0 (its head refinement scale) and evaluate."""
    return SimpleNamespace(tau0=tau0, evaluate=func)


def sinusoid_record(amplitude=1.0, f0=1.0, n=4096, dt=0.01):
    t = np.arange(n) * dt
    return SignalRecord(samples=amplitude * np.sin(2.0 * np.pi * f0 * t), dt=dt)


# ---------------------------------------------------------------------------
# single-record power: power_spectrum_estimate([rec], [f]) * t_m = Us^2 + Uc^2
# ---------------------------------------------------------------------------

def single_record_power(rec, f):
    return power_spectrum_estimate([rec], np.array([f])).value[0] * rec.dt * (rec.n - 1)


def test_fourier_of_zero_signal():
    rec = SignalRecord(samples=np.zeros(64), dt=0.1)
    assert single_record_power(rec, 1.0) == 0.0


def test_fourier_of_sinusoid():
    rec = sinusoid_record(amplitude=2.0, f0=1.0)
    power = single_record_power(rec, 1.0)
    omega = 2.0 * np.pi * 1.0
    t_m = rec.dt * (rec.n - 1)
    assert omega * t_m > 100
    # Us = A t_m / 2 to relative 2/(omega t_m) and |Uc| < A/omega
    us, rel = 2.0 * t_m / 2.0, 2.0 / (omega * t_m)
    assert (us * (1.0 - rel)) ** 2 <= power <= (us * (1.0 + rel)) ** 2 + (2.0 / omega) ** 2


def test_fourier_of_constant_signal():
    c, dt, n = 3.0, 1e-3, 2001
    rec = SignalRecord(samples=np.full(n, c), dt=dt)
    f = 0.8
    omega = 2.0 * np.pi * f
    t_m = dt * (n - 1)
    # Us = c (1 - cos w t_m) / w and Uc = c sin(w t_m) / w
    assert single_record_power(rec, f) == pytest.approx(
        2.0 * c ** 2 * (1.0 - math.cos(omega * t_m)) / omega ** 2, rel=1e-5)


# ---------------------------------------------------------------------------
# power_spectrum_estimate
# ---------------------------------------------------------------------------

def test_estimate_of_zero_ensemble():
    recs = [SignalRecord(samples=np.zeros(128), dt=0.5) for _ in range(4)]
    series = power_spectrum_estimate(recs, np.array([0.1, 0.3, 0.9]))
    np.testing.assert_array_equal(series.value, 0.0)


def test_estimate_sinusoid_peak():
    rec = sinusoid_record(amplitude=1.5, f0=1.0)
    series = power_spectrum_estimate([rec], np.array([1.0]))
    assert series.value[0] == pytest.approx(1.5 ** 2 * rec.dt * (rec.n - 1) / 4.0, rel=0.02)


def test_estimate_white_noise_level():
    # flat level sigma^2 * dt for 0 << f << 1/(2 dt), within 3 stderr at 400
    # records (oracle: ensemble simulation; trapezoid sums of iid samples give
    # <us^2 + uc^2> = sigma^2 dt t_m)
    rng = np.random.default_rng(11)
    sigma, dt, n = 1.3, 0.5, 1024
    recs = [SignalRecord(samples=rng.normal(0.0, sigma, size=n), dt=dt)
            for _ in range(400)]
    f = np.array([0.05, 0.1, 0.31, 0.62, 0.9]) / dt / 2.0
    series = power_spectrum_estimate(recs, f)
    for value, err in zip(series.value, series.stderr):
        assert abs(value - sigma ** 2 * dt) < 3.0 * err


def test_estimate_requires_consistent_records():
    recs = [SignalRecord(samples=np.zeros(128), dt=0.5),
            SignalRecord(samples=np.zeros(64), dt=0.5)]
    with pytest.raises(SpectralError):
        power_spectrum_estimate(recs, np.array([0.1]))


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(min_value=-5.0, max_value=5.0), seed=st.integers(0, 2**16))
def test_estimate_scales_quadratically(lam, seed):
    rng = np.random.default_rng(seed)
    rec = SignalRecord(samples=rng.normal(size=256), dt=0.1)
    f = np.array([0.3, 1.1])
    base = power_spectrum_estimate([rec], f).value
    scaled = power_spectrum_estimate(
        [SignalRecord(samples=lam * rec.samples, dt=rec.dt)], f).value
    np.testing.assert_allclose(scaled, lam ** 2 * base, rtol=1e-9, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), n_rec=st.integers(1, 5))
def test_estimate_is_nonnegative(seed, n_rec):
    rng = np.random.default_rng(seed)
    recs = [SignalRecord(samples=rng.normal(size=128), dt=0.2)
            for _ in range(n_rec)]
    series = power_spectrum_estimate(recs, np.linspace(0.05, 2.0, 9))
    assert np.all(series.value >= 0.0)


@pytest.mark.parametrize("dt, scale", [(1e300, 1e10), (1e10, 1e300)])
def test_estimate_overflow_names_dt_and_estimator(dt, scale):
    # S = (Us^2 + Uc^2)/t_m is itself about 1e320 here: no warning, one error
    recs = [SignalRecord(samples=scale * np.cos(np.arange(64.0)), dt=dt) for _ in range(2)]
    with pytest.raises(SpectralError, match=r"^power_spectrum_estimate: .* dt = 1e\+(300|10) s"):
        power_spectrum_estimate(recs, [0.0, 0.1 / dt])


def test_estimate_answers_a_spectrum_at_the_float_limit():
    # S = 1.2e308 per record: their mean is finite, their sum is not
    x = np.cos(np.arange(64.0))
    unit = power_spectrum_estimate([SignalRecord(x, 1.0)], [0.0]).value[0]
    scale = math.sqrt(1.2e308) / math.sqrt(unit)
    series = power_spectrum_estimate([SignalRecord(scale * x, 1.0)] * 3, [0.0])
    assert series.value[0] == pytest.approx(1.2e308, rel=1e-12)
    assert series.stderr[0] == series.value[0] / math.sqrt(3)  # the Gaussian law


@pytest.mark.parametrize("e", [-1000, -990, -600, -200, 200, 600, 980, 990, 996, 1000, 1010])
def test_estimate_scales_exactly_with_a_power_of_two_step(e):
    # with f dt held fixed, S = (dt/(n - 1)) |sum of weighted samples e^{2 pi i
    # f t}|^2 is dt times a sum that does not depend on dt, so dt = 2^e scales
    # S and its stderr by exactly 2^e, also where Us^2 = (dt A)^2 itself would
    # leave the float range (e = -600, 600, 980 were once refused), and where
    # 2^27 times a time or a frequency overflows (e = 990 ... 1010 and -1000
    # were once off by 1.6e-13, as the phase reduction's splits overflowed)
    recs = [synthesize_power_law_noise(1.0, 1024, 1.0, seed=s) for s in range(4)]
    f = np.logspace(np.log10(10.0 / 1023), np.log10(0.25), 60)
    base, dt = power_spectrum_estimate(recs, f), 2.0 ** e
    scaled = power_spectrum_estimate([SignalRecord(rec.samples, dt) for rec in recs], f / dt)
    assert np.array_equal(scaled.value / dt, base.value)
    assert np.array_equal(scaled.stderr / dt, base.stderr)


@pytest.mark.parametrize("f", [math.inf, math.nan, -1.0])
def test_estimate_rejects_bad_frequencies(f):
    with pytest.raises(SpectralError, match="frequencies must be finite and nonnegative"):
        power_spectrum_estimate([sinusoid_record(n=16)], [0.0, f])


# ---------------------------------------------------------------------------
# sigma_spectrum
# ---------------------------------------------------------------------------

def test_sigma_log_law_reference_point():
    cov = CovarianceModel(kind="log-law", tau0=1.0, a_cov=1.0)
    sigma = sigma_spectrum(cov, f=1e-3, t_m=1e6)
    assert sigma == pytest.approx(-1000.0, rel=0.02)


def test_sigma_log_law_exact_corner():
    # exact transform of ln(a + (tau/tau0)^2): -(1/f) exp(-2 pi f tau0 sqrt(a))
    cov = CovarianceModel(kind="log-law", tau0=1.0, a_cov=1.0)
    for f in (1e-3, 1e-2):
        sigma = sigma_spectrum(cov, f=f, t_m=200.0 / f)
        target = -math.exp(-2.0 * math.pi * f) / f
        assert sigma == pytest.approx(target, rel=0.01), f


def test_sigma_exponential_is_lorentzian():
    tau0 = 2.0
    cov = CovarianceModel(kind="exponential", tau0=tau0)
    for f in (0.02, 0.1, 0.5):
        omega = 2.0 * np.pi * f
        target = 2.0 * tau0 / (1.0 + (omega * tau0) ** 2)
        assert sigma_spectrum(cov, f=f, t_m=400.0 / f) == pytest.approx(target, rel=0.01)


# Sigma(f) of S = exp(-|tau|/tau0) at f t_m = 1e2, 1e4 and 1e6, the exact
# finite-time value Re sum_{+-} [-1/z + (e^{zT} - 1)/(z^2 T)] with
# z = -1/tau0 +- i omega and T = t_m, from 40-digit mpmath at the double t_m
# and rounded to double
SIGMA_EXP_FINITE_TIME = {  # (tau0, f): values at the three f t_m
    (1.0, 0.05): (1.8195930268634748, 1.8203322088082599, 1.8203396006277077),
    (1.0, 1.0): (0.04987872398602317, 0.04941374284293836, 0.04940909303150751),
    (2.0, 0.05): (2.8665828120726338, 2.8678147574073214, 2.867827076860668),
    (2.0, 1.0): (0.025667981573342817, 0.025175870150951216, 0.0251709490367273),
}


@pytest.mark.parametrize("tau0, f", list(SIGMA_EXP_FINITE_TIME))
def test_sigma_exponential_against_its_exact_finite_time_value(tau0, f):
    cov = CovarianceModel(kind="exponential", tau0=tau0)
    for ft, exact in zip((1e2, 1e4, 1e6), SIGMA_EXP_FINITE_TIME[tau0, f]):
        assert sigma_spectrum(cov, f=f, t_m=ft / f) == pytest.approx(exact, rel=1e-12), ft


def test_sigma_constant_covariance_vanishes():
    # both finite integrals reduce to boundary terms that cancel up to
    # 2c(1 - cos(omega t_m))/(omega^2 t_m), which vanishes as t_m grows
    c = 4.0
    cov = user_covariance(lambda tau: np.full_like(tau, c))
    f = 0.1
    omega = 2.0 * math.pi * f
    for t_m in (1e3, 1e4, 1e5):
        bound = 4.0 * c / (omega ** 2 * t_m) + 1e-6 * c
        assert abs(sigma_spectrum(cov, f=f, t_m=t_m)) < bound


@pytest.mark.parametrize("ft", [1e3, 1e4, 1e5, 1e6, 1e9, 1e12])
def test_sigma_log_law_remainder_at_long_times(ft):
    # the finite-time remainder is O(1/(f t_m)), about 3.1/(f t_m) at 1e12, so
    # 1.9e-12 is left for quadrature error there; phase roundoff in omega*tau
    # once left a 3.8e-4 error at f t_m = 1e6
    cov = CovarianceModel(kind="log-law", tau0=1.0, a_cov=1.0)
    f = 0.01
    target = -math.exp(-2.0 * math.pi * f) / f
    assert sigma_spectrum(cov, f=f, t_m=ft / f) == pytest.approx(target, rel=5.0 / ft)


def test_sigma_preconditions():
    cov = CovarianceModel(kind="exponential", tau0=1.0)
    with pytest.raises(SpectralError):
        sigma_spectrum(cov, f=0.0, t_m=1e4)
    with pytest.raises(SpectralError) as err:
        sigma_spectrum(cov, f=1e-3, t_m=10.0)
    assert "t_m" in str(err.value)  # names the required measurement time


def test_sigma_with_underflowing_inner_scale_terminates():
    # tau0 * 1e-4 rounds to 0.0, which once made the edge refinement loop forever
    cov = user_covariance(lambda tau: np.exp(-np.abs(tau)), tau0=1e-321)
    ref = CovarianceModel(kind="exponential", tau0=1.0)
    assert sigma_spectrum(cov, f=0.1, t_m=1e3) == pytest.approx(
        sigma_spectrum(ref, f=0.1, t_m=1e3), rel=1e-12)


def test_covariance_model_validation():
    with pytest.raises(SpectralError):
        CovarianceModel(kind="log-law", tau0=-1.0)
    with pytest.raises(SpectralError):
        CovarianceModel(kind="log-law", tau0=1.0, a_cov=0.0)
    for kind in ("nonsense", "user-function"):
        with pytest.raises(SpectralError):
            CovarianceModel(kind=kind, tau0=1.0)


def bumped_exponential(tau):
    # exp(-|tau|) with a one-period-wide bump at |tau| = 300 periods (f = 1),
    # well inside the first Chebyshev panels, which must split to resolve it
    a = np.abs(tau)
    return np.exp(-a) + 100.0 * np.exp(-0.5 * (a - 300.0) ** 2)


def test_sigma_resolves_structure_past_the_gauss_periods():
    # reference: one Gauss panel per period over all 1e4 periods
    cov = user_covariance(bumped_exponential)
    assert sigma_spectrum(cov, f=1.0, t_m=1e4) == pytest.approx(0.04941504379804959, rel=1e-10)


# ---------------------------------------------------------------------------
# wk_identity_check / sign kernel
# ---------------------------------------------------------------------------

def test_wk_identity_reference_point():
    res = wk_identity_check(omega=1.0, t_m=1e4)
    assert res.target == pytest.approx(-math.pi)
    assert res.difference == pytest.approx(-math.pi, rel=0.01)


def test_wk_identity_frequency_scaling():
    # substitution tau -> tau/omega maps (omega, t_m) to (1, omega*t_m)/omega
    # up to O(1/t_m) boundary terms
    omega, t_m = 2.0, 5e3
    res = wk_identity_check(omega=omega, t_m=t_m)
    ref = wk_identity_check(omega=1.0, t_m=omega * t_m)
    assert res.difference == pytest.approx(ref.difference / omega, rel=1e-3)


def test_wk_identity_error_decays_as_inverse_time():
    # error(2 t_m)/error(t_m) averaged over 5 frequencies; omega*t_m is kept
    # at multiples of 2 pi so the oscillatory ln(t_m) cos(omega t_m) factor is
    # sampled at its crest rather than near a zero crossing
    t_m = 1000.0
    ratios = []
    for k in (100, 150, 200, 250, 300):
        omega = 2.0 * math.pi * k / t_m
        e1 = abs(wk_identity_check(omega, t_m).difference + math.pi / omega)
        e2 = abs(wk_identity_check(omega, 2.0 * t_m).difference + math.pi / omega)
        ratios.append(e2 / e1)
    assert 0.3 <= np.mean(ratios) <= 0.7


# lhs1 - lhs2 at omega = 1 from the closed forms
#   lhs1 = 2 (sin T ln T - Si(T))
#   lhs2 = (2/T) (T ln T sin T + (ln T + 1) cos T - Ci(T) + gamma - 1),
# evaluated with 50-digit mpmath at the double T and rounded to double
WK_DIFFERENCE = {
    1e3: -3.148513334854977,
    1e4: -3.1397541739359016,
    1e5: -3.1413540865590126,
    2.0 * math.pi * 1e12: -3.141592653599039,
}


@pytest.mark.parametrize("t_m", [1e3, 1e4, 1e5])
def test_wk_identity_against_closed_form(t_m):
    # one Gauss panel per period once left 2.1e-10 relative at t_m = 1e5
    assert wk_identity_check(1.0, t_m).difference == pytest.approx(WK_DIFFERENCE[t_m], rel=1e-12)


@pytest.mark.parametrize("s, w, b, head", [
    # int_0^b tau^s ln(tau) e^{i w tau} dtau from 60-digit mpmath (quad and an
    # 80-term series agree), rounded to double
    (0, 1.0, math.pi / 4, -0.9297877596263165 - 0.22105546499420287j),
    (1, 1.0, math.pi / 4, -0.2059930895248047 - 0.08852564273421396j),
    (0, 1.0, 1e-3, -0.007907754072134095 - 3.7038773412512754e-06j),
    (1, 1.0, 1e-3, -3.7038767447717077e-06 - 2.413695967179989e-09j),
    (0, 3.0, 0.2, -0.49896193775353764 - 0.12325741047039171j),
    (1, 3.0, 0.2, -0.03890515065229625 - 0.015027498043881019j),
])
def test_log_head_series(s, w, b, head):
    assert _log_head(s, w, b, 1.0) == pytest.approx(head, rel=4e-16, abs=0.0)


def test_sign_function_transform_closed_form():
    omega, t_m = 1.0, 10.0
    result = sign_function_transform(omega, t_m)
    target = 2j * (1.0 - math.cos(omega * t_m)) / omega
    assert abs(result - target) <= 1e-10 * abs(target)


# 2 pi to 40 digits: a phase reduced with it is exact to 1e-40 * omega * t_m
TWO_PI = Fraction("6.283185307179586476925286766559005768394")


def sign_transform_target(omega, t_m):
    """2i (1 - cos(omega t_m)) / omega, with omega*t_m reduced mod 2 pi exactly.

    In double precision omega*t_m carries an error of eps*omega*t_m, 1e-6 rad
    at f t_m = 1e9, which moves the closed form by far more than 1e-9.
    """
    x = Fraction(abs(omega)) * Fraction(t_m)
    phase = float(x - TWO_PI * math.floor(x / TWO_PI))
    return 4j * math.sin(0.5 * phase) ** 2 / omega


@pytest.mark.parametrize("omega, t_m", [(1.3, 1e5), (1.3, 1e6), (-1.3, 1e5),
                                        (1.3, 5e9), (1.3, 5e12), (-1.3, 5e12)])
def test_sign_function_transform_at_long_times(omega, t_m):
    # f t_m up to 1.03e12
    target = sign_transform_target(omega, t_m)
    assert abs(sign_function_transform(omega, t_m) - target) <= 1e-9 * abs(target)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0])
@pytest.mark.parametrize("kernel", [
    lambda v: sigma_spectrum(CovarianceModel(kind="log-law"), v, 10.0),
    lambda v: wk_identity_check(v, 10.0),
    lambda v: sign_function_transform(v, 10.0),
], ids=["sigma_spectrum", "wk_identity_check", "sign_function_transform"])
def test_kernels_reject_non_finite_frequency(kernel, value):
    # wk_identity_check(0, 10) must not reach its 2 pi/|omega| as a ZeroDivisionError
    with pytest.raises(SpectralError, match="finite"):
        kernel(value)


@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("kernel", [
    lambda v: sigma_spectrum(CovarianceModel(kind="log-law"), 0.01, v),
    lambda v: wk_identity_check(1.0, v),
    lambda v: sign_function_transform(1.0, v),
], ids=["sigma_spectrum", "wk_identity_check", "sign_function_transform"])
def test_kernels_reject_non_finite_t_m(kernel, value):
    # named as an invalid t_m, not reported as a panel count over the budget
    with pytest.raises(SpectralError, match="finite t_m|t_m must be finite") as err:
        kernel(value)
    assert "quadrature panels" not in str(err.value)


@pytest.mark.parametrize("kernel", [wk_identity_check, sign_function_transform])
def test_kernels_reject_an_omega_whose_period_overflows(kernel):
    # 2 pi/omega is inf below omega = 3.5e-308: this was an OverflowError
    # traceback from the phase reduction, not an input error
    with pytest.raises(SpectralError, match=r"^omega=1e-308 rad/s, t_m=10 s: .* 2 pi/\|omega\| "
                                            r"and omega\*t_m do not overflow$"):
        kernel(1e-308, 10.0)


# omega*t_m at 2^53 periods, the kernels' ceiling
EDGE = 2.0 * math.pi * 2.0 ** 53
# powers of two, so that omega*t_m = x is exact and the references are exact
SWEEP_OMEGAS = (1.0, -1.0, 2.0 ** -960, 2.0 ** 1000, 2.0 ** 1023)
# (omega, t_m, answered): x = 1e3 and just below the ceiling are answered; the
# ceiling, x = 1e20, a subnormal t_m and an omega whose period overflows are not
SWEEP = ([(w, x / abs(w), True) for w in SWEEP_OMEGAS for x in (1e3, EDGE * (1.0 - 2.0 ** -20))]
         + [(w, 2.0 ** -1022, True) for w in SWEEP_OMEGAS]
         + [(w, x / abs(w), False) for w in SWEEP_OMEGAS for x in (EDGE, 1e20)]
         + [(w, t, False) for w in SWEEP_OMEGAS for t in (5e-324, 1e-323, 2.0 ** -1040)]
         + [(2.0 ** -1022, t, False) for t in (1.0, 1e300)])


def sign_sweep(omega, t_m):
    """The sign kernel and its closed form, to 1e-9 of its largest value 4/|omega|."""
    value = sign_function_transform(omega, t_m)
    return value, 2j * (1.0 - math.cos(abs(omega) * t_m)) / omega, 4e-9 / abs(omega)


# D(2) = wk(1, 2).difference from the same closed forms as WK_DIFFERENCE,
# for 2^1023 rad/s at the smallest normal t_m
WK_SWEEP_FROZEN = {**WK_DIFFERENCE, 2.0: -1.660462946733323}


def wk_sweep(omega, t_m):
    """The wk difference and its value from D(x) = wk(1, x).difference at
    x = |omega| t_m: (D(x) + 2 ln|omega| (cos x - 1)/x)/|omega|, by the
    substitution tau -> tau/|omega|.  For small x it is t_m (ln t_m - 3/2) up
    to O(x^2) relative; D(x) is frozen at x = 2 and at WK_DIFFERENCE's t_m,
    and elsewhere is -pi within (2 ln x + 5)/x."""
    value, w, x = wk_identity_check(omega, t_m).difference, abs(omega), abs(omega) * t_m
    if x < 1e-6:
        target, remainder = t_m * (math.log(t_m) - 1.5), 0.0
    else:
        frozen = WK_SWEEP_FROZEN.get(x)
        d = -math.pi if frozen is None else frozen
        target = (d + 2.0 * math.log(w) * (math.cos(x) - 1.0) / x) / w
        remainder = 0.0 if frozen is not None else (2.0 * math.log(x) + 5.0) / (x * w)
    return value, target, 1e-9 * abs(target) + remainder


def sigma_sweep(omega, t_m):
    """The log-law Sigma with tau0 = 1/|omega| and its limit -e^{-1}/|f|,
    within the O(1/(f t_m)) remainder."""
    f = omega / (2.0 * math.pi)
    target = -math.exp(-1.0) / abs(f)
    value = sigma_spectrum(CovarianceModel(kind="log-law", tau0=1.0 / abs(omega)), f, t_m)
    return value, target, (5.0 / abs(f * t_m) + 1e-9) * abs(target)


@pytest.mark.parametrize("kernel", [sign_sweep, wk_sweep, sigma_sweep])
@pytest.mark.parametrize("omega, t_m, answered", SWEEP,
                         ids=[f"{w:g},{t:.17g}" for w, t, _ in SWEEP])
def test_kernel_edge_sweep(kernel, omega, t_m, answered):
    # past 2^53 periods sign_function_transform(1, 1e18) once returned 11.47
    # (truly 1.76), and wk_identity_check(1, 5e-324) ended in a ValueError;
    # Sigma also refuses omega*t_m < 100
    if kernel is sigma_sweep and abs(omega) * t_m < 100.0:
        answered = False
    if not answered:
        with pytest.raises(SpectralError) as err:
            kernel(omega, t_m)
        names = [f"omega={omega:g} rad/s", f"f={omega / (2.0 * math.pi):g} Hz"]
        assert f"t_m={t_m:g} s" in str(err.value)
        assert any(name in str(err.value) for name in names)
        return
    value, target, tolerance = kernel(omega, t_m)
    assert abs(value - target) <= tolerance


def not_finite_user_function(tau):
    return np.where(np.abs(tau) > 50.0, np.nan, np.exp(-np.abs(tau)))


@pytest.mark.parametrize("kernel, args, names", [
    (sigma_spectrum, (user_covariance(not_finite_user_function), 1.0, 200.0),
     ["f=1 Hz", "t_m=200 s"]),
    (sigma_spectrum, (CovarianceModel(kind="log-law"), 1e-306, 1e308),
     ["Sigma(f) is not finite", "f=1e-306 Hz", "t_m=1e+308 s"]),
    (wk_identity_check, (1.0, 1e307), ["omega=1 rad/s", "t_m=1e+307 s"]),
    # 1.6 periods, but lhs1 ~ 2 ln(t_m) sin(omega t_m)/omega, and the ln(tau)
    # row's head b (ln b - 1) already, pass the float range
    (wk_identity_check, (1e-307, 1e308),
     ["integrals overflow", "omega=1e-307 rad/s", "t_m=1e+308 s"]),
    (sign_function_transform, (1e300, 1e300), ["omega=1e+300 rad/s", "t_m=1e+300 s"]),
], ids=["nan-user-function", "log-law-huge-t_m", "wk-huge-t_m", "wk-head-overflow",
        "sign-omega-t_m-overflow"])
def test_kernels_reject_non_finite_results(kernel, args, names):
    # these once returned nan, with overflow warnings for the log-law
    with pytest.raises(SpectralError) as err:
        kernel(*args)
    for name in names:
        assert name in str(err.value)


@pytest.mark.parametrize("call, message", [
    (lambda: SignalRecord(samples=[1.0], dt=0.5), "a signal record needs at least 2 samples"),
    (lambda: SignalRecord(samples=np.zeros((2, 2)), dt=0.5),
     "a signal record needs at least 2 samples"),
    (lambda: SignalRecord(samples=[0.0, math.nan], dt=0.5), "signal samples must be finite"),
    (lambda: SignalRecord(samples=[0.0, 1.0], dt=0.0),
     "sampling step must be finite and positive, got 0.0"),
    (lambda: SignalRecord(samples=[0.0, 1.0], dt=math.inf),
     "sampling step must be finite and positive, got inf"),
    (lambda: power_spectrum_estimate([], [0.1]), "ensemble must contain at least one record"),
    # S(tau) = tau e^{-|tau|} is odd: Sigma(f) is imaginary
    (lambda: sigma_spectrum(user_covariance(lambda tau: tau * np.exp(-np.abs(tau))), 1.0, 200.0),
     r"Sigma\(f\) at f=1 Hz, t_m=200 s has an imaginary part .* the covariance is not even"),
    # 100/|omega| overflows below f = 1.6e-307: both of these once read
    # "need a finite t_m >= inf s", a bound no input can meet
    (lambda: sigma_spectrum(CovarianceModel(kind="log-law"), 5e-309, 1e300),
     r"omega=3\.14159e-308 rad/s, t_m=1e\+300 s: need a finite omega != 0 .*"),
    (lambda: sigma_spectrum(CovarianceModel(kind="log-law"), 1e-308, 1e300),
     r"t_m=1e\+300 s too small for f=1e-308 Hz; need 2 pi \|f\| t_m >= 100"),
], ids=["one-sample", "two-dimensional", "nan-sample", "zero-dt", "infinite-dt",
        "empty-ensemble", "odd-covariance", "sigma-period-overflows", "sigma-tiny-f"])
def test_records_estimator_and_sigma_refuse_by_message(call, message):
    with pytest.raises(SpectralError, match=f"^{message}$"):
        call()


def test_log_law_far_beyond_tau0_is_finite():
    # |tau/tau0| reaches 2e162 here, where (tau/tau0)^2 overflows; this once
    # raised SpectralError although the covariance is finite on [-t_m, t_m]
    f, t_m, tau0, a = 1.0, 200.0, 1e-160, 1.0
    sigma = sigma_spectrum(CovarianceModel(kind="log-law", tau0=tau0, a_cov=a), f, t_m)
    exact = -math.exp(-2.0 * math.pi * f * tau0 * math.sqrt(a)) / f
    assert abs(sigma - exact) <= 5.0 / (f * t_m)


def test_log_law_evaluate_without_overflow():
    cov = CovarianceModel(kind="log-law", tau0=2.0, a_cov=3.0)
    tau = 2.0 * np.geomspace(1e-10, 1.3e154, 2001)
    direct = np.log(3.0 + (tau / 2.0) ** 2)   # finite over this whole range
    got = cov.evaluate(np.concatenate([tau, -tau]))
    assert np.all(np.abs(got - np.tile(direct, 2)) <= 4 * np.tile(np.spacing(direct), 2))
    below = tau <= 2e150   # the direct formula itself is used up to r = 1e150
    assert np.array_equal(got[:tau.size][below], direct[below])
    # r^2, and r itself, overflow here; ln(a + r^2) = 2 ln r to double precision
    tiny = CovarianceModel(kind="log-law", tau0=1e-300, a_cov=3.0)
    assert tiny.evaluate(np.array([1e300]))[0] == pytest.approx(4.0 * math.log(1e300),
                                                               rel=4e-16)


# ---------------------------------------------------------------------------
# estimator blocks, and kernel cost at large f * t_m
# ---------------------------------------------------------------------------

def estimate_values():
    rng = np.random.default_rng(3)
    recs = [SignalRecord(samples=rng.normal(size=1024), dt=0.5) for _ in range(3)]
    psd = power_spectrum_estimate(recs, np.linspace(0.01, 0.9, 9))
    return np.concatenate([psd.value, psd.stderr])


@pytest.mark.parametrize("samples", [100, 10 ** 9])
def test_block_size_does_not_change_estimate(monkeypatch, samples):
    # 100 samples leave a ragged last block; 10**9 takes the record at once
    reference = estimate_values()
    monkeypatch.setattr(spectral, "_SAMPLES_PER_BLOCK", samples)
    np.testing.assert_allclose(estimate_values(), reference, rtol=1e-12, atol=0.0)


def exact_phase_estimate(samples, dt, cycles, den):
    """Ensemble mean of (Us^2 + Uc^2)/t_m by direct cos/sin sums at
    f = cycles/(den dt), den a power of two: the phase 2 pi f t_j is taken
    from the exact residue cycles * j mod den, so it is right to one ulp."""
    n = samples.shape[1]
    j = np.arange(n)
    x = dt * samples
    x[:, [0, -1]] *= 0.5  # trapezoid weights
    out = []
    for c in cycles:
        phase = 2.0 * math.pi * ((int(c) * j) % den) / den
        out.append(np.mean(((x @ np.sin(phase)) ** 2 + (x @ np.cos(phase)) ** 2) / (dt * (n - 1))))
    return np.array(out)


@pytest.mark.parametrize("n", [40, 100, 5000, 2 ** 16])
def test_factored_phase_table_matches_direct_trig(n):
    # 40 samples fit in one row of the table, 100 leave a ragged last row,
    # 5000 a ragged last block of 904 and 2^16 take 16 blocks; f = 0 and
    # f = 1/(2 dt) are the grid's ends
    rng = np.random.default_rng(n)
    dt, den = 0.25, 2 ** 20
    samples = rng.standard_normal((3, n))
    cycles = np.unique(np.concatenate([[0, den // 2], rng.integers(1, den // 2, 30)]))
    recs = [SignalRecord(samples=row, dt=dt) for row in samples]
    got = power_spectrum_estimate(recs, cycles / (den * dt)).value
    np.testing.assert_allclose(got, exact_phase_estimate(samples, dt, cycles, den),
                               rtol=1e-12, atol=0.0)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is plain double here")
def test_block_rotation_is_reduced_without_rounding_the_cycles():
    # the last of 16 blocks at n = 2^16 starts 1.5e4 cycles in at f = 0.25/dt,
    # and the phase table reaches 1e3 cycles; rounding f * t before taking the
    # whole cycles off left 1.4e-13 (dt = 1) and 3.7e-13 (dt = 0.1) against an
    # extended-precision direct sum, the exact reduction about 3e-15
    n = 2 ** 16
    ld = np.longdouble
    two_pi = 8 * np.arctan(ld(1))
    for dt in (1.0, 0.1):
        recs = [synthesize_power_law_noise(1.0, n, dt, seed=s) for s in range(8)]
        f = np.logspace(np.log10(10.0 / ((n - 1) * dt)), np.log10(0.25 / dt), 16)
        t = np.arange(n).astype(ld) * ld(dt)
        x = np.stack([r.samples for r in recs]).astype(ld) * ld(dt)
        x[:, [0, -1]] *= 0.5  # trapezoid weights
        want = []
        for fj in f:
            cycles = ld(fj) * t
            phase = two_pi * (cycles - np.round(cycles))
            power = (x @ np.sin(phase)) ** 2 + (x @ np.cos(phase)) ** 2
            want.append(np.mean(power) / ld(dt * (n - 1)))
        got = power_spectrum_estimate(recs, f).value
        assert float(np.max(np.abs(got / np.array(want) - 1))) < 2e-14, dt


def traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, limit_mb", [(2 ** 12, 5.13), (2 ** 16, 5.64)])
def test_estimate_peak_memory(n, limit_mb):
    # the limits are the peaks of a full-size cos and sin phase table taken
    # with one trig call per entry, and a per-sample weight array
    recs = [synthesize_power_law_noise(1.0, n, 1.0, seed=s) for s in range(32)]
    f = np.logspace(np.log10(10.0 / (n - 1)), np.log10(0.25), 60)
    assert traced_peak_mb(power_spectrum_estimate, recs, f) <= limit_mb


@pytest.mark.parametrize("ft, limit_mb", [(1e5, 16.0), (1e6, 16.0)])
def test_sigma_peak_memory_is_bounded(ft, limit_mb):
    # all panels at once needed 239 MB at f*t_m = 1e5 and 2.5 GB at 1e6;
    # per-period edge arrays alone still took 25 MB at 1e6
    cov = CovarianceModel(kind="log-law", tau0=1.0, a_cov=1.0)
    assert traced_peak_mb(sigma_spectrum, cov, 0.01, ft / 0.01) < limit_mb


@pytest.mark.parametrize("kernel, args, value, target, rel", [
    # Sigma(f) against its t_m -> infinity value: the remainder is about 3.1e-12
    (sigma_spectrum, (CovarianceModel(kind="log-law"), 0.01, 1e14), lambda v: v,
     -math.exp(-0.02 * math.pi) / 0.01, 5e-12),
    (wk_identity_check, (1.0, 2.0 * math.pi * 1e12), lambda r: r.difference,
     WK_DIFFERENCE[2.0 * math.pi * 1e12], 1e-12),
    (sign_function_transform, (2.0 * math.pi, 1e12 + 0.25), lambda v: v,
     sign_transform_target(2.0 * math.pi, 1e12 + 0.25), 1e-9),
], ids=["sigma_spectrum", "wk_identity_check", "sign_function_transform"])
def test_kernels_at_f_t_m_1e12(kernel, args, value, target, rel):
    # f*t_m = 1e12 was rejected by a 5e6-panel work budget: one Gauss panel per
    # period would take about a week (0.65 s per 1e6 periods on a 2-vCPU x86-64)
    start = time.perf_counter()
    result = kernel(*args)
    elapsed = time.perf_counter() - start
    assert abs(value(result) - target) <= rel * abs(target)
    assert elapsed < 1.0
    assert traced_peak_mb(kernel, *args) < 1.0


def unresolved_covariance(tau):
    # oscillates near f = 1 without decaying on the scale of 8 periods, so
    # every doubling panel splits down to one Gauss panel per period
    return np.exp(-np.abs(tau) / 1e4) * np.cos(5.0 * tau)


def test_work_budget_stops_an_unresolved_covariance(monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_PANELS", 10_000)
    cov = user_covariance(unresolved_covariance)
    with pytest.raises(SpectralError, match="work budget") as err:
        sigma_spectrum(cov, 1.0, 1e5)
    for name in ("omega=6.28319 rad/s", "t_m=100000 s", "10,000"):
        assert name in str(err.value)


def test_work_budget_admits_an_unresolved_covariance_below_it():
    # about 1.3e5 panels, against the elementary finite-time value (mpmath, 40
    # digits): with S = e^{-|tau|/1e4} cos 5 tau, omega = 2 pi and T = 1e5,
    #   Sigma = Re sum_{+-} [-1/z + (e^{zT} - 1)/(z^2 T)],  z = -1e-4 + i(2 pi +- 5).
    # The bound is the eps max|g| P rounding of each one-period (P = 1 s) Gauss
    # panel over the two windowed half-rows (1 - tau/T)(S(tau) +- S(-tau))/2,
    # whose max|g| is at most 1 each, summed over the panels; the value cancels
    # from terms near 0.78, so the rounding is absolute, not relative to it
    cov = user_covariance(unresolved_covariance)
    bound = 1.3e5 * np.finfo(float).eps * 2
    assert sigma_spectrum(cov, 1.0, 1e5) == pytest.approx(6.767006825143266e-05,
                                                          rel=0, abs=bound)


def test_smooth_covariance_stays_far_below_the_work_budget(monkeypatch):
    # the log-law at f t_m = 1e12 needs under 100 panels, 5e4 times fewer
    # than the budget
    cov, target = CovarianceModel(kind="log-law"), -math.exp(-0.02 * math.pi) / 0.01
    monkeypatch.setattr(spectral, "_MAX_PANELS", 100)
    assert sigma_spectrum(cov, 0.01, 1e14) == pytest.approx(target, rel=5e-12)
    monkeypatch.setattr(spectral, "_MAX_PANELS", 20)  # Chebyshev panels count too
    with pytest.raises(SpectralError, match="work budget"):
        sigma_spectrum(cov, 0.01, 1e14)


# ---------------------------------------------------------------------------
# synthesize_power_law_noise
# ---------------------------------------------------------------------------

def test_synthesis_is_deterministic():
    a = synthesize_power_law_noise(1.0, 1024, 0.5, seed=42)
    b = synthesize_power_law_noise(1.0, 1024, 0.5, seed=42)
    np.testing.assert_array_equal(a.samples, b.samples)
    c = synthesize_power_law_noise(1.0, 1024, 0.5, seed=43)
    assert not np.array_equal(a.samples, c.samples)


def test_synthesis_white_variance():
    rec = synthesize_power_law_noise(0.0, 2 ** 16, 1.0, seed=5)
    assert np.var(rec.samples) == pytest.approx(1.0, rel=0.05)


def test_synthesis_validation():
    with pytest.raises(SpectralError):
        synthesize_power_law_noise(-0.5, 1024, 1.0, seed=0)
    with pytest.raises(SpectralError):
        synthesize_power_law_noise(2.5, 1024, 1.0, seed=0)
    with pytest.raises(SpectralError):
        synthesize_power_law_noise(1.0, 1000, 1.0, seed=0)  # not a power of two


@pytest.mark.parametrize("dt", [math.inf, math.nan])
def test_synthesis_rejects_non_finite_inputs_by_name(dt):
    # dt=inf once ended in "signal samples must be finite" after an irfft warning
    with pytest.raises(SpectralError, match="^dt must be finite"):
        synthesize_power_law_noise(1.0, 1024, dt, seed=0)


def fitted_slope(gamma, n_seeds=100, n=2048, dt=1.0):
    recs = [synthesize_power_law_noise(gamma, n, dt, seed=s) for s in range(n_seeds)]
    t_m = dt * (n - 1)
    f = np.logspace(np.log10(20.0 / t_m), np.log10(0.2 / dt), 25)
    series = power_spectrum_estimate(recs, f)
    coeffs = np.polyfit(np.log(f), np.log(series.value), 1)
    return coeffs[0]


def test_pink_noise_pipeline_recovers_slope():
    assert fitted_slope(1.0) == pytest.approx(-1.0, abs=0.05)


def test_synthesis_scales_to_the_expected_variance():
    # Parseval: the profile's expected mean square is 1; each record's own
    # variance scatters about it instead of equalling it
    n = 1024
    profile = spectral._amplitude_profile(1.0, n)
    sd = profile[::2]  # per bin; the imaginary parts equal it but at the real Nyquist bin
    np.testing.assert_array_equal(profile[1::2], np.append(sd[:-1], 0.0))
    assert sd[0] == 0.0
    power = 2.0 * sd[1:] ** 2  # E|X_k|^2, real and imaginary part
    power[-1] = sd[-1] ** 2    # the Nyquist bin has a real part only
    np.testing.assert_allclose(power * np.arange(1, n // 2 + 1), power[0], rtol=1e-13)
    assert (4.0 * np.sum(sd[1:-1] ** 2) + sd[-1] ** 2) / n ** 2 == pytest.approx(1.0, rel=1e-12)
    mean_square = np.array([np.mean(synthesize_power_law_noise(1.0, n, 0.5, seed=s).samples ** 2)
                            for s in range(400)])
    assert abs(mean_square.mean() - 1.0) < 3.0 * mean_square.std() / math.sqrt(400)
    assert mean_square.std() > 0.1


@pytest.mark.parametrize("n", [2, 4, 1024, 2 ** 16])
@pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0])
def test_synthesis_matches_the_per_bin_profile_bit_for_bit(gamma, n):
    # the draws as (bins, real and imaginary part), scaled by a per-bin
    # profile broadcast over the pair, the Nyquist bin's imaginary part zeroed
    sd = np.zeros(n // 2 + 1)
    sd[1:] = np.arange(1, n // 2 + 1) ** (-gamma / 2.0)
    sd[-1] *= math.sqrt(2.0)
    sd *= math.sqrt(1.0 / ((4.0 * np.sum(sd[1:-1] ** 2) + sd[-1] ** 2) / n ** 2))
    spectrum = np.empty(n // 2 + 1, dtype=complex)
    parts = spectrum.view(float).reshape(-1, 2)
    np.random.default_rng(7).standard_normal(out=parts)
    parts *= sd[:, None]
    parts[-1, 1] = 0.0
    record = synthesize_power_law_noise(gamma, n, 0.5, seed=7)
    assert record.samples.tobytes() == np.fft.irfft(spectrum, n=n).tobytes()


def test_white_synthesis_is_flat_up_to_the_nyquist_bin():
    # mean |X_k|^2 over 4000 records is within 10% (about 4 standard errors
    # at the Nyquist bin) of the same level on every bin but DC
    x = np.stack([synthesize_power_law_noise(0.0, 16, 1.0, seed=s).samples
                  for s in range(4000)])
    power = np.mean(np.abs(np.fft.rfft(x, axis=1)) ** 2, axis=0)
    assert power[0] < 1e-20
    np.testing.assert_allclose(power[1:], 16.0 ** 2 / 15.0, rtol=0.1)


def test_synthesis_keeps_one_read_only_profile():
    spectral._amplitude_profile.cache_clear()
    for s in range(32):  # one ensemble, one key
        synthesize_power_law_noise(1.0, 256, 1.0, seed=s)
    assert spectral._amplitude_profile.cache_info().hits == 31
    profile = spectral._amplitude_profile(1.0, 256)
    with pytest.raises(ValueError):
        profile[1] = 0.0
    synthesize_power_law_noise(0.5, 512, 1.0, seed=0)
    assert spectral._amplitude_profile.cache_info().currsize == 1


def expected_periodogram(gamma, n, dt, f):
    """E[(Us^2 + Uc^2)/t_m] of the unit-variance synthesis: sum_k sigma_k^2
    |K(f - f_k)|^2 over the full spectrum, with K(nu) = sum_j w_j e^{2 pi i nu t_j}
    the trapezoid-weighted DFT kernel, E|X_k|^2 ~ |k|^-gamma and DC 0."""
    k = np.arange(n)
    power = np.zeros(n)
    power[1:] = np.minimum(k, n - k)[1:] ** -gamma
    power *= n ** 2 / power.sum()  # Parseval: unit expected variance
    w = np.full(n, dt)
    w[[0, -1]] = dt / 2.0
    kernel = np.fft.fft(w * np.exp(2j * math.pi * np.outer(f, k * dt)), axis=1)
    return np.abs(kernel) ** 2 @ power / (n ** 2 * dt * (n - 1))


def test_stderr_covers_the_expected_periodogram():
    # Gaussian amplitudes make each record's periodogram exponential about
    # E[P(f)] (S chi^2_2 / 2), on a Fourier bin and between two alike, so
    # stderr = S/sqrt(records) and |mean - E[P]| <= 2 stderr holds at the
    # rate it holds for the mean of as many exponential draws: 0.94 at 32
    # records and 0.80 at 2, where a bar from the records' own scatter held
    # at 0.63.  The uniform-phase synthesis this replaced gave a periodogram
    # scatter of 0.006 S on a bin and 0.15 S half a bin off.
    n, dt = 1024, 1.0
    bins = np.unique(np.round(np.geomspace(10, n // 4, 30)))
    f = (bins[:, None] + [0.0, 0.5]).ravel() / (n * dt)  # on a bin, then half a bin off
    for records, groups, first_seed in ((32, 10, 0), (2, 20, 10_000)):
        means = np.random.default_rng(0).exponential(size=(100_000, records)).mean(axis=1)
        rate = np.mean(np.abs(means - 1.0) <= 2.0 * means / math.sqrt(records))
        hits = []
        for gamma in (0.5, 1.0, 2.0):
            expected = expected_periodogram(gamma, n, dt, f)
            for group in range(groups):
                recs = [synthesize_power_law_noise(gamma, n, dt,
                                                   seed=first_seed + records * group + i)
                        for i in range(records)]
                series = power_spectrum_estimate(recs, f)
                hits.append(np.abs(series.value - expected) <= 2.0 * series.stderr)
        hits = np.concatenate(hits)
        assert abs(hits.mean() - rate) <= 3.0 * math.sqrt(rate * (1.0 - rate) / hits.size), records


def test_leakage_biases_the_fitted_slope():
    # E[P(f)] itself falls more slowly than f^-2: the kernel's sidelobes carry
    # the steep spectrum's low-frequency power up the grid
    t_m = 2047.0
    f = np.logspace(np.log10(20.0 / t_m), np.log10(0.2), 25)
    expected_slope = np.polyfit(np.log(f), np.log(expected_periodogram(2.0, 2048, 1.0, f)), 1)[0]
    assert expected_slope == pytest.approx(-1.985, abs=0.002)
    assert fitted_slope(2.0) == pytest.approx(expected_slope, abs=0.01)
