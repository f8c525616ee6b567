"""Finite-measurement-time spectral estimation and its integral identities."""

import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flickerfloor import spectral
from flickerfloor.spectral import (
    CovarianceModel,
    SignalRecord,
    SpectralError,
    _sine_integral,
    power_spectrum_estimate,
    sigma_spectrum,
    sign_function_transform,
    spectrum_csv_text,
    synthesize_power_law_noise,
    wk_identity_check,
)


def sinusoid_record(amplitude=1.0, f0=1.0, n=4096, dt=0.01):
    t = np.arange(n) * dt
    return SignalRecord(samples=amplitude * np.sin(2.0 * np.pi * f0 * t), dt=dt)


# ---------------------------------------------------------------------------
# single-record power: power_spectrum_estimate([rec], [f]) * t_m = Us^2 + Uc^2
# ---------------------------------------------------------------------------

def single_record_power(rec, f):
    return power_spectrum_estimate([rec], np.array([f])).value[0] * rec.t_m


def test_fourier_of_zero_signal():
    rec = SignalRecord(samples=np.zeros(64), dt=0.1)
    assert single_record_power(rec, 1.0) == 0.0


def test_fourier_of_sinusoid():
    rec = sinusoid_record(amplitude=2.0, f0=1.0)
    power = single_record_power(rec, 1.0)
    omega = 2.0 * np.pi * 1.0
    assert omega * rec.t_m > 100
    # Us = A t_m / 2 to relative 2/(omega t_m) and |Uc| < A/omega
    us, rel = 2.0 * rec.t_m / 2.0, 2.0 / (omega * rec.t_m)
    assert (us * (1.0 - rel)) ** 2 <= power <= (us * (1.0 + rel)) ** 2 + (2.0 / omega) ** 2


def test_fourier_of_constant_signal():
    c, dt, n = 3.0, 1e-3, 2001
    rec = SignalRecord(samples=np.full(n, c), dt=dt)
    f = 0.8
    omega = 2.0 * np.pi * f
    t_m = rec.t_m
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
    assert series.value[0] == pytest.approx(1.5 ** 2 * rec.t_m / 4.0, rel=0.02)


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


def test_sigma_constant_covariance_vanishes():
    # both finite integrals reduce to boundary terms that cancel up to
    # 2c(1 - cos(omega t_m))/(omega^2 t_m), which vanishes as t_m grows
    c = 4.0
    cov = CovarianceModel(kind="constant", amplitude=c)
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
    cov = CovarianceModel(kind="user-function", tau0=1e-321,
                          func=lambda tau: np.exp(-np.abs(tau)))
    ref = CovarianceModel(kind="exponential", tau0=1.0)
    assert sigma_spectrum(cov, f=0.1, t_m=1e3) == pytest.approx(
        sigma_spectrum(ref, f=0.1, t_m=1e3), rel=1e-12)


def test_covariance_model_validation():
    with pytest.raises(SpectralError):
        CovarianceModel(kind="log-law", tau0=-1.0)
    with pytest.raises(SpectralError):
        CovarianceModel(kind="log-law", tau0=1.0, a_cov=0.0)
    with pytest.raises(SpectralError):
        CovarianceModel(kind="nonsense", tau0=1.0)


def bumped_exponential(tau):
    # exp(-|tau|) with a one-period-wide bump at |tau| = 300 periods (f = 1),
    # well inside the first Chebyshev panels, which must split to resolve it
    a = np.abs(tau)
    return np.exp(-a) + 100.0 * np.exp(-0.5 * (a - 300.0) ** 2)


def test_sigma_resolves_structure_past_the_gauss_periods():
    # reference: one Gauss panel per period over all 1e4 periods
    cov = CovarianceModel(kind="user-function", func=bumped_exponential)
    assert sigma_spectrum(cov, f=1.0, t_m=1e4) == pytest.approx(0.04941504379804959, rel=1e-10)


def test_user_function_covariance():
    tau0 = 1.0
    cov = CovarianceModel(kind="user-function", tau0=tau0,
                          func=lambda tau: np.exp(-np.abs(tau) / tau0))
    ref = CovarianceModel(kind="exponential", tau0=tau0)
    f = 0.05
    assert sigma_spectrum(cov, f=f, t_m=5e3) == pytest.approx(
        sigma_spectrum(ref, f=f, t_m=5e3), rel=1e-9)


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


@pytest.mark.parametrize("x, si", [
    # Si(x) from a 60-digit mpmath evaluation, rounded to double
    (1e-3, 0.0009999999444444462),
    (0.5, 0.4931074180430667),
    (math.pi / 4, 0.7589758810687827),
])
def test_sine_integral_series(x, si):
    assert _sine_integral(x) == pytest.approx(si, rel=4e-16, abs=0.0)


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


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("kernel", [
    lambda v: sigma_spectrum(CovarianceModel(kind="log-law"), v, 10.0),
    lambda v: wk_identity_check(v, 10.0),
    lambda v: sign_function_transform(v, 10.0),
], ids=["sigma_spectrum", "wk_identity_check", "sign_function_transform"])
def test_kernels_reject_non_finite_frequency(kernel, value):
    with pytest.raises(SpectralError, match="finite"):
        kernel(value)


@pytest.mark.parametrize("value", [math.inf, math.nan])
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


def not_finite_user_function(tau):
    return np.where(np.abs(tau) > 50.0, np.nan, np.exp(-np.abs(tau)))


@pytest.mark.parametrize("kernel, args, names", [
    (sigma_spectrum, (CovarianceModel(kind="user-function", func=not_finite_user_function),
                      1.0, 200.0), ["f=1 Hz", "t_m=200 s"]),
    (sigma_spectrum, (CovarianceModel(kind="log-law"), 0.01, 1e200),
     ["f=0.01 Hz", "t_m=1e+200 s"]),
    (wk_identity_check, (1.0, 1e307), ["omega=1 rad/s", "t_m=1e+307 s"]),
    (sign_function_transform, (1e300, 1e300), ["omega=1e+300 rad/s", "t_m=1e+300 s"]),
], ids=["nan-user-function", "log-law-huge-t_m", "wk-huge-t_m", "sign-omega-t_m-overflow"])
def test_kernels_reject_non_finite_results(kernel, args, names):
    # these once returned nan, with overflow warnings for the log-law
    with pytest.raises(SpectralError) as err:
        kernel(*args)
    for name in names:
        assert name in str(err.value)


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


def traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


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
    rec = synthesize_power_law_noise(0.0, 2 ** 16, 1.0, seed=5, variance=2.5)
    assert np.var(rec.samples) == pytest.approx(2.5, rel=0.05)


def test_synthesis_validation():
    with pytest.raises(SpectralError):
        synthesize_power_law_noise(-0.5, 1024, 1.0, seed=0)
    with pytest.raises(SpectralError):
        synthesize_power_law_noise(2.5, 1024, 1.0, seed=0)
    with pytest.raises(SpectralError):
        synthesize_power_law_noise(1.0, 1000, 1.0, seed=0)  # not a power of two


@pytest.mark.parametrize("dt, variance, name", [
    (math.inf, 1.0, "dt"), (math.nan, 1.0, "dt"),
    (1.0, math.inf, "variance"), (1.0, math.nan, "variance"),
])
def test_synthesis_rejects_non_finite_inputs_by_name(dt, variance, name):
    # dt=inf once ended in "signal samples must be finite" after an irfft warning
    with pytest.raises(SpectralError, match=f"^{name} must be finite"):
        synthesize_power_law_noise(1.0, 1024, dt, seed=0, variance=variance)


def fitted_slope(gamma, n_seeds=100, n=2048, dt=1.0):
    recs = [synthesize_power_law_noise(gamma, n, dt, seed=s) for s in range(n_seeds)]
    t_m = recs[0].t_m
    f = np.logspace(np.log10(20.0 / t_m), np.log10(0.2 / dt), 25)
    series = power_spectrum_estimate(recs, f)
    coeffs = np.polyfit(np.log(f), np.log(series.value), 1)
    return coeffs[0]


def test_pink_noise_pipeline_recovers_slope():
    assert fitted_slope(1.0) == pytest.approx(-1.0, abs=0.05)


# ---------------------------------------------------------------------------
# CSV text
# ---------------------------------------------------------------------------

def test_spectrum_csv_format():
    rec = sinusoid_record()
    series = power_spectrum_estimate([rec], np.array([0.5, 1.0]))
    text = spectrum_csv_text(series)
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "f,S,stderr"
    assert len(lines) == 3
