"""Two-point kernels against brute-force oracles and closed-form limits."""

import cmath
import math
import re
import tracemalloc
import warnings
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unruh_kinetics.core import DomainError, NonConvergence, SingularInput
from unruh_kinetics import kernels as K

FOUR_PI_SQ = 4.0 * math.pi**2


# --- vacuum Wightman functions -------------------------------------------

def test_accelerated_vacuum_singular_input():
    with pytest.raises(SingularInput):
        K.wightman_vacuum_accelerated(0.0, 1.0)
    with pytest.raises(SingularInput):  # one u = 0 in an array
        K.wightman_vacuum_accelerated(np.array([1.0, 0.0]), 1.0)
    with pytest.raises(SingularInput):
        K.wightman_vacuum_accelerated_sum(0.0, 1.0)


def test_accelerated_closed_form_value():
    # alpha = 2 pi: -(2 pi)^2/(16 pi^2) csch^2(pi)
    got = K.wightman_vacuum_accelerated(1.0, 2.0 * math.pi).value.real
    want = -(2.0 * math.pi) ** 2 / (16.0 * math.pi**2) / math.sinh(math.pi) ** 2
    assert got == pytest.approx(want, rel=1e-14)


def test_accelerated_sum_matches_closed_form():
    s = K.wightman_vacuum_accelerated_sum(1.0, 1.0)
    c = K.wightman_vacuum_accelerated(1.0, 1.0)
    assert abs(s.value - c.value) / abs(c.value) < 1e-8


def test_accelerated_small_alpha_is_inertial():
    # only the n = 0 image survives as alpha -> 0
    a = K.wightman_vacuum_accelerated(0.7, 1e-6).value
    i = -1.0 / (FOUR_PI_SQ * 0.7**2)
    assert abs(a - i) / abs(i) < 1e-10


# --- thermal image sum (lattice identity) --------------------------------

def test_lattice_sum_identity_point():
    s = K.thermal_image_sum(1.0, 1.0)
    c = K.thermal_image_closed(1.0, 1.0)
    assert abs(s - c) / abs(c) < 1e-8
    assert c.real == pytest.approx(-0.25 / math.sinh(math.pi) ** 2)


def test_lattice_sum_nonconvergence_on_impossible_tolerance(monkeypatch):
    monkeypatch.setattr(K, "TRUNC_TOL", 1e-30)
    with pytest.raises(NonConvergence):
        K.thermal_image_sum(1.0, 1.0)


def test_oracles_refuse_a_nan_sum_and_a_bad_beta():
    with pytest.raises(NonConvergence):
        K.wightman_vacuum_accelerated_sum(math.nan, 1.0)
    # beta = 0 divided by zero, and beta < 0 returned a value; the closed
    # form gave nan + nanj at beta = 0, inf and nan and -0.00187 at beta = -1
    for beta in (0.0, -1.0, math.inf, math.nan):
        message = re.escape(f"beta must be positive and finite, got {beta}")
        for call in (lambda b: K.thermal_image_sum(1.0, b),
                     lambda b: K.g_thermal_inertial_sum(1.0, b, 0.5),
                     lambda b: K.g_thermal_inertial(1.0, b, 0.5),
                     lambda b: K.thermal_image_closed(1.0, b),
                     lambda b: K.thermal_image_closed(np.array([1.0, 2.0]), np.array([1.0, b]))):
            with pytest.raises(DomainError, match=message):
                call(beta)


def test_accelerated_sum_checks_its_truncation(monkeypatch):
    # the oracle's truncation error is ~4e-15 relative: a 1e-30 tolerance fails
    monkeypatch.setattr(K, "TRUNC_TOL", 1e-30)
    with pytest.raises(NonConvergence):
        K.wightman_vacuum_accelerated_sum(1.0, 1.0)
    with pytest.raises(NonConvergence):
        K.g_thermal_inertial_sum(1.0, 1.0, 0.5)


@pytest.mark.parametrize(
    "oracle, closed, args",
    [pytest.param(K.thermal_image_sum, K.thermal_image_closed, (u, beta),
                  id=f"lattice-{u}-{beta}")
     for u in (0.2, 0.5, 1.0, 1.5, 2.0) for beta in (1.0, 1.5, 2.0, 3.0, 4.0)]
    + [pytest.param(K.wightman_vacuum_accelerated_sum, K.wightman_vacuum_accelerated,
                    (1.0, 1.0), id="accelerated"),
       pytest.param(K.g_thermal_inertial_sum, K.g_thermal_inertial, (1.0, 1.0, 0.5),
                    id="inertial"),
       pytest.param(K.g_thermal_inertial_sum, lambda u, beta, v: K.thermal_image_closed(u, beta),
                    (1.0, 1.0, 0.0), id="inertial-v0")],
)
def test_truncation_estimate_tracks_the_true_error(monkeypatch, oracle, closed, args):
    # criterion 1's grid and verify's points: the estimate that the oracles
    # gate on, |S_N - S_{N/2}| / 7, is within a factor 2 of the error against
    # the closed form.  Where both are a few ulps (u = 0.2, beta >= 3)
    # rounding, not truncation, sets them; 4 ulps of |value| is allowed.
    value = lambda x: getattr(x, "value", x)
    s, want = value(oracle(*args)), value(closed(*args))
    monkeypatch.setattr(K, "N_MAX", K.N_MAX // 2)
    estimate = abs(s - value(oracle(*args))) / 7.0
    error = abs(s - want)
    floor = 4.0 * np.finfo(float).eps * abs(want)
    assert estimate <= 2.0 * error + floor
    assert error <= 2.0 * estimate + floor


@pytest.mark.parametrize("u, alpha", [(1.0, 1.0), (0.3, 2.5), (2.0, 0.4), (0.05, 7.0)])
def test_oracle_truncations_share_their_terms(u, alpha):
    # S_N and S_{N/2}, summed from one buffer of 2N + 1 terms whose n < 0
    # half mirrors the n >= 0 one, are the truncations that all 2N + 1 and
    # all 2(N // 2) + 1 terms, each formed by its own call, give, bit for bit
    terms, tail = K._inverse_power_series(2, u, alpha)
    value, half = K._image_sums(terms, tail)
    for got, n_max in ((value, K.N_MAX), (half, K.N_MAX // 2)):
        t = terms(np.arange(-n_max, n_max + 1, dtype=complex))
        assert got == complex(np.sum(t) + tail(n_max))
        assert got == K.image_sum_inverse_power_sum(2, u, alpha, n_max)


def _accelerated_partial(u, alpha, n_max):
    """The accelerated oracle's truncation at |n| <= n_max with its tail,
    every term formed from the full array of n."""
    period = 2.0 * math.pi / alpha
    total = np.sum((u + 1j * period * np.arange(-n_max, n_max + 1)) ** -2)
    edge = period * (n_max + 0.5)
    return complex(total + ((u + 1j * edge) ** -1 - (u - 1j * edge) ** -1) / (1j * period))


def _inertial_partial(u, beta, v, n_max):
    """g_thermal_inertial_sum's truncation at |n| <= n_max with its tail, as
    one call per n_max formed it from the full array of n."""
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    m_p = -1j * gamma * u * (1.0 - v) / beta
    m_m = -1j * gamma * u * (1.0 + v) / beta
    m = np.arange(-n_max, n_max + 1.0)
    total = np.sum(1.0 / (beta**2 * (m - m_p) * (m - m_m)))
    if m_p == m_m:
        antideriv = lambda mm: -1.0 / (beta**2 * (mm - m_p))
    else:
        antideriv = lambda mm: np.log((mm - m_p) / (mm - m_m)) / (beta**2 * (m_p - m_m))
    edge = n_max + 0.5
    tail = -antideriv(edge) + antideriv(-edge)
    return complex(total + tail)


def _bits(values):
    return [(complex(c).real.hex(), complex(c).imag.hex()) for c in values]


_SIGNED = st.floats(min_value=1e-3, max_value=1e3).flatmap(
    lambda x: st.sampled_from([x, -x]))


@given(_SIGNED, st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=60, deadline=None)
def test_accelerated_mirror_is_the_full_array_bit_for_bit(u, alpha):
    # the n < 0 half, the conjugate of the n >= 0 half, changes no bit of
    # S_N or S_{N/2}
    got = K._image_sums(*K._inverse_power_series(2, u, alpha))
    want = [_accelerated_partial(u, alpha, n) for n in (K.N_MAX, K.N_MAX // 2)]
    assert _bits(got) == _bits(want)


@given(_SIGNED, st.floats(min_value=1e-3, max_value=1e3),
       st.sampled_from([0.0, 5e-324, 1e-9, 0.5, 0.999]))
@settings(max_examples=60, deadline=None)
def test_inertial_mirror_is_the_full_array_bit_for_bit(u, beta, v):
    got = K._image_sums(*K._inertial_series(u, beta, v))
    want = [_inertial_partial(u, beta, v, n) for n in (K.N_MAX, K.N_MAX // 2)]
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("u, beta, v", [(1.0, 1.0, 0.5), (1.3, 2.0, 0.4), (0.2, 0.7, 0.9)])
def test_inertial_oracle_is_its_separate_call_value(u, beta, v):
    got = K.g_thermal_inertial_sum(u, beta, v).value
    assert got == _inertial_partial(u, beta, v, K.N_MAX) / FOUR_PI_SQ


@pytest.mark.parametrize("call", [
    pytest.param(lambda: K.wightman_vacuum_accelerated_sum(1.0, 1.3), id="accelerated"),
    pytest.param(lambda: K.thermal_image_sum(1.0, 2.0), id="lattice"),
    pytest.param(lambda: K.g_thermal_inertial_sum(1.0, 2.0, 0.5), id="inertial"),
])
def test_oracles_form_their_terms_in_one_buffer(call):
    # one buffer of 2N + 1 complex terms plus, for the inertial sum, one
    # factor of its n >= 0 half; full-array temporaries peaked at 2.5 and
    # 2.9 buffers and faulted fresh pages in at every call
    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 16 * (2 * K.N_MAX + 1)


def test_sum_oracles_refuse_what_the_mirror_cannot_sum():
    # a complex u has no mirror-image terms: (0.7 + 0.2j, 1.3) would give
    # -0.037339... for -0.037145...
    for call in (lambda: K.wightman_vacuum_accelerated_sum(0.7 + 0.2j, 1.3),
                 lambda: K.thermal_image_sum(np.complex128(0.7 + 0.2j), 1.0),
                 lambda: K.g_thermal_inertial_sum(0.7 + 0.2j, 1.0, 0.5)):
        with pytest.raises(DomainError, match=re.escape("u must be real")):
            call()
    # alpha = +inf, also as 2 pi / beta at beta = 5e-324, raised
    # ZeroDivisionError from the tail
    for call in (lambda: K.wightman_vacuum_accelerated_sum(1.0, math.inf),
                 lambda: K.thermal_image_sum(1.0, 5e-324),
                 lambda: K.g_thermal_inertial_sum(1.0, 5e-324, 0.5)):
        with pytest.raises(DomainError, match="must be positive and finite, got inf"):
            call()


@pytest.mark.parametrize("u, beta", [(1.0, 1.0), (0.3, 2.0), (-0.7, 1.5)])
@pytest.mark.parametrize("v", [0.0, 5e-324])
def test_inertial_sum_at_v_zero_is_the_lattice_sum(u, beta, v):
    # m_+ == m_-: the partial-fraction tail divided by zero and the oracle
    # raised NonConvergence for an estimated error of nan
    got = K.g_thermal_inertial_sum(u, beta, v).value
    want = K.thermal_image_closed(u, beta)
    assert abs(got - want) <= 1e-8 * abs(want)


# --- inertial thermal kernel ---------------------------------------------

def _inertial_reference(u, beta, v):
    """-sinh(A1 - A2) / (sinh A1 sinh A2) sqrt(1 - v^2) / (8 pi beta v u),
    A1,2 = (1 +- v) x / sqrt(1 - v^2) and x = pi |u| / beta, or at v = 0
    -1 / (4 beta^2 sinh^2 x), at 50 digits of the double arguments."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 50, MAX_EMAX, MIN_EMIN
        u, beta, v = abs(Decimal(u)), Decimal(beta), Decimal(v)
        sinh = lambda z: (z.exp() - (-z).exp()) / 2
        x = _PI_50 * u / beta
        if v == 0:
            return -1 / (4 * beta**2 * sinh(x) ** 2)
        s = ((1 - v) * (1 + v)).sqrt()
        a1, a2 = (1 + v) * x / s, (1 - v) * x / s
        return -sinh(a1 - a2) / (sinh(a1) * sinh(a2)) * s / (8 * _PI_50 * beta * v * u)


@pytest.mark.parametrize(
    "beta, v",
    [(0.7, v) for v in (0.0, 1e-9, 1e-6, 1e-3, 0.5, 0.9, 1.0 - 1e-9)] + [(1.0, 1e-8)],
)
def test_inertial_thermal_matches_a_50_digit_reference(beta, v):
    # the coth sum cancelled: 26 % off at (u, beta, v) = (10, 1, 0.5), 0 for
    # -1.7e-16 at (3, 0.5, 1e-3) and 3.7e-9 off near v = 1; below v = 1e-6
    # the v -> 0 limit stood in.  u = 1, then x = pi |u| / beta from 1e-3 up
    # to where g leaves the normal range
    checked = 0
    for u in [1.0] + [x * beta / math.pi for x in np.geomspace(1e-3, 1e9, 145).tolist()]:
        want = _inertial_reference(u, beta, v)
        if abs(want) < Decimal(2) ** -1022:
            break
        for sign in (1.0, -1.0):
            got = K.g_thermal_inertial(sign * u, beta, v).value
            assert got.imag == 0.0
            assert abs(Decimal(got.real) - want) <= Decimal("1e-12") * abs(want), (u, v)
        checked += 1
    assert checked >= 40 and abs(want) < Decimal(2) ** -1022


@pytest.mark.parametrize("u, beta, v", [(1.0, 1.0, 0.5), (2.0, 1.0, 1e-6)])
def test_inertial_thermal_matches_sum_oracle(u, beta, v):
    # at v = 1e-6 the cancelling coth sum was 3.1e-7 off the oracle
    g = K.g_thermal_inertial(u, beta, v)
    s = K.g_thermal_inertial_sum(u, beta, v)
    assert abs(g.value - s.value) / abs(g.value) < 1e-8


def test_inertial_thermal_far_outside_the_float_range():
    # 1 / tanh(0) raised ZeroDivisionError at the first point; -inf is the
    # value only where |g| ~ 1 / (4 pi^2 u^2) exceeds the float range, and
    # at x = pi u / beta = +inf g underflows to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert K.g_thermal_inertial(1e-300, 1e300, 0.3).value == -math.inf
        assert K.g_thermal_inertial(1e300, 1e-10, 0.5).value == 0.0
        assert K.g_thermal_inertial(1e-150, 1e300, 0.3).value.real == pytest.approx(
            -1.0 / (FOUR_PI_SQ * 1e-300), rel=1e-14)


def test_inertial_thermal_sum_v_to_zero():
    s = K.g_thermal_inertial_sum(1.0, 1.0, 1e-9)
    want = -0.25 / math.sinh(math.pi) ** 2
    assert abs(s.value.real - want) / abs(want) < 1e-8


@given(
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=0.0, max_value=0.999),
)
@settings(max_examples=25, deadline=None)
def test_inertial_thermal_even_in_u(u, beta, v):
    a = K.g_thermal_inertial(u, beta, v).value
    b = K.g_thermal_inertial(-u, beta, v).value
    assert a == pytest.approx(b, rel=1e-13)


def test_inertial_thermal_sum_is_deterministic():
    a = K.g_thermal_inertial_sum(1.3, 2.0, 0.4).value
    b = K.g_thermal_inertial_sum(1.3, 2.0, 0.4).value
    assert a == b


def test_inertial_thermal_sum_truncation_tail(monkeypatch):
    # doubling N_MAX moves the value by less than the integral tail bound
    beta, n_max = 1.0, 2000
    monkeypatch.setattr(K, "N_MAX", n_max)
    a = K.g_thermal_inertial_sum(1.0, beta, 0.5)
    monkeypatch.setattr(K, "N_MAX", 2 * n_max)
    b = K.g_thermal_inertial_sum(1.0, beta, 0.5)
    assert abs(a.value - b.value) < 2.0 / (math.pi**2 * beta * n_max)


# --- accelerated thermal kernel ------------------------------------------

def test_accelerated_thermal_zero_temperature():
    g = K.g_thermal_accelerated(1.0, 0.0, math.inf, 2.0)
    want = K.wightman_vacuum_accelerated(1.0, 2.0)
    assert g.value == pytest.approx(want.value, rel=1e-14)


def test_unruh_correspondence_exact():
    # beta = +inf accelerated kernel == inertial thermal kernel at beta = 2 pi / alpha
    for alpha in np.linspace(0.3, 6.0, 20):
        ga = K.g_thermal_accelerated(1.0, 0.0, math.inf, float(alpha))
        gi = K.thermal_image_closed(1.0, 2.0 * math.pi / float(alpha))
        assert abs(ga.value - gi) <= 1e-14 * abs(gi)


def test_accelerated_thermal_alpha_to_zero():
    g = K.g_thermal_accelerated(1.0, 0.0, 1.0, 1e-4)
    want = K.thermal_image_closed(1.0, 1.0)
    assert abs(g.value - want) / abs(want) < 1e-6
    # alpha = 0 is the inertial worldline itself
    g = K.g_thermal_accelerated(1.0, 0.0, 1.0, 0.0)
    assert abs(g.value - want) / abs(want) < 1e-12
    vacuum = K.g_thermal_accelerated(1.0, 0.0, math.inf, 0.0).value
    assert vacuum == pytest.approx(-1.0 / (4.0 * math.pi**2), rel=1e-15)


def test_accelerated_thermal_not_stationary():
    # finite T and alpha: kernel depends on both times, not just the difference
    g1 = K.g_thermal_accelerated(1.0, 0.0, 1.0, 1.0)
    g2 = K.g_thermal_accelerated(2.0, 1.0, 1.0, 1.0)
    assert abs(g1.value - g2.value) > 1e-6


def test_accelerated_thermal_singular_at_equal_times():
    with pytest.raises(SingularInput):
        K.g_thermal_accelerated(1.0, 1.0, 1.0, 1.0)


def _g_reference(t1, t2, beta, alpha):
    """The defining coth - coth form.  At t2 = 0, A2 <= pi / (alpha beta)
    and coth A1 - coth A2 cancels ~2 A2 / ln 10 digits, so the precision
    grows with 1 / (alpha beta).  The t1 = -t2 limit is -csch^2(A2) / 4 beta^2."""
    mp = pytest.importorskip("mpmath")
    digits = 40 + int(2.0 * math.pi / (alpha * beta) / math.log(10.0))
    with mp.workdps(digits):
        t1, t2, a = mp.mpf(t1), mp.mpf(t2), mp.mpf(alpha)
        if math.isinf(beta):
            return float(-(a / (4 * mp.pi)) ** 2 / mp.sinh(a * (t1 - t2) / 2) ** 2)
        b = mp.mpf(beta)
        a2 = 2 * mp.pi * mp.exp(-a * (t1 + t2) / 2) * mp.sinh(a * (t1 - t2) / 2) / (a * b)
        if t1 == -t2:
            return float(-1 / (4 * b**2 * mp.sinh(a2) ** 2))
        a1 = mp.pi * (mp.exp(a * t1) - mp.exp(a * t2)) / (a * b)
        den = 8 * mp.pi * b * (mp.cosh(a * t1) - mp.cosh(a * t2))
        return float(a * (mp.coth(a1) - mp.coth(a2)) / den)


@pytest.mark.parametrize("u", [-0.5, 0.5, 1.0, 800.0])
@pytest.mark.parametrize("beta", [0.05, 0.1, 0.4, 1.3, 5.0, math.inf])
@pytest.mark.parametrize("alpha", [0.1, 0.7, 2.0, 5.0])
def test_accelerated_thermal_matches_mpmath(u, beta, alpha):
    # the parent's coth - coth form returned exactly 0 at u = 1, alpha = 1,
    # beta <= 0.1, lost digits at small beta and overflowed at u = 800
    for t1, t2 in ((u, 0.0), (u / 2, -u / 2)):
        want = _g_reference(t1, t2, beta, alpha)
        got = K.g_thermal_accelerated(t1, t2, beta, alpha).value
        assert got.imag == 0.0
        # values below ~1e-300 (down to e^-4000 at u = 800) round to 0 or
        # to a denormal: only the absolute floor applies there
        assert abs(got.real - want) <= 1e-12 * abs(want) + 1e-300, (t1, t2)


def test_accelerated_thermal_at_opposite_times_is_the_csch2_limit():
    # t1 = -t2 made both cosh(a t) and both coth arguments equal: 0 / 0
    t, beta, alpha = 1.0, 1.3, 0.7
    a = 2.0 * math.pi * math.sinh(alpha * t) / (alpha * beta)
    want = -1.0 / (4.0 * beta**2 * math.sinh(a) ** 2)
    got = K.g_thermal_accelerated(t, -t, beta, alpha).value
    assert got.real == pytest.approx(want, rel=1e-13)


def test_accelerated_thermal_arrays_match_scalar_calls():
    rng = np.random.default_rng(7)
    n = 400
    t1, t2 = rng.uniform(-5.0, 5.0, (2, n))
    beta = np.exp(rng.uniform(-3.0, 2.0, n))
    beta[::5] = math.inf
    alpha = np.exp(rng.uniform(-4.0, 2.0, n))
    arr = K.g_thermal_accelerated(t1, t2, beta, alpha).value
    one = [K.g_thermal_accelerated(*map(float, p)).value
           for p in zip(t1, t2, beta, alpha)]
    assert all(type(v) is complex for v in one)
    assert np.array_equal(arr, np.array(one))
    # broadcasting one worldline point over a temperature grid
    grid = np.linspace(0.4, 5.0, 50)
    arr = K.g_thermal_accelerated(1.1, 0.0, grid, 1.3).value
    assert np.array_equal(
        arr, [K.g_thermal_accelerated(1.1, 0.0, float(b), 1.3).value for b in grid]
    )
    u = np.linspace(0.1, 30.0, 50)
    assert np.array_equal(
        K.thermal_image_closed(u, 0.8), [K.thermal_image_closed(float(x), 0.8) for x in u]
    )
    assert np.array_equal(
        K.wightman_vacuum_accelerated(u, 1.7).value,
        [K.wightman_vacuum_accelerated(float(x), 1.7).value for x in u],
    )


@pytest.mark.parametrize(
    "args",
    [(1.0, 0.0, 1.0, -1.0), (1.0, 0.0, 1.0, math.inf), (1.0, 0.0, 0.0, 1.0),
     (1.0, 0.0, math.nan, 1.0), (math.inf, 0.0, 1.0, 1.0),
     (1.0, -1e200, 1.0, 1.0), (1e10, 0.0, 1.0, 1e300)],
)
def test_accelerated_thermal_rejects_bad_arguments(args):
    with pytest.raises(DomainError):
        K.g_thermal_accelerated(*args)
    with pytest.raises(DomainError):  # one bad entry in an array
        K.g_thermal_accelerated(*(np.array([1.0, x]) for x in args))


def test_accelerated_thermal_large_arguments_stay_finite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in (1.0, math.inf):
            g = K.g_thermal_accelerated(800.0, 0.0, beta, np.linspace(0.1, 5.0, 50))
            assert np.all(np.isfinite(g.value))
        tiny = K.g_thermal_accelerated(1e-100, 0.0, 1.0, 1.0).value.real
        assert tiny == pytest.approx(-1.0 / (4.0 * math.pi**2 * 1e-200), rel=1e-12)
        assert K.g_thermal_accelerated(1.0, 0.0, 1.0, 1e-300).value.real == (
            pytest.approx(K.thermal_image_closed(1.0, 1.0).real, rel=1e-13)
        )
    with pytest.raises(SingularInput):
        K.g_thermal_accelerated(1e-200, 0.0, 1.0, 1.0)


_PI_50 = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def test_accelerated_thermal_keeps_its_digits_at_tiny_u_and_beta():
    # at u = 1e-140, ln(pi u) - ln(beta) kept only ~322 * 2^-52 absolute
    # accuracy of ln(pi u / beta), and g ~ e^{-2 pi u / beta}, pi u / beta ~
    # 6000, multiplies it by ~10^4: g was up to 4.0e-11 off.  The reference
    # is -csch^2(pi u / beta) / 4 beta^2 at 50 digits (thermal_image_closed's
    # e^-2y underflows here); a subnormal g carries 2^-1075 absolute
    u, betas = 1e-140, np.linspace(4e-143, 9e-143, 51)
    got = K.g_thermal_accelerated(u, 0.0, betas, 0.0).value
    assert np.all(got.imag == 0.0)
    with localcontext() as ctx:
        ctx.prec = 50
        for beta, g in zip(betas.tolist(), got.real.tolist()):
            y = _PI_50 * Decimal(u) / Decimal(beta)
            want = -1 / ((y.exp() - (-y).exp()) ** 2 * Decimal(beta) ** 2)
            assert abs(Decimal(g) - want) <= Decimal("5e-12") * abs(want) + Decimal(2) ** -1074, beta


def test_accelerated_thermal_where_pi_u_over_beta_leaves_the_normal_range():
    # pi u / beta rounded to a subnormal, exactly a subnormal (2^-1060), 0,
    # and inf, among normal ratios: an array matches its scalar calls
    x = math.pi * 1e-150
    betas = np.array([1.3, 1e160, math.ldexp(x, 1060), 1e200, math.inf, 5e-324])
    for alpha in (0.0, 0.3):
        arr = K.g_thermal_accelerated(1e-150, 0.0, betas, alpha).value
        one = [K.g_thermal_accelerated(1e-150, 0.0, float(b), alpha).value for b in betas]
        assert np.array_equal(arr, np.array(one))
        # A1 = A2 ~ pi u / beta -> 0: the vacuum value -1 / (4 pi^2 u^2)
        assert arr[1:5].real == pytest.approx(-1.0 / (FOUR_PI_SQ * 1e-300), rel=1e-12)
    exact = K._log_ratio(np.float64(x), np.float64(math.ldexp(x, 1060)))
    assert exact == pytest.approx(-1060.0 * math.log(2.0), rel=1e-15)


# --- image-sum closed forms ----------------------------------------------

@pytest.mark.parametrize("re_w", [0.3, 19.0, 21.0, 40.0, 300.0])
def test_coth_csch2_beyond_the_clip(re_w):
    for w in (complex(re_w, 0.4), complex(-re_w, -1.1)):
        coth, csch2 = K._coth_csch2(w)
        assert coth == pytest.approx(1.0 / cmath.tanh(w), rel=1e-14)
        assert csch2 == pytest.approx(1.0 / cmath.sinh(w) ** 2, rel=1e-13)


def test_image_sums_do_not_overflow_at_large_alpha():
    # alpha = 50 used to print 14 overflow warnings from np.sinh / np.cosh
    z = np.linspace(0.01, 60.0, 1000) - 0.02j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (2, 3, 4, 6):
            assert np.all(np.isfinite(K.image_sum_inverse_power(m, z, 50.0)))


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_image_sum_closed_forms(m):
    z = 0.9 - 0.2j
    closed = K.image_sum_inverse_power(m, z, 1.3)
    brute = K.image_sum_inverse_power_sum(m, z, 1.3, 20_000)
    assert abs(closed - brute) / abs(closed) < 1e-10
