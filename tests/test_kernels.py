"""Two-point kernels against brute-force oracles and closed-form limits."""

import math
import re
import sys
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from decimal_reference import cosh, coth_csch, coth_csch2, digits, expm1, pi, sinh

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


def test_accelerated_vacuum_refuses_an_infinite_alpha():
    # alpha = +inf returned nan + nanj
    for alpha in (math.inf, np.array([1.0, math.inf])):
        with pytest.raises(DomainError, match="alpha must be positive and finite, got inf"):
            K.wightman_vacuum_accelerated(1.0, alpha)


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
    # the oracle's error is at rounding level: a 1e-30 tolerance fails
    monkeypatch.setattr(K, "TRUNC_TOL", 1e-30)
    with pytest.raises(NonConvergence):
        K.wightman_vacuum_accelerated_sum(1.0, 1.0)
    with pytest.raises(NonConvergence):
        K.g_thermal_inertial_sum(1.0, 1.0, 0.5)


@pytest.mark.parametrize(
    "series, closed",
    [pytest.param(lambda u=u, beta=beta: K._inverse_power_series(2, u, 2.0 * math.pi / beta),
                  lambda u=u, beta=beta: -FOUR_PI_SQ * K.thermal_image_closed(u, beta),
                  id=f"lattice-{u}-{beta}")
     for u in (0.2, 0.5, 1.0, 1.5, 2.0) for beta in (1.0, 1.5, 2.0, 3.0, 4.0)]
    + [pytest.param(lambda: K._inverse_power_series(2, 1.0, 1.0),
                    lambda: -FOUR_PI_SQ * K.wightman_vacuum_accelerated(1.0, 1.0).value,
                    id="accelerated"),
       pytest.param(lambda: K._inertial_series(1.0, 1.0, 0.5),
                    lambda: FOUR_PI_SQ * K.g_thermal_inertial(1.0, 1.0, 0.5).value,
                    id="inertial"),
       pytest.param(lambda: K._inertial_series(1.0, 1.0, 0.0),
                    lambda: FOUR_PI_SQ * K.thermal_image_closed(1.0, 1.0),
                    id="inertial-v0")],
)
def test_truncation_estimate_tracks_the_true_error(monkeypatch, series, closed):
    # criterion 1's grid and verify's points.  At N_MAX = 128 the tail's
    # error, ~N^-9, is far below rounding, so the estimate the oracles gate
    # on, |S_N - S_{N/2}|, is checked at N = 8: there it is S_{N/2}'s error
    # to within 5 % (measured 0.976-1.006 times it) and S_N's error is at
    # most 5 % of it (measured up to 2.4 %; 2^-9 once N >> |u| / P)
    want = closed()
    monkeypatch.setattr(K, "N_MAX", 8)
    s, half, _ = K._image_sums(*series())
    estimate = abs(s - half)
    assert 0.95 * abs(half - want) <= estimate <= 1.05 * abs(half - want)
    assert abs(s - want) <= 0.05 * estimate


@pytest.mark.parametrize("u, alpha", [(1.0, 1.0), (0.3, 2.5), (2.0, 0.4), (0.05, 7.0)])
def test_oracle_truncations_share_their_terms(u, alpha):
    # S_N and S_{N/2}, summed from one buffer of 2N + 1 terms whose n < 0
    # half mirrors the n >= 0 one, are the truncations that all 2N + 1 and
    # all 2(N // 2) + 1 terms, each formed by its own call, give, bit for bit
    terms, tail = K._inverse_power_series(2, u, alpha)
    value, half, _ = K._image_sums(terms, tail)
    for got, n_max in ((value, K.N_MAX), (half, K.N_MAX // 2)):
        assert got == _partial((terms, tail), n_max)
        assert got == K.image_sum_inverse_power_sum(2, u, alpha, n_max)


def _partial(series, n_max):
    """An oracle's truncation at |n| <= n_max with its tail, every term
    formed from the full array of n."""
    terms, tail = series
    t = terms(np.arange(-n_max, n_max + 1, dtype=complex))
    return complex(np.sum(t) + sum(tail(n_max)))


def _bits(values):
    return [(complex(c).real.hex(), complex(c).imag.hex()) for c in values]


_SIGNED = st.floats(min_value=1e-3, max_value=1e3).flatmap(
    lambda x: st.sampled_from([x, -x]))


@given(_SIGNED, st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=60, deadline=None)
def test_accelerated_mirror_is_the_full_array_bit_for_bit(u, alpha):
    # the n < 0 half, the conjugate of the n >= 0 half, changes no bit of
    # S_N or S_{N/2}
    series = K._inverse_power_series(2, u, alpha)
    want = [_partial(series, n) for n in (K.N_MAX, K.N_MAX // 2)]
    assert _bits(K._image_sums(*series)[:2]) == _bits(want)


@given(_SIGNED, st.floats(min_value=1e-3, max_value=1e3),
       st.sampled_from([0.0, 5e-324, 1e-9, 0.5, 0.999]))
@settings(max_examples=60, deadline=None)
def test_inertial_mirror_is_the_full_array_bit_for_bit(u, beta, v):
    series = K._inertial_series(u, beta, v)
    want = [_partial(series, n) for n in (K.N_MAX, K.N_MAX // 2)]
    assert _bits(K._image_sums(*series)[:2]) == _bits(want)


@pytest.mark.parametrize("u, beta, v", [(1.0, 1.0, 0.5), (1.3, 2.0, 0.4), (0.2, 0.7, 0.9)])
def test_inertial_oracle_is_its_separate_call_value(u, beta, v):
    got = K.g_thermal_inertial_sum(u, beta, v).value
    assert got == _partial(K._inertial_series(u, beta, v), K.N_MAX) / FOUR_PI_SQ


@pytest.mark.parametrize("call", [
    pytest.param(lambda: K.wightman_vacuum_accelerated_sum(1.0, 1.3), id="accelerated"),
    pytest.param(lambda: K.thermal_image_sum(1.0, 2.0), id="lattice"),
    pytest.param(lambda: K.g_thermal_inertial_sum(1.0, 2.0, 0.5), id="inertial"),
])
def test_oracles_form_their_terms_in_one_buffer(monkeypatch, call):
    # one buffer of 2N + 1 complex terms plus, for the inertial sum, one
    # factor of its n >= 0 half; full-array temporaries peaked at 2.5 and
    # 2.9 buffers and faulted fresh pages in at every call.  Measured at
    # N = 10^4 (1.26, 1.26 and 1.51 buffers): at N_MAX = 128 the 4 KB buffer
    # is of the size of the interpreter's own allocations in the call
    monkeypatch.setattr(K, "N_MAX", 10_000)
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


_LOG_3 = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)

_ORACLES = {
    # (oracle, closed form, (terms, tail), oracle / sum) at (u, alpha, v)
    "accelerated": (lambda u, a, v: K.wightman_vacuum_accelerated_sum(u, a).value,
                    lambda u, a, v: K.wightman_vacuum_accelerated(u, a).value,
                    lambda u, a, v: K._inverse_power_series(2, u, a), -1.0 / FOUR_PI_SQ),
    "lattice": (lambda u, a, v: K.thermal_image_sum(u, 2.0 * math.pi / a),
                lambda u, a, v: K.thermal_image_closed(u, 2.0 * math.pi / a),
                lambda u, a, v: K._inverse_power_series(2, u, 2.0 * math.pi / (2.0 * math.pi / a)),
                -1.0 / FOUR_PI_SQ),
    "inertial": (lambda u, a, v: K.g_thermal_inertial_sum(u, 2.0 * math.pi / a, v).value,
                 lambda u, a, v: K.g_thermal_inertial(u, 2.0 * math.pi / a, v).value,
                 lambda u, a, v: K._inertial_series(u, 2.0 * math.pi / a, v), 1.0 / FOUR_PI_SQ),
}


@pytest.mark.parametrize("name", sorted(_ORACLES))
@given(_LOG_3.flatmap(lambda x: st.sampled_from([x, -x])), _LOG_3,
       st.sampled_from([0.0, 1e-9, 0.5, 0.999]))
@settings(max_examples=150, deadline=None)
def test_oracles_match_their_closed_forms(name, u, alpha, v):
    # u in +-[1e-3, 1e3] and alpha in [1e-3, 1e3], log-uniform (beta = 2 pi /
    # alpha).  An accepted value is as far from the closed form as the two
    # quantities the gate bounds allow, |S_N - S_{N/2}| and the rounding
    # floor: up to 2.05 times their sum measured over 40000 calls.  The
    # inertial tail's partial-fraction log lost 2^-52 / v of the tail
    # (6.5e-6 at v = 1e-9).  Where alpha |u| <= 20 the value is not
    # exponentially small, and the oracle must accept it
    oracle, closed, series, scale = _ORACLES[name]
    want = closed(u, alpha, v)
    try:
        got = oracle(u, alpha, v)
    except NonConvergence:
        assert alpha * abs(u) > 20.0
        return
    s, half, floor = K._image_sums(*series(u, alpha, v))
    assert abs(got - want) <= 4.0 * abs(scale) * (abs(s - half) + floor) + 1e-13 * abs(want)


@pytest.mark.parametrize("name, u, alpha", [("accelerated", 0.5, 500.0),
                                           ("accelerated", 50.0, 5.0),
                                           ("accelerated", 50.0, 100.0),
                                           ("inertial", 3.0, 100.0)])
def test_oracles_refuse_an_exponentially_small_sum(name, u, alpha):
    # S ~ e^{-alpha |u|} lies below the rounding of its O(1 / u^2) terms, so
    # the sum is rounding noise that S_N and S_{N/2} share: 2.8e-14 for
    # 6.7e-104, 1.7e-18 (1 - i) for 6.7e-108, 1.4e-17 and 0 for 0 and
    # -1.7e-74.  The truncation estimate passes it; the rounding floor
    # refuses it
    _, closed, series, scale = _ORACLES[name]
    want = closed(u, alpha, 0.5) / scale
    s, half, floor = K._image_sums(*series(u, alpha, 0.5))
    assert abs(s - half) <= K.TRUNC_TOL * abs(s) < floor
    assert abs(s - want) >= abs(want)  # not one digit right
    with pytest.raises(NonConvergence, match="rounding floor"):
        K._truncated(*series(u, alpha, 0.5))


# --- inertial thermal kernel ---------------------------------------------

def _inertial_reference(u, beta, v):
    """-sinh(A1 - A2) / (sinh A1 sinh A2) sqrt(1 - v^2) / (8 pi beta v u),
    A1,2 = (1 +- v) x / sqrt(1 - v^2) and x = pi |u| / beta, or at v = 0
    -1 / (4 beta^2 sinh^2 x), at 50 digits of the double arguments.  Each
    sinh a is e^a (1 - e^{-2a}) / 2, and the quotient e^{-2 A2} times factors
    1 - e^{-2a}, so it holds where e^{A1} overflows decimal's exponent range;
    A1 - A2 = 2 v x / sqrt(1 - v^2) keeps the digits of a tiny v."""
    with digits(50):
        u, beta, v, p = abs(Decimal(u)), Decimal(beta), Decimal(v), pi()
        x = p * u / beta
        if v == 0:
            return -coth_csch2(x)[1] / (4 * beta**2)
        s = ((1 - v) * (1 + v)).sqrt()
        a1, a2, d = (1 + v) * x / s, (1 - v) * x / s, 2 * v * x / s
        quotient = 2 * (-2 * a2).exp() * expm1(-2 * d) / (expm1(-2 * a1) * expm1(-2 * a2))
        return quotient * s / (8 * p * beta * v * u)


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
    grows with 1 / (alpha beta).  The t1 = -t2 limit is -csch^2(A2) / 4 beta^2.
    A1 reaches ~e^4000 at u = 800, so coth A1 is formed from e^{-2 A1}."""
    with digits(40 + int(2.0 * math.pi / (alpha * beta) / math.log(10.0))):
        t1, t2, a, p = Decimal(t1), Decimal(t2), Decimal(alpha), pi()
        if math.isinf(beta):
            return float(-(a / (4 * p)) ** 2 * coth_csch2(a * (t1 - t2) / 2)[1])
        b = Decimal(beta)
        a2 = 2 * p * (-a * (t1 + t2) / 2).exp() * sinh(a * (t1 - t2) / 2) / (a * b)
        coth_a2, csch2_a2 = coth_csch2(a2)
        if t1 == -t2:
            return float(-csch2_a2 / (4 * b * b))
        a1 = p * ((a * t1).exp() - (a * t2).exp()) / (a * b)
        den = 8 * p * b * (cosh(a * t1) - cosh(a * t2))
        return float(a * (coth_csch2(a1)[0] - coth_a2) / den)


@pytest.mark.parametrize("u", [-0.5, 0.5, 1.0, 800.0])
@pytest.mark.parametrize("beta", [0.05, 0.1, 0.4, 1.3, 5.0, math.inf])
@pytest.mark.parametrize("alpha", [0.1, 0.7, 2.0, 5.0])
def test_accelerated_thermal_matches_a_decimal_reference(u, beta, alpha):
    # the parent's coth - coth form returned exactly 0 at u = 1, alpha = 1,
    # beta <= 0.1, lost digits at small beta and overflowed at u = 800
    for t1, t2 in ((u, 0.0), (u / 2, -u / 2)):
        want = _g_reference(t1, t2, beta, alpha)
        got = K.g_thermal_accelerated(t1, t2, beta, alpha).value
        assert got.imag == 0.0
        # values below ~1e-300 (down to e^-4000 at u = 800) round to 0 or
        # to a denormal: only the absolute floor applies there
        assert abs(got.real - want) <= 1e-12 * abs(want) + 1e-300, (t1, t2)


_SIGNED_TIME = st.tuples(st.sampled_from([1.0, -1.0]),
                        st.floats(min_value=-150.0, max_value=150.0)).map(lambda p: p[0] * 10.0**p[1])


@given(_SIGNED_TIME, _SIGNED_TIME, st.floats(min_value=-300.0, max_value=150.0).map(lambda e: 10.0**e))
@example(-2.9930455877137226e-136, -3.504197964000513e-149, 2.3998008061252962e138)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_accelerated_thermal_at_zero_temperature_over_the_float_range(t1, t2, alpha):
    # tau1 and tau2 log-uniform over +-[1e-150, 1e150] and alpha over
    # [1e-300, 1e150], the kernel's domain, against 50 digits of
    # -(alpha / 4 pi)^2 csch^2(alpha (t1 - t2) / 2).  The error is the x 2^-53
    # conditioning of e^-x, x = alpha |t1 - t2| / 2, and of the rounded
    # t1 - t2: 7.3e-14 measured on 40000 log-uniform points (the example),
    # 2.3e-13 on 20000 with x in [1, 745].  A subnormal value carries
    # 2^-1074 absolute; no call warns
    if abs(t1 - t2) < K.U_MIN:
        return
    with digits(50):
        a = Decimal(alpha)
        want = -(a / (4 * pi())) ** 2 * coth_csch2(a * (Decimal(t1) - Decimal(t2)) / 2)[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = K.g_thermal_accelerated(t1, t2, math.inf, alpha).value
    assert got.imag == 0.0
    tol = Decimal("4e-13") * abs(want) + Decimal(2) ** -1074
    assert abs(Decimal(got.real) - want) <= tol, (got, want)


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


def test_accelerated_thermal_keeps_its_digits_at_tiny_u_and_beta():
    # at u = 1e-140, ln(pi u) - ln(beta) kept only ~322 * 2^-52 absolute
    # accuracy of ln(pi u / beta), and g ~ e^{-2 pi u / beta}, pi u / beta ~
    # 6000, multiplies it by ~10^4: g was up to 4.0e-11 off.  The reference
    # is -csch^2(pi u / beta) / 4 beta^2 at 50 digits, independent of
    # thermal_image_closed; a subnormal g carries 2^-1075 absolute
    u, betas = 1e-140, np.linspace(4e-143, 9e-143, 51)
    got = K.g_thermal_accelerated(u, 0.0, betas, 0.0).value
    assert np.all(got.imag == 0.0)
    with digits(50):
        p = pi()
        for beta, g in zip(betas.tolist(), got.real.tolist()):
            want = -coth_csch2(p * Decimal(u) / Decimal(beta))[1] / (4 * Decimal(beta) ** 2)
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

def test_image_sums_do_not_overflow_at_large_alpha():
    # alpha = 50 used to print 14 overflow warnings from np.sinh / np.cosh
    z = np.linspace(0.01, 60.0, 1000) - 0.02j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (2, 3, 4, 6):
            assert np.all(np.isfinite(K.image_sum_inverse_power(m, z, 50.0)))


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_image_sum_closed_forms(m):
    # a complex z, whose two tails are not conjugates: 1.1e-15 at most
    z = 0.9 - 0.2j
    closed = K.image_sum_inverse_power(m, z, 1.3)
    brute = K.image_sum_inverse_power_sum(m, z, 1.3, K.N_MAX)
    assert abs(closed - brute) / abs(closed) < 1e-14


# --- vacuum closed forms across the float range ----------------------------

def _csch2_reference(u, h, x):
    """-(h csch(h |u|))^2 / 4 pi^2 at 50 digits, h = h(x) of the Decimal x:
    the accelerated vacuum kernel at h = alpha / 2 and the v = 0 thermal
    kernel at h = pi / beta."""
    with digits(50):
        h = h(Decimal(x))
        return -h * h * coth_csch2(abs(Decimal(u)) * h)[1] / (4 * pi() ** 2)


_VACUUM_CLOSED_FORMS = {
    "accelerated": (lambda u, x: K.wightman_vacuum_accelerated(u, x).value,
                    lambda alpha: alpha / 2),
    "thermal": (K.thermal_image_closed, lambda beta: pi() / beta),
}


@pytest.mark.parametrize("name, u, x, want", [
    # 1 / 4 beta^2 overflowed to inf before csch^2 ~ 1e-127 was applied
    ("thermal", 4.010736447369498e-204, 8.596460420482349e-206, "-6.6004e282"),
    # csch^2 underflowed to 0 before the prefactor was applied
    ("thermal", 1e-140, 5.5e-143, "-2.4122e-212"),
    ("accelerated", 1e-147, 1e150, "-1.2858e-136"),
    # (alpha / 2)^2 underflowed to 0 before csch^2 ~ 1 / w^2 was applied
    ("accelerated", -1.1788477981414428e86, 2.485444524931447e-222, "-1.8227e-174"),
])
def test_vacuum_closed_forms_where_a_factor_leaves_the_float_range(name, u, x, want):
    # the parent returned -inf + nanj and three times -0
    call, h = _VACUUM_CLOSED_FORMS[name]
    ref = _csch2_reference(u, h, x)
    assert abs(ref - Decimal(want)) < Decimal("1e-4") * abs(ref)
    got = complex(call(u, x))
    assert got.imag == 0.0
    assert abs(Decimal(got.real) - ref) <= Decimal("1e-13") * abs(ref)


_LOG_UNIFORM = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)


@pytest.mark.parametrize("name", sorted(_VACUUM_CLOSED_FORMS))
@given(_LOG_UNIFORM, st.sampled_from([1.0, -1.0]), _LOG_UNIFORM)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_vacuum_closed_forms_over_the_float_range(name, u, sign, x):
    # u, alpha and beta log-uniform over [1e-300, 1e300].  About a quarter of
    # the parent's values were -0 or NaN where the value is a normal float.
    # The error is the |w| 2^-52 conditioning of e^-|w|, w = h u, up to |w|
    # ~ 1100 where the value is still normal: 1.5e-13 measured on 12000
    # points.  A subnormal value carries 2^-1074 absolute; beyond the float
    # range the value is -inf; no call warns
    call, h = _VACUUM_CLOSED_FORMS[name]
    want = _csch2_reference(u, h, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = complex(call(sign * u, x))
    assert got.imag == 0.0
    if abs(want) > Decimal(sys.float_info.max):
        assert got.real == -math.inf
    else:
        tol = Decimal("3e-13") * abs(want) + Decimal(2) ** -1074
        assert abs(Decimal(got.real) - want) <= tol, (got, want)


# (u, beta) log-uniform over [1e-300, 1e300], or beta so and x = pi u / beta
# log-uniform over [1e-3, 1e4], the band where q^2 = 1 / (4 pi^2 u^2) or
# e^{-2 A2} leaves the float range while g does not
_U_BETA = st.one_of(
    st.tuples(_LOG_UNIFORM, _LOG_UNIFORM),
    st.tuples(st.floats(min_value=-3.0, max_value=4.0), _LOG_UNIFORM).map(
        lambda p: (10.0 ** p[0] * p[1] / math.pi, p[1])),
)


@given(_U_BETA, st.sampled_from([1.0, -1.0]),
       st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
# the direct product alone gives -inf for -1.2115e17, NaN for -3.9670e-256,
# NaN with a warning for 0, and -0 for -2.3972e-307
@example((3.880186208490003e-296, 8.166996526335206e-299), 1.0, 0.6709043150358274)
@example((4.138028520389279e-198, 1e-200), 1.0, 0.5)
@example((1.3903588468027452e-193, 3.124331192976555e-297), 1.0, 0.2624947127501015)
@example((1.5e-155, 3.823891843079868e-158), -1.0, 0.5)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_inertial_thermal_over_the_float_range(u_beta, sign, v):
    # against the 50-digit reference.  The error is the x 2^-52 conditioning
    # of e^{-2 A2} and, where q e^{-A2} is formed as e^{ln q - A2}, that of
    # the exponent: 1.9e-13 measured on 20000 log-uniform (u, beta) points
    # with v uniform in (0, 1), 6.5e-13 on 40000 points in the x band.  A
    # subnormal value carries a few 2^-1074 absolute (q^2 itself may be
    # subnormal); beyond the float range the value is -inf; no call warns
    u, beta = u_beta
    want = _inertial_reference(u, beta, v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = K.g_thermal_inertial(sign * u, beta, v).value
    assert got.imag == 0.0
    if abs(want) > Decimal(sys.float_info.max):
        assert got.real == -math.inf
        return
    if abs(want) >= Decimal(2) ** -1022:
        assert got.real != 0.0
    tol = Decimal("1e-12") * abs(want) + 4 * Decimal(2) ** -1074
    assert abs(Decimal(got.real) - want) <= tol, (got, want)


# --- (h coth w, h csch w), the helper of every csch closed form ------------

def _h_coth_csch_reference(w: complex, h: float) -> tuple[complex, complex]:
    """(h coth w, h csch w) at 50 digits, rounded to complex floats."""
    with digits(50):
        (c_re, c_im), (s_re, s_im) = coth_csch(Decimal(w.real), Decimal(w.imag))
        h = Decimal(h)
        return complex(h * c_re, h * c_im), complex(h * s_re, h * s_im)


def _h_coth_csch_at(w: complex, h: float):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return K._h_coth_csch(np.complex128(w), w / h, h, math.log(h))


_PART = st.tuples(st.floats(min_value=-300.0, max_value=3.0), st.sampled_from([1.0, -1.0]))


@given(_PART, _PART, _LOG_UNIFORM)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_h_coth_csch_over_both_half_planes(re, im, h):
    # Re w log-uniform over +-[1e-300, 1e3], Im w over +-[1e-300, 1e3] and h
    # over [1e-300, 1e300].  h csch w = 2 e^{ln h - w} / (1 - E) carries the
    # |ln h - Re w| 2^-53 conditioning of its exponential: 1.1e-13 relative
    # measured on 20000 points.  h coth w = h (2 / (1 - E) - 1) cancels
    # near its zeros, w = i pi (k + 1/2), to ~2^-53 h absolute: 2.7e-16
    # of |h coth w| + h.  A subnormal value carries 2^-1070 absolute; values
    # beyond 1e300 are left out; no call warns.  |w| below the smallest
    # normal double is test_h_coth_csch_at_its_edges' case
    w = complex(re[1] * 10.0 ** re[0], im[1] * 10.0 ** im[0])
    if abs(w) < sys.float_info.min:
        return
    coth, csch = _h_coth_csch_at(w, h)
    want_coth, want_csch = _h_coth_csch_reference(w, h)
    if abs(want_coth) <= 1e300:
        assert abs(complex(coth) - want_coth) <= 1e-15 * (abs(want_coth) + h), (w, h)
    if abs(want_csch) <= 1e300:
        tol = 2e-13 * abs(want_csch) + 2.0**-1070
        assert abs(complex(csch) - want_csch) <= tol, (w, h)


def test_h_coth_csch_at_its_edges():
    h = 1.3
    # Re w = +-0: coth and csch of i y, odd bit for bit.  (h + 0i)(-0 - iy)
    # has real part +0, so the fold reads the sign of Re z
    z = complex(0.0, 0.5)
    for re in (0.0, -0.0):
        w = complex(re, h * z.imag)
        for got, want in zip(_h_coth_csch_at(w, h), _h_coth_csch_reference(w, h)):
            assert abs(complex(got) - want) <= 1e-15 * abs(want)
    up, down = (K._h_coth_csch(h * x, x, h, math.log(h)) for x in (np.complex128(z), -z))
    assert np.array_equal(down, [-x for x in up])
    # Re w = +-inf: h coth w = +-h and h csch w = 0
    for sign in (1.0, -1.0):
        coth, csch = _h_coth_csch_at(complex(sign * math.inf, 0.4), h)
        assert coth == pytest.approx(sign * h, rel=1e-15) and csch == 0.0
    # |w| subnormal: w = h z has lost digits, and both are 1 / z
    z, tiny = complex(3e-10, -1e-10), 1e-300
    coth, csch = K._h_coth_csch(tiny * np.complex128(z), z, tiny, math.log(tiny))
    assert coth == csch == pytest.approx(1.0 / z, rel=1e-15)
    # ln h carried in the exponent: a tiny h at large Re w, and a large h
    # where e^-w underflows while h csch w = 1e-134 is normal
    for w, h in ((complex(100.0, 0.3), 1e-250), (complex(1000.0, 0.3), 1e300)):
        for got, want in zip(_h_coth_csch_at(w, h), _h_coth_csch_reference(w, h)):
            assert abs(complex(got) - want) <= 2e-13 * abs(want), (w, h)
