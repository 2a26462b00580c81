"""Detector response: closed forms, limits, and quadrature oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unruh_kinetics.core import DomainError
from unruh_kinetics import response as RS


def test_inertial_rate_is_exactly_zero():
    # alpha = 0 is the inertial worldline: x = inf, rate +0.0, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # -0.0 too: x = -inf gave rate NaN and a numpy warning
        rates = [RS.response_accelerated(de, alpha).rate
                 for de in (1e-300, 1.0, 10.0, 1e300) for alpha in (0.0, -0.0)]
    for rate in rates:
        assert type(rate) is float and rate == 0.0
        assert math.copysign(1.0, rate) == 1.0


def test_inertial_rejects_non_positive_gap():
    with pytest.raises(DomainError):
        RS.response_accelerated(0.0, 0.0)


@pytest.mark.parametrize("alpha", [-1.0, -math.inf, math.nan])
def test_rate_rejects_negative_or_nan_alpha(alpha):
    with pytest.raises(DomainError, match="alpha must be >= 0"):
        RS.response_accelerated(1.0, alpha)
    # unruh_temperature(nan) was nan
    with pytest.raises(DomainError, match="alpha must be >= 0"):
        RS.unruh_temperature(alpha)


def test_accelerated_rate_at_log2_point():
    # e^{2 pi dE / alpha} = 2  =>  rate = dE / 2 pi
    alpha = 1.0
    de = alpha * math.log(2.0) / (2.0 * math.pi)
    assert RS.response_accelerated(de, alpha).rate == pytest.approx(
        de / (2.0 * math.pi), rel=1e-14
    )


def test_accelerated_rate_vanishes_at_small_alpha():
    assert RS.response_accelerated(1.0, 1e-3).rate == 0.0  # e^{6283} underflows
    assert RS.response_accelerated(1.0, 0.05).rate < 1e-50


def test_accelerated_rate_monotone_in_alpha():
    rates = [RS.response_accelerated(1.0, a).rate for a in np.linspace(0.2, 8.0, 30)]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_small_gap_limit():
    # dE -> 0: rate -> alpha / 4 pi^2
    got = RS.response_accelerated(1e-8, 1.0).rate
    assert got == pytest.approx(1.0 / (4.0 * math.pi**2), rel=1e-6)


@given(
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.2, max_value=5.0),
)
@settings(max_examples=30, deadline=None)
def test_kms_detailed_balance_shape(de, alpha):
    # absorption / emission = e^{-2 pi dE / alpha} as an algebraic identity
    x = 2.0 * math.pi * de / alpha
    absorption = RS.response_accelerated(de, alpha).rate
    emission = de / (2.0 * math.pi) * (1.0 + 1.0 / math.expm1(x))
    assert absorption / emission == pytest.approx(math.exp(-x), rel=1e-10)


def test_unruh_temperature():
    assert RS.unruh_temperature(2.0 * math.pi) == pytest.approx(1.0)
    assert RS.unruh_temperature(1.0) == pytest.approx(1.0 / (2.0 * math.pi))
    assert RS.unruh_temperature(0.0) == 0.0  # the inertial worldline


def test_inertial_silence_oracle_decays():
    vals = [abs(RS.inertial_silence_oracle(1.0, 1e-3 / 2**k)) for k in range(4)]
    assert vals[0] < 1e-2
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_planck_oracle_matches_closed_form():
    oracle = RS.planck_response_oracle(1.0, 2.0)
    closed = RS.response_accelerated(1.0, 2.0).rate
    assert abs(oracle - closed) / closed < 1e-4


@pytest.mark.parametrize("de, alpha", [(1.0, 1.0), (0.5, 3.0), (2.0, 0.5)])
def test_planck_oracle_where_the_image_sum_oracle_failed(de, alpha):
    # the old image-sum oracle was off by 1.7e-3, 2.2e-4 and 7.2e4 here
    oracle = RS.planck_response_oracle(de, alpha)
    closed = RS.response_accelerated(de, alpha).rate
    assert abs(oracle - closed) / closed < 1e-4


@pytest.mark.parametrize("de, alpha", [
    (1.0, 1.0), (1.0, 2.0), (0.5, 3.0), (2.0, 0.5), (5.0, 0.5), (50.0, 1.0),
])
def test_planck_oracle_to_rounding(de, alpha):
    # the ground-state total is the e^{+i deltaE z} line integral alone, so
    # no VF - RR cancellation is left even at F = 2.9e-136 (50, 1)
    oracle = RS.planck_response_oracle(de, alpha)
    closed = RS.response_accelerated(de, alpha).rate
    assert abs(oracle - closed) <= 1e-12 * closed


def test_accelerated_rate_arrays_match_scalar_calls():
    grid = np.linspace(1e-6, 60.0, 2001)
    for alpha in (0.05, 1.3, 40.0):
        arr = RS.response_accelerated(grid, alpha)
        one = [RS.response_accelerated(float(de), alpha).rate for de in grid]
        assert all(type(r) is float for r in one)
        assert np.array_equal(arr.rate, one)
        assert arr.rate.shape == grid.shape
    assert np.array_equal(RS.response_accelerated(grid, 0.0).rate, np.zeros_like(grid))


def test_accelerated_rate_over_an_alpha_array_matches_scalar_calls():
    # one gap on many worldlines, the rows of an alpha sweep; alpha = 0 and
    # -0.0 are inertial, and the first negative alpha is named
    alphas = np.concatenate([[0.0, -0.0], np.geomspace(1e-3, 1e3, 500)])
    for de in (1e-300, 0.7, 40.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            arr = RS.response_accelerated(de, alphas).rate
        one = [RS.response_accelerated(de, float(a)).rate for a in alphas]
        assert np.array_equal(arr, one)
    with pytest.raises(DomainError, match="alpha must be >= 0, got -2.0"):
        RS.response_accelerated(1.0, np.array([1.0, -2.0, math.nan]))


def test_accelerated_rate_underflows_without_warnings():
    # x = 2 pi deltaE / alpha from 1e-9 to 6e5: the rate decays to 0
    grid = np.geomspace(1e-9, 1e3, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rate = RS.response_accelerated(grid, 1e-2).rate
    assert np.all(np.isfinite(rate)) and np.all(rate >= 0.0)
    assert rate[-1] == 0.0 and np.all(np.diff(rate) <= 0.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_accelerated_rate_rejects_bad_gap_in_arrays(bad):
    with pytest.raises(DomainError):
        RS.response_accelerated(np.array([1.0, bad]), 1.0)


@pytest.mark.parametrize("de, alpha", [(4e307, 1e307), (1.7e308, 1e308), (1e308, 2e307)])
def test_accelerated_rate_where_two_pi_deltaE_overflows_scales(de, alpha):
    # x = 2 pi deltaE / alpha overflowed in 2 pi deltaE and gave rate 0; the
    # rate scales as lambda under (deltaE, alpha) -> lambda (deltaE, alpha)
    scale = alpha
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = RS.response_accelerated(de, alpha).rate
        arr = RS.response_accelerated(np.array([1.0, de]), alpha).rate
    want = scale * RS.response_accelerated(de / scale, alpha / scale).rate
    assert got == pytest.approx(want, rel=1e-12) and got > 0.0
    assert arr[1] == got
    assert RS.response_accelerated(de, 0.0).rate == 0.0
