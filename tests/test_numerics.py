"""Neville extrapolation to x = 0 and its contraction check."""

import math

import pytest

from unruh_kinetics.core import NonConvergence
from unruh_kinetics.numerics import extrapolate_to_zero, halving_ladder, neville

LADDER = halving_ladder(0.5, 4)


def cubic(x: float) -> float:
    return 2.0 - 3.0 * x + 0.5 * x**2 + 4.0 * x**3


def test_neville_is_exact_on_a_cubic():
    value, contraction = neville(LADDER, [cubic(x) for x in LADDER])
    assert value == pytest.approx(2.0, abs=1e-13)
    # the last correction of an exact fit is round-off
    assert contraction < 1e-12
    assert extrapolate_to_zero(cubic, LADDER, tol=1e-10) == pytest.approx(
        2.0, abs=1e-13
    )


def test_complex_f_extrapolates_real_and_imaginary_parts():
    value = extrapolate_to_zero(
        lambda x: complex(cubic(x), -cubic(2.0 * x) / 4.0), LADDER
    )
    assert isinstance(value, complex)
    assert value.real == pytest.approx(2.0, abs=1e-13)
    assert value.imag == pytest.approx(-0.5, abs=1e-13)
    assert isinstance(extrapolate_to_zero(cubic, LADDER), float)


def test_ladder_that_does_not_contract_raises():
    with pytest.raises(NonConvergence):
        extrapolate_to_zero(lambda x: math.sin(1.0 / x), LADDER, tol=1e-3)


@pytest.mark.parametrize("bad", [0, len(LADDER) - 1])
def test_nan_fails_the_check(bad):
    nan_at = LADDER[bad]
    f = lambda x: math.nan if x == nan_at else cubic(x)
    with pytest.raises(NonConvergence):
        extrapolate_to_zero(f, LADDER, tol=1e-3)
    with pytest.raises(NonConvergence):
        extrapolate_to_zero(lambda x: complex(f(x), 1.0), LADDER, tol=1e-3)


def test_without_tol_no_check_runs():
    value = extrapolate_to_zero(lambda x: math.sin(1.0 / x), LADDER)
    assert math.isfinite(value)
    assert math.isnan(extrapolate_to_zero(lambda x: math.nan, LADDER))


def test_scale_floors_the_tolerance_for_near_zero_values():
    # value 3e-11 with a contraction of 9.5e-10: relative to |value| it
    # fails, relative to a natural scale of 1e-6 it passes
    f = lambda x: 1e-6 * x**5
    with pytest.raises(NonConvergence):
        extrapolate_to_zero(f, LADDER, tol=1e-3)
    assert abs(extrapolate_to_zero(f, LADDER, tol=1e-3, scale=1e-6)) < 1e-10
