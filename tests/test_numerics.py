"""Neville extrapolation and the Gauss-Legendre panel rule."""

import math

import numpy as np
import pytest

from unruh_kinetics.core import DomainError
from unruh_kinetics.numerics import (
    MAX_PANELS,
    damped_line_integral,
    half_line_cos_sin_integral,
    neville,
    panel_integral,
    panel_rule,
)

LADDER = (0.5, 0.25, 0.125, 0.0625, 0.03125)


def cubic(x: float) -> float:
    return 2.0 - 3.0 * x + 0.5 * x**2 + 4.0 * x**3


def test_neville_is_exact_on_a_cubic():
    value, contraction = neville(LADDER, [cubic(x) for x in LADDER])
    assert value == pytest.approx(2.0, abs=1e-13)
    # the last correction of an exact fit is round-off
    assert contraction < 1e-12


# -- panel rule ---------------------------------------------------------------

def damped_cos(delta: float, omega: float, u_max: float) -> float:
    """int_0^U e^{-delta u} cos(omega u) du in closed form."""
    tail = math.exp(-delta * u_max) * (
        omega * math.sin(omega * u_max) - delta * math.cos(omega * u_max)
    )
    return (delta + tail) / (delta**2 + omega**2)


@pytest.mark.parametrize("delta, omega, u_max", [
    (0.1, 1.0, 60.0), (1.0, 5.0, 400.0), (0.0, 3.0, 2.5), (2.0, 0.3, 0.5),
])
def test_panel_rule_integrates_a_damped_cosine(delta, omega, u_max):
    got = panel_integral(
        lambda u: np.exp(-delta * u) * np.cos(omega * u), 1e-2, omega, u_max
    )
    assert got == pytest.approx(damped_cos(delta, omega, u_max), rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("c", [1e-1, 1e-3, -1e-5])
def test_panel_rule_resolves_a_spike_at_the_origin(c):
    # omega = delta = 0: 2 Re int_0^U (u + ic)^-2 du = -2U / (U^2 + c^2)
    got = damped_line_integral(0.0, c, 0.0, 50.0)
    assert got == pytest.approx(-100.0 / (2500.0 + c * c), rel=1e-12)


def test_panel_layout():
    # [0, 2e-4], 11 doubling panels up to the width h = 1/4 at u = 1/4,
    # then 11 panels of width 1/4 out to u = 3
    u, w = panel_rule(0.02, 4.0, 3.0)
    assert u.size == w.size == 24 * (1 + 11 + 11)
    assert 0.0 < u.min() < 2e-4 and u.max() < 3.0
    assert w.sum() == pytest.approx(3.0, rel=1e-14)
    # with omega <= 1 the doubling panels reach u = 1
    assert panel_rule(0.02, 0.5, 3.0)[0].size == 24 * (1 + 13 + 2)
    # u_max below h ends the doubling panels at u_max
    u, w = panel_rule(0.5, 1.0, 0.3)
    assert u.max() < 0.3 and w.sum() == pytest.approx(0.3, rel=1e-14)


def test_zero_c_has_no_doubling_panels():
    u, w = panel_rule(0.0, 1.0, 10.0)
    assert u.size == 24 * 10 and w.sum() == pytest.approx(10.0, rel=1e-14)
    with pytest.raises(DomainError, match="non-integrable"):
        damped_line_integral(1.0, 0.0, 0.1, 10.0)


@pytest.mark.parametrize("omega, u_max", [
    (1e9, 1.0), (1.0, 1e9), (1.0, math.inf), (1.0, math.nan),
    (MAX_PANELS, 2.0),
])
def test_oversized_or_invalid_rule_raises_before_allocating(omega, u_max):
    with pytest.raises(DomainError):
        panel_rule(1e-2, omega, u_max)
    with pytest.raises(DomainError):
        damped_line_integral(omega, 1e-2, 0.0, u_max)


def test_half_line_integral_calls_f_with_one_float_per_node():
    seen = []

    def f(u):
        seen.append(u)
        return math.exp(-0.5 * u) * math.cos(2.0 * u)

    got = half_line_cos_sin_integral(f, 20.0, breakpoints=(0.01, 1.0, 50.0))
    assert got == pytest.approx(damped_cos(0.5, 2.0, 20.0), rel=1e-10)
    assert len(seen) == panel_rule(0.01, 1.0, 20.0)[0].size
    assert all(type(u) is float for u in seen)

