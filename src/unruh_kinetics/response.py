"""First-order detector response on inertial and accelerated worldlines.

The transition probability per unit (coupling)^2 x (matrix-element sum): zero
for inertial motion, Planckian for uniform acceleration; their oracles are a
damped quadrature and the numeric ground-state energy rate.  The oracles
import the quadrature and the rates when called, so the closed form, all that
the response command and its sweep run, loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (_FOUR_PI_SQ, AtomState, DetectorParams, check_alpha,
                   check_positive_finite, math_or_numpy, planck, plain, require_all)

__all__ = [
    "ResponseResult",
    "response_accelerated",
    "unruh_temperature",
    "inertial_silence_oracle",
    "planck_response_oracle",
]


@dataclass(frozen=True)
class ResponseResult:
    """Transition rate per unit mu^2 * sum of squared matrix elements.

    rate is a float, or an array of the gaps' shape for an array of gaps.
    """

    rate: float

    def __post_init__(self) -> None:
        rate = math_or_numpy(self.rate).float64(self.rate)
        require_all(rate >= 0.0, self.rate, "rate must be non-negative")


def response_accelerated(deltaE, alpha) -> ResponseResult:
    """Planck-distributed rate (1/2 pi) deltaE / (e^{2 pi deltaE / alpha} - 1).

    deltaE and alpha broadcast as arrays (many gaps, or many worldlines).  The
    rate is (alpha / 4 pi^2) a b, (a, b) = `core.planck` at x = 2 pi deltaE /
    alpha, multiplied in one factor at a time: each is at most 1, so no
    partial product underflows where the rate is normal.  alpha = 0 is the
    inertial worldline: x = inf and the rate is exactly 0, inertial detectors
    never excite.  Python floats and ints are evaluated with math, anything
    else with numpy.
    """
    xp = math_or_numpy(deltaE, alpha)
    deltaE, alpha = xp.float64(deltaE), xp.float64(alpha)
    check_positive_finite(deltaE, "deltaE")
    alpha = check_alpha(alpha)  # -0.0 is the inertial worldline too
    with xp.errstate(over="ignore", divide="ignore"):  # x = inf gives P = 0
        a, b = planck(2.0 * math.pi * xp.divide(deltaE, alpha))
    return ResponseResult(plain(alpha / _FOUR_PI_SQ * a * b))


def unruh_temperature(alpha: float) -> float:
    """T = alpha / 2 pi in natural units; +0.0 on the inertial worldline."""
    return check_alpha(alpha) / (2.0 * math.pi)


_SILENCE_U_MAX = 1.0e3  # the half-width of inertial_silence_oracle's integral


def inertial_silence_oracle(deltaE: float, eps: float) -> float:
    """Damped-quadrature estimate of the inertial response at finite eps.

    -(1/4 pi^2) int e^{-i deltaE u} e^{-eps |u|} (u - i eps)^-2 du.
    The pole sits in the upper half-plane while the phase closes the contour
    below, so the value decays to zero with eps; the damping scale is slaved
    to eps, which keeps the estimate monotone in eps instead of bottoming out
    at the quadrature noise floor.
    """
    from .numerics import damped_line_integral

    check_positive_finite(deltaE, "deltaE")
    check_positive_finite(eps, "eps")
    return -damped_line_integral(deltaE, -eps, eps, _SILENCE_U_MAX) / _FOUR_PI_SQ


def planck_response_oracle(deltaE: float, alpha: float) -> float:
    """F = 4 total / deltaE from the numeric ground-state energy rate at mu = 1,
    which is mu^2 deltaE F / 4 (Audretsch & Mueller, PRA 50, 1755 (1994)).
    Its S_2 integral shares the ray node values that `rates._ray_values`
    keeps for the last point: called right after the numeric rates at
    omega0 = deltaE and the same alpha, it evaluates no nodes."""
    from .rates import derivative_coupling_rates

    check_positive_finite(deltaE, "deltaE")
    report = derivative_coupling_rates(
        DetectorParams(deltaE, 1.0), alpha, AtomState.minus(), 0
    )
    return 4.0 * report.total / deltaE
