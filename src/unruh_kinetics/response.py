"""First-order detector response on inertial and accelerated worldlines.

The transition probability per unit (coupling)^2 x (matrix-element sum): zero
for inertial motion, Planckian for uniform acceleration; their oracles are a
damped quadrature and the numeric ground-state energy rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AtomState, DetectorParams, DomainError, plain, require_all
from .kernels import _FOUR_PI_SQ
from .numerics import damped_line_integral
from .rates import derivative_coupling_rates

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
        require_all(np.float64(self.rate) >= 0.0, self.rate,
                    "rate must be non-negative")


def _check_gap(deltaE) -> None:
    require_all((deltaE > 0.0) & (deltaE < np.inf), deltaE,
                "deltaE must be positive and finite")


def response_accelerated(deltaE, alpha) -> ResponseResult:
    """Planck-distributed rate (1/2 pi) deltaE / (e^{2 pi deltaE / alpha} - 1).

    deltaE and alpha broadcast as arrays (many gaps, or many worldlines).  Written as
    deltaE e^{-x} / (2 pi (1 - e^{-x})), x = 2 pi deltaE / alpha, the rate
    underflows to 0 at large x instead of overflowing.  Where x underflows to
    0 the rate is its x -> 0 limit alpha / 4 pi^2.  alpha = 0 is the inertial
    worldline: x = inf and the rate is exactly 0, inertial detectors never
    excite.
    """
    deltaE, alpha = np.float64(deltaE), np.float64(alpha)
    _check_gap(deltaE)
    require_all(alpha >= 0, alpha, "alpha must be >= 0")
    alpha = abs(alpha)  # -0.0 is the inertial worldline too
    with np.errstate(over="ignore", divide="ignore"):  # x = inf gives rate 0
        x = 2.0 * np.pi * deltaE / alpha
        # 2 pi deltaE overflows above deltaE ~ 2.86e307, deltaE / alpha need not
        x = np.where(x == np.inf, 2.0 * np.pi * (deltaE / alpha), x)
    with np.errstate(divide="ignore"):  # x = 0 is replaced below
        rate = deltaE * np.exp(-x) / (-2.0 * np.pi * np.expm1(-x))
    rate = np.where(x == 0.0, alpha / (4.0 * np.pi**2), rate)[()]
    return ResponseResult(plain(rate))


def unruh_temperature(alpha: float) -> float:
    """T = alpha / 2 pi in natural units; 0 on the inertial worldline."""
    if not alpha >= 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    return alpha / (2.0 * math.pi)


def inertial_silence_oracle(
    deltaE: float, eps: float, u_max: float = 1.0e3
) -> float:
    """Damped-quadrature estimate of the inertial response at finite eps.

    -(1/4 pi^2) int e^{-i deltaE u} e^{-eps |u|} (u - i eps)^-2 du.
    The pole sits in the upper half-plane while the phase closes the contour
    below, so the value decays to zero with eps; the damping scale is slaved
    to eps, which keeps the estimate monotone in eps instead of bottoming out
    at the quadrature noise floor.
    """
    _check_gap(deltaE)
    return -damped_line_integral(deltaE, -eps, eps, u_max) / _FOUR_PI_SQ


def planck_response_oracle(deltaE: float, alpha: float) -> float:
    """F = 4 total / deltaE from the numeric ground-state energy rate at mu = 1,
    which is mu^2 deltaE F / 4 (Audretsch & Mueller, PRA 50, 1755 (1994))."""
    _check_gap(deltaE)
    report = derivative_coupling_rates(
        DetectorParams(deltaE, 1.0), alpha, AtomState.minus(), 0
    )
    return 4.0 * report.total / deltaE
