"""First-order detector response on inertial and accelerated worldlines.

The transition probability per unit (coupling)^2 x (matrix-element sum): zero
for inertial motion, Planckian for uniform acceleration; their oracles are a
damped quadrature and the numeric ground-state energy rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import AtomState, DetectorParams, DomainError, Inertial, Trajectory
from .core import UniformAcceleration
from .kernels import _FOUR_PI_SQ
from .numerics import damped_line_integral
from .rates import derivative_coupling_rates

__all__ = [
    "ResponseResult",
    "response_inertial",
    "response_accelerated",
    "unruh_temperature",
    "inertial_silence_oracle",
    "planck_response_oracle",
]


@dataclass(frozen=True)
class ResponseResult:
    """Transition rate per unit mu^2 * sum of squared matrix elements."""

    rate: float
    deltaE: float
    trajectory: Trajectory

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise DomainError(f"rate must be non-negative, got {self.rate}")


def _check_gap(deltaE: float) -> None:
    if not deltaE > 0:
        raise DomainError(f"deltaE must be positive, got {deltaE}")


def response_inertial(deltaE: float) -> ResponseResult:
    """Inertial detectors never excite: the rate is exactly zero."""
    _check_gap(deltaE)
    return ResponseResult(rate=0.0, deltaE=deltaE, trajectory=Inertial())


def response_accelerated(deltaE: float, alpha: float) -> ResponseResult:
    """Planck-distributed rate (1/2 pi) deltaE / (e^{2 pi deltaE / alpha} - 1)."""
    _check_gap(deltaE)
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    x = 2.0 * math.pi * deltaE / alpha
    rate = 0.0 if x > 700.0 else deltaE / (2.0 * math.pi * math.expm1(x))
    return ResponseResult(
        rate=rate, deltaE=deltaE, trajectory=UniformAcceleration(alpha)
    )


def unruh_temperature(alpha: float) -> float:
    """T = alpha / 2 pi in natural units."""
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
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
