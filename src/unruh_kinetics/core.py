"""Domain types, unit conventions and the config-to-model builder.

Natural units (hbar = c = k_B = 1) are used throughout the package.  The
model of a config is the detector, the inverse temperature beta in
(0, +inf], where beta = +inf is exact zero temperature, and the proper
acceleration alpha, where alpha = 0 is the inertial worldline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """A parameter violates a model invariant."""


class SingularInput(DomainError):
    """A kernel was evaluated on its singular locus: u = 0, or in
    `kernels.g_thermal_accelerated` |tau1 - tau2| < U_MIN."""


class NonConvergence(RuntimeError):
    """An extrapolation or truncated-sum sequence failed to contract."""


def _require_finite(name: str, x: float) -> None:
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x}")


def check_beta(beta: float) -> float:
    """beta, if it lies in (0, +inf]; beta = +inf is zero temperature."""
    if math.isnan(beta) or beta <= 0:
        raise DomainError(f"beta must be positive (or +inf), got {beta}")
    return beta


def require_all(ok, values, what: str) -> None:
    """Raise DomainError(f"{what}, got {v}") for the first v of the array
    ``values`` at which the same-shaped mask ``ok`` is false."""
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        ok = np.asarray(ok)
        bad = np.broadcast_to(values, ok.shape)[~ok]
        raise DomainError(f"{what}, got {bad.flat[0]}")


@dataclass(frozen=True)
class DetectorParams:
    """Two-level detector: level splitting omega0 > 0 and monopole coupling mu >= 0."""

    omega0: float
    mu: float = 1.0

    def __post_init__(self) -> None:
        _require_finite("omega0", self.omega0)
        _require_finite("mu", self.mu)
        if self.omega0 <= 0:
            raise DomainError(f"omega0 must be positive, got {self.omega0}")
        if self.mu < 0:
            raise DomainError(f"mu must be non-negative, got {self.mu}")


@dataclass(frozen=True)
class OrderingParam:
    """Operator-ordering weight of lam*AB + (1-lam)*BA; lam = 1/2 is symmetric."""

    lam: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise DomainError(f"ordering weight must lie in [0, 1], got {self.lam}")

    @property
    def is_symmetric(self) -> bool:
        return self.lam == 0.5


@dataclass(frozen=True)
class AtomState:
    """Diagonal atom state, characterized by <a|R3|a> in [-1/2, 1/2]."""

    r3_expectation: float

    def __post_init__(self) -> None:
        if not abs(self.r3_expectation) <= 0.5:
            raise DomainError(
                f"|<R3>| must be <= 1/2, got {self.r3_expectation}"
            )

    @classmethod
    def plus(cls) -> "AtomState":
        """Excited state |+>."""
        return cls(0.5)

    @classmethod
    def minus(cls) -> "AtomState":
        """Ground state |->."""
        return cls(-0.5)


def validate(config: dict) -> tuple[DetectorParams, float, float]:
    """(detector, beta, alpha) of a config, checked in that order.

    config maps dotted field names to values, as ``cli.DEFAULT_CONFIG``
    does; validate reads ``detector.omega0``, ``detector.mu``,
    ``thermal.beta`` and ``trajectory.alpha``.  alpha is a finite proper
    acceleration >= 0; alpha = 0.0 is the inertial worldline, and -0.0 is
    returned as +0.0.
    """
    detector = DetectorParams(config["detector.omega0"], config["detector.mu"])
    beta = check_beta(config["thermal.beta"])
    alpha = config["trajectory.alpha"]
    _require_finite("alpha", alpha)
    if not alpha >= 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    return detector, beta, abs(alpha)
