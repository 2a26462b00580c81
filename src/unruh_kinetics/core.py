"""Domain types, unit conventions and the config-to-model builder.

Natural units (hbar = c = k_B = 1) are used throughout the package.  The
model of a config is the detector, the inverse temperature beta in
(0, +inf], where beta = +inf is exact zero temperature, and the proper
acceleration alpha, where alpha = 0 is the inertial worldline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """A parameter violates a model invariant."""


class SingularInput(DomainError):
    """A kernel was evaluated on its singular locus: u = 0, or in
    `kernels.g_thermal_accelerated` |tau1 - tau2| < U_MIN."""


class NonConvergence(RuntimeError):
    """An extrapolation or truncated-sum sequence failed to contract."""


def require_all(ok, values, what: str) -> None:
    """Raise DomainError(f"{what}, got {v}") for the first v of the array
    ``values`` at which the same-shaped mask ``ok`` is false."""
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        ok = np.asarray(ok)
        bad = np.broadcast_to(values, ok.shape)[~ok]
        raise DomainError(f"{what}, got {bad.flat[0]}")


def plain(x):
    """A numpy scalar as a Python float; an array passes through."""
    return float(x) if isinstance(x, np.generic) else x


def check_beta(beta):
    """beta, if it lies in (0, +inf]; beta = +inf is zero temperature."""
    require_all(beta > 0, beta, "beta must be positive (or +inf)")
    return beta


@dataclass(frozen=True)
class DetectorParams:
    """Two-level detector: level splitting omega0 > 0 and monopole coupling mu >= 0.

    Either may be an array (a sweep); each check then covers every element.
    """

    omega0: float
    mu: float = 1.0

    def __post_init__(self) -> None:
        require_all(np.isfinite(self.omega0), self.omega0, "omega0 must be finite")
        require_all(np.isfinite(self.mu), self.mu, "mu must be finite")
        require_all(self.omega0 > 0, self.omega0, "omega0 must be positive")
        require_all(self.mu >= 0, self.mu, "mu must be non-negative")


@dataclass(frozen=True)
class OrderingParam:
    """Operator-ordering weight of lam*AB + (1-lam)*BA; lam = 1/2 is symmetric."""

    lam: float = 0.5

    def __post_init__(self) -> None:
        require_all((0.0 <= self.lam) & (self.lam <= 1.0), self.lam,
                    "ordering weight must lie in [0, 1]")

    @property
    def is_symmetric(self) -> bool:
        """lam = 1/2, at every element of an array lam."""
        return bool(np.all(self.lam == 0.5))


@dataclass(frozen=True)
class AtomState:
    """Diagonal atom state, characterized by <a|R3|a> in [-1/2, 1/2]."""

    r3_expectation: float

    def __post_init__(self) -> None:
        require_all(abs(self.r3_expectation) <= 0.5, self.r3_expectation,
                    "|<R3>| must be <= 1/2")

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
    returned as +0.0.  One field may be an array (a sweep's grid): each of
    its checks then covers every element and names the first it refuses.
    """
    detector = DetectorParams(config["detector.omega0"], config["detector.mu"])
    beta = check_beta(config["thermal.beta"])
    alpha = config["trajectory.alpha"]
    require_all(np.isfinite(alpha), alpha, "alpha must be finite")
    require_all(alpha >= 0, alpha, "alpha must be >= 0")
    return detector, beta, abs(alpha)
