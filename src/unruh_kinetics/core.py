"""Domain types, unit conventions, validate (a config to its model), and the
Fermi function, Planck factor and list linspace that the modules share.

Natural units (hbar = c = k_B = 1) are used throughout the package.  The
model of a config is the detector, the inverse temperature beta in
(0, +inf], where beta = +inf is exact zero temperature, and the proper
acceleration alpha, where alpha = 0 is the inertial worldline.
"""

from __future__ import annotations

import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass

# numpy is imported only for an array (or a numpy scalar) and by a failing
# check: math evaluates Python floats and ints, so steady, fermion and the
# small tables of rates, response and sweep run without it.

_TINY = sys.float_info.min  # the smallest normal double
_EPS = sys.float_info.epsilon  # 2^-52, the spacing of the doubles at 1
# the 4 pi^2 of the massless field's -1 / (4 pi^2 u^2) Wightman function
_FOUR_PI_SQ = 4.0 * math.pi**2


class DomainError(ValueError):
    """A parameter violates a model invariant."""


class SingularInput(DomainError):
    """A kernel was evaluated on its singular locus: u = 0, or in
    `kernels.g_thermal_accelerated` |tau1 - tau2| < U_MIN."""


class NonConvergence(RuntimeError):
    """An extrapolation or truncated-sum sequence failed to contract."""


def _inf_on_overflow(f):
    """math's f, giving numpy's signed inf where it raises OverflowError."""
    def f_or_inf(x: float) -> float:
        try:
            return f(x)
        except OverflowError:  # exp past x ~ 709.8, sinh past |x| ~ 710.5
            return math.copysign(math.inf, x)
    return staticmethod(f_or_inf)


class _FloatMath:
    """numpy's names for math's functions of Python floats.  exp, sinh and
    divide give numpy's inf or NaN where math's raise; ldexp raises
    OverflowError, as math's does; max and min are numpy's maximum, minimum
    and fmax where no argument is NaN."""

    maximum, minimum, fmax, float64 = max, min, max, float
    frexp, ldexp, isfinite = math.frexp, math.ldexp, math.isfinite
    exp, sinh = _inf_on_overflow(math.exp), _inf_on_overflow(math.sinh)
    errstate = staticmethod(lambda **_: nullcontext())

    @staticmethod
    def divide(p: float, q: float) -> float:
        try:
            return p / q
        except ZeroDivisionError:
            return p * math.copysign(math.inf, q) if p else math.nan


def _float_range(n: int) -> bool:
    """True if the int n converts to a float, else DomainError."""
    if abs(n) > sys.float_info.max:
        raise DomainError(f"an int of {n.bit_length()} bits is beyond the float range")
    return True


def math_or_numpy(*values):
    """The functions to evaluate values with, under numpy's names: math's if
    each value is a Python float or int (not a bool), so that one formula
    text serves both, else numpy (imported here).  An int beyond the float
    range, which neither can convert, is refused (DomainError) on both paths:
    the list is built in full, so every int is range-checked."""
    if all([type(v) is float or type(v) is int and _float_range(v) for v in values]):
        return _FloatMath
    import numpy

    return numpy


def fermi(x):
    """1 / (1 + e^x), 0.0 once e^x overflows, of a float or an array."""
    xp = math_or_numpy(x)
    with xp.errstate(over="ignore"):
        return 1.0 / (1.0 + xp.exp(x))


def linspace(start: float, stop: float, count: int) -> list[float]:
    """np.linspace(start, stop, count) as a list, bit for bit: i step +
    start, where a step that underflows to 0 is i / div delta + start, and
    stop last."""
    div = max(count - 1, 1)
    delta = stop - start
    step = delta / div
    if step == 0:  # numpy's branch for a subnormal step
        grid = [i / div * delta + start for i in range(count)]
    else:
        grid = [i * step + start for i in range(count)]
    if count > 1:
        grid[-1] = stop
    return grid


def planck(x):
    """(a, b) with a b = x / (e^x - 1), the Planck factor x nbar(x), for x in
    [0, +inf] (arrays too): a = x / (2 sinh(x/2)) and b = e^{-x/2}, both in
    [0, 1] and normal up to x ~ 1416, so a product that takes them one at a
    time does not underflow where it is normal.  planck(0) = (1, 1) and
    planck(inf) = (0, 0).  A Python float or int is evaluated with math,
    anything else with numpy (`math_or_numpy`); the two differ by a few ulps.
    """
    xp = math_or_numpy(x)
    # x/2 clipped to [_TINY, 746]: h / sinh h and e^-h are 1 below it and 0
    # above it, and no h is subnormal, 0 / 0 or inf / inf
    h = xp.minimum(xp.maximum(0.5 * xp.float64(x), _TINY), 746.0)
    with xp.errstate(over="ignore"):  # sinh h = inf above h ~ 710.5: a = 0
        return h / xp.sinh(h), xp.exp(-h)


def _all(ok) -> bool:
    """ok, a Python bool or a numpy mask, holds at every element."""
    return bool(ok) if getattr(ok, "ndim", 0) == 0 else bool(ok.all())


def require_all(ok, values, what: str) -> None:
    """Raise DomainError(f"{what}, got {v}") for the first v of the array
    ``values`` at which the same-shaped mask ``ok`` is false."""
    if not _all(ok):
        import numpy as np

        ok = np.asarray(ok)
        bad = np.broadcast_to(values, ok.shape)[~ok]
        raise DomainError(f"{what}, got {bad.flat[0]}")


def plain(x):
    """A numpy scalar as a Python float; an array passes through."""
    np = sys.modules.get("numpy")  # no numpy loaded, so x is not numpy's
    return float(x) if np and isinstance(x, np.generic) else x


def check_populations(sigma_plus, sigma_minus) -> None:
    """Refuse populations that do not sum to 1 (to 1e-9) or lie below -1e-12,
    naming the first pair refused (of an array, at every element)."""
    total = sigma_plus + sigma_minus
    require_all(abs(total - 1.0) <= 1e-9, total, "populations must sum to 1")
    ok = (sigma_plus >= -1e-12) & (sigma_minus >= -1e-12)
    if not _all(ok):
        import numpy as np

        i = np.argmin(ok)  # the first False
        sp, sm = (float(np.broadcast_to(x, np.shape(ok)).flat[i])
                  for x in (sigma_plus, sigma_minus))
        raise DomainError(f"populations must be non-negative, got ({sp}, {sm})")


def check_beta(beta):
    """beta, if it lies in (0, +inf]; beta = +inf is zero temperature."""
    require_all(beta > 0, beta, "beta must be positive (or +inf)")
    return beta


def check_positive(x, what: str):
    """x, if it is > 0 (a NaN is refused), at every element of an array."""
    require_all(x > 0, x, f"{what} must be positive")
    return x


def check_positive_finite(x, what: str):
    """x, if it lies in (0, +inf) (a NaN is refused), at every element of an
    array."""
    require_all((x > 0) & (x < math.inf), x, f"{what} must be positive and finite")
    return x


def check_alpha(alpha):
    """|alpha|, if alpha >= 0 (a NaN is refused), so -0.0 is returned as
    +0.0; alpha = 0 is the inertial worldline.  An array is checked at every
    element, and the first element refused is named."""
    require_all(alpha >= 0, alpha, "alpha must be >= 0")
    return abs(alpha)


@dataclass(frozen=True)
class DetectorParams:
    """Two-level detector: level splitting omega0 > 0 and monopole coupling mu >= 0.

    Either may be an array (a sweep); each check then covers every element.
    """

    omega0: float
    mu: float = 1.0

    def __post_init__(self) -> None:
        # abs(x) < inf refuses NaN and +-inf, scalar or array, with no warning
        require_all(abs(self.omega0) < math.inf, self.omega0, "omega0 must be finite")
        require_all(abs(self.mu) < math.inf, self.mu, "mu must be finite")
        check_positive(self.omega0, "omega0")
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
        return _all(self.lam == 0.5)


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
    require_all(abs(alpha) < math.inf, alpha, "alpha must be finite")
    return detector, beta, check_alpha(alpha)
