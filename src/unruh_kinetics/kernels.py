"""Two-point functions of the detector-field system.

The vacuum Wightman function on a uniformly accelerated worldline, the
thermal Wightman function on an inertial one, and the master-equation kernel
g(tau', tau'') in both frames.  Every closed form has a brute-force
truncated-image-sum companion used as an oracle.  At u != 0 no image lies on
the real axis, so each oracle sums at eps = 0 and checks its truncation.

Sign conventions follow the -1/(4 pi^2) normalization of the massless-field
Wightman function throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _TINY, DomainError, NonConvergence, SingularInput, planck, require_all

__all__ = [
    "KernelValue",
    "wightman_vacuum_accelerated",
    "wightman_vacuum_accelerated_sum",
    "g_thermal_inertial",
    "g_thermal_inertial_sum",
    "g_thermal_accelerated",
    "image_sum_inverse_power",
    "image_sum_inverse_power_sum",
    "thermal_image_sum",
    "thermal_image_closed",
]

# Below this speed the finite-v coth closed form loses ~all significant digits
# to cancellation; switch to the v -> 0 csch^2 limit.
V_CROSSOVER = 1e-6
# |Re w| beyond which coth w and csch^2 w are evaluated from their value at
# Re w = +-W_CLIP (see _coth_csch2).
W_CLIP = 20.0
# |tau1 - tau2| below which the accelerated kernel, ~ -1/(4 pi^2 u^2), is
# treated as singular: below ~1e-154 its value overflows a double.
U_MIN = 1e-150
# Bound on alpha, |tau1| and |tau2| in the accelerated kernel, so that
# alpha (|tau1| + |tau2|) cannot overflow.
ARG_MAX = 1e150

# Settings of the image-sum oracles, read at each call: each sums |n| <= N_MAX
# and raises NonConvergence unless its truncation error estimate is within
# TRUNC_TOL relative (see _truncated).
TRUNC_TOL = 1e-8
N_MAX = 10_000

_FOUR_PI_SQ = 4.0 * math.pi**2


@dataclass(frozen=True)
class KernelValue:
    """Complex kernel value (a complex array for array arguments)."""

    value: complex


def _complex(x):
    """A scalar result as a Python complex; an array as a complex array."""
    return complex(x) if isinstance(x, np.generic) else x + 0j


def _coth_csch2(w):
    """(coth w, csch^2 w) for any w, without overflow.

    Re w is clipped to +-W_CLIP and the excess carried as e^{-2|excess|}:
    beyond the clip sinh(w) = sinh(w_clipped) e^{+-excess} and coth(w) =
    coth(w_clipped) to within e^{-2 W_CLIP} ~ 4e-18 relative, below double
    rounding.  Inside it this is 1 / sinh^2 and cosh / sinh exactly.
    """
    a = w.real
    excess = a - np.clip(a, -W_CLIP, W_CLIP)
    w = w - excess
    sh = np.sinh(w)
    return np.cosh(w) / sh, np.exp(-2.0 * np.abs(excess)) / sh**2


def _exprel_neg(z):
    """(1 - e^{-z}) / z for z >= 0, 1 at z = 0, without cancellation.

    Adding the smallest normal double leaves z >= 1e-291 unchanged and keeps
    z = 0 off 0 / 0; below that the value is 1 to double precision.
    """
    z = z + _TINY
    return -np.expm1(-z) / z


def _log_ratio(x, y):
    """ln(x / y) for x > 0 finite and y in (0, +inf].

    The log of the ratio where x / y is normal or exact (x / inf = 0 gives
    -inf), else the split ln x - ln y, which keeps only ~|ln x| 2^-52
    absolute accuracy.  The division raises its underflow or overflow flag
    only for a ratio rounded to a subnormal, 0 or inf, so where none is,
    this is one division and one log.
    """
    try:
        with np.errstate(under="raise", over="raise", divide="ignore"):
            return np.log(x / y)
    except FloatingPointError:
        with np.errstate(all="ignore"):
            r = x / y
            # r y == x: r is x / y to within 2^-53, as an exact ratio is
            ok = ((r >= _TINY) & (r < np.inf)) | (r * y == x)
            return np.where(ok, np.log(r), np.log(x) - np.log(y))


def _coth(x: float) -> float:
    return 1.0 / math.tanh(x)


def _image_sums(terms, tail) -> tuple[complex, complex]:
    """(S_N, S_{N/2}): an image sum over |n| <= N = N_MAX and over |n| <= N
    // 2, each with its midpoint tail, from one array of terms.

    terms(n) is the array of terms at an integer array n, tail(N) the tail
    beyond |n| <= N.  The 2N + 1 terms are formed once; S_{N/2} sums the
    middle 2(N // 2) + 1 of them, the same values summed in the same order
    as terms(n) at |n| <= N // 2 alone.
    """
    n_max = N_MAX
    half = n_max // 2
    t = terms(np.arange(-n_max, n_max + 1))
    return (complex(np.sum(t) + tail(n_max)),
            complex(np.sum(t[n_max - half:n_max + half + 1]) + tail(half)))


def _truncated(terms, tail) -> complex:
    """S_N of `_image_sums`, checked against S_{N/2}.

    The midpoint tail's error falls as n^-3, so the error of S_{N/2} is 8
    times that of S_N and their difference is 7 times it.  Raises
    NonConvergence unless that estimate is within TRUNC_TOL relative; a NaN
    fails too.
    """
    with np.errstate(all="ignore"):  # an overflow gives a NaN that the gate refuses
        value, half = _image_sums(terms, tail)
    error = abs(value - half) / 7.0
    if not error <= TRUNC_TOL * abs(value):
        raise NonConvergence(
            f"image sum truncated at |n| <= {N_MAX} has an estimated error of "
            f"{error:.3e} for a value of magnitude {abs(value):.3e} "
            f"(tolerance {TRUNC_TOL:.1e})"
        )
    return value


# ---------------------------------------------------------------------------
# image sums over z + i*(2 pi / alpha) * k
# ---------------------------------------------------------------------------

def image_sum_inverse_power(m: int, z: complex, alpha: float) -> complex:
    """S_m(z) = sum_k (z + i 2 pi k / alpha)^-m in closed form, m = 2, 3, 4, 6.

    Obtained by repeated differentiation of the m = 2 lattice identity
    S_2(z) = (alpha/2)^2 csch^2(alpha z / 2) via S_{m+1} = -S_m' / m, in
    u = h^2 csch^2(h z) and v = h coth(h z), h = alpha/2: no power of h is
    formed on its own, where it may underflow.  z may be an array.
    """
    h = alpha / 2.0
    c, s2 = _coth_csch2(h * z)
    u, v = h**2 * s2, h * c
    if m == 2:
        return u
    if m == 3:
        return u * v
    if m == 4:
        return u * (2.0 * v * v + u) / 3.0
    if m == 6:
        return u * (2.0 * v**4 + 11.0 * v * v * u + 2.0 * u * u) / 15.0
    raise DomainError(f"image_sum_inverse_power supports m in 2, 3, 4, 6, got {m}")


def _inverse_power_series(m: int, z: complex, alpha: float):
    """(terms, tail) of S_m(z) for `_image_sums`: the terms (z + i P n)^-m,
    P = 2 pi / alpha, and the Euler-Maclaurin midpoint tail, sum_{|n|>N} f(n)
    ~ the integral over |n| > N + 1/2."""
    period = 2.0 * math.pi / alpha

    def terms(n):
        return (z + 1j * period * n) ** (-m)

    def tail(n_max: int) -> complex:
        edge = period * (n_max + 0.5)
        return ((1.0 / (m - 1)) * ((z + 1j * edge) ** (1 - m) - (z - 1j * edge) ** (1 - m))
                / (1j * period))

    return terms, tail


def image_sum_inverse_power_sum(
    m: int, z: complex, alpha: float, n_max: int
) -> complex:
    """Brute-force symmetric truncation of S_m(z) with a midpoint tail estimate."""
    terms, tail = _inverse_power_series(m, z, alpha)
    return complex(np.sum(terms(np.arange(-n_max, n_max + 1))) + tail(n_max))


# ---------------------------------------------------------------------------
# vacuum Wightman functions
# ---------------------------------------------------------------------------

def wightman_vacuum_accelerated(u, alpha) -> KernelValue:
    """Closed form -(alpha^2 / 16 pi^2) csch^2(alpha u / 2) on the eps -> 0+
    boundary.

    u and alpha broadcast as arrays.
    """
    u, alpha = np.float64(u), np.float64(alpha)
    require_all(alpha > 0, alpha, "alpha must be positive")
    if np.any(u == 0.0):
        raise SingularInput("u = 0 is singular")
    w = -(1.0 / _FOUR_PI_SQ) * image_sum_inverse_power(2, u + 0j, alpha)
    return KernelValue(_complex(w))


def wightman_vacuum_accelerated_sum(u: float, alpha: float) -> KernelValue:
    """Truncated-image-sum oracle for wightman_vacuum_accelerated.

    Symmetric truncation at |n| <= N_MAX plus a midpoint tail estimate, at
    eps = 0 and checked by _truncated.
    """
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if u == 0.0:
        raise SingularInput("u = 0 is singular")
    s = _truncated(*_inverse_power_series(2, u, alpha))
    return KernelValue(-(1.0 / _FOUR_PI_SQ) * s)


# ---------------------------------------------------------------------------
# thermal kernels, inertial frame
# ---------------------------------------------------------------------------

def thermal_image_closed(u, beta) -> complex:
    """-(1 / 4 beta^2) csch^2(pi u / beta), the v -> 0 thermal kernel.

    u and beta broadcast as arrays; the value is real, returned as complex.
    """
    u, beta = np.float64(u), np.float64(beta)
    if np.any(u == 0.0):
        raise SingularInput("u = 0 is singular")
    _, s2 = _coth_csch2(np.pi * u / beta + 0j)
    return _complex(-(1.0 / (4.0 * beta**2)) * s2)


def thermal_image_sum(u: float, beta: float) -> complex:
    """-(1/4 pi^2) sum_n (u - i beta n)^-2: wightman_vacuum_accelerated_sum
    at alpha = 2 pi / beta.

    Oracle for thermal_image_closed through the lattice-sum identity
    sum_n (u - i beta n)^-2 = (pi^2 / beta^2) csch^2(pi u / beta).
    """
    if not math.isfinite(beta) or beta <= 0:
        raise DomainError(f"beta must be positive and finite, got {beta}")
    return wightman_vacuum_accelerated_sum(u, 2.0 * math.pi / beta).value


def g_thermal_inertial(u: float, beta: float, v: float) -> KernelValue:
    """Finite-v inertial thermal kernel (coth closed form).

    g = sqrt(1-v^2) [coth(gamma (v-1) pi u / beta) + coth(gamma (v+1) pi u / beta)]
        / (8 pi beta v u)

    For v below the cancellation crossover the v -> 0 limit
    -(1/4 beta^2) csch^2(pi u / beta) is returned instead.
    """
    if not 0.0 <= v < 1.0:
        raise DomainError(f"speed must satisfy 0 <= v < 1, got {v}")
    if not math.isfinite(beta) or beta <= 0:
        raise DomainError(f"beta must be positive and finite, got {beta}")
    if u == 0.0:
        raise SingularInput("u = 0 is singular")
    if v < V_CROSSOVER:
        return KernelValue(thermal_image_closed(u, beta))
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    x = math.pi * u / beta
    val = (
        math.sqrt(1.0 - v * v)
        * (_coth(gamma * (v - 1.0) * x) + _coth(gamma * (v + 1.0) * x))
        / (8.0 * math.pi * beta * v * u)
    )
    return KernelValue(complex(val))


def g_thermal_inertial_sum(u: float, beta: float, v: float) -> KernelValue:
    """Truncated-sum oracle for g_thermal_inertial.

    (1/4 pi^2) sum_n [i 2 beta (gamma-1) u n - (u - i beta n)^2]^-1,
    symmetric truncation plus a partial-fraction tail, checked by _truncated.
    """
    if not 0.0 <= v < 1.0:
        raise DomainError(f"speed must satisfy 0 <= v < 1, got {v}")
    if not math.isfinite(beta) or beta <= 0:
        raise DomainError(f"beta must be positive and finite, got {beta}")
    if u == 0.0:
        raise SingularInput("u = 0 is singular")
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    # denominator = beta^2 m^2 + 2 i beta gamma u m - u^2 at m = n, roots
    # m_pm = -i gamma u (1 -+ v) / beta
    m_p = -1j * gamma * u * (1.0 - v) / beta
    m_m = -1j * gamma * u * (1.0 + v) / beta

    def terms(m):
        return 1.0 / (beta**2 * (m - m_p) * (m - m_m))

    def tail_antideriv(mm: float) -> complex:
        # int dm / (beta^2 (m - m_p)(m - m_m)) evaluated at m = mm .. sign handled
        return np.log((mm - m_p) / (mm - m_m)) / (beta**2 * (m_p - m_m))

    def tail(n_max: int) -> complex:
        edge = n_max + 0.5
        return -tail_antideriv(edge) + tail_antideriv(-edge)

    return KernelValue(_truncated(terms, tail) / _FOUR_PI_SQ)


# ---------------------------------------------------------------------------
# thermal kernel, accelerated frame
# ---------------------------------------------------------------------------

def g_thermal_accelerated(tau1, tau2, beta, alpha) -> KernelValue:
    """Accelerated-frame thermal kernel; depends on tau1 and tau2 separately.

    g = alpha [coth A1 - coth A2] / (8 pi beta [cosh(a t1) - cosh(a t2)]),
    A1 = pi (e^{a t1} - e^{a t2}) / (a beta),
    A2 = 2 pi e^{-a (t1+t2)/2} sinh(a (t1-t2)/2) / (a beta).

    Every argument broadcasts as an array; beta = +inf is zero temperature
    and alpha = 0 the inertial worldline; alpha, |t1| and |t2| are at most
    ARG_MAX.
    g is symmetric under t1 <-> t2 and under (t1, t2) -> (-t2, -t1), so with
    x = a |t1 - t2| / 2 and c = a |t1 + t2| / 2 >= 0, A1 >= A2 >= 0 and
    D = A1 - A2 = A1 (1 - e^{-2c}).  The exact identity
        coth A1 - coth A2 = 2 e^{-2 A2} expm1(-2 D) / (expm1(-2 A1) expm1(-2 A2))
    and cosh(a t1) - cosh(a t2) = 2 sinh c sinh x turn g into
        g = -[e^{-x} / (2 pi u F(2x))]^2 e^{-2 A2} F(2D) / (F(2 A1) F(2 A2))
    with u = |t1 - t2| and F(z) = (1 - e^{-z}) / z (F(0) = 1), so that
    e^{-z} / F(z) is the Planck factor z / (e^z - 1) of `core.planck`.  Every
    exponential decays and nothing cancels, so the one formula covers
    beta = +inf (A1 = A2 = 0: the csch^2 vacuum form), alpha = 0 (the
    inertial thermal kernel), t1 = -t2 (D = 0: -csch^2(A1) / 4 beta^2) and
    large a t without overflow.  A1 and A2 are capped at ~e^700, where every
    F and exponential of them has saturated.
    """
    tau1, tau2, beta, alpha = map(np.float64, (tau1, tau2, beta, alpha))
    require_all((alpha >= 0.0) & (alpha <= ARG_MAX), alpha,
                f"alpha must lie in [0, {ARG_MAX:g}]")
    require_all(beta > 0.0, beta, "beta must be positive (or +inf)")
    t_max = np.maximum(abs(tau1), abs(tau2))
    require_all(t_max <= ARG_MAX, t_max, f"|tau1| and |tau2| must be <= {ARG_MAX:g}")
    s = tau1 + tau2
    u, sa = abs(tau1 - tau2), abs(s)
    if np.any(u < U_MIN):
        if np.any(u == 0.0):
            raise SingularInput("tau1 = tau2 is singular")
        raise SingularInput(f"|tau1 - tau2| < {U_MIN:g} is singular")
    x = 0.5 * alpha * u
    f = _exprel_neg(2.0 * x)
    # A1,2 = F(2x) exp(log_r + x +- c) with log_r = ln(pi u / beta), -inf at
    # beta = +inf; x + c = a (u + |s|) / 2 and, free of the cancellation of
    # x against c, x - c = -2 a t1 t2 / (u + |s|).
    log_r = _log_ratio(np.pi * u, beta)
    a1 = f * np.exp(np.minimum(log_r + 0.5 * alpha * (u + sa), 700.0))
    a2 = f * np.exp(
        np.minimum(log_r - 2.0 * alpha * (tau1 * (tau2 / (u + sa))), 700.0)
    )
    d = a1 * -np.expm1(-alpha * sa)
    q = np.exp(-x) / (2.0 * np.pi * u * f)
    # e^{-2 A2} / F(2 A2) = pa pb, one factor at a time so that no partial
    # product underflows where g is normal (the F ratio is large only if pa is small)
    pa, pb = planck(2.0 * a2)
    g = -(q * q) * pa * (_exprel_neg(2.0 * d) / _exprel_neg(2.0 * a1)) * pb
    return KernelValue(_complex(g))
