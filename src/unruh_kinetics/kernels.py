"""Two-point functions of the detector-field system.

The vacuum Wightman function on a uniformly accelerated worldline, the
thermal Wightman function on an inertial one, and the master-equation kernel
g(tau', tau'') in both frames.  Every closed form has a brute-force
truncated-image-sum companion used as an oracle.  At u != 0 no image lies on
the real axis, so each oracle sums at eps = 0 and checks its truncation.

Both thermal kernels are a prefactor times coth A1 - coth A2, A1 >= A2 >= 0,
evaluated by one exact identity in decaying exponentials, free of cancellation:
    coth A1 - coth A2 = -e^{-2 A2} D F(2D) / (A1 A2 F(2 A1) F(2 A2)),
D = A1 - A2 and F(z) = (1 - e^{-z}) / z (F(0) = 1); see _coth_difference.

Sign conventions follow the -1/(4 pi^2) normalization of the massless-field
Wightman function throughout.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (_EPS, _FOUR_PI_SQ, _TINY, DomainError, NonConvergence, SingularInput,
                   check_beta, check_positive_finite, planck, require_all)

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

# |tau1 - tau2| below which the accelerated kernel, ~ -1/(4 pi^2 u^2), is
# treated as singular: below ~1e-154 its value overflows a double.
U_MIN = 1e-150
# Bound on alpha, |tau1| and |tau2| in the accelerated kernel, so that
# alpha (|tau1| + |tau2|) cannot overflow.
ARG_MAX = 1e150

# Settings of the image-sum oracles, read at each call: each sums |n| <= N_MAX
# plus an Euler-Maclaurin tail, and raises NonConvergence unless both its
# truncation estimate and its rounding floor are within TRUNC_TOL relative
# (see _truncated).
TRUNC_TOL = 1e-8
N_MAX = 128

_LOG_2PI = math.log(2.0 * math.pi)

# (k, weight of f^(k)(e)) in the midpoint Euler-Maclaurin formula at the
# edge e = N + 1/2 (Abramowitz & Stegun 23.1.30-32):
#   sum_{n > N} f(n) = int_e^inf f + f'(e) / 24 - 7 f'''(e) / 5760
#                      + 31 f^(5)(e) / 967680 + O(f^(7)(e)).
_EM_WEIGHTS = ((1, 1.0 / 24.0), (3, -7.0 / 5760.0), (5, 31.0 / 967680.0))


@dataclass(frozen=True)
class KernelValue:
    """Complex kernel value (a complex array for array arguments)."""

    value: complex


def _complex(x):
    """A scalar result as a Python complex; an array as a complex array."""
    return complex(x) if isinstance(x, np.generic) else x + 0j


def _h_coth_csch(w, z, h, log_h):
    """(h coth w, h csch w) at w = h z, h > 0, for any w, without overflow
    and without an underflow that the result does not have.

    Both are odd: w is folded onto Re w' >= 0 on the sign bit of Re z (that
    of Re w is lost: (h + 0i)(-0 - iy) has Re +0), so the parity holds bit
    for bit.  With 1 - E = -expm1(-(w' + w')), E = e^{-2 w'} (-2 w' would
    turn Re w' = inf into NaN), h coth w' = h (2 / (1 - E) - 1) and h csch w'
    = 2 e^{ln h - w'} / (1 - E): no power of h multiplies an underflowed
    e^{-w'}, and nothing overflows.  Below the smallest normal |w| both are
    1 / z: w = h z has lost digits there."""
    flip = np.signbit(np.real(z))
    fold = flip.any()  # never on the rays of the numeric rates
    w = np.where(flip, -w, w) if fold else w
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # in the branches that np.where drops
        r = 2.0 / -np.expm1(-(w + w))
        coth, csch = h * (r - 1.0), np.exp(log_h - w) * r
        if fold:
            coth, csch = np.where(flip, -coth, coth), np.where(flip, -csch, csch)
        tiny = np.abs(w) < _TINY
        if tiny.any():
            coth, csch = (np.where(tiny, 1.0 / z, x) for x in (coth, csch))
    return coth, csch


def _vacuum_csch2(w, z, h, log_h):
    """-(h csch w)^2 / 4 pi^2 at a real w = h z, as a real, divided by 2 pi
    before it is squared, so that it overflows only where its value does.
    Callers form w and call this with floating-point warnings off:
    w = inf gives the value -0, where it underflows, a value beyond the
    float range is -inf, as in the other kernels, and h coth w, which is
    dropped, may be inf or NaN."""
    hc = _h_coth_csch(w, z, h, log_h)[1].real / (2.0 * math.pi)
    return -(hc * hc)


def _exprel_neg(z):
    """(1 - e^{-z}) / z for z >= 0, 1 at z = 0, without cancellation.

    Adding the smallest normal double leaves z >= 1e-291 unchanged and keeps
    z = 0 off 0 / 0; below that the value is 1 to double precision.
    """
    z = z + _TINY
    return -np.expm1(-z) / z


def _coth_difference(q, a1, a2, d):
    """-q^2 e^{-2 A2} F(2D) / (F(2 A1) F(2 A2)), D = A1 - A2 >= 0: a thermal
    kernel whose prefactor times D / (A1 A2) is -q^2.  A1 and D are at most
    ~e^700, where F of them has saturated; A2 may be +inf."""
    # e^{-2 A2} / F(2 A2) = pa pb, one factor at a time so that no partial
    # product underflows where g is normal (the F ratio is large only if pa is
    # small); numpy's, as for every other factor, also for a Python float A2
    pa, pb = planck(np.float64(2.0 * a2))
    return -(q * q) * pa * (_exprel_neg(2.0 * d) / _exprel_neg(2.0 * a1)) * pb


def _log_ratio(x, y):
    """ln(x / y) for x > 0 finite and y in (0, +inf].

    The log of the ratio where x / y is normal or exact (x / inf = 0 gives
    -inf), else the split ln x - ln y, which keeps only ~|ln x| 2^-52
    absolute accuracy.
    """
    with np.errstate(all="ignore"):
        r = x / y
        # r y == x: r is x / y to within 2^-53, as an exact ratio is
        ok = ((r >= _TINY) & (r < np.inf)) | (r * y == x)
        return np.where(ok, np.log(r), np.log(x) - np.log(y))


def _image_sums(terms, tail) -> tuple[complex, complex, float]:
    """(S_N, S_{N/2}, floor): an image sum over |n| <= N = N_MAX and over
    |n| <= N // 2, each with its tail, from one buffer of 2N + 1 terms, and
    the rounding floor of S_N, 2^-52 times the sum of the magnitudes of its
    terms and of its two one-sided tails.

    terms(t) turns a complex array t holding integers n into the terms at n,
    in place; tail(N) is the pair (sum over n > N, sum over n < -N).  Only
    the n >= 0 half is formed: both oracles have a real centre, so the term
    at -n is the conjugate of the term at n bit for bit, and the n < 0 half
    is that half's mirrored conjugate.  S_{N/2} sums the middle 2(N // 2) + 1
    terms, the same values summed in the same order as a sum over
    |n| <= N // 2 alone.
    """
    n_max = N_MAX
    half = n_max // 2
    t = np.arange(-n_max, n_max + 1, dtype=complex)
    right = terms(t[n_max:])
    size = 2.0 * float(np.abs(right).sum()) - abs(right[0])
    np.conjugate(right[:0:-1], out=t[:n_max])
    sides = tail(n_max)
    floor = _EPS * (size + sum(map(abs, sides)))
    return (complex(np.sum(t) + sum(sides)),
            complex(np.sum(t[n_max - half:n_max + half + 1]) + sum(tail(half))),
            floor)


def _check_image_sum(u, alpha) -> None:
    """Refuse what the image-sum oracles cannot sum: a complex u, whose
    n < 0 terms are not the conjugates of its n > 0 ones (see _image_sums),
    and an alpha, 2 pi / beta for a thermal sum, that is not positive and
    finite: at alpha = +inf every image sits on u and the tail divides by 0."""
    if np.iscomplexobj(u):
        raise DomainError(f"u must be real, got {u}")
    check_positive_finite(alpha, "alpha (2 pi / beta of a thermal sum)")


def _check_not_nan(u, name: str) -> None:
    """Refuse a NaN as the argument `name` (DomainError), at every element of
    an array."""
    require_all(u == u, u, f"{name} must not be NaN")


def _check_u(u, name="u") -> None:
    """Refuse a NaN (DomainError) and 0 (SingularInput) as the argument
    `name`, at every element of an array."""
    _check_not_nan(u, name)
    if np.any(u == 0.0):
        raise SingularInput(f"{name} = 0 is singular")


def _truncated(terms, tail) -> complex:
    """S_N of `_image_sums`, checked against S_{N/2} and its rounding floor.

    The Euler-Maclaurin tail leaves an error of order f^(7)(N + 1/2), which
    for terms ~ n^-2 falls as N^-9: S_N - S_{N/2} is S_{N/2}'s error to
    within ~2^-9 of it, and S_N's error is ~2^-9 of the difference.  Raises
    NonConvergence unless both that difference and the rounding floor are
    within TRUNC_TOL relative; a NaN fails too.  The floor refuses an
    exponentially small sum of O(1) terms, which rounds to noise that the
    two truncations share.
    """
    with np.errstate(all="ignore"):  # an overflow gives a NaN that the gate refuses
        value, half, floor = _image_sums(terms, tail)
    error = abs(value - half)
    if not (error <= TRUNC_TOL * abs(value) and floor <= TRUNC_TOL * abs(value)):
        raise NonConvergence(
            f"image sum truncated at |n| <= {N_MAX} differs by {error:.3e} from "
            f"its truncation at |n| <= {N_MAX // 2}, with a rounding floor of "
            f"{floor:.3e}, for a value of magnitude {abs(value):.3e} "
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
    u = (h csch(h z))^2 and v = h coth(h z), h = alpha/2: no power of h is
    formed on its own, where it may underflow.  z may be an array; z = 0 is
    singular.
    """
    check_positive_finite(alpha, "alpha")
    _check_u(z, "z")
    return _inverse_power(m, *_inverse_power_uv(z, alpha))


def _inverse_power_uv(z, alpha: float):
    """(u, v) = ((h csch(h z))^2, h coth(h z)), h = alpha/2, of which every
    S_m is a polynomial (`_inverse_power`)."""
    h = alpha / 2.0
    v, hc = _h_coth_csch(h * z, z, h, np.log(h))
    return hc * hc, v


def _inverse_power(m: int, u, v):
    """S_m of `image_sum_inverse_power` from (u, v) of `_inverse_power_uv`:
    the one home of its polynomials in u and v."""
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
    P = 2 pi / alpha, formed in place in the order z + (i P) n, and the two
    one-sided tails T(z, P) and T(z, -P), T(z, p) = sum_{n > N} (z + i p n)^-m.

    With w = z + i p e, e = N + 1/2, and r = i p / w, the integral over
    n > e is w^(1-m) / ((m - 1) i p) and f^(k)(e) = (-m)(-m-1)...(-m-k+1)
    r^(k+1) w^(1-m) / (i p), so T is w^(1-m) / (i p) times a polynomial in
    r^2, with |r| <= 1 / e at a real z.  z may be complex: the two tails are
    summed as they are, not as twice the real part of one.
    """
    period = 2.0 * math.pi / alpha
    c1, c3, c5 = (c * math.prod(range(-m, -m - k, -1)) for k, c in _EM_WEIGHTS)

    def terms(t):
        t *= 1j * period
        t += z
        return np.power(t, -m, out=t)

    def one_sided(ip: complex, edge: float) -> complex:
        w = z + ip * edge
        r2 = (ip / w) ** 2
        return (1.0 / (m - 1) + r2 * (c1 + r2 * (c3 + r2 * c5))) * w ** (1 - m) / ip

    def tail(n_max: int) -> tuple[complex, complex]:
        edge = n_max + 0.5
        return one_sided(1j * period, edge), one_sided(-1j * period, edge)

    return terms, tail


def image_sum_inverse_power_sum(
    m: int, z: complex, alpha: float, n_max: int
) -> complex:
    """Brute-force symmetric truncation of S_m(z) with the Euler-Maclaurin
    tail of `_inverse_power_series`.  z may be complex, so all 2 n_max + 1
    terms are formed."""
    terms, tail = _inverse_power_series(m, z, alpha)
    t = terms(np.arange(-n_max, n_max + 1, dtype=complex))
    return complex(np.sum(t) + sum(tail(n_max)))


# ---------------------------------------------------------------------------
# vacuum Wightman functions
# ---------------------------------------------------------------------------

def wightman_vacuum_accelerated(u, alpha) -> KernelValue:
    """Closed form -(alpha^2 / 16 pi^2) csch^2(alpha u / 2) on the eps -> 0+
    boundary.

    u and alpha broadcast as arrays.
    """
    u, alpha = np.float64(u), np.float64(alpha)
    check_positive_finite(alpha, "alpha")
    _check_u(u)
    with np.errstate(all="ignore"):  # see _vacuum_csch2; ln h is -inf at h = 0
        h = alpha / 2.0
        w = _vacuum_csch2(h * u + 0j, u, h, np.log(h))
    return KernelValue(_complex(w))


def wightman_vacuum_accelerated_sum(u: float, alpha: float) -> KernelValue:
    """Truncated-image-sum oracle for wightman_vacuum_accelerated.

    Symmetric truncation at |n| <= N_MAX plus the Euler-Maclaurin tail of
    _inverse_power_series, at eps = 0 and checked by _truncated.
    """
    _check_image_sum(u, alpha)
    _check_u(u)
    s = _truncated(*_inverse_power_series(2, u, alpha))
    return KernelValue(-(1.0 / _FOUR_PI_SQ) * s)


# ---------------------------------------------------------------------------
# thermal kernels, inertial frame
# ---------------------------------------------------------------------------

def _check_inertial(u, beta, v=0.0) -> None:
    """Refuse a speed v outside [0, 1), a beta that is not positive and
    finite, and a u that `_check_u` refuses, at every element of an array."""
    require_all((v >= 0.0) & (v < 1.0), v, "speed must satisfy 0 <= v < 1")
    check_positive_finite(beta, "beta")
    _check_u(u)


def thermal_image_closed(u, beta) -> complex:
    """-(1 / 4 beta^2) csch^2(pi u / beta), the v -> 0 thermal kernel.

    u and beta broadcast as arrays; the value is real, returned as complex.
    """
    u, beta = np.float64(u), np.float64(beta)
    _check_inertial(u, beta)
    with np.errstate(all="ignore"):  # see _vacuum_csch2
        w = _vacuum_csch2(np.pi * (u / beta) + 0j, u, np.pi / beta, _log_ratio(np.pi, beta))
    return _complex(w)


def thermal_image_sum(u: float, beta: float) -> complex:
    """-(1/4 pi^2) sum_n (u - i beta n)^-2: wightman_vacuum_accelerated_sum
    at alpha = 2 pi / beta.

    Oracle for thermal_image_closed through the lattice-sum identity
    sum_n (u - i beta n)^-2 = (pi^2 / beta^2) csch^2(pi u / beta).
    """
    _check_inertial(u, beta)
    return wightman_vacuum_accelerated_sum(u, 2.0 * math.pi / beta).value


def g_thermal_inertial(u: float, beta: float, v: float) -> KernelValue:
    """Finite-v inertial thermal kernel, even in u.

    g = sqrt(1-v^2) [coth(gamma (v-1) pi u / beta) + coth(gamma (v+1) pi u / beta)]
        / (8 pi beta v u)

    With x = pi |u| / beta and s = sqrt((1-v)(1+v)), the bracket over u is
    coth A1 - coth A2 over |u|, A1 = (1+v) x / s and A2 = (1-v) x / s.  As
    A1 A2 = x^2 and D = 2 v x / s, D / (A1 A2) = 2 gamma v / x, so g is
    _coth_difference at q = 1 / (2 pi |u|) for every v: at v = 0 (D = 0) it
    is -csch^2(x) / 4 beta^2.  A1 (and D, A2 <= A1) is capped at e^700, so
    x = +inf gives 0.

    At tiny u, q^2 overflows, and beyond A2 ~ 710 planck's e^{-2 A2} factor
    is 0, before a factor that brings g back into the float range applies.
    There g is -(P F(2D) / (F(2 A1) F(2 A2))) P with P = q e^{-A2} =
    e^{ln q - A2}: -inf beyond the float range, 0 below it, no NaN.
    """
    _check_inertial(u, beta, v)
    x = math.pi * abs(u) / beta
    # (1-v)(1+v), not 1 - v^2, which loses digits near v = 1
    s = math.sqrt((1.0 - v) * (1.0 + v))
    a1 = min((1.0 + v) * x / s, math.exp(700.0))
    a2 = min((1.0 - v) * x / s, a1)
    d = a1 * (2.0 * v / (1.0 + v))
    q = 1.0 / (2.0 * math.pi * abs(u))
    with np.errstate(over="ignore", invalid="ignore"):
        g = _coth_difference(q, a1, a2, d)
        if not 0.0 < abs(g) < math.inf:  # a partial product left the float range
            p = np.exp(-(_LOG_2PI + math.log(abs(u))) - a2)
            ratio = _exprel_neg(2.0 * d) / _exprel_neg(2.0 * a1)
            g = -(p * ratio / _exprel_neg(2.0 * a2)) * p
    return KernelValue(_complex(g))


def _inertial_series(u: float, beta: float, v: float):
    """(terms, tail) of g_thermal_inertial_sum's sum for `_image_sums`.

    The denominator is beta^2 m^2 + 2 i beta gamma u m - u^2 at m = n, with
    roots m_pm = c -+ d, c = -i gamma u / beta and d = -i gamma u v / beta;
    the terms f(m) = 1 / (beta^2 (m - m_p)(m - m_m)) are formed in place in
    that order.  The one-sided tails are the sums over m > N of f(s m),
    s = +-1, whose poles are s m_pm.  The integral over m > e = N + 1/2 is
    atanh(t) / (t beta^2 (e - s c)), t = s d / (e - s c): the partial-
    fraction log of the same integral loses ~2^-52 / v relative.  At t = 0
    (v = 0, or t underflowed) it is the double pole's 1 / (beta^2 (e - s c)).
    By Leibniz, f^(k)(e) = (-1)^k k! p q sum_{j=0..k} p^j q^(k-j) / beta^2,
    p, q = 1 / (e - s m_pm), which has no cancellation at small v either.
    """
    # (1-v)(1+v), not 1 - v^2, which loses digits near v = 1
    gamma = 1.0 / math.sqrt((1.0 - v) * (1.0 + v))
    m_p = -1j * gamma * u * (1.0 - v) / beta
    m_m = -1j * gamma * u * (1.0 + v) / beta
    centre, spread = -1j * gamma * u / beta, -1j * gamma * u * v / beta
    w1, w3, w5 = (c * (-1) ** k * math.factorial(k) for k, c in _EM_WEIGHTS)

    def terms(t):
        second = t - m_m
        t -= m_p
        t *= beta**2
        t *= second
        return np.divide(1.0, t, out=t)

    def one_sided(sign: float, edge: float) -> complex:
        x = edge - sign * centre
        t = sign * spread / x
        p, q = 1.0 / (edge - sign * m_p), 1.0 / (edge - sign * m_m)
        p2, q2 = p * p, q * q
        # sum_j p^j q^(k-j) is (p + q), (p + q)(p^2 + q^2), (p + q)(p^4 + p^2 q^2 + q^4)
        corrections = (p + q) * (w1 + (p2 + q2) * w3 + (p2 * p2 + p2 * q2 + q2 * q2) * w5)
        return ((cmath.atanh(t) / t if t else 1.0) / x + p * q * corrections) / beta**2

    def tail(n_max: int) -> tuple[complex, complex]:
        edge = n_max + 0.5
        return one_sided(1.0, edge), one_sided(-1.0, edge)

    return terms, tail


def g_thermal_inertial_sum(u: float, beta: float, v: float) -> KernelValue:
    """Truncated-sum oracle for g_thermal_inertial.

    (1/4 pi^2) sum_n [i 2 beta (gamma-1) u n - (u - i beta n)^2]^-1,
    symmetric truncation plus the Euler-Maclaurin tail of _inertial_series
    (v = 0 included), checked by _truncated.
    """
    _check_inertial(u, beta, v)
    _check_image_sum(u, 2.0 * math.pi / beta)
    return KernelValue(_truncated(*_inertial_series(u, beta, v)) / _FOUR_PI_SQ)


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
    D = A1 - A2 = A1 (1 - e^{-2c}).  The module's identity and cosh(a t1) -
    cosh(a t2) = 2 sinh c sinh x make g _coth_difference at q = e^{-x} / (2
    pi u F(2x)), u = |t1 - t2|, so the one formula covers
    beta = +inf (A1 = A2 = 0: the csch^2 vacuum form), alpha = 0 (the
    inertial thermal kernel), t1 = -t2 (D = 0: -csch^2(A1) / 4 beta^2) and
    large a t without overflow.  A1 and A2 are capped at ~e^700, where every
    F and exponential of them has saturated.
    """
    tau1, tau2, beta, alpha = map(np.float64, (tau1, tau2, beta, alpha))
    _check_not_nan(alpha, "alpha")
    require_all((alpha >= 0.0) & (alpha <= ARG_MAX), alpha,
                f"alpha must lie in [0, {ARG_MAX:g}]")
    check_beta(beta)
    _check_not_nan(tau1, "tau1")
    _check_not_nan(tau2, "tau2")
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
    return KernelValue(_complex(_coth_difference(q, a1, a2, d)))
