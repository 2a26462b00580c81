"""Stdlib `decimal` references shared by the closed-form tests: pi at any
precision, sinh, cosh, e^x - 1 without cancellation, and the Planck factor,
coth and csch^2 formed from the decaying exponential e^{-|x|} alone.  So
the last three hold where e^{|x|} overflows even decimal's exponent range:
the accelerated kernel's coth argument reaches ~e^4000, and a rate's
exponent 1e600.  For a complex argument, cos and sin of a real one and
coth and csch of a + iy, each complex value a (real, imag) pair.

Each function works at the precision of the current decimal context;
`digits(n)` sets one of n digits with the widest exponent range.
"""

from contextlib import contextmanager
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext


@contextmanager
def digits(prec: int):
    """A decimal context of prec digits with the widest exponent range
    decimal allows."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = prec, MAX_EMAX, MIN_EMIN
        yield ctx


def _atan_inverse(n: int) -> Decimal:
    """atan(1 / n) for an integer n > 1, by its alternating series."""
    power = total = Decimal(1) / n
    k = 1
    while True:
        power /= -n * n
        term = power / (2 * k + 1)
        if total + term == total:
            return total
        total += term
        k += 1


def pi() -> Decimal:
    """pi by Machin's formula, 16 atan(1/5) - 4 atan(1/239)."""
    with localcontext() as ctx:
        ctx.prec += 5
        value = 16 * _atan_inverse(5) - 4 * _atan_inverse(239)
    return +value


def sinh(x: Decimal) -> Decimal:
    return (x.exp() - (-x).exp()) / 2


def cosh(x: Decimal) -> Decimal:
    return (x.exp() + (-x).exp()) / 2


def expm1(x: Decimal) -> Decimal:
    """e^x - 1, by its Taylor series where |x| < 1, where e^x - 1 cancels."""
    if abs(x) >= 1:
        return x.exp() - 1
    with localcontext() as ctx:
        ctx.prec += 3
        term = total = x
        k = 1
        while True:
            k += 1
            term = term * x / k
            if total + term == total:
                break
            total += term
    return +total


def planck(x: Decimal) -> Decimal:
    """x / (e^x - 1) at x >= 0, as x e^{-x} / (1 - e^{-x}): 1 at x = 0."""
    if x == 0:
        return Decimal(1)
    return x * (-x).exp() / -expm1(-x)


def coth_csch2(z: Decimal) -> tuple[Decimal, Decimal]:
    """(coth z, csch^2 z) at a real z != 0, from E = e^{-2|z|}:
    coth z = sign(z) (1 + E) / (1 - E) and csch^2 z = 4 E / (1 - E)^2."""
    x = -2 * abs(z)
    e, one_minus_e = x.exp(), -expm1(x)
    return ((1 + e) / one_minus_e).copy_sign(z), 4 * e / (one_minus_e * one_minus_e)


def cis(x: Decimal) -> tuple[Decimal, Decimal]:
    """(cos x, sin x), by the series of e^{ix} after x is reduced by 2 pi."""
    with localcontext() as ctx:
        ctx.prec += 5 + max(0, x.adjusted())
        two_pi = 2 * pi()
        x -= two_pi * (x / two_pi).to_integral_value()
        cos = sin = Decimal(0)
        re, im, k = Decimal(1), Decimal(0), 0  # (ix)^k / k!
        while cos + re != cos or sin + im != sin or k < 2:
            cos, sin, k = cos + re, sin + im, k + 1
            re, im = -im * x / k, re * x / k
    return +cos, +sin


def _complex_expm1(a: Decimal, y: Decimal) -> tuple[Decimal, Decimal]:
    """e^w - 1 at w = a + iy as (real, imag), by its series where |w| < 1."""
    if a * a + y * y >= 1:
        cos, sin = cis(y)
        return a.exp() * cos - 1, a.exp() * sin
    with localcontext() as ctx:
        ctx.prec += 3
        re, im = total_re, total_im = a, y
        k = 1
        while total_re + re != total_re or total_im + im != total_im:
            k += 1
            re, im = (re * a - im * y) / k, (re * y + im * a) / k
            total_re, total_im = total_re + re, total_im + im
    return +total_re, +total_im


def _divide(p, q) -> tuple[Decimal, Decimal]:
    """p / q for complex p and q given as (real, imag)."""
    den = q[0] * q[0] + q[1] * q[1]
    return ((p[0] * q[0] + p[1] * q[1]) / den, (p[1] * q[0] - p[0] * q[1]) / den)


def coth_csch(a: Decimal, y: Decimal):
    """(coth w, csch w) at w = a + iy != 0, each as (real, imag): cosh w /
    sinh w and 1 / sinh w, with 2 sinh w = expm1(w) - expm1(-w), which does
    not cancel at small |w|."""
    plus, minus = _complex_expm1(a, y), _complex_expm1(-a, -y)
    sinh = ((plus[0] - minus[0]) / 2, (plus[1] - minus[1]) / 2)
    cosh = ((plus[0] + minus[0]) / 2 + 1, (plus[1] + minus[1]) / 2)
    return _divide(cosh, sinh), _divide((Decimal(1), Decimal(0)), sinh)
