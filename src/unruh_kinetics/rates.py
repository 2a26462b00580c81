"""Vacuum-fluctuation / radiation-reaction energy decomposition.

Closed-form atom-side rates under the symmetric operator ordering, the
ordering-independent total, numerically evaluated field-side rates, and the
derivative-coupling generalization in which the interaction carries n proper-
time derivatives of the field on each leg.

All numeric rates share one pipeline: the image sum S_m(z) is analytic in
the strip 0 < Im z < 2 pi/alpha, so the eps -> 0+ value of each rate integral
is exact on any contour inside it (Birrell & Davies, *Quantum Fields in
Curved Space*, sec. 3.3).  One integral of e^{-i omega0 z} S_m(z), taken on a
ray from the line Im z = d with a Gauss-Legendre panel rule, gives VF, RR and
the total; the same ray from Im z = d/2 checks it.
"""

from __future__ import annotations

import errno
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import (
    COTH_POLE,
    AtomState,
    DetectorParams,
    DomainError,
    NonConvergence,
    OrderingParam,
    plain,
    require_all,
)
from .kernels import _FOUR_PI_SQ, _TINY, image_sum_inverse_power
from .numerics import panel_rule

__all__ = [
    "EnergyRateReport",
    "planck_bracket",
    "atom_vf_rate",
    "atom_rr_rate",
    "atom_total_rate",
    "field_rates",
    "derivative_coupling_rates",
]


@dataclass(frozen=True)
class EnergyRateReport:
    """VF/RR/total energy-variation rates.

    finite is False when the ordering makes VF and RR individually divergent
    (any lam != 1/2); vf and rr are then None while total remains valid.
    The rates are arrays for array inputs (a sweep).
    """

    total: float
    finite: bool
    vf: float | None = None
    rr: float | None = None

    def __post_init__(self) -> None:
        if self.finite:
            if self.vf is None or self.rr is None:
                raise DomainError("finite report requires vf and rr values")
            # written so that a NaN fails it; an infinite vf or rr is a float
            # overflow, which the CLI reports as a numeric failure
            vf, rr = abs(self.vf), abs(self.rr)
            with np.errstate(invalid="ignore"):  # inf - inf
                miss = abs(self.vf + self.rr - self.total)
            ok = (miss <= 1e-12 * np.fmax(1.0, vf + rr)) | (vf == np.inf) | (rr == np.inf)
            if not (ok.all() if isinstance(ok, np.ndarray) else ok):
                raise DomainError("vf + rr must reproduce total")
        elif self.vf is not None or self.rr is not None:
            raise DomainError("divergent ordering cannot carry vf/rr values")


def _squared_product(omega0, mu):
    """omega0^2 mu^2, formed on the frexp mantissas and scaled once (ldexp).

    It has the bits of (omega0 omega0)(mu mu) wherever those are normal
    floats, and is right wherever only omega0^2 or mu^2 leaves that range;
    OverflowError where the product overflows, as a float's x ** 2 does.
    """
    (mw, ew), (mm, em) = np.frexp(omega0), np.frexp(mu)
    with np.errstate(over="ignore"):
        w2mu2 = np.ldexp((mw * mw) * (mm * mm), 2 * (ew + em))
    if np.isinf(w2mu2).any():
        raise OverflowError(errno.ERANGE, os.strerror(errno.ERANGE))
    return w2mu2


def planck_bracket(omega0, alpha):
    """[1 + 2/(e^{2 pi omega0 / alpha} - 1)] = coth(pi omega0 / alpha); 1 at alpha=0.

    Below y = pi omega0 / alpha = COTH_POLE it is the pole 1/y, where 2 y may
    underflow to 0.  omega0 and alpha broadcast as arrays.
    """
    omega0, alpha = np.float64(omega0), np.float64(alpha)
    require_all(omega0 > 0, omega0, "omega0 must be positive")
    require_all(alpha >= 0, alpha, "alpha must be >= 0")
    with np.errstate(over="ignore", divide="ignore"):  # x = inf or 0 is not taken
        x = 2.0 * np.pi * omega0 / alpha
        # 2 pi omega0 overflows above omega0 ~ 2.86e307, omega0 / alpha need not
        x = np.where(x == np.inf, 2.0 * np.pi * (omega0 / alpha), x)
        bracket = np.where(x > 700.0, 1.0, 1.0 + 2.0 / np.expm1(x))
        pole = np.pi * omega0 < COTH_POLE * alpha
        bracket = np.where(pole, alpha / np.pi / omega0, bracket)
    return plain(np.where(alpha == 0.0, 1.0, bracket)[()])


def atom_vf_rate(params: DetectorParams, alpha, atom: AtomState):
    """Vacuum-fluctuation rate -(omega0^2 mu^2 / 8 pi) <R3> coth(pi omega0/alpha).

    Excites the ground state, de-excites the excited state; symmetric
    ordering assumed.  Below y = pi omega0 / alpha = COTH_POLE, omega0^2 coth y
    is omega0 alpha / pi, where the bracket may overflow and omega0^2 underflow.
    The parameters broadcast as arrays.
    """
    w0, mu, r3 = params.omega0, params.mu, atom.r3_expectation
    pole = (alpha > 0.0) & (np.pi * w0 < COTH_POLE * alpha)
    w2mu2, bracket = _squared_product(w0, mu), planck_bracket(w0, alpha)
    # mu^2 omega0 alpha <R3> as _squared_product forms omega0^2 mu^2
    (mw, ew), (mm, em), (ma, ea), (mr, er) = map(np.frexp, (w0, mu, alpha, r3))
    with np.errstate(over="ignore", invalid="ignore"):  # each branch's own point
        near = -(mm * mm / (8.0 * np.pi**2)) * mr * (mw * ma)
        near = np.ldexp(near, 2 * em + er + ew + ea)
        far = -(w2mu2 / (8.0 * np.pi)) * r3 * bracket
    return plain(np.where(pole, near, far)[()])


def atom_rr_rate(params: DetectorParams, alpha):
    """Radiation-reaction rate -(omega0^2 mu^2 / 16 pi) for every alpha >= 0.

    Purely dissipative (always < 0) and independent of the atom state and of
    the acceleration: it comes from the field commutator, a c-number that does
    not depend on the field's state, so no thermal factor enters.
    """
    require_all(alpha >= 0, alpha, "alpha must be >= 0")
    return plain(-(_squared_product(params.omega0, params.mu) / (16.0 * np.pi))[()])


def atom_total_rate(
    params: DetectorParams,
    alpha,
    atom: AtomState,
    lam: OrderingParam = OrderingParam(),
) -> EnergyRateReport:
    """Total energy rate -(omega0^2 mu^2 / 8 pi)[<R3> coth(pi omega0/alpha) + 1/2].

    With nbar = 1/(e^{2 pi omega0/alpha} - 1) this is
    -(omega0^2 mu^2 / 8 pi)(1 + nbar) in the excited state and
    +(omega0^2 mu^2 / 8 pi) nbar = mu^2 omega0 F / 4 in the ground state, F being
    the Planck excitation rate of `response.response_accelerated`; their ratio
    e^{-2 pi omega0/alpha} is detailed balance at the Unruh temperature.

    The total carries no ordering dependence; the VF/RR split exists only for
    the symmetric ordering, so non-symmetric lam yields finite=False.  The
    parameters broadcast as arrays.
    """
    vf = atom_vf_rate(params, alpha, atom)
    rr = atom_rr_rate(params, alpha)
    # total is the split's own sum for every ordering, so the decomposition
    # identity and ordering independence are exact in floating point
    total = vf + rr
    if lam.is_symmetric:
        return EnergyRateReport(total=total, finite=True, vf=vf, rr=rr)
    return EnergyRateReport(total=total, finite=False)


# ---------------------------------------------------------------------------
# numeric pipeline
# ---------------------------------------------------------------------------

# The ray z = id + t e^{-i pi/4}, t >= 0, of `_line_integral`.
_RAY = complex(math.sqrt(0.5), -math.sqrt(0.5))


def _line_integral(m: int, omega0: float, alpha: float) -> complex:
    """J_- = int e^{-i omega0 z} S_m(z) dz on Im z = d = min(pi/alpha, 1/omega0).

    S_m is analytic in the strip 0 < Im z < 2 pi/alpha, so by Cauchy J_- is
    the eps -> 0+ value on every line inside it.  S_m(-z) = (-1)^m S_m(z) and
    S_m(conj z) = conj S_m(z) fold the line onto t >= 0 as I + (-1)^m conj I,
    with I taken on the ray z = id + t e^{-i pi/4}: all poles lie on Re z = 0,
    and the integrand decays like e^{-(omega0 + alpha) t / sqrt 2}.  The
    strip's period makes J_+ = int e^{+i omega0 z} S_m dz = e^{-x} conj J_-,
    x = 2 pi omega0/alpha.  J_- does not depend on d, so the ray from d/2 must
    agree to 1e-9 relative, or NonConvergence.  The known causes of a
    disagreement are cancellation (for m > 2, S_m along the ray is of size
    (alpha/pi)^(m-1) while J_- is ~omega0^(m-2) alpha) and overflow of S_m ~
    z^-m once omega0^m passes 1e308.
    """

    def on_ray(d: float) -> complex:
        # in units of d: panels double from 1/100 to 1, then stay 1 wide
        t_max = 50.0 * math.sqrt(2.0) / ((omega0 + alpha) * d) + 10.0
        s, w = panel_rule(1.0, 1.0, t_max)
        z = 1j * d + d * _RAY * s
        f = np.exp(-1j * omega0 * z) * image_sum_inverse_power(m, z, alpha)
        i = complex((d * _RAY * w) @ f)
        return i + (-1) ** m * i.conjugate()

    d = min(math.pi / alpha, 1.0 / omega0)
    with np.errstate(all="ignore"):  # a NaN or inf fails the check below
        j, j_half = on_ray(d), on_ray(0.5 * d)
    where = f"line integral of S_{m} at omega0 = {omega0:.12g}, alpha = {alpha:.12g}"
    if not abs(j - j_half) <= 1e-9 * abs(j):
        raise NonConvergence(
            f"{where} differs by {abs(j - j_half):.3e} between Im z = d "
            f"and d/2 for a value of magnitude {abs(j):.3e}; the integral "
            "cancels at small omega0/alpha and overflows at large omega0"
        )
    # both rays agree at 0 once S_m ~ z^-m underflows on them
    if not abs(j) >= _TINY:
        raise NonConvergence(
            f"{where} has magnitude {abs(j):.3e}, below the smallest normal "
            f"float; S_{m} underflows at small omega0 and alpha"
        )
    return j


def field_rates(
    params: DetectorParams,
    alpha: float,
    atom: AtomState,
) -> tuple[float, float]:
    """(vf_field, rr_field): energy-variation rates on the field side.

    Cubic image-sum kernel S_3 integrated against sin (VF) / cos (RR) of the
    level splitting: with J_- = `_line_integral` and J_+ its partner, these
    half-line integrals are (J_+ - J_-)/2i and (J_+ + J_-)/4i.
    """
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    w0, mu = params.omega0, params.mu
    # J_- is imaginary for odd m
    kj = mu**2 / _FOUR_PI_SQ * _line_integral(3, w0, alpha).imag
    x = 2.0 * math.pi * w0 / alpha
    vf = -0.5 * kj * atom.r3_expectation * (1.0 + math.exp(-x))
    return vf, 0.25 * kj * math.expm1(-x)


def derivative_coupling_rates(
    params: DetectorParams,
    alpha: float,
    atom: AtomState,
    n: int = 0,
) -> EnergyRateReport:
    """Numeric VF/RR rates for the n-th derivative coupling, symmetric ordering.

    The n-fold proper-time derivatives act on each image term analytically:
    (u + ic)^-2 -> (-1)^n (2n+1)! (u + ic)^-(2n+2); the interaction carries a
    compensating omega0^-2n so all orders share the same dimensions.  n is
    limited to 0..2, the orders whose image sums have closed forms.
    """
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if not 0 <= n <= 2:
        raise DomainError(f"coupling order n must be in 0..2, got {n}")
    w0, mu = params.omega0, params.mu
    k = mu**2 * w0 ** (1 - 2 * n) * (-1.0) ** n * math.factorial(2 * n + 1)
    # With J_- = `_line_integral` (real for even m) and J_+ = e^{-x} J_-, the VF
    # and RR half-line integrals are (J_+ + J_-)/2 and (J_- - J_+)/4.  The total
    # is formed directly: in the ground state it is J_+ alone, with no VF - RR
    # cancellation.
    kj = k / (8.0 * _FOUR_PI_SQ) * _line_integral(2 * n + 2, w0, alpha).real
    x = 2.0 * math.pi * w0 / alpha
    q = math.exp(-x)
    r = 2.0 * atom.r3_expectation
    return EnergyRateReport(
        total=kj * ((1.0 + r) - (1.0 - r) * q),
        finite=True,
        vf=kj * r * (1.0 + q),
        rr=-kj * math.expm1(-x),
    )
