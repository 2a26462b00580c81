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

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AtomState,
    DetectorParams,
    DomainError,
    NonConvergence,
    OrderingParam,
)
from .kernels import _FOUR_PI_SQ, image_sum_inverse_power
from .numerics import COTH_POLE, panel_rule

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
            if not (
                abs(self.vf + self.rr - self.total)
                <= 1e-12 * max(1.0, abs(self.vf) + abs(self.rr))
                or math.isinf(self.vf) or math.isinf(self.rr)
            ):
                raise DomainError("vf + rr must reproduce total")
        elif self.vf is not None or self.rr is not None:
            raise DomainError("divergent ordering cannot carry vf/rr values")


def planck_bracket(omega0: float, alpha: float) -> float:
    """[1 + 2/(e^{2 pi omega0 / alpha} - 1)] = coth(pi omega0 / alpha); 1 at alpha=0.

    Below y = pi omega0 / alpha = COTH_POLE it is the pole 1/y, where 2 y may
    underflow to 0.
    """
    if not omega0 > 0:
        raise DomainError(f"omega0 must be positive, got {omega0}")
    if not alpha >= 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    if alpha == 0.0:
        return 1.0
    if math.pi * omega0 < COTH_POLE * alpha:
        return alpha / math.pi / omega0
    x = 2.0 * math.pi * omega0 / alpha
    if x > 700.0:
        return 1.0
    return 1.0 + 2.0 / math.expm1(x)


def atom_vf_rate(params: DetectorParams, alpha: float, atom: AtomState) -> float:
    """Vacuum-fluctuation rate -(omega0^2 mu^2 / 8 pi) <R3> coth(pi omega0/alpha).

    Excites the ground state, de-excites the excited state; symmetric
    ordering assumed.  Below y = pi omega0 / alpha = COTH_POLE, omega0^2 coth y
    is omega0 alpha / pi, where the bracket may overflow and omega0^2 underflow.
    """
    w0, mu, r3 = params.omega0, params.mu, atom.r3_expectation
    if alpha > 0.0 and math.pi * w0 < COTH_POLE * alpha:
        return -(mu**2 / (8.0 * math.pi**2)) * r3 * (w0 * alpha)
    return -(w0**2 * mu**2 / (8.0 * math.pi)) * r3 * planck_bracket(w0, alpha)


def atom_rr_rate(params: DetectorParams, alpha: float) -> float:
    """Radiation-reaction rate -(omega0^2 mu^2 / 16 pi) for every alpha >= 0.

    Purely dissipative (always < 0) and independent of the atom state and of
    the acceleration: it comes from the field commutator, a c-number that does
    not depend on the field's state, so no thermal factor enters.
    """
    if not alpha >= 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    return -(params.omega0**2 * params.mu**2 / (16.0 * math.pi))


def atom_total_rate(
    params: DetectorParams,
    alpha: float,
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
    the symmetric ordering, so non-symmetric lam yields finite=False.
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
    if not abs(j - j_half) <= 1e-9 * abs(j):
        raise NonConvergence(
            f"line integral of S_{m} at omega0 = {omega0:.12g}, alpha = "
            f"{alpha:.12g} differs by {abs(j - j_half):.3e} between Im z = d "
            f"and d/2 for a value of magnitude {abs(j):.3e}; the integral "
            "cancels at small omega0/alpha and overflows at large omega0"
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
