"""Vacuum-fluctuation / radiation-reaction energy decomposition.

Closed-form atom-side rates under the symmetric operator ordering, the
ordering-independent total, numerically evaluated field-side rates, and the
derivative-coupling generalization in which the interaction carries n proper-
time derivatives of the field on each leg.

All numeric rates share one pipeline: at each regulator c = 2 eps one complex
image sum S_m(u + ic) is evaluated on a Gauss-Legendre panel rule over the
half-line; 2 Re S_m (the symmetrized correlation) gives VF and Im S_m (the
susceptibility) RR, and a Neville ladder extrapolates each eps -> 0+.
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
    SYMMETRIC_ORDERING,
)
from .kernels import _FOUR_PI_SQ, image_sum_inverse_power
from .numerics import extrapolate_to_zero, panel_rule

__all__ = [
    "EnergyRateReport",
    "planck_bracket",
    "atom_vf_rate",
    "atom_rr_rate",
    "atom_total_rate",
    "field_rates",
    "derivative_coupling_rates",
]

# Regulator ladder for the eps -> 0+ extrapolation of the rate integrals.
# Smaller ladders push the m = 6 kernels (~ c^-5 at the origin) into round-off
# territory; this one reaches ~1e-6 relative accuracy after Neville.
_EPS_LADDER = (1.6e-1, 8.0e-2, 4.0e-2, 2.0e-2, 1.0e-2)
# Relative contraction demanded of the ladder, scaled to the natural rate
# magnitude so near-zero results do not trip a spurious failure.
_CONTRACTION_TOL = 1.0e-3
# Regulators damp the integrands by ~e^{-omega0 c}: the ladder gives 5e-5 at
# omega0 = 5, fails to contract above ~5.5 and passes wrong values from ~300.
_OMEGA0_MAX = 5.0


@dataclass(frozen=True)
class EnergyRateReport:
    """VF/RR/total energy-variation rates.

    finite is False when the ordering makes VF and RR individually divergent
    (any lam != 1/2); vf and rr are then None while total remains valid.
    """

    total: float
    lam: OrderingParam
    finite: bool
    coupling_order: int = 0
    vf: float | None = None
    rr: float | None = None

    def __post_init__(self) -> None:
        if self.finite:
            if self.vf is None or self.rr is None:
                raise DomainError("finite report requires vf and rr values")
            if abs(self.vf + self.rr - self.total) > 1e-12 * max(
                1.0, abs(self.total)
            ):
                raise DomainError("vf + rr must reproduce total")
        elif self.vf is not None or self.rr is not None:
            raise DomainError("divergent ordering cannot carry vf/rr values")


def planck_bracket(omega0: float, alpha: float) -> float:
    """[1 + 2/(e^{2 pi omega0 / alpha} - 1)] = coth(pi omega0 / alpha); 1 at alpha=0."""
    if not omega0 > 0:
        raise DomainError(f"omega0 must be positive, got {omega0}")
    if alpha < 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    if alpha == 0.0:
        return 1.0
    x = 2.0 * math.pi * omega0 / alpha
    if x > 700.0:
        return 1.0
    return 1.0 + 2.0 / math.expm1(x)


def atom_vf_rate(params: DetectorParams, alpha: float, atom: AtomState) -> float:
    """Vacuum-fluctuation rate -(omega0^2 mu^2 / 8 pi) <R3> coth(pi omega0/alpha).

    Excites the ground state, de-excites the excited state; symmetric
    ordering assumed.
    """
    return (
        -(params.omega0**2 * params.mu**2 / (8.0 * math.pi))
        * atom.r3_expectation
        * planck_bracket(params.omega0, alpha)
    )


def atom_rr_rate(params: DetectorParams, alpha: float) -> float:
    """Radiation-reaction rate -(omega0^2 mu^2 / 16 pi) for every alpha >= 0.

    Purely dissipative (always < 0) and independent of the atom state and of
    the acceleration: it comes from the field commutator, a c-number that does
    not depend on the field's state, so no thermal factor enters.
    """
    if alpha < 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    return -(params.omega0**2 * params.mu**2 / (16.0 * math.pi))


def atom_total_rate(
    params: DetectorParams,
    alpha: float,
    atom: AtomState,
    lam: OrderingParam = SYMMETRIC_ORDERING,
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
        return EnergyRateReport(total=total, lam=lam, finite=True, vf=vf, rr=rr)
    return EnergyRateReport(total=total, lam=lam, finite=False)


# ---------------------------------------------------------------------------
# numeric pipeline
# ---------------------------------------------------------------------------

def _extrapolated(
    m: int, vf: tuple, rr: tuple, omega0: float, alpha: float, scale: float
) -> tuple[float, float]:
    """Neville-extrapolated (VF, RR) of int_0^{u_max} trig(omega0 u) k K(u) du,
    (trig, k) = vf with K = 2 Re S and (trig, k) = rr with K = Im S, where
    S = image_sum_inverse_power(m, u + ic, alpha) = conj S(u - ic) is
    evaluated once per regulator.  VF is contraction-checked first."""
    if not omega0 <= _OMEGA0_MAX:
        raise NonConvergence(
            f"omega0 = {omega0:.12g} is beyond what the regulator ladder resolves "
            f"(omega0 <= {_OMEGA0_MAX})"
        )
    u_max = min(60.0 / min(omega0, alpha), 400.0)
    (trig_vf, k_vf), (trig_rr, k_rr) = vf, rr

    def at_eps(e: float) -> tuple[float, float]:
        c = 2.0 * e
        u, w = panel_rule(c, omega0, u_max)
        s = image_sum_inverse_power(m, u + 1j * c, alpha)
        return (
            float(w @ (trig_vf(omega0 * u) * (k_vf * (2.0 * s.real)))),
            float(w @ (trig_rr(omega0 * u) * (k_rr * s.imag))),
        )

    with np.errstate(all="ignore"):  # a NaN fails the contraction check
        pairs = {e: at_eps(e) for e in _EPS_LADDER}
    return tuple(
        extrapolate_to_zero(
            lambda e: pairs[e][part], _EPS_LADDER, _CONTRACTION_TOL, scale
        )
        for part in (0, 1)
    )


def field_rates(
    params: DetectorParams,
    alpha: float,
    atom: AtomState,
) -> tuple[float, float]:
    """(vf_field, rr_field): energy-variation rates on the field side.

    Cubic image-sum kernel S_3 integrated against sin (VF) / cos (RR) of the
    level splitting; eps -> 0+ by the shared Neville ladder.
    """
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    w0, mu = params.omega0, params.mu
    scale = w0**2 * mu**2 / (16.0 * math.pi)
    vf_int, rr_int = _extrapolated(3, (np.sin, 1.0), (np.cos, 1.0), w0, alpha, scale)
    vf = (mu**2 / _FOUR_PI_SQ) * atom.r3_expectation * vf_int
    rr = -(mu**2 / _FOUR_PI_SQ) * rr_int
    return vf, rr


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
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if not 0 <= n <= 2:
        raise DomainError(f"coupling order n must be in 0..2, got {n}")
    w0, mu = params.omega0, params.mu
    sign_fact = (-1.0) ** n * math.factorial(2 * n + 1)
    scale = w0**2 * mu**2 / (16.0 * math.pi)
    dim = mu**2 * w0 / w0 ** (2 * n)
    # n-th derivatives of the symmetrized field correlation and susceptibility
    corr = (np.cos, -(sign_fact / (8.0 * math.pi**2)))
    susc = (np.sin, sign_fact / (4.0 * math.pi**2))
    vf_int, rr_int = _extrapolated(2 * n + 2, corr, susc, w0, alpha, scale)
    vf = -dim * atom.r3_expectation * vf_int
    rr = 0.5 * dim * rr_int
    return EnergyRateReport(
        total=vf + rr,
        lam=SYMMETRIC_ORDERING,
        finite=True,
        coupling_order=n,
        vf=vf,
        rr=rr,
    )
