"""Vacuum-fluctuation / radiation-reaction energy decomposition.

Closed-form atom-side rates under the symmetric operator ordering, the
ordering-independent total, numerically evaluated field-side rates, and the
derivative-coupling generalization in which the interaction carries n proper-
time derivatives of the field on each leg.  Every source splits its rates
through one `_split` of K = omega0^2 mu^2 / 16 pi.

All numeric rates share one pipeline: the image sum S_m(z) is analytic in
the strip 0 < Im z < 2 pi/alpha, so the eps -> 0+ value of each rate integral
is exact on any contour inside it (Birrell & Davies, *Quantum Fields in
Curved Space*, sec. 3.3).  One integral of e^{-i omega0 z} S_m(z), taken on a
ray from the line Im z = d, gives VF, RR and the total; the same ray from
Im z = d/2 checks it.  Both rays run on one fixed graded Gauss-Legendre rule
in one array evaluation.  In units of d the node values, e^{-i omega0 z} and
the two functions that every S_m is a polynomial in, depend on alpha/omega0
alone: they are formed once per point and shared by every order m and every
source at that point.  numpy, the kernels and the quadrature are imported by
the pipeline's first call, so the closed forms of Python floats run without
them.
"""

from __future__ import annotations

import errno
import functools
import math
import os
from dataclasses import dataclass

from .core import (_EPS, _TINY, AtomState, DetectorParams, DomainError, NonConvergence,
                   OrderingParam, _all, check_alpha, check_positive, math_or_numpy,
                   planck, plain)

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    import numpy as np

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
            # relative to |vf| + |rr| and written so that a NaN fails it; an
            # infinite vf or rr is a float overflow, which the CLI reports
            xp = math_or_numpy(self.vf, self.rr, self.total)
            scale = abs(self.vf) + abs(self.rr)
            with xp.errstate(invalid="ignore"):  # inf - inf
                ok = abs(self.vf + self.rr - self.total) <= 1e-12 * xp.fmax(_TINY, scale)
            if not _all(ok | (scale == math.inf)):
                raise DomainError("vf + rr must reproduce total")
        elif self.vf is not None or self.rr is not None:
            raise DomainError("divergent ordering cannot carry vf/rr values")


def _product(*terms):
    """The product of x^p over the (x, p) terms, p an int, formed on the
    frexp mantissas of the x and scaled once (ldexp), math's for Python
    floats and numpy's else, with the same bits: no partial product over- or
    underflows.  OverflowError where the product does, as a float's x ** 2
    raises; so too for a 0 * inf, which only an infinite x makes."""
    xp = math_or_numpy(*[x for x, _ in terms])
    mantissa, exponent = 1.0, 0
    try:
        with xp.errstate(all="ignore"):
            for x, p in terms:
                m, e = xp.frexp(x)
                power = math.prod([m] * abs(p))
                mantissa = mantissa * power if p > 0 else mantissa / power
                exponent = exponent + p * e
            product = xp.ldexp(mantissa, exponent)
    except (OverflowError, ZeroDivisionError):  # math.ldexp's overflow; a float's x / 0
        product = math.inf
    if not _all(xp.isfinite(product)):
        raise OverflowError(errno.ERANGE, os.strerror(errno.ERANGE))
    return product


def _split(params: DetectorParams, r3, a, b) -> EnergyRateReport:
    """vf = -2<R3>(Ka + 2Kb), rr = -Ka, total = -(1 + 2<R3>)Ka - 4<R3>Kb.

    a and b are `_product` terms; Ka and 4<R3>Kb are one product each, so
    <R3> = 0 gives 0 where Kb alone overflows.  In the ground state the total
    is 2Kb, with no cancellation of VF against RR.
    """
    k = ((params.omega0, 2), (params.mu, 2), (16.0 * math.pi, -1))
    ka, r3kb4 = _product(*k, *a), _product(*k, *b, (4.0 * r3, 1))
    xp = math_or_numpy(r3, ka, r3kb4)
    with xp.errstate(over="ignore"):  # an inf vf is the caller's overflow
        vf, total = -2.0 * r3 * ka - r3kb4, -(1.0 + 2.0 * r3) * ka - r3kb4
    return EnergyRateReport(total=plain(total), finite=True, vf=plain(vf), rr=plain(-ka))


def planck_bracket(omega0, alpha):
    """[1 + 2/(e^{2 pi omega0 / alpha} - 1)] = coth(pi omega0 / alpha); 1 at alpha=0.

    Formed as 1 + (alpha / pi omega0) P, P = a b of `core.planck` at x = 2 pi
    omega0 / alpha: 1 + 1/y where y = pi omega0 / alpha underflows, inf where
    1/y overflows.  omega0 and alpha broadcast as arrays.
    """
    xp = math_or_numpy(omega0, alpha)
    omega0, alpha = xp.float64(omega0), xp.float64(alpha)
    check_positive(omega0, "omega0")
    alpha = check_alpha(alpha)
    with xp.errstate(over="ignore", divide="ignore"):  # x or 1 / y = inf
        a, b = planck(2.0 * math.pi * xp.divide(omega0, alpha))
        return plain(1.0 + alpha / math.pi / omega0 * (a * b))


def _closed_form(params: DetectorParams, alpha, r3) -> EnergyRateReport:
    """`_split` with a = 1 and b = nbar = 1/(e^x - 1), x = 2 pi omega0 / alpha,
    taken as (alpha / 2 pi omega0) pa pb with (pa, pb) = `core.planck`: each
    term is normal where x underflows and nbar overflows, and where e^-x
    underflows while K nbar is normal.  alpha = 0 (or -0.0) gives nbar = 0.
    """
    w0 = params.omega0
    xp = math_or_numpy(w0, alpha)
    alpha = check_alpha(xp.float64(alpha))
    with xp.errstate(over="ignore", divide="ignore"):  # x = inf gives P = 0
        pa, pb = planck(2.0 * math.pi * xp.divide(w0, alpha))
    nbar = ((alpha, 1), (w0, -1), (2.0 * math.pi, -1), (pa, 1), (pb, 1))
    return _split(params, r3, (), nbar)


def atom_vf_rate(params: DetectorParams, alpha, atom: AtomState):
    """Vacuum-fluctuation rate -(omega0^2 mu^2 / 8 pi) <R3> coth(pi omega0/alpha).

    Excites the ground state, de-excites the excited state; symmetric
    ordering assumed.  The parameters broadcast as arrays.
    """
    return _closed_form(params, alpha, atom.r3_expectation).vf


def atom_rr_rate(params: DetectorParams, alpha):
    """Radiation-reaction rate -(omega0^2 mu^2 / 16 pi) for every alpha >= 0.

    Purely dissipative (always < 0) and independent of the atom state and of
    the acceleration: it comes from the field commutator, a c-number that does
    not depend on the field's state, so no thermal factor enters.
    """
    return _closed_form(params, alpha, 0.0).rr


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
    report = _closed_form(params, alpha, atom.r3_expectation)
    return report if lam.is_symmetric else EnergyRateReport(report.total, finite=False)


# ---------------------------------------------------------------------------
# numeric pipeline
# ---------------------------------------------------------------------------

# The rays z = h (i + s e^{-i pi/4}), s >= 0, of `_line_integral`, at these h.
_RAY = complex(math.sqrt(0.5), -math.sqrt(0.5))
_HEIGHTS = (1.0, 0.5)


@functools.cache
def _pipeline() -> tuple:
    """(numpy, kernels, h, z, weights), imported and built on the pipeline's
    first call, so the closed forms of Python floats load none of them: h is
    _HEIGHTS as an array, z both rays' nodes, a row per h, and weights the
    weights in s of their shared rule, panels from [0, 1/4] doubling in width
    out to s = 255.75, 10 panels and 240 nodes."""
    import numpy as np

    from . import kernels
    from .numerics import composite_rule

    h = np.array(_HEIGHTS)
    s, weights = composite_rule(0.25 * (2.0 ** np.arange(11) - 1.0))
    return np, kernels, h, h[:, None] * (1j + _RAY * s), weights


@functools.lru_cache(maxsize=1)
def _ray_values(w: float, a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e^{-i w z}, u, v) on `_pipeline`'s nodes z, with u = (h csch hz)^2
    and v = h coth hz, h = a/2, from which `kernels._inverse_power` forms
    every S_m.  They depend on (w, a) alone, and each caller asks for
    several m at one point, so the last point's values are kept (~23 KB).
    The arrays are read-only: they are shared."""
    np, K, _, z, _ = _pipeline()
    with np.errstate(all="ignore"):  # a NaN or inf fails _line_integral's check
        phase = np.exp(-1j * w * z)
        u, v = K._inverse_power_uv(z, a)
    for x in (phase, u, v):
        x.flags.writeable = False
    return phase, u, v


def _line_integral(m: int, omega0: float, alpha: float) -> tuple[complex, float]:
    """(J, w): J_- = int e^{-i w z} S_m(z) dz on Im z = 1, in units of d.

    With d = min(pi/alpha, 1/omega0), w = omega0 d <= 1, a = alpha d <= pi
    and J_-(m; 1, alpha/omega0) = w^(1-m) J.  S_m is analytic in the strip
    0 < Im z < 2 pi/a and of parity (-1)^m with S_m(conj z) = conj S_m(z), so
    J is I + (-1)^m conj I, I on the ray z = h (i + s e^{-i pi/4}), s >= 0,
    h = 1; J_+ = e^{-x} conj J, x = 2 pi w/a.

    Both rays, h = 1 and 1/2, run on one rule in s, as the one (2, n) array
    of nodes that `_pipeline` builds once.  The node values come from
    `_ray_values`, shared per (w, a) by every m: the VF/RR split, the field
    side and the other couplings at one point evaluate the nodes once.
    The rule fits every (w, a, h):
    w + a lies in [1, 1 + pi], so in s the nearest poles, z = 0 and
    z = 2 pi i/a, sit at least 1/sqrt 2 from the ray, and the integrand
    decays like e^{-(w + a) h s / sqrt 2}, at a rate of at least 0.5/sqrt 2,
    to e^-56 by s = 160.  Panel widths double away from s = 0, so each
    panel's pole distance stays in proportion to its width and every panel
    converges at the Gauss rule's Bernstein-ellipse rate (Trefethen,
    *Approximation Theory and Approximation Practice*, ch. 19).

    The ray from Im z = 1/2 must agree to 1e-9 relative, and each ray's
    rounding floor 2^-52 sum |weight f| lie below 2e-9 |J| (errors measured
    0.1-0.4 of it), or NonConvergence.  For m > 2 the integrand is ~1 while J
    is ~w^(m-2): the floor rises at large alpha/omega0, where the two rays
    can agree by chance far off.  At small alpha/omega0, S_m tends to its
    one image z^-m and stays accurate down to the smallest positive a.
    """
    np, K, h, _, weights = _pipeline()
    d = min(math.pi / alpha, 1.0 / omega0)
    w, a = omega0 * d, alpha * d
    phase, u, v = _ray_values(w, a)
    with np.errstate(all="ignore"):  # a NaN or inf fails the check below
        f = phase * K._inverse_power(m, u, v)
        i = h * _RAY * (f @ weights)
        floors = h * (np.abs(f) @ weights)
    j, j_half = (complex(x + (-1) ** m * x.conjugate()) for x in i)
    floor = _EPS * max(floors.tolist())
    if not (abs(j - j_half) <= 1e-9 * abs(j) and floor < 2e-9 * abs(j)):
        raise NonConvergence(
            f"line integral of S_{m} at omega0 = {omega0:.12g}, alpha = "
            f"{alpha:.12g} differs by {abs(j - j_half):.3e} between Im z = d "
            f"and d/2, with a rounding floor of {floor:.3e}, for a value of "
            f"magnitude {abs(j):.3e}; the integral cancels at large "
            "alpha/omega0"
        )
    return j, w


def _numeric_split(params: DetectorParams, alpha: float, atom: AtomState, m: int, c):
    """`_split` with a = c(1 - e^{-x}), b = c e^{-x}, x = 2 pi omega0/alpha: c(J)
    ~ 1 + nbar is the source's dimensionless rate, its scale w^(1-m) a term."""
    alpha = check_alpha(check_positive(alpha, "alpha"))
    j, w = _line_integral(m, params.omega0, alpha)
    x = 2.0 * math.pi * (params.omega0 / alpha)
    terms = ((c(j), 1), (w, 1 - m))
    return _split(params, atom.r3_expectation,
                  (*terms, (-math.expm1(-x), 1)), (*terms, (math.exp(-x), 1)))


def field_rates(params: DetectorParams, alpha: float, atom: AtomState) -> tuple[float, float]:
    """(vf_field, rr_field): energy-variation rates on the field side.

    Cubic image-sum kernel S_3 integrated against sin (VF) / cos (RR) of the
    level splitting: J_- = `_line_integral` is imaginary for odd m, and
    c = Im J_- / pi.
    """
    report = _numeric_split(params, alpha, atom, 3, lambda j: j.imag / math.pi)
    return report.vf, report.rr


def derivative_coupling_rates(params: DetectorParams, alpha: float, atom: AtomState,
                              n: int = 0) -> EnergyRateReport:
    """Numeric VF/RR rates for the n-th derivative coupling, symmetric ordering.

    The n-fold proper-time derivatives act on each image term analytically:
    (u + ic)^-2 -> (-1)^n (2n+1)! (u + ic)^-(2n+2); the interaction carries a
    compensating omega0^-2n so all orders share the same dimensions.  n is
    limited to 0..2, the orders whose image sums have closed forms.  J_- =
    `_line_integral` is real for even m, and c = (-1)^{n+1} (2n+1)! J_- / 2 pi.
    """
    if not 0 <= n <= 2:
        raise DomainError(f"coupling order n must be in 0..2, got {n}")
    k = (-1) ** (n + 1) * math.factorial(2 * n + 1) / (2.0 * math.pi)
    return _numeric_split(params, alpha, atom, 2 * n + 2, lambda j: k * j.real)
