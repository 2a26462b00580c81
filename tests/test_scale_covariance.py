"""Scale covariance: the model has one energy scale.

Multiplying omega0, alpha and deltaE by lam and dividing beta and tau by lam
leaves the populations unchanged, multiplies the thermal kernel and every
energy rate by lam^2 and the response by lam.  With lam = 2^k, k in
[-1074, 1023], every scaled input is exact, so a covariant evaluation agrees
with the base point omega0 = alpha = mu = 1, beta = 2 scaled by a power of two.

The bounds below were measured by scanning every k with the code as it
stands; each exemption is a k where an input, an intermediate or the result
leaves the normal floats, or where the call refuses with an exception:
- the closed-form rates and the response: bit for bit where the scaled value
  is a normal float (a subnormal result keeps fewer bits) and the call does
  not raise OverflowError (exit 2 in the CLI);
- the populations: bit for bit, except where the relaxation rate Gamma is
  subnormal (k <= -1018) or the RK4 step h = tau / (5 lam) is (k >= 1020);
  there at most 4 ulp (4 measured in closed_form at k = -1020, 1 elsewhere);
- g_thermal_accelerated: 1e-13 relative on its domain (alpha <= ARG_MAX,
  |tau1 - tau2| >= U_MIN); the worst measured at this base point is 3.5e-14;
- the numeric rates: bit for bit where the scaled value is a normal float.
  Their ray integral runs at omega0 d = alpha d = 1 at every k, so they
  return wherever lam^2 is normal (|k| <= 511) and may refuse only outside.
A zero or a different number at a k that is not exempt fails.
"""

import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from unruh_kinetics import kernels as K
from unruh_kinetics import master as M
from unruh_kinetics import rates as R
from unruh_kinetics.core import AtomState, DetectorParams, NonConvergence
from unruh_kinetics.response import response_accelerated

ATOMS = (AtomState.plus(), AtomState.minus())
EXPONENTS = st.integers(-1074, 1023)
COVARIANCE = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _scaled(x: float, e: int) -> float | None:
    """x * 2^e if that is a normal float, else None (the k is exempt)."""
    try:
        y = math.ldexp(x, e)
    except OverflowError:
        return None
    return y if abs(y) >= sys.float_info.min else None


def _closed_rates(lam: float, atom: AtomState) -> tuple:
    rep = R.atom_total_rate(DetectorParams(lam, 1.0), lam, atom)
    return rep.vf, rep.rr, rep.total


@COVARIANCE
@given(k=EXPONENTS)
@example(k=-1074)
@example(k=1023)
def test_closed_form_rates_scale_as_lam_squared(k):
    lam = math.ldexp(1.0, k)
    for atom in ATOMS:
        try:
            got = _closed_rates(lam, atom)
        except OverflowError:
            continue
        for value, base in zip(got, _closed_rates(1.0, atom)):
            want = _scaled(base, 2 * k)
            assert want is None or value == want, (k, atom, value, want)


@COVARIANCE
@given(k=st.integers(-1074, 1021))  # deltaE = 4 lam is inf from k = 1022
@example(k=-1074)
@example(k=1021)
def test_response_scales_as_lam(k):
    lam = math.ldexp(1.0, k)
    want = _scaled(response_accelerated(4.0, 1.0).rate, k)
    got = response_accelerated(4.0 * lam, lam).rate
    assert want is None or got == want, (k, got, want)


def _populations(lam: float) -> list[float]:
    """steady_state, closed_form and evolve(samples=5) at tau = 1 / lam."""
    init = M.PopulationState(0.9, 0.1)
    beta, tau = 2.0 / lam, 1.0 / lam
    steady = M.steady_state(lam, beta)
    cf = M.closed_form(init, lam, beta, tau)
    traj = M.evolve(init, lam, beta, tau, samples=5)
    return [steady.sigma_plus, steady.sigma_minus, cf.sigma_plus, cf.sigma_minus,
            *traj.sigma_plus]


@COVARIANCE
@given(k=st.integers(-1022, 1023))  # beta = 2 / lam is inf below -1022
@example(k=-1022)
@example(k=-1018)
@example(k=-1017)
@example(k=1019)
@example(k=1023)
def test_populations_are_scale_invariant(k):
    lam = math.ldexp(1.0, k)
    ulps = 4 if k <= -1018 or k >= 1020 else 0
    for got, want in zip(_populations(lam), _populations(1.0), strict=True):
        assert abs(got - want) <= ulps * math.ulp(want), (k, got, want)


def _in_kernel_domain(k: int) -> bool:
    lam = math.ldexp(1.0, k)
    tau1 = 1.0 / lam
    return lam <= K.ARG_MAX and K.U_MIN <= 0.75 * tau1 and tau1 <= K.ARG_MAX


@COVARIANCE
@given(k=st.integers(-600, 600).filter(_in_kernel_domain))
@example(k=-498)
@example(k=497)
def test_thermal_kernel_scales_as_lam_squared(k):
    lam = math.ldexp(1.0, k)
    base = K.g_thermal_accelerated(1.0, 0.25, 2.0, 1.0).value
    got = K.g_thermal_accelerated(1.0 / lam, 0.25 / lam, 2.0 / lam, lam).value
    want = math.ldexp(base.real, 2 * k)
    assert got.imag == 0.0
    assert abs(got.real - want) <= 1e-13 * abs(want), (k, got, want)


def _numeric_rates(order, lam: float) -> tuple:
    params, atom = DetectorParams(lam, 1.0), ATOMS[0]
    if order == "field":
        return R.field_rates(params, lam, atom)
    rep = R.derivative_coupling_rates(params, lam, atom, order)
    return rep.vf, rep.rr, rep.total


# k at which lam^2 = 2^(2k) is a normal float
NUMERIC_RANGE = (-511, 511)


@COVARIANCE
@given(k=EXPONENTS, order=st.sampled_from([0, 1, 2, "field"]))
@example(k=-1074, order=0)
@example(k=-511, order=0)
@example(k=511, order=2)
@example(k=-512, order=1)
@example(k=512, order="field")
def test_numeric_rates_scale_as_lam_squared_or_refuse(k, order):
    low, high = NUMERIC_RANGE
    try:
        got = _numeric_rates(order, math.ldexp(1.0, k))
    except (NonConvergence, OverflowError):
        assert not low <= k <= high, (k, order)
        return
    for value, base in zip(got, _numeric_rates(order, 1.0)):
        want = _scaled(base, 2 * k)
        assert want is None or value == want, (k, order, value, want)


@pytest.mark.parametrize("k", [-261, -260])
def test_numeric_rates_are_covariant_where_s4_was_subnormal(k):
    # at these k the ray integral ran at omega0 = alpha = 2^k, where S_4 on
    # the ray was subnormal: n = 1 was 1.06e-8 (k = -261) and 1.09e-9
    # (k = -260) off and passed the two-ray check
    got = _numeric_rates(1, math.ldexp(1.0, k))
    for value, base in zip(got, _numeric_rates(1, 1.0)):
        assert value == math.ldexp(base, 2 * k), (k, value, base)
