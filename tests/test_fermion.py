"""Fermion-bath rates, population dynamics, and the coarse-graining diagnostic."""

import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from decimal_reference import digits, pi

from unruh_kinetics.core import DomainError
from unruh_kinetics import fermion as F


def _single_mode(omega, g, beta):
    return F.BathSpectrum(((omega, g),), beta)


def test_zero_temperature_kills_stimulated_rate():
    rates = F.fermion_rates(_single_mode(0.8, 1.0, math.inf), 1.0, 1.0)
    assert rates.T_F == 0.0
    assert rates.C > 0.0


def test_high_temperature_limit_half_c():
    rates = F.fermion_rates(_single_mode(0.8, 1.0, 1e-6), 1.0, 1.0)
    assert rates.T_F / rates.C == pytest.approx(0.5, rel=1e-4)


def test_resonant_mode_uses_analytic_limit():
    # [1 - cos(x dt)]/(x^2 dt) -> dt/2, so C = 2 g^2 dt / 2 * 2 ... = g^2 dt
    rates = F.fermion_rates(_single_mode(1.0, 1.0, math.inf), 1.0, 1.0)
    assert rates.C == pytest.approx(1.0, rel=1e-9)
    # tiny detuning agrees with the limit formula
    near = F.fermion_rates(_single_mode(1.0 + 1e-6, 1.0, math.inf), 1.0, 1.0)
    assert near.C == pytest.approx(rates.C, rel=1e-9)



def test_window_weight_where_the_phase_overflows_or_its_square_underflows():
    # detuning * dt overflowed to inf and cos raised ValueError; the weight is
    # below 2 / (|detuning| 1e308) there
    assert F._window_weight(5e299, 1e300) == 0.0
    assert F.fermion_rates(F.default_bath(1e300, 1.0), 1e300, 1e300).C > 0.0
    # detuning^2 dt underflowed to 0 and the division raised
    # ZeroDivisionError; (detuning dt) detuning is the same denominator
    detuning, dt = 5e-301, 1e300
    want = (1.0 - math.cos(detuning * dt)) * dt / (detuning * dt) ** 2
    assert F._window_weight(detuning, dt) == pytest.approx(want, rel=1e-15)
    assert F._window_weight(-detuning, dt) == pytest.approx(want, rel=1e-15)


def _one_minus_cos(x):
    """1 - cos x by its Taylor series x^2/2 - x^4/24 + ..., which does not
    cancel, at x reduced to |x| <= pi."""
    with localcontext() as ctx:
        ctx.prec += max(x.adjusted(), 0) + 5  # the digits the reduction cancels
        x = x.remainder_near(2 * pi())
        term = total = x * x / 2
        k = 2
        while True:
            term *= -x * x / ((k + 1) * (k + 2))
            k += 2
            if total + term == total:
                return total
            total += term


def _window_weight_reference(detuning, dt):
    """[1 - cos x] / (detuning^2 dt), x = detuning dt, at 40 digits."""
    with digits(40):
        d, t = Decimal(detuning), Decimal(dt)
        return float(_one_minus_cos(d * t) / (d * d * t))


@pytest.mark.parametrize("detuning, dt", [(1.2345e-160, 1e156), (3e-158, 1e158)])
def test_window_weight_where_the_detuning_squared_is_subnormal(detuning, dt):
    # detuning^2 is subnormal and keeps only a few significant bits; the
    # weight divided by it was 1.3e-4 off at the first point.  The float
    # dt (1 - cos x) / x^2 is no reference: 1 - cos x cancels at small x.
    assert 0.0 < detuning * detuning < 2.2250738585072014e-308
    want = _window_weight_reference(detuning, dt)
    assert F._window_weight(detuning, dt) == pytest.approx(want, rel=1e-12)
    assert F._window_weight(-detuning, dt) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("x", [1e-6, 9.9e-5, 1.0001e-4, 1e-3, 0.1, 2.0, 1e3])
@pytest.mark.parametrize("dt", [1e-3, 1.0, 1e3])
def test_window_weight_has_no_cancellation_at_small_phase(x, dt):
    # 1 - cos x cancels ~1e-9 relative just above x = 1e-4, where a Taylor
    # branch used to hand over to it
    want = _window_weight_reference(x / dt, dt)
    assert F._window_weight(x / dt, dt) == pytest.approx(want, rel=1e-13)


def test_stimulated_rate_monotone_in_beta():
    spectrum_at = lambda b: F.default_bath(1.0, b)
    betas = np.geomspace(0.01, 100.0, 12)
    tfs = [F.fermion_rates(spectrum_at(float(b)), 1.0, 1.0).T_F for b in betas]
    assert all(b < a for a, b in zip(tfs, tfs[1:]))


def test_population_rhs_conserves_probability():
    rates = F.FermionRates(C=1.0, T_F=0.3)
    for diag in [(1.0, 0.0), (0.0, 1.0), (0.4, 0.6)]:
        d0, d1 = F.fermion_population_rhs(diag, rates)
        assert d0 + d1 == 0.0


def test_population_rhs_ground_state_excitation():
    rates = F.FermionRates(C=1.0, T_F=0.3)
    d0, d1 = F.fermion_population_rhs((1.0, 0.0), rates)
    assert d1 == pytest.approx(rates.T_F)


def test_population_rhs_excited_state_decays():
    rates = F.FermionRates(C=1.0, T_F=0.3)
    _, d1 = F.fermion_population_rhs((0.0, 1.0), rates)
    assert d1 < 0.0


def test_population_rhs_frozen_at_zero_temperature():
    rates = F.FermionRates(C=1.0, T_F=0.0)
    assert F.fermion_population_rhs((1.0, 0.0), rates) == (0.0, 0.0)


def test_population_rhs_validation():
    rates = F.FermionRates(C=1.0, T_F=0.0)
    with pytest.raises(DomainError):
        F.fermion_population_rhs((0.5, 0.6), rates)
    with pytest.raises(DomainError):
        F.fermion_population_rhs((1.0,), rates)
    with pytest.raises(DomainError, match=r"non-negative, got \(2\.0, -1\.0\)"):
        F.fermion_population_rhs((2.0, -1.0), rates)
    F.fermion_population_rhs((1.0 + 1e-13, -1e-13), rates)  # round-off passes


def test_energy_rate():
    rates = F.FermionRates(C=1.0, T_F=0.0)
    assert F.fermion_energy_rate((1.0, 0.0), rates, 1.0) == 0.0
    assert F.fermion_energy_rate((0.0, 1.0), rates, 1.0) == pytest.approx(-1.0)


def test_population_fixed_point_matches_rate_ratio():
    # relax d sigma11/dt = -C s1 + T_F s0 to its fixed point s1/s0 = T_F/C
    rates = F.fermion_rates(F.default_bath(1.0, 2.0), 1.0, 1.0)
    s0, s1 = 1.0, 0.0
    h = 0.01
    for _ in range(20000):
        d0, d1 = F.fermion_population_rhs((s0, s1), rates)
        s0, s1 = s0 + h * d0, s1 + h * d1
    assert s1 / s0 == pytest.approx(rates.T_F / rates.C, rel=1e-6)
    assert abs(F.fermion_energy_rate((s0, s1), rates, 1.0)) < 1e-8


def test_empty_spectrum_rejected():
    with pytest.raises(DomainError):
        F.BathSpectrum((), 1.0)


def test_coarse_graining_diagnostic():
    assert F.coarse_graining_diagnostic(0.01, 1.0) == pytest.approx(0.02)
    assert F.coarse_graining_diagnostic(1.0, 1.0) == pytest.approx(2.0)
    assert F.coarse_graining_diagnostic(0.0, 1.0) == 0.0
    assert F.coarse_graining_valid(0.01, 1.0)
    assert not F.coarse_graining_valid(1.0, 1.0)


@given(
    st.floats(min_value=0.05, max_value=0.5),
    st.floats(min_value=0.01, max_value=50.0),
)
@settings(max_examples=25, deadline=None)
def test_fermi_blocking_bound(g, beta):
    rates = F.fermion_rates(F.default_bath(1.0, beta, g), 1.0, 1.0)
    assert 0.0 <= rates.T_F <= 0.5 * rates.C * (1.0 + 1e-12)


@pytest.mark.parametrize("v_typ, tau_c", [(1e308, 1.0), (math.inf, 1.0), (0.1, math.nan)])
def test_coarse_graining_diagnostic_refuses_a_non_finite_ratio(v_typ, tau_c):
    with pytest.raises(DomainError, match="must be finite"):
        F.coarse_graining_diagnostic(v_typ, tau_c)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.floats(min_value=5e-324, max_value=1e-300),  # subnormal steps
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(min_value=1e307, max_value=1.7976931348623157e308),  # 1.5 omega0 overflows
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
))
@example(5e-324)
@example(1e-320)
@example(1e-322)  # step = delta / 100 underflows to 0
@example(2.2250738585072014e-308)
@example(1.0)
@example(1.1984620899082104e308)
@example(1.7976931348623157e308)
def test_default_bath_frequencies_are_numpy_linspace_bit_for_bit(omega0):
    with np.errstate(all="ignore"):
        want = np.linspace(0.5 * omega0, 1.5 * omega0, 101)
    if 1.5 * omega0 == math.inf:  # the bath's edge overflows: refused by name
        with pytest.raises(DomainError, match=r"^default bath edge 1\.5 \* omega0 "
                           rf"overflows a float, got omega0 = {re.escape(repr(omega0))}$"):
            F.default_bath(omega0, 1.0)
        return
    try:
        got = [w for w, _ in F.default_bath(omega0, 1.0).modes]
    except DomainError as exc:  # a zero frequency, refused as before
        with pytest.raises(DomainError, match=re.escape(str(exc))):
            F.BathSpectrum(tuple((float(w), 0.1) for w in want), 1.0)
        return
    assert all(type(w) is float for w in got)
    assert np.array(got).tobytes() == want.tobytes()
