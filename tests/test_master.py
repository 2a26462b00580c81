"""Two-level master equation: RK4 vs closed form, steady state, balance."""

import math
import sys
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from decimal_reference import digits
from unruh_kinetics.core import DomainError
from unruh_kinetics import master as M


def test_rhs_components_are_exact_negatives():
    for sp in (0.0, 0.3, 1.0):
        d_plus, d_minus = M.rate_rhs(M.PopulationState(sp, 1.0 - sp), 1.0, 2.0)
        assert d_plus == -d_minus


@pytest.mark.parametrize("omega0, beta", [(1e-320, 1e-320), (1e-300, 1.0), (1.0, 1e-320)])
def test_relaxation_rate_where_omega0_beta_underflows(omega0, beta):
    # omega0 beta / 2 underflowed to 0 and coth raised ZeroDivisionError; the
    # rate is its limit 1 / (4 pi beta), inf where that overflows
    assert M.relaxation_rate(omega0, beta) == 1.0 / (4.0 * math.pi * beta)


def test_relaxation_rate_is_continuous_where_coth_becomes_its_pole():
    beta = 1.0
    for x in (1e-8 * (1 - 1e-9), 1e-8 * (1 + 1e-9)):  # where a pole branch was
        omega0 = 2.0 * x / beta
        want = omega0 / (8.0 * math.pi * math.tanh(x))
        assert M.relaxation_rate(omega0, beta) == pytest.approx(want, rel=1e-15)



@pytest.mark.parametrize("sp, omega0, beta", [
    (0.5, 1e-320, 1e-320), (0.9, 1e-320, 1e-320), (0.9, 1e-300, 1.0),
])
def test_rhs_where_omega0_beta_underflows(sp, omega0, beta):
    # omega0 beta underflowed to 0 and the thermal weight raised
    # ZeroDivisionError; omega0 times it is 1/beta + omega0/2 there
    d_plus, d_minus = M.rate_rhs(M.PopulationState(sp, 1.0 - sp), omega0, beta)
    gap = 2.0 * sp - 1.0
    assert d_plus == -d_minus
    assert d_plus == pytest.approx(
        -(omega0 / 2.0 + gap / beta) / (8.0 * math.pi), rel=1e-15
    )


def test_rhs_is_continuous_where_the_thermal_weight_becomes_its_pole():
    beta, state = 1.0, M.PopulationState(0.7, 0.3)
    for x in (1e-8 * (1 - 1e-9), 1e-8 * (1 + 1e-9)):  # where a pole branch was
        omega0 = 2.0 * x / beta
        weight = 1.0 / -math.expm1(-omega0 * beta)
        want = -(omega0 / (8.0 * math.pi)) * (0.3 + 0.4 * weight)
        d_plus, _ = M.rate_rhs(state, omega0, beta)
        assert d_plus == pytest.approx(want, rel=1e-15)

def test_rhs_vanishes_at_steady_state():
    for w0, beta in [(0.5, 0.3), (1.0, 1.0), (2.0, 7.0)]:
        d_plus, d_minus = M.rate_rhs(M.steady_state(w0, beta), w0, beta)
        assert abs(d_plus) < 1e-14
        assert abs(d_minus) < 1e-14


def test_rhs_zero_temperature_spontaneous_decay():
    d_plus, _ = M.rate_rhs(M.PopulationState(1.0, 0.0), 1.0, math.inf)
    assert d_plus == pytest.approx(-1.0 / (8.0 * math.pi), rel=1e-14)


def test_steady_state_values():
    assert M.steady_state(1.0, math.log(3.0)).sigma_plus == pytest.approx(0.25)
    assert M.steady_state(1.0, math.log(3.0)).sigma_minus == pytest.approx(0.75)
    hot = M.steady_state(1.0, 1e-12)
    assert hot.sigma_plus == pytest.approx(0.5, abs=1e-9)
    cold = M.steady_state(1.0, math.inf)
    assert (cold.sigma_plus, cold.sigma_minus) == (0.0, 1.0)


_LOG_UNIFORM = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)


@given(_LOG_UNIFORM, _LOG_UNIFORM)
@example(1.0, 708.0)  # x = omega0 beta near the top of the normal range
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_steady_state_over_the_float_range(omega0, beta):
    # omega0 and beta log-uniform over [1e-300, 1e300], against 50 digits of
    # e^-x / (1 + e^-x), x = omega0 beta.  sigma_plus carries the x 2^-53
    # conditioning of e^x and of the rounded product: 4.9e-14 measured on
    # 40000 log-uniform points, 5.7e-14 on 20000 with x in [1, 745].  Where
    # e^x overflows the value is subnormal and sigma_plus is 0; no call warns
    with digits(50):
        e = (-(Decimal(omega0) * Decimal(beta))).exp()
        want = e / (1 + e)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = M.steady_state(omega0, beta).sigma_plus
    if want >= Decimal(sys.float_info.min):
        assert abs(Decimal(got) - want) <= Decimal("1e-13") * want, (got, want)
    else:
        assert 0.0 <= got < sys.float_info.min


def test_steady_state_of_a_float_and_of_an_array_to_4_ulps_of_the_reference():
    # a Python float takes math's exp, an array numpy's, which may differ in
    # the last bits; each pair lies within 4 ulps of 50 digits of
    # (1, e^x) / (1 + e^x) at the rounded product x = omega0 beta, where a
    # subnormal or zero value has an ulp of 2^-1074.  omega0 = 1 and a
    # log-spaced beta up to past e^x's overflow, with beta = +inf last.
    # Measured: 1.7 ulps for either
    beta = np.append(np.geomspace(1e-300, 1e3, 4001), math.inf)
    st_ = M.steady_state(1.0, beta)
    for b, sp, sm in zip(beta.tolist(), st_.sigma_plus.tolist(), st_.sigma_minus.tolist()):
        with digits(50):
            e = (-Decimal(1.0 * b)).exp() if b < math.inf else Decimal(0)
            want = (e / (1 + e), 1 / (1 + e))
        scalar = M.steady_state(1.0, b)
        for got in ((sp, sm), (scalar.sigma_plus, scalar.sigma_minus)):
            for g, w in zip(got, want):
                assert abs(Decimal(g) - w) <= 4 * Decimal(math.ulp(float(w))), (b, g, w)


def test_detailed_balance():
    assert M.detailed_balance_ratio(1.0, math.log(2.0)) == pytest.approx(0.5)
    for w0, beta in [(0.7, 0.4), (1.3, 2.1), (2.0, 5.0)]:
        st_ = M.steady_state(w0, beta)
        assert st_.sigma_plus / st_.sigma_minus == pytest.approx(
            M.detailed_balance_ratio(w0, beta), abs=1e-14
        )


def test_closed_form_boundary_values():
    init = M.PopulationState(0.8, 0.2)
    assert M.closed_form(init, 1.0, 1.0, 0.0) == init
    far = M.closed_form(init, 1.0, 1.0, 1e6)
    assert far.sigma_plus == pytest.approx(
        M.steady_state(1.0, 1.0).sigma_plus, abs=1e-14
    )


def test_closed_form_unit_decay_point():
    # tau chosen so the decay exponent is exactly -1
    init = M.PopulationState(1.0, 0.0)
    tau = 8.0 * math.pi * math.tanh(0.5)
    got = M.closed_form(init, 1.0, 1.0, tau)
    sp_inf = M.steady_state(1.0, 1.0).sigma_plus
    assert got.sigma_plus == pytest.approx(
        sp_inf + (1.0 - sp_inf) * math.exp(-1.0), rel=1e-13
    )
    num = M.evolve(init, 1.0, 1.0, tau).sigma_plus[-1]
    assert num == pytest.approx(got.sigma_plus, abs=1e-8)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-300, max_value=1e300),
    st.one_of(st.floats(min_value=1e-300, max_value=1e300), st.just(math.inf)),
    st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e300)),
             min_size=1, max_size=8),
)
@example(0.8, 1.0, 1.0, [0.0, 1.0, 1e6, math.inf])
@settings(max_examples=60, deadline=None)
def test_closed_form_on_an_array_is_its_scalar_calls(sp, w0, beta, taus):
    init = M.PopulationState(sp, 1.0 - sp)
    got = M.closed_form(init, w0, beta, np.array(taus))
    for i, tau in enumerate(taus):
        one = M.closed_form(init, w0, beta, tau)
        assert type(one.sigma_plus) is float and type(one.sigma_minus) is float
        if tau == 0.0:
            assert one == init
        # bit for bit, -0.0 and NaN included
        assert np.array_equal(got.sigma_plus[i], one.sigma_plus, equal_nan=True)
        assert math.copysign(1.0, got.sigma_plus[i]) == math.copysign(1.0, one.sigma_plus)
        assert np.array_equal(got.sigma_minus[i], one.sigma_minus, equal_nan=True)


def test_closed_form_refuses_a_negative_tau():
    init = M.PopulationState(0.8, 0.2)
    with pytest.raises(DomainError, match=r"^tau must be non-negative, got -1.0$"):
        M.closed_form(init, 1.0, 1.0, -1.0)
    with pytest.raises(DomainError, match=r"^tau must be non-negative, got -2.0$"):
        M.closed_form(init, 1.0, 1.0, np.array([0.0, 1.0, -2.0, -3.0]))


def test_evolve_zero_span_returns_init():
    init = M.PopulationState(0.4, 0.6)
    traj = M.evolve(init, 1.0, 1.0, 0.0)
    assert traj.taus.tolist() == [0.0]
    assert traj.sigma_plus.tolist() == [init.sigma_plus]


def test_evolve_matches_closed_form_over_grid():
    init_sps = [0.0, 0.25, 0.5, 0.75, 1.0]
    for w0 in (0.5, 1.0, 2.0):
        for beta in (0.1, 1.0, 10.0):
            for sp in init_sps:
                init = M.PopulationState(sp, 1.0 - sp)
                traj = M.evolve(init, w0, beta, 25.0)
                ref = M.closed_form(init, w0, beta, traj.taus)
                assert np.max(np.abs(traj.sigma_plus - ref.sigma_plus)) < 1e-8


def test_evolve_conservation():
    traj = M.evolve(M.PopulationState(0.9, 0.1), 1.0, 0.5, 50.0)
    sigma_minus = 1.0 - traj.sigma_plus
    assert np.max(np.abs(traj.sigma_plus + sigma_minus - 1.0)) < 1e-12
    M.PopulationState(traj.sigma_plus, sigma_minus)  # every sample is a state


def test_evolve_monotone_approach_to_steady_state():
    init = M.PopulationState(1.0, 0.0)
    traj = M.evolve(init, 1.0, 2.0, 40.0)
    target = M.steady_state(1.0, 2.0).sigma_plus
    dists = np.abs(traj.sigma_plus - target)
    assert np.all(np.diff(dists) <= 1e-15)


def test_population_state_invariants():
    with pytest.raises(DomainError, match=r"^populations must sum to 1, got 1.4$"):
        M.PopulationState(0.7, 0.7)
    with pytest.raises(
        DomainError, match=r"^populations must be non-negative, got \(1.2, -0.2\)$"
    ):
        M.PopulationState(1.2, -0.2)


def test_population_state_checks_arrays_and_names_the_first_bad_pair():
    M.PopulationState(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.5, 0.0]))
    with pytest.raises(DomainError, match=r"^populations must sum to 1, got 1.4$"):
        M.PopulationState(np.array([0.5, 0.7, 0.9]), np.array([0.5, 0.7, 0.9]))
    with pytest.raises(
        DomainError, match=r"^populations must be non-negative, got \(1.2, -0.2\)$"
    ):
        M.PopulationState(np.array([0.5, 1.2, 1.5]), np.array([0.5, -0.2, -0.5]))


def test_figure_regimes():
    # high temperature: both levels equally filled (up to the O(omega0 beta)
    # offset of the exact steady state from 1/2)
    hot = M.evolve(M.PopulationState(0.01, 0.99), 1.0, 0.01, 500.0).sigma_plus[-1]
    assert abs(hot - M.steady_state(1.0, 0.01).sigma_plus) < 1e-4
    assert abs(hot - 0.5) < 0.005
    # low temperature: ground level fills almost completely
    cold = 1.0 - M.evolve(M.PopulationState(0.9, 0.1), 1.0, 5.0, 400.0).sigma_plus[-1]
    assert cold == pytest.approx(math.exp(5.0) / (1.0 + math.exp(5.0)), abs=1e-6)
    assert cold > 0.99


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.3, max_value=3.0),
    st.floats(min_value=0.2, max_value=5.0),
)
@settings(max_examples=20, deadline=None)
def test_evolve_closed_form_agreement_random(sp, w0, beta):
    init = M.PopulationState(sp, 1.0 - sp)
    traj = M.evolve(init, w0, beta, 10.0)
    ref = M.closed_form(init, w0, beta, 10.0)
    assert traj.sigma_plus[-1] == pytest.approx(ref.sigma_plus, abs=1e-8)


def _rk4_loop(init, w0, beta, tau_end, steps):
    """Reference: RK4 stepped one step at a time on rate_rhs, conservation
    re-imposed after every step."""
    h = tau_end / steps
    w = 1.0 if math.isinf(beta) else 1.0 / -math.expm1(-w0 * beta)
    sp, sm = init.sigma_plus, init.sigma_minus
    out = [sp]

    def f(p, m):
        return -(w0 / (8.0 * math.pi)) * (m + w * (p - m))

    for _ in range(steps):
        k1 = f(sp, sm)
        k2 = f(sp + 0.5 * h * k1, sm - 0.5 * h * k1)
        k3 = f(sp + 0.5 * h * k2, sm - 0.5 * h * k2)
        k4 = f(sp + h * k3, sm - h * k3)
        dp = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        sp, sm = sp + dp, sm - dp
        total = sp + sm
        sp, sm = sp / total, sm / total
        out.append(sp)
    return np.array(out)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.3, max_value=3.0),
    st.one_of(st.floats(min_value=0.05, max_value=10.0), st.just(math.inf)),
    st.floats(min_value=0.5, max_value=20.0),
)
@example(0.9, 1.0, math.inf, 10.0)
@example(0.2, 2.0, 0.5, 5.0)
@settings(max_examples=40, deadline=None)
def test_evolve_matches_stepwise_rk4(sp, w0, beta, tau_end):
    init = M.PopulationState(sp, 1.0 - sp)
    traj = M.evolve(init, w0, beta, tau_end)
    n = len(traj.taus) - 1
    h = tau_end / n
    ref = _rk4_loop(init, w0, beta, tau_end, n)
    assert traj.sigma_plus[0] == init.sigma_plus
    assert np.max(np.abs(traj.sigma_plus - ref)) < 1e-13
    assert np.array_equal(traj.taus, np.arange(n + 1) * h)


@pytest.mark.parametrize("samples", [1, 2, 7, 101, 5000])
def test_evolve_samples_are_rows_of_full_trajectory(samples):
    init = M.PopulationState(0.8, 0.2)
    full = M.evolve(init, 1.3, 0.7, 60.0)
    part = M.evolve(init, 1.3, 0.7, 60.0, samples=samples)
    steps = len(full.taus) - 1
    idx = np.unique(np.linspace(0, steps, samples).round().astype(int))
    assert np.array_equal(part.taus, full.taus[idx])
    assert np.array_equal(part.sigma_plus, full.sigma_plus[idx])


@pytest.mark.parametrize("w0, beta, tau_end", [
    (1.3, 0.7, 60.0), (0.5, 1.0, 20.0), (1.0, 10.0, 20.0), (2.0, 0.1, 20.0),
    (1.0, math.inf, 7.5), (3.0, 1e-3, 1e-4),
])
def test_evolve_without_samples_is_every_step(w0, beta, tau_end):
    init = M.PopulationState(0.9, 0.1)
    steps = max(1, math.ceil(M.relaxation_rate(w0, beta) * tau_end / M.Z_DEFAULT))
    full = M.evolve(init, w0, beta, tau_end)
    every = M.evolve(init, w0, beta, tau_end, samples=steps + 1)
    assert len(full.taus) == steps + 1
    assert full.taus.tobytes() == every.taus.tobytes()
    assert full.sigma_plus.tobytes() == every.sigma_plus.tobytes()


def test_evolve_rejects_bad_span_and_samples():
    init = M.PopulationState(1.0, 0.0)
    for tau_end in (-1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            M.evolve(init, 1.0, 1.0, tau_end)
    with pytest.raises(DomainError):
        M.evolve(init, 1.0, 1.0, 10.0, samples=0)
    with pytest.raises(TypeError):  # samples is keyword-only
        M.evolve(init, 1.0, 1.0, 10.0, 101)


def test_evolve_rejects_step_counts_above_2_53():
    init = M.PopulationState(1.0, 0.0)
    # a huge rate, a huge span, and both (Gamma tau = inf)
    for w0, tau_end in [(1e300, 100.0), (1.0, 1e300), (1e300, 1e300)]:
        with pytest.raises(DomainError, match=r"RK4 steps, > 2\^53"):
            M.evolve(init, w0, 1.0, tau_end, samples=3)
    # just under 2^53 steps still runs, at a cost set by samples
    gamma = M.relaxation_rate(1.0, 1.0)
    tau_end = (1.0 - 1e-12) * M.MAX_STEPS * M.Z_DEFAULT / gamma
    traj = M.evolve(init, 1.0, 1.0, tau_end, samples=3)
    assert len(traj.taus) == 3
    assert traj.taus[-1] == pytest.approx(tau_end, rel=1e-15)
    sp_inf = M.steady_state(1.0, 1.0).sigma_plus
    assert traj.sigma_plus[-1] == pytest.approx(sp_inf, rel=1e-15)
