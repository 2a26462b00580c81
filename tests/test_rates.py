"""Energy-variation rates: closed forms, numeric pipeline, orderings.

Note: the radiation-reaction rate comes from the field susceptibility, a
commutator function that does not depend on the field's state, so both the
numeric pipeline and the closed form give the acceleration-independent value
-omega0^2 mu^2 / 16 pi.  test_derivative_coupling_n0_rr_matches_closed_form
and test_field_rr_balance_matches_closed_form compare the numeric atom-side
and field-side RR rates with that closed form; they failed while the closed
form carried a thermal factor coth(pi omega0/alpha).
"""

import errno
import math
import os
import re
import sys
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from decimal_reference import digits, pi, planck as planck_reference

from unruh_kinetics.core import (
    AtomState,
    DetectorParams,
    DomainError,
    NonConvergence,
    OrderingParam,
    check_alpha,
)
from unruh_kinetics import kernels as K
from unruh_kinetics import rates as R
from unruh_kinetics.kernels import _inverse_power_uv, image_sum_inverse_power
from unruh_kinetics.numerics import composite_rule
from unruh_kinetics.response import (planck_response_oracle, response_accelerated,
                                     unruh_temperature)

PLUS = AtomState.plus()
MINUS = AtomState.minus()


def test_planck_bracket_identity():
    for w0, a in [(1.0, 1.0), (2.0, 0.5), (0.5, 3.0), (1.0, 10.0)]:
        assert R.planck_bracket(w0, a) == pytest.approx(
            1.0 / math.tanh(math.pi * w0 / a), rel=1e-12
        )
    assert R.planck_bracket(1.0, 0.0) == R.planck_bracket(1.0, -0.0) == 1.0


@pytest.mark.parametrize("alpha", [-1.0, -1e-320, -math.inf, math.nan, -0.0])
@pytest.mark.parametrize(
    "rate",
    [lambda a: R.planck_bracket(1.0, a),
     lambda a: R.atom_rr_rate(DetectorParams(1.0), a),
     lambda a: R.atom_total_rate(DetectorParams(1.0), a, PLUS),
     lambda a: response_accelerated(1.0, a).rate,
     unruh_temperature,
     check_alpha],
    ids=["planck_bracket", "atom_rr_rate", "atom_total_rate", "response_accelerated",
         "unruh_temperature", "check_alpha"],
)
def test_closed_forms_refuse_negative_or_nan_alpha(rate, alpha):
    if alpha == 0:  # -0.0 is the inertial worldline: +0.0's result, sign too
        assert repr(rate(alpha)) == repr(rate(0.0))
        return
    # a NaN alpha used to pass alpha < 0 and give a NaN report
    with pytest.raises(DomainError) as exc:
        rate(alpha)
    assert str(exc.value) == f"alpha must be >= 0, got {alpha}"


@pytest.mark.parametrize(
    "rate",
    [lambda a: R.planck_bracket(1.0, a),
     lambda a: R.atom_vf_rate(DetectorParams(1.0), a, PLUS),
     lambda a: R.atom_rr_rate(DetectorParams(1.0), a),
     lambda a: R.atom_total_rate(DetectorParams(1.0), a, PLUS),
     lambda a: R.derivative_coupling_rates(DetectorParams(1.0), a, MINUS, 1),
     lambda a: R.field_rates(DetectorParams(1.0), a, PLUS),
     lambda a: response_accelerated(1.0, a),
     lambda a: planck_response_oracle(1.0, a),
     unruh_temperature,
     check_alpha],
    ids=["planck_bracket", "atom_vf_rate", "atom_rr_rate", "atom_total_rate",
         "derivative_coupling_rates", "field_rates", "response_accelerated",
         "planck_response_oracle", "unruh_temperature", "check_alpha"],
)
def test_the_library_refuses_an_infinite_alpha(rate):
    # atom_total_rate and atom_rr_rate raised OverflowError, planck_bracket,
    # the response and the temperature returned inf, and the numeric rates
    # raised NonConvergence
    with pytest.raises(DomainError) as exc:
        rate(math.inf)
    assert str(exc.value) == "alpha must be finite, got inf"


@pytest.mark.parametrize(
    "alpha, message",
    [([1.0, math.inf, 2.0], "alpha must be finite, got inf"),
     ([1.0, math.inf, -1.0], "alpha must be >= 0, got -1.0"),
     ([1.0, math.nan, math.inf], "alpha must be >= 0, got nan")],
)
def test_an_alpha_array_names_its_first_refused_element(alpha, message):
    # the >= 0 rule is checked first, over the whole array
    for call in (check_alpha, lambda a: response_accelerated(1.0, a)):
        with pytest.raises(DomainError) as exc:
            call(np.array(alpha))
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "total, vf, rr",
    [(math.nan, 1.0, 0.0), (1.0, math.nan, 0.0), (1.0, 1.0, math.nan),
     (1.0, 2.0, 0.0)],
)
def test_energy_report_refuses_a_split_that_misses_total(total, vf, rr):
    with pytest.raises(DomainError, match="vf \\+ rr must reproduce total"):
        R.EnergyRateReport(total=total, finite=True, vf=vf, rr=rr)


def test_energy_report_leaves_an_overflow_to_the_caller():
    # vf = +inf, rr = -inf is omega0^2 mu^2 overflowing, a numeric failure
    rep = R.EnergyRateReport(total=math.nan, finite=True, vf=math.inf, rr=-math.inf)
    assert math.isnan(rep.total)


def _outcome(call):
    """call()'s value, or the args of the OverflowError it raises."""
    try:
        return call()
    except OverflowError as exc:
        return exc.args


def _product_bits(terms, cast):
    return _outcome(lambda: float(R._product(*((cast(x), p) for x, p in terms))).hex())


_PRODUCTS = {
    "normal": ((3.0, 2), (0.1, -1), (1e-5, 3)),
    "subnormal": ((1e-160, 2), (3.0, 1)),
    "underflow to 0": ((1e-200, 2), (-7.0, 1)),
    "overflow": ((1e200, 2), (0.5, 1)),
    "over- and underflow": ((1e300, 2), (1e-300, 2), (1e-300, 1)),
    "infinite term": ((math.inf, 1), (2.0, -1)),
    "0 * inf": ((math.inf, 1), (0.0, 1)),
    "1 / 0": ((0.0, -1), (2.0, 1)),
    "NaN term": ((math.nan, 1),),
}


@pytest.mark.parametrize("terms", _PRODUCTS.values(), ids=_PRODUCTS)
def test_product_of_python_floats_is_that_of_numpy(terms):
    # Python floats take math.frexp / math.ldexp, 0-d arrays numpy's: the
    # same bits, or the same OverflowError(ERANGE), which the CLI reports
    as_float = _product_bits(terms, float)
    assert as_float == _product_bits(terms, np.array)
    if isinstance(as_float, tuple):
        assert as_float == (errno.ERANGE, os.strerror(errno.ERANGE))


@given(st.lists(st.tuples(st.floats(allow_nan=False), st.integers(-3, 3)), max_size=6))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_product_of_any_python_floats_is_that_of_numpy(terms):
    assert _product_bits(terms, float) == _product_bits(terms, np.array)


@pytest.mark.parametrize("w0, mu, r3, a, b", [
    (1.3, 0.7, 0.5, ((0.25, 1), (1.2, -1)), ((0.25, 1), (0.01, 1))),
    (1e-160, 1.0, -0.5, ((3.0, 1),), ((1e-150, 1),)),  # a subnormal Ka
    (1e160, 1e150, 0.5, ((1.0, 1),), ((1.0, 1),)),  # K overflows
    (1e150, 1e4, 0.5, ((1.0, 1),), ((3.0, 1),)),  # vf and the total overflow
])
def test_split_of_python_floats_is_that_of_numpy(w0, mu, r3, a, b):
    def report(cast):
        rep = R._split(DetectorParams(cast(w0), cast(mu)), cast(r3),
                       tuple((cast(x), p) for x, p in a), tuple((cast(x), p) for x, p in b))
        return tuple(float(getattr(rep, key)).hex() for key in ("vf", "rr", "total"))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(lambda: report(float)) == _outcome(lambda: report(np.array))



@pytest.mark.parametrize("w0, alpha", [(4e307, 1e307), (1.7e308, 1e308), (1e308, 2e307)])
def test_planck_bracket_where_two_pi_omega0_overflows(w0, alpha):
    # 2 pi omega0 overflowed, so the bracket was 1.0: it depends on omega0 / alpha
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = R.planck_bracket(w0, alpha)
    assert got == pytest.approx(1.0 / math.tanh(math.pi * (w0 / alpha)), rel=1e-15)
    assert got > 1.0 and R.planck_bracket(w0, 0.0) == 1.0


def test_planck_bracket_takes_its_pole_where_the_exponent_underflows():
    # 2 pi omega0 / alpha underflowed to 0 and 2 / expm1 raised
    # ZeroDivisionError; coth y is 1/y there, inf where that overflows
    assert R.planck_bracket(1e-320, 1e300) == math.inf
    assert R.planck_bracket(1e-300, 1e-10) == pytest.approx(
        1e-10 / (math.pi * 1e-300), rel=1e-15
    )
    for y in (1e-8 * (1 - 1e-9), 1e-8 * (1 + 1e-9)):  # where a pole branch was
        assert R.planck_bracket(y / math.pi, 1.0) == pytest.approx(
            1.0 / math.tanh(y), rel=1e-15
        )

# omega0 / alpha across the old coth pole (pi omega0 / alpha < 1e-8) and the
# old x > 700 cut, with alpha = 0 (inertial) among them
_W0 = np.geomspace(1e-12, 1e4, 301)
_ALPHA = np.concatenate([[0.0], np.geomspace(1e-4, 1e6, 301)])


def test_closed_forms_broadcast_as_the_scalar_calls():
    p = DetectorParams(_W0[:, None], 0.7)
    atom = AtomState(np.array([-0.5, 0.0, 0.2, 0.5])[:, None, None])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = R.atom_total_rate(p, _ALPHA, atom)
        bracket = R.planck_bracket(_W0[:, None], _ALPHA)
    assert rep.vf.shape == (4, len(_W0), len(_ALPHA)) and rep.rr.shape == (len(_W0), 1)
    for i, r3 in enumerate((-0.5, 0.0, 0.2, 0.5)):
        for j in range(0, len(_W0), 10):
            for k in range(0, len(_ALPHA), 10):
                w0, a = _W0[j], _ALPHA[k]  # numpy floats: evaluated with numpy
                one = R.atom_total_rate(DetectorParams(w0, 0.7), a, AtomState(r3))
                assert type(one.vf) is float and type(one.total) is float
                assert (rep.vf[i, j, k], rep.rr[j, 0], rep.total[i, j, k]) == (
                    one.vf, one.rr, one.total)
                assert bracket[j, k] == R.planck_bracket(w0, a)


def test_closed_forms_of_python_floats_meet_the_reference():
    # Python floats are evaluated with math, whose last bits may differ from
    # numpy's: each of vf, rr, total and the bracket is held to one bound of
    # 50 digits, relative or 2^-1073 absolute.  It is that of the
    # ground-state total over the float range, whose e^-x carries the
    # x 2^-53 conditioning; the bracket is 1 + 2 nbar, as vf
    for w0 in _W0[::10].tolist():
        for a in _ALPHA[::10].tolist():
            with digits(50):
                kk, x = Decimal(w0) ** 2 * Decimal("0.49") / (16 * pi()), 2 * pi() * Decimal(w0)
                nbar = planck_reference(x / Decimal(a)) * Decimal(a) / x if a else 0
            pairs = [(R.planck_bracket(w0, a), 1 + 2 * nbar)]
            for r3 in (-0.5, 0.0, 0.2, 0.5):
                one = R.atom_total_rate(DetectorParams(w0, 0.7), a, AtomState(r3))
                assert type(one.vf) is float and type(one.total) is float
                with digits(50):
                    want = (-2 * Decimal(r3) * kk * (1 + 2 * nbar), -kk,
                            -(1 + 2 * Decimal(r3)) * kk - 4 * Decimal(r3) * kk * nbar)
                pairs += zip((one.vf, one.rr, one.total), want)
            for got, ref in pairs:
                with digits(50):
                    tol = Decimal("2e-13") * abs(ref) + Decimal(2) ** -1073
                assert abs(Decimal(got) - ref) <= tol, (w0, a, got, ref)


@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.integers(min_value=-300, max_value=300),
)
@example(1.0, 1.0, 1e-50, -200)
@example(4.0, 1.0, 1e7, 307)
@settings(max_examples=100, deadline=None)
def test_closed_forms_are_invariant_under_the_float_range_scaling(w0, alpha, mu, k):
    # (omega0, alpha, mu) -> (s omega0, s alpha, mu / s) keeps omega0 mu and
    # omega0 / alpha, so the rates; at |k| >~ 154 omega0^2 or mu^2 alone
    # leaves the normal float range, which printed -0.0 or raised OverflowError
    s = 10.0**k
    for atom in (PLUS, MINUS):
        want = R.atom_total_rate(DetectorParams(w0, mu), alpha, atom)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = R.atom_total_rate(DetectorParams(w0 * s, mu / s), alpha * s, atom)
            arr = R.atom_total_rate(DetectorParams(np.array([w0, w0 * s]),
                                                   np.array([mu, mu / s])),
                                    np.array([alpha, alpha * s]), atom)
            # numpy floats are evaluated with numpy, as the array is
            got64 = R.atom_total_rate(DetectorParams(np.float64(w0 * s), np.float64(mu / s)),
                                      np.float64(alpha * s), atom)
        for key in ("vf", "rr", "total"):
            assert getattr(got, key) == pytest.approx(getattr(want, key), rel=1e-12)
            assert getattr(got64, key) == pytest.approx(getattr(want, key), rel=1e-12)
            assert getattr(arr, key)[1] == getattr(got64, key)


def test_closed_forms_name_the_first_bad_element():
    with pytest.raises(DomainError, match="alpha must be >= 0, got -1.0"):
        R.planck_bracket(1.0, np.array([1.0, -1.0, math.nan]))
    with pytest.raises(DomainError, match="omega0 must be positive, got -2.0"):
        DetectorParams(np.array([1.0, -2.0, 0.0]))
    with pytest.raises(DomainError, match=r"\|<R3>\| must be <= 1/2, got 0.75"):
        AtomState(np.array([0.5, 0.75]))


@pytest.mark.parametrize(
    "params",
    [DetectorParams(np.array([1.0, 1e200])), DetectorParams(1.0, np.array([1.0, 1e200]))],
)
def test_a_square_that_overflows_raises_as_a_float_power_does(params):
    # the CLI reports it as "overflowed a float", as for omega0 ** 2 on a float
    with pytest.raises(OverflowError) as exc:
        R.atom_total_rate(params, 1.0, PLUS)
    assert exc.value.args == (errno.ERANGE, os.strerror(errno.ERANGE))


def test_vf_closed_form_inertial_limit():
    p = DetectorParams(1.0, 1.0)
    assert R.atom_vf_rate(p, 0.0, PLUS) == pytest.approx(-1.0 / (16.0 * math.pi))
    assert R.atom_vf_rate(p, 0.0, MINUS) == pytest.approx(1.0 / (16.0 * math.pi))


def test_vf_excites_ground_state():
    p = DetectorParams(1.0, 1.0)
    assert R.atom_vf_rate(p, 2.0, MINUS) > 0.0
    assert R.atom_vf_rate(p, 2.0, PLUS) < 0.0
    # equal-weight average over the two eigenstates vanishes
    avg = R.atom_vf_rate(p, 2.0, PLUS) + R.atom_vf_rate(p, 2.0, MINUS)
    assert avg == pytest.approx(0.0, abs=1e-18)


@pytest.mark.parametrize("omega0", [1e-320, 1e-300, 1e-200])
@pytest.mark.parametrize("alpha", [1.0, 1e20])
def test_vf_at_tiny_omega0_is_its_small_y_limit(omega0, alpha):
    # omega0^2 underflows and coth(pi omega0 / alpha) overflows there; the
    # rate is -mu^2 <R3> omega0 alpha / 8 pi^2.  At omega0 = 1e-320, alpha = 1
    # it is subnormal and carries ~2 digits, so it is held to 2 subnormal units
    vf = R.atom_vf_rate(DetectorParams(omega0), alpha, PLUS)
    want = -0.5 * omega0 * alpha / (8.0 * math.pi**2)
    assert math.isfinite(vf)
    assert vf == pytest.approx(want, rel=1e-12, abs=1e-323)
    assert R.atom_total_rate(DetectorParams(omega0), alpha, PLUS).total == vf


def test_vf_is_continuous_where_coth_becomes_its_pole():
    alpha = 1.0
    for y in (1e-8 * (1 - 1e-9), 1e-8 * (1 + 1e-9)):  # where a pole branch was
        omega0 = y * alpha / math.pi
        vf = R.atom_vf_rate(DetectorParams(omega0), alpha, MINUS)
        want = (omega0**2 / (16.0 * math.pi)) / math.tanh(y)
        assert vf == pytest.approx(want, rel=1e-15)


def test_rr_closed_form_values():
    p = DetectorParams(1.0, 1.0)
    assert R.atom_rr_rate(p, 0.0) == pytest.approx(-1.0 / (16.0 * math.pi))
    # e^{2 pi omega0 / alpha} = 2 makes the Planck bracket equal 3; RR comes
    # from the state-independent field commutator and carries no such factor
    alpha = 2.0 * math.pi / math.log(2.0)
    assert R.atom_rr_rate(p, alpha) == pytest.approx(-1.0 / (16.0 * math.pi))


def test_rr_always_dissipative_and_state_independent():
    for w0 in (0.5, 1.0, 2.0):
        for alpha in (0.1, 1.0, 10.0):
            p = DetectorParams(w0, 0.7)
            assert R.atom_rr_rate(p, alpha) < 0.0


def test_total_rate_decomposition():
    p = DetectorParams(1.3, 0.9)
    rep = R.atom_total_rate(p, 1.7, PLUS)
    assert rep.finite
    assert abs(rep.vf + rep.rr - rep.total) < 1e-12


def test_total_vanishes_in_ground_state():
    p = DetectorParams(1.0)
    assert R.atom_total_rate(p, 0.0, MINUS).total == 0.0


# x = 2 pi omega0 / alpha at alpha = 1, where the rates and the response form
# the same x; 1e-300 lies below the old coth pole at x = 2e-8, 700 where e^-x
# is near underflow
GROUND_X = st.floats(min_value=1e-300, max_value=700.0)


@given(GROUND_X)
@example(1e-300)
@example(2e-8)
@example(31.4)
@example(700.0)
@settings(max_examples=300, deadline=None)
def test_ground_state_total_is_the_planck_rate(x):
    # an accelerated ground-state atom absorbs energy at the Planck rate,
    # total = mu^2 omega0 F / 4; vf + rr cancels it to ~e^-x of vf, and the
    # total formed as vf + rr printed 0 from x ~ 37 on
    w0 = x / (2.0 * math.pi)
    total = R.atom_total_rate(DetectorParams(w0), 1.0, MINUS).total
    want = w0 * response_accelerated(w0, 1.0).rate / 4.0
    assert total == pytest.approx(want, rel=1e-14, abs=0.0)


@given(st.floats(min_value=700.0, max_value=1400.0))
@example(750.0)
@example(1400.0)
@settings(max_examples=200, deadline=None)
def test_ground_state_total_is_normal_where_e_to_the_minus_x_underflows(x):
    # e^-x underflows from x ~ 745 on, and the total (omega0^2 / 8 pi) nbar =
    # omega0 F / 4 and F = (omega0 / 2 pi) nbar printed 0 there; at omega0 =
    # 1e150 the total is a normal float up to x ~ 1396, F up to x ~ 1051
    w0 = 1e150
    alpha = 2.0 * math.pi * w0 / x
    x = 2.0 * math.pi * (w0 / alpha)  # the x of the rates at (w0, alpha)
    total = R.atom_total_rate(DetectorParams(w0), alpha, MINUS).total
    rate = response_accelerated(w0, alpha).rate
    want = math.exp(2.0 * math.log(w0) - math.log(8.0 * math.pi) - x)
    assert total != 0.0
    assert total == pytest.approx(want, rel=1e-12, abs=0.0)
    if x < 1051.0:
        assert rate != 0.0
        assert w0 * rate / 4.0 == pytest.approx(want, rel=1e-12, abs=0.0)


@given(GROUND_X)
@example(31.4)
@example(700.0)
@settings(max_examples=300, deadline=None)
def test_ground_to_excited_total_ratio_is_detailed_balance(x):
    w0 = x / (2.0 * math.pi)
    minus = R.atom_total_rate(DetectorParams(w0), 1.0, MINUS).total
    plus = R.atom_total_rate(DetectorParams(w0), 1.0, PLUS).total
    assert minus / -plus == pytest.approx(math.exp(-2.0 * math.pi * w0), rel=1e-14, abs=0.0)


def _total_reference(w0, alpha, mu, r3):
    """(K, total) of `atom_total_rate` at 50 digits, K = omega0^2 mu^2 / 16 pi:
    the total is -2K(1 + nbar) in the excited state and 2K nbar in the
    ground state, nbar = P(x) / x at x = 2 pi omega0 / alpha, P the Planck
    factor x / (e^x - 1)."""
    with digits(50):
        w0, alpha, mu = map(Decimal, (w0, alpha, mu))
        k = w0 * w0 * mu * mu / (16 * pi())
        x = 2 * pi() * w0 / alpha
        nbar = planck_reference(x) / x
        return k, -2 * k * (1 + nbar) if r3 > 0 else 2 * k * nbar


_RATE_LOG_UNIFORM = st.floats(min_value=-150.0, max_value=150.0).map(lambda e: 10.0**e)


@pytest.mark.parametrize("atom, bound", [(PLUS, "8e-16"), (MINUS, "2e-13")],
                         ids=["excited", "ground"])
@given(_RATE_LOG_UNIFORM, _RATE_LOG_UNIFORM, _RATE_LOG_UNIFORM)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_total_rate_over_the_float_range(atom, bound, w0, alpha, mu):
    # omega0, alpha and mu log-uniform over [1e-150, 1e150], against 50
    # digits.  Measured on 12000 points per state: 5.3e-16 excited, 7.9e-14
    # ground, which carries the x 2^-53 conditioning of e^-x up to x ~ 2000,
    # where 2K nbar is still normal.  A subnormal total carries 2^-1073
    # absolute: Ka and 4<R3>Kb are rounded once each and then summed.  Where
    # K (-rr) or the total leaves the float range, OverflowError or an
    # infinite total; no call warns
    k, want = _total_reference(w0, alpha, mu, atom.r3_expectation)
    big = Decimal(sys.float_info.max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = R.atom_total_rate(DetectorParams(w0, mu), alpha, atom).total
        except OverflowError:
            assert max(k, abs(want)) > big, (k, want)
            return
    if abs(want) > big:
        assert abs(got) == math.inf
    else:
        tol = Decimal(bound) * abs(want) + Decimal(2) ** -1073
        assert abs(Decimal(got) - want) <= tol, (got, want)


@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-0.5, max_value=0.5),
)
@example(0.0, -1.0, -0.5)
@example(0.0, 1.0, 0.5)
@settings(max_examples=100, deadline=None)
def test_closed_form_matches_the_numeric_n0_rates(log_w0, log_ratio, r3):
    # the two share only _split: b = nbar in closed form, b = c e^-x from the
    # line integral at n = 0; 1e-9 is the line integral's two-ray gate
    w0 = 10.0**log_w0
    p, alpha, atom = DetectorParams(w0, 0.7), w0 * 10.0**log_ratio, AtomState(r3)
    closed = R.atom_total_rate(p, alpha, atom)
    numeric = R.derivative_coupling_rates(p, alpha, atom, 0)
    for key in ("vf", "rr", "total"):
        assert getattr(numeric, key) == pytest.approx(getattr(closed, key), rel=1e-9), key


def test_total_inertial_excited_state():
    for alpha in (0.0, -0.0):
        rep = R.atom_total_rate(DetectorParams(1.0, 1.0), alpha, PLUS)
        assert rep.total == pytest.approx(-1.0 / (8.0 * math.pi))


def test_nonsymmetric_ordering_flags_divergence():
    p = DetectorParams(1.0)
    sym = R.atom_total_rate(p, 1.0, PLUS)
    skew = R.atom_total_rate(p, 1.0, PLUS, OrderingParam(0.3))
    assert not skew.finite
    assert skew.vf is None and skew.rr is None
    assert skew.total == pytest.approx(sym.total, rel=1e-14)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=25, deadline=None)
def test_total_is_ordering_independent(lam1, lam2):
    p = DetectorParams(1.0)
    t1 = R.atom_total_rate(p, 2.0, PLUS, OrderingParam(lam1)).total
    t2 = R.atom_total_rate(p, 2.0, PLUS, OrderingParam(lam2)).total
    assert t1 == t2


def test_mu_squared_scaling():
    a = R.atom_total_rate(DetectorParams(1.0, 1.0), 1.0, PLUS).total
    b = R.atom_total_rate(DetectorParams(1.0, 2.0), 1.0, PLUS).total
    assert b == pytest.approx(4.0 * a, rel=1e-14)


# --- numeric pipeline -----------------------------------------------------

# alpha/omega0 at which the numeric rates with S_m (m = 2n + 2; m = 3 is the
# field side) return, and just outside it where they refuse.  There is no
# low end: below 1e-153 S_m's (alpha d/2)^2 csch^2 was 0 * inf on the ray,
# and S_m is now formed from h csch(h z) = (w / sinh w) / z there (see
# test_numeric_rates_below_1e_153_match_the_closed_forms).  At the top the
# integral cancels to its rounding floor; m = 2 does not cancel and returns
# up to the largest float.
RATIO_WINDOW = {2: ((1e-250, 1.7e308), (None, None)),
                3: ((1e-250, 1e6), (None, 1e8)),
                4: ((1e-250, 300.0), (None, 1e4)),
                6: ((1e-250, 10.0), (None, 100.0))}


def _rates_with_s(m, w0, ratio):
    p, alpha = DetectorParams(w0, 1.0 / w0), w0 * ratio
    if m == 3:
        return R.field_rates(p, alpha, PLUS)
    rep = R.derivative_coupling_rates(p, alpha, PLUS, (m - 2) // 2)
    return rep.vf, rep.rr


@pytest.mark.parametrize("m", sorted(RATIO_WINDOW))
@pytest.mark.parametrize("w0", [1.0, 2.0**-100])
def test_numeric_rates_window_in_alpha_over_omega0(m, w0):
    # the window depends on alpha/omega0 alone: at omega0 = 2^-100 the ray
    # integral runs at the same reduced pair as at omega0 = 1.  At the low
    # end, S_4 and S_6 formed (alpha d/2)^m on its own, which was subnormal
    # there: n = 1 was 4.0e-3 off at 1e-80 and passed the two-ray check
    accepted, refused = RATIO_WINDOW[m]
    p = DetectorParams(w0, 1.0 / w0)
    for ratio in accepted:
        vf, rr = _rates_with_s(m, w0, ratio)
        assert vf == pytest.approx(R.atom_vf_rate(p, w0 * ratio, PLUS), rel=1e-9)
        assert rr == pytest.approx(R.atom_rr_rate(p, w0 * ratio), rel=1e-9)
    for ratio in filter(None, refused):
        with pytest.raises(NonConvergence, match=f"line integral of S_{m} "):
            _rates_with_s(m, w0, ratio)


@pytest.mark.parametrize("m", [3, 4, 6])
def test_numeric_rates_refuse_where_the_integral_cancels_to_its_rounding_floor(m):
    # beyond the top of the window the two rays agreed by chance: the field
    # rates at alpha/omega0 = 2.39e13 were 2.4e-3 off
    for ratio in np.geomspace(RATIO_WINDOW[m][1][1], 1e14, 60):
        with pytest.raises(NonConvergence) as exc:
            _rates_with_s(m, 1.0, float(ratio))
        floor, value = map(float, re.search(
            r"rounding floor of (\S+), for a value of magnitude (\S+);", str(exc.value)).groups())
        assert floor >= 2e-9 * value, (ratio, floor, value)


@pytest.mark.parametrize("m", sorted(RATIO_WINDOW))
def test_every_alpha_over_omega0_the_ray_accepts_is_right(m):
    # the ray rule decides where the window ends; wherever it returns, on
    # 810 ratios from below the window to the largest float, the rates are
    # the closed forms to 1e-9
    p = DetectorParams(1.0, 1.0)
    for ratio in np.geomspace(1e-160, 1.7e308, 810).tolist():
        try:
            vf, rr = _rates_with_s(m, 1.0, ratio)
        except NonConvergence:
            continue
        assert vf == pytest.approx(R.atom_vf_rate(p, ratio, PLUS), rel=1e-9), ratio
        assert rr == pytest.approx(R.atom_rr_rate(p, ratio), rel=1e-9), ratio


def _fine_line_integral(m, omega0, alpha):
    """J of `R._line_integral` on the ray from Im z = d alone, by 0.25-wide
    panels out to s = 100, where the integrand has decayed below e^-70."""
    d = min(math.pi / alpha, 1.0 / omega0)
    w, a = omega0 * d, alpha * d
    s, weights = composite_rule(np.arange(0.0, 100.25, 0.25))
    z = 1j + R._RAY * s
    i = complex((R._RAY * weights) @ (np.exp(-1j * w * z) * image_sum_inverse_power(m, z, a)))
    return i + (-1) ** m * i.conjugate()


@pytest.mark.parametrize("m", sorted(RATIO_WINDOW))
def test_ray_rule_matches_a_fine_panel_rule(m):
    for w0 in (0.3, 0.7, 1.5, 3.0, 7.0):
        for alpha in (0.1, 0.3, 1.0, 2.0, 5.0, 10.0):
            if alpha / w0 > RATIO_WINDOW[m][0][1]:
                continue
            j, _ = R._line_integral(m, w0, alpha)
            want = _fine_line_integral(m, w0, alpha)
            assert abs(j - want) <= 1e-10 * abs(want), (w0, alpha)


# (m, rate): the numeric rates a scan asks for at one point, S_2, S_4 and
# S_6 of the couplings, S_3 of the field side and S_2 in the ground state
_AT_ONE_POINT = [
    (2, lambda p, alpha: R.derivative_coupling_rates(p, alpha, PLUS, 0)),
    (4, lambda p, alpha: R.derivative_coupling_rates(p, alpha, PLUS, 1)),
    (6, lambda p, alpha: R.derivative_coupling_rates(p, alpha, PLUS, 2)),
    (3, lambda p, alpha: R.field_rates(p, alpha, PLUS)),
    (2, lambda p, alpha: planck_response_oracle(p.omega0, alpha)),
]


def _rates_at_one_point(omega0, alpha, first=2):
    """Every rate of _AT_ONE_POINT, those of S_first called first, as the
    hex strings of their floats."""
    p = DetectorParams(omega0, 1.0)
    values = []
    for _, rate in sorted(_AT_ONE_POINT, key=lambda pair: pair[0] != first):
        value = rate(p, alpha)
        if isinstance(value, R.EnergyRateReport):
            value = (value.vf, value.rr, value.total)
        values.extend(float(x).hex() for x in np.atleast_1d(value))
    return values


@pytest.mark.parametrize("m", sorted(RATIO_WINDOW))
def test_line_integral_evaluates_its_integrand_once_on_few_nodes(monkeypatch, m):
    # both rays in one evaluation of the nodes, on at most 512 nodes in all,
    # so that the rule's cost cannot grow back unnoticed; all five rates at
    # one point share it, whichever order comes first, and a new point costs
    # exactly one more
    sizes = []

    def counted(z, alpha):
        sizes.append(np.size(z))
        return _inverse_power_uv(z, alpha)

    # rates calls it through the kernels module, imported on first use
    monkeypatch.setattr(K, "_inverse_power_uv", counted)
    R._ray_values.cache_clear()
    _rates_at_one_point(1.3, 2.1, first=m)
    assert len(sizes) == 1 and sizes[0] <= 512, sizes
    _rates_at_one_point(1.3, 2.2, first=m)
    assert len(sizes) == 2, sizes


def test_shared_node_values_do_not_depend_on_the_points_before():
    # points A, B, A, C, D, C: each gives the bits of an evaluation from an
    # empty memo.  In units of d, B has A's w = 1 and D has C's a = pi
    points = [(1.3, 2.1), (0.7, 0.2), (1.3, 2.1), (0.5, 3.0), (1.0, 8.0), (0.5, 3.0)]
    warm = [_rates_at_one_point(*point) for point in points]
    cold = []
    for point in points:
        R._ray_values.cache_clear()
        cold.append(_rates_at_one_point(*point))
    assert warm == cold


def test_shared_node_values_are_read_only():
    for x in R._ray_values(1.0, 1.0):
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0, 0] = 0.0
        with pytest.raises(ValueError):
            np.negative(x, out=x)


def test_a_refused_order_leaves_the_rates_of_the_others():
    # S_6 cancels to its rounding floor at the top of its window and refuses
    # after its node values are kept; S_2 on them has the bits of S_2 from
    # an empty memo
    p, alpha = DetectorParams(1.0, 1.0), RATIO_WINDOW[6][1][1]
    R._ray_values.cache_clear()
    with pytest.raises(NonConvergence, match="line integral of S_6 "):
        R.derivative_coupling_rates(p, alpha, PLUS, 2)
    after = R.derivative_coupling_rates(p, alpha, PLUS, 0)
    R._ray_values.cache_clear()
    cold = R.derivative_coupling_rates(p, alpha, PLUS, 0)
    assert [x.hex() for x in (after.vf, after.rr, after.total)] == \
        [x.hex() for x in (cold.vf, cold.rr, cold.total)]


def test_derivative_coupling_n0_vf_matches_closed_form():
    p = DetectorParams(1.0, 1.0)
    rep = R.derivative_coupling_rates(p, 1.0, PLUS, n=0)
    want = R.atom_vf_rate(p, 1.0, PLUS)
    assert abs(rep.vf - want) / abs(want) < 1e-4


def test_derivative_coupling_n0_rr_matches_closed_form():
    # The numeric susceptibility integral evaluates to the vacuum value
    # -omega0^2 mu^2/16 pi with no thermal factor, as the closed form does:
    # the commutator does not depend on the field's state.
    p = DetectorParams(1.0, 1.0)
    rep = R.derivative_coupling_rates(p, 1.0, PLUS, n=0)
    want = R.atom_rr_rate(p, 1.0)
    assert abs(rep.rr - want) / abs(want) < 1e-4, (
        f"numeric rr={rep.rr:.9e} vs closed rr={want:.9e}: the numeric value "
        f"equals the acceleration-independent -1/16pi * omega0^2 mu^2 = "
        f"{-p.omega0**2 * p.mu**2 / (16 * math.pi):.9e}"
    )


def test_derivative_coupling_order_invariance():
    p = DetectorParams(1.0, 1.0)
    base = R.derivative_coupling_rates(p, 1.0, PLUS, n=0)
    for n in (1, 2):
        rep = R.derivative_coupling_rates(p, 1.0, PLUS, n=n)
        assert abs(rep.vf - base.vf) / abs(base.vf) < 1e-3
        assert abs(rep.rr - base.rr) / abs(base.rr) < 1e-3


def test_derivative_coupling_order_out_of_range():
    p = DetectorParams(1.0, 1.0)
    for n in (-1, 3, 40):
        with pytest.raises(DomainError, match=f"coupling order n must be in 0..2, got {n}"):
            R.derivative_coupling_rates(p, 1.0, PLUS, n=n)


# the old regulator ladder refused omega0 > 5: 5.5, 1e3 and 1e9 lie beyond it
CLOSED_FORM_GRID = [(w0, a) for w0 in (0.5, 1.0, 3.0, 5.0, 10.0, 30.0, 100.0)
                    for a in (0.3, 1.0, 3.0)] + [(5.5, 1.0), (1e3, 1.0), (1e9, 1.0)]


@pytest.mark.parametrize("omega0,alpha", CLOSED_FORM_GRID)
def test_numeric_rates_match_closed_forms(omega0, alpha):
    p = DetectorParams(omega0, 0.7)
    scale = omega0**2 * p.mu**2 / (16.0 * math.pi)
    rr = R.atom_rr_rate(p, alpha)
    for atom in (PLUS, MINUS, AtomState(0.2)):
        vf = R.atom_vf_rate(p, alpha, atom)
        for n, tol in ((0, 1e-12), (1, 1e-12), (2, 1e-11)):
            rep = R.derivative_coupling_rates(p, alpha, atom, n)
            assert abs(rep.vf - vf) <= tol * scale, (n, atom)
            assert abs(rep.rr - rr) <= tol * scale, (n, atom)
        vf_f, rr_f = R.field_rates(p, alpha, atom)
        assert abs(vf_f - vf) <= 1e-12 * scale and abs(rr_f - rr) <= 1e-12 * scale


@pytest.mark.parametrize("m", sorted(RATIO_WINDOW))
def test_numeric_rates_below_1e_153_match_the_closed_forms(m):
    # (alpha d/2)^2 underflowed to 0 on the rays while csch^2 overflowed, so
    # below alpha/omega0 ~ 1e-153 the line integral was NaN and refused
    # (alpha/omega0 = 1e-200 exited 2); 2.1e-13 measured down to 5e-324
    p = DetectorParams(1.0, 1.0)
    for ratio in [5e-324, 1e-320, 2.2e-308] + np.geomspace(1e-300, 1e-153, 16).tolist():
        vf, rr = _rates_with_s(m, 1.0, ratio)
        assert vf == pytest.approx(R.atom_vf_rate(p, ratio, PLUS), rel=1e-12), ratio
        assert rr == pytest.approx(R.atom_rr_rate(p, ratio), rel=1e-12), ratio
    rep = R.derivative_coupling_rates(DetectorParams(1e200, 1e-200), 1.0, PLUS, 1)
    want = R.atom_total_rate(DetectorParams(1e200, 1e-200), 1.0, PLUS)
    assert rep.total == pytest.approx(want.total, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_numeric_rates_at_tiny_omega0_and_alpha_match_their_twin(n):
    # the ray integral ran at omega0 = alpha = 1e-100, where S_m underflowed
    # to 0 on both rays: -0.0 rows, then a refusal; in units of d it runs at
    # omega0 d = alpha d = 1, as for the twin with the same omega0 mu
    got = R.derivative_coupling_rates(DetectorParams(1e-100, 1e100), 1e-100, PLUS, n)
    want = R.derivative_coupling_rates(DetectorParams(1.0, 1.0), 1.0, PLUS, n)
    for key in ("vf", "rr", "total"):
        assert getattr(got, key) == pytest.approx(getattr(want, key), rel=1e-12)


def test_field_vf_balances_atom_vf():
    p = DetectorParams(1.0, 1.0)
    vf_f, _ = R.field_rates(p, 1.0, PLUS)
    assert abs(abs(vf_f) - abs(R.atom_vf_rate(p, 1.0, PLUS))) / abs(
        R.atom_vf_rate(p, 1.0, PLUS)
    ) < 1e-4


def test_field_rr_balance_matches_closed_form():
    # Field-side counterpart of the atom-side rr comparison above: the field
    # commutator integral is acceleration-independent, as the closed form is.
    p = DetectorParams(1.0, 1.0)
    _, rr_f = R.field_rates(p, 1.0, PLUS)
    want = R.atom_rr_rate(p, 1.0)
    assert abs(abs(rr_f) - abs(want)) / abs(want) < 1e-4, (
        f"|field rr|={abs(rr_f):.9e} vs |atom rr|={abs(want):.9e}"
    )


def test_field_rates_inertial_limit():
    # alpha -> 0: both magnitudes approach omega0^2 mu^2 / 16 pi
    p = DetectorParams(1.0, 1.0)
    vf_f, rr_f = R.field_rates(p, 1e-3, PLUS)
    want = 1.0 / (16.0 * math.pi)
    assert abs(vf_f) == pytest.approx(want, rel=1e-3)
    assert abs(rr_f) == pytest.approx(want, rel=1e-3)
