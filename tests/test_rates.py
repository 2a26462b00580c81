"""Energy-variation rates: closed forms, numeric pipeline, orderings.

Note: the radiation-reaction rate comes from the field susceptibility, a
commutator function that does not depend on the field's state, so both the
numeric pipeline and the closed form give the acceleration-independent value
-omega0^2 mu^2 / 16 pi.  The two tests whose names end in _known_discrepancy
compare the numeric atom-side and field-side RR rates with that closed form;
they failed while the closed form carried a thermal factor coth(pi omega0/alpha).
"""

import errno
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from unruh_kinetics.core import (
    COTH_POLE,
    AtomState,
    DetectorParams,
    DomainError,
    NonConvergence,
    OrderingParam,
)
from unruh_kinetics import rates as R
from unruh_kinetics.response import response_accelerated

PLUS = AtomState.plus()
MINUS = AtomState.minus()


def test_planck_bracket_identity():
    for w0, a in [(1.0, 1.0), (2.0, 0.5), (0.5, 3.0), (1.0, 10.0)]:
        assert R.planck_bracket(w0, a) == pytest.approx(
            1.0 / math.tanh(math.pi * w0 / a), rel=1e-12
        )
    assert R.planck_bracket(1.0, 0.0) == R.planck_bracket(1.0, -0.0) == 1.0


@pytest.mark.parametrize("alpha", [-1.0, -1e-320, -math.inf, math.nan])
@pytest.mark.parametrize(
    "rate",
    [lambda a: R.planck_bracket(1.0, a),
     lambda a: R.atom_rr_rate(DetectorParams(1.0), a),
     lambda a: R.atom_total_rate(DetectorParams(1.0), a, PLUS)],
    ids=["planck_bracket", "atom_rr_rate", "atom_total_rate"],
)
def test_closed_forms_refuse_negative_or_nan_alpha(rate, alpha):
    # a NaN alpha used to pass alpha < 0 and give a NaN report
    with pytest.raises(DomainError) as exc:
        rate(alpha)
    assert str(exc.value) == f"alpha must be >= 0, got {alpha}"


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
    for y in (COTH_POLE * (1 - 1e-9), COTH_POLE * (1 + 1e-9)):
        assert R.planck_bracket(y / math.pi, 1.0) == pytest.approx(
            1.0 / math.tanh(y), rel=1e-15
        )

# omega0 / alpha across the pole (pi omega0 / alpha < COTH_POLE), the expm1
# bracket and its x > 700 cut, with alpha = 0 (inertial) among them
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
                w0, a = float(_W0[j]), float(_ALPHA[k])
                one = R.atom_total_rate(DetectorParams(w0, 0.7), a, AtomState(r3))
                assert type(one.vf) is float and type(one.total) is float
                assert (rep.vf[i, j, k], rep.rr[j, 0], rep.total[i, j, k]) == (
                    one.vf, one.rr, one.total)
                assert bracket[j, k] == R.planck_bracket(w0, a)


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
        for key in ("vf", "rr", "total"):
            assert getattr(got, key) == pytest.approx(getattr(want, key), rel=1e-12)
            assert getattr(arr, key)[1] == getattr(got, key)


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
    for y in (COTH_POLE * (1 - 1e-9), COTH_POLE * (1 + 1e-9)):
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
# the same x; 1e-300 lies below COTH_POLE, 700 where e^-x is near underflow
GROUND_X = st.floats(min_value=1e-300, max_value=700.0)


@given(GROUND_X)
@example(1e-300)
@example(2.0 * COTH_POLE)
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


@given(GROUND_X)
@example(31.4)
@example(700.0)
@settings(max_examples=300, deadline=None)
def test_ground_to_excited_total_ratio_is_detailed_balance(x):
    w0 = x / (2.0 * math.pi)
    minus = R.atom_total_rate(DetectorParams(w0), 1.0, MINUS).total
    plus = R.atom_total_rate(DetectorParams(w0), 1.0, PLUS).total
    assert minus / -plus == pytest.approx(math.exp(-2.0 * math.pi * w0), rel=1e-14, abs=0.0)


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
# field side) return, and just outside it where they refuse.  Below 1e-153
# S_m's (alpha d/2)^2 csch^2 is 0 * inf on the ray.  At the top the integral
# cancels to its rounding floor; m = 2 does not cancel and returns up to the
# largest float.
RATIO_WINDOW = {2: ((1e-153, 1.7e308), (1e-154, None)),
                3: ((1e-153, 1e6), (1e-154, 1e8)),
                4: ((1e-153, 300.0), (1e-154, 1e4)),
                6: ((1e-153, 10.0), (1e-154, 100.0))}


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


def test_derivative_coupling_n0_vf_matches_closed_form():
    p = DetectorParams(1.0, 1.0)
    rep = R.derivative_coupling_rates(p, 1.0, PLUS, n=0)
    want = R.atom_vf_rate(p, 1.0, PLUS)
    assert abs(rep.vf - want) / abs(want) < 1e-4


def test_derivative_coupling_n0_rr_known_discrepancy():
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


@pytest.mark.parametrize("n", [1, 2])
def test_numeric_rates_refuse_a_line_integral_that_underflows(n):
    # alpha/omega0 = 1e-200: S_m's (alpha d/2)^2 underflows to 0 on the
    # rays while csch^2 overflows
    with pytest.raises(NonConvergence, match="differs by nan"):
        R.derivative_coupling_rates(DetectorParams(1e200, 1e-200), 1.0, PLUS, n)


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


def test_field_rr_balance_known_discrepancy():
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
