"""Domain types, validation and the scalar helpers."""

import math
import subprocess
import sys
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decimal_reference import digits, pi, planck as planck_reference
from unruh_kinetics import fermion as F
from unruh_kinetics import kernels as K
from unruh_kinetics import master as M
from unruh_kinetics import rates as R
from unruh_kinetics import response as RS
from unruh_kinetics.core import (
    AtomState,
    DetectorParams,
    DomainError,
    NonConvergence,
    OrderingParam,
    check_beta,
    check_positive,
    check_positive_finite,
    _FloatMath,
    fermi,
    math_or_numpy,
    planck,
    plain,
    require_all,
    validate,
)


def _config(omega0=1.0, beta=1.0, alpha=1.0, mu=1.0):
    return {
        "detector.omega0": omega0,
        "detector.mu": mu,
        "thermal.beta": beta,
        "trajectory.alpha": alpha,
    }


def test_validate_accepts_reasonable_config():
    model = validate(_config(mu=0.1, beta=2.5, alpha=2.0))
    assert model == (DetectorParams(omega0=1.0, mu=0.1), 2.5, 2.0)


def test_validate_is_idempotent():
    # alpha = 0.0 is the inertial worldline, and -0.0 is the same worldline
    for alpha in [0.0, -0.0]:
        config = _config(beta=math.inf, alpha=alpha)
        model = validate(config)
        assert model == (DetectorParams(1.0), math.inf, 0.0)
        assert math.copysign(1.0, model[2]) == 1.0
        assert validate(config) == model


@pytest.mark.parametrize(
    "alpha, message",
    [
        (-1.0, "alpha must be >= 0, got -1.0"),
        (-1e-320, "alpha must be >= 0, got -1e-320"),
        (math.inf, "alpha must be finite, got inf"),
        (-math.inf, "alpha must be finite, got -inf"),
        (math.nan, "alpha must be finite, got nan"),
    ],
)
def test_accelerated_alpha_must_be_finite_and_positive(alpha, message):
    # every finite alpha >= 0 is a worldline; nothing else is
    with pytest.raises(DomainError) as exc:
        validate(_config(alpha=alpha))
    assert str(exc.value) == message


def test_zero_beta_rejected():
    for beta in [0.0, -1.0, math.nan]:
        message = f"beta must be positive (or +inf), got {beta}"
        with pytest.raises(DomainError) as exc:
            check_beta(beta)
        assert str(exc.value) == message
        # beta is checked after the detector and before alpha
        with pytest.raises(DomainError) as exc:
            validate(_config(beta=beta, alpha=-1.0))
        assert str(exc.value) == message
        with pytest.raises(DomainError, match="omega0"):
            validate(_config(omega0=0.0, beta=beta))


@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan])
@pytest.mark.parametrize(
    "build",
    [
        lambda beta: validate(_config(beta=beta)),
        lambda beta: M.steady_state(1.0, beta),
        lambda beta: F.BathSpectrum(((1.0, 0.1),), beta),
    ],
    ids=["validate", "steady_state", "BathSpectrum"],
)
def test_every_beta_check_is_check_beta(build, beta):
    with pytest.raises(DomainError) as exc:
        build(beta)
    assert str(exc.value) == f"beta must be positive (or +inf), got {beta}"
    assert check_beta(math.inf) == math.inf


_BATH = F.default_bath(1.0, 1.0)
# Every entry point of check_positive and check_positive_finite: (the call at
# one bad value, the name its message gives the value, the finite rule?).
# DetectorParams is not listed: its finite check refuses NaN and inf first.
_POSITIVE_CHECKS = {
    "check_positive": (lambda x: check_positive(x, "x"), "x", False),
    "steady_state": (lambda x: M.steady_state(x, 1.0), "omega0", False),
    "relaxation_rate": (lambda x: M.relaxation_rate(x, 1.0), "omega0", False),
    "planck_bracket": (lambda x: R.planck_bracket(x, 1.0), "omega0", False),
    "fermion_rates.omega0": (lambda x: F.fermion_rates(_BATH, x, 1.0), "omega0", False),
    "derivative_coupling_rates": (
        lambda x: R.derivative_coupling_rates(DetectorParams(1.0), x, AtomState.minus()),
        "alpha", False),
    "field_rates": (lambda x: R.field_rates(DetectorParams(1.0), x, AtomState.plus()),
                    "alpha", False),
    "check_positive_finite": (lambda x: check_positive_finite(x, "x"), "x", True),
    "fermion_rates.dt": (lambda x: F.fermion_rates(_BATH, 1.0, x), "dt", True),
    "BathSpectrum": (lambda x: F.BathSpectrum(((x, 0.1),), 1.0), "mode frequency", True),
    "response_accelerated": (lambda x: RS.response_accelerated(x, 1.0), "deltaE", True),
    "inertial_silence_oracle": (lambda x: RS.inertial_silence_oracle(x, 0.1), "deltaE",
                                True),
    "inertial_silence_oracle.eps": (lambda x: RS.inertial_silence_oracle(1.0, x), "eps",
                                    True),
    "planck_response_oracle": (lambda x: RS.planck_response_oracle(x, 1.0), "deltaE", True),
    "image_sum_inverse_power": (lambda x: K.image_sum_inverse_power(2, 1.0, x), "alpha",
                                True),
    "wightman_vacuum_accelerated": (lambda x: K.wightman_vacuum_accelerated(1.0, x),
                                    "alpha", True),
    "wightman_vacuum_accelerated_sum": (
        lambda x: K.wightman_vacuum_accelerated_sum(1.0, x),
        "alpha (2 pi / beta of a thermal sum)", True),
    "thermal_image_closed": (lambda x: K.thermal_image_closed(1.0, x), "beta", True),
    "thermal_image_sum": (lambda x: K.thermal_image_sum(1.0, x), "beta", True),
    "g_thermal_inertial": (lambda x: K.g_thermal_inertial(1.0, x, 0.0), "beta", True),
    "g_thermal_inertial_sum": (lambda x: K.g_thermal_inertial_sum(1.0, x, 0.0), "beta",
                               True),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(_POSITIVE_CHECKS))
def test_every_positivity_check_is_one_of_two(name):
    # inertial_silence_oracle returned NaN with a warning at eps = -1 or NaN,
    # and image_sum_inverse_power at alpha = -1
    call, what, finite = _POSITIVE_CHECKS[name]
    rule = f"{what} must be positive" + (" and finite" if finite else "")
    for value in [0.0, -1.0, math.nan] + [math.inf] * finite:
        with pytest.raises(DomainError) as exc:
            call(value)
        assert str(exc.value) == f"{rule}, got {value}"
    # an array is checked at every element, and its first refused is named
    # (fermion_rates, the numeric rates and the image sum raised numpy's
    # bare ValueError)
    with pytest.raises(DomainError) as exc:
        call(np.array([1.0, -3.0, -4.0]))
    assert str(exc.value) == f"{rule}, got -3.0"
    if not finite:  # inf is positive, so the rule lets it through
        try:
            call(math.inf)
        except NonConvergence:  # the numeric rates' line integral at alpha = inf
            pass


def test_negative_omega0_rejected():
    with pytest.raises(DomainError):
        DetectorParams(omega0=-1.0)
    with pytest.raises(DomainError):
        DetectorParams(omega0=0.0)


def test_negative_coupling_rejected():
    with pytest.raises(DomainError):
        DetectorParams(omega0=1.0, mu=-0.1)


def test_ordering_param():
    assert OrderingParam().is_symmetric
    assert not OrderingParam(0.3).is_symmetric
    with pytest.raises(DomainError):
        OrderingParam(1.5)


def test_atom_state_constructors():
    assert AtomState.plus().r3_expectation == 0.5
    assert AtomState.minus().r3_expectation == -0.5
    with pytest.raises(DomainError):
        AtomState(0.6)


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_validate_never_clamps(omega0, beta):
    # accepted values must round-trip unchanged (rejection is total, no clamping)
    detector, got_beta, _ = validate(_config(omega0=omega0, beta=beta))
    assert detector.omega0 == omega0
    assert got_beta == beta


def test_fermi_matches_the_logistic_and_saturates():
    for x in (-30.0, -1.0, 0.0, 0.5, 40.0, 700.0):
        assert fermi(x) == pytest.approx(1.0 / (1.0 + math.exp(x)), rel=1e-15)
    assert fermi(-math.inf) == 1.0
    # e^x overflows past x ~ 709.78: math's exp raises OverflowError there and
    # numpy's warns; fermi of a float or of an array gives 0.0, with no warning
    xs = [709.78, 709.79, 710.0, 1e308, math.inf, math.nan]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        floats = [fermi(x) for x in xs]
        array = fermi(np.array(xs))
    assert all(type(f) is float for f in floats)
    for got in (floats, array.tolist()):
        assert 0.0 < got[0] < sys.float_info.min  # subnormal, not yet 0
        assert got[1:5] == [0.0] * 4 and math.isnan(got[5])


# 0, subnormals, the old coth pole, the e^-x underflow, past sinh's overflow
_PLANCK_X = np.concatenate([
    [0.0, 5e-324, 1e-310, 2e-8, 1.0, 745.0, 1416.0, 1421.0, 1e300, math.inf],
    np.geomspace(1e-320, 2e3, 4001),
])


def test_planck_ends_and_no_warning():
    assert planck(0.0) == (1.0, 1.0)
    a, b = planck(math.inf)
    assert a * b == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b = planck(_PLANCK_X)
    assert np.all((0.0 <= a) & (a <= 1.0) & (0.0 <= b) & (b <= 1.0))


def test_planck_is_x_over_expm1_to_4_ulps():
    x = np.geomspace(1e-6, 700.0, 100_001)
    a, b = planck(x)
    want = x / np.expm1(x)
    assert np.all(np.abs(a * b - want) <= 4.0 * np.spacing(want))


def test_planck_of_a_float_and_of_an_array_to_4_ulps_of_the_reference():
    # a Python float takes math's sinh and exp, an array numpy's, which may
    # differ in the last bits; each a b lies within 4 ulps of 50 digits of
    # x / (e^x - 1), where a subnormal or zero value has an ulp of 2^-1074.
    # Measured: 1.9 ulps for either
    a, b = planck(_PLANCK_X)
    for x, ai, bi in zip(_PLANCK_X.tolist(), a.tolist(), b.tolist()):
        with digits(50):
            want = planck_reference(Decimal(x)) if x < math.inf else Decimal(0)
        tol = 4 * Decimal(math.ulp(float(want)))
        af, bf = planck(x)
        assert type(af) is float and type(bf) is float
        for got in (ai * bi, af * bf):
            assert abs(Decimal(got) - want) <= tol, (x, got, want)


def _coth_half(x):
    """coth(x / 2) = 1 + 2 P(x) / x, P(x) = x / (e^x - 1)."""
    return 1 + 2 * planck_reference(x) / x


def _closed_form_reference(beta, tau):
    """sigma_plus at tau from the excited state at omega0 = 1: the Fermi
    pair's 1 / (1 + e^beta) plus its complement decayed by e^{-Gamma tau}.
    1 / (1 + e^beta) is 0 where e^beta overflows, as `core.fermi` has it."""
    e = (-beta).exp()
    sp_inf = e / (1 + e) if beta <= Decimal(sys.float_info.max).ln() else 0
    gamma = _coth_half(beta) / (8 * pi())
    return sp_inf + (1 - sp_inf) * (-gamma * tau).exp()


# name: (closed form, its reference at Decimal arguments, relative bound)
_PLANCK_CLOSED_FORMS = {
    "planck_bracket": (R.planck_bracket,
                       lambda w0, alpha: _coth_half(2 * pi() * w0 / alpha), 6e-16),
    "relaxation_rate": (M.relaxation_rate,
                        lambda w0, beta: w0 / (8 * pi()) * _coth_half(w0 * beta), 6e-16),
    "closed_form": (
        lambda beta, tau: M.closed_form(M.PopulationState(1.0, 0.0), 1.0, beta, tau).sigma_plus,
        _closed_form_reference, 3e-13),
    "response_accelerated": (
        lambda de, alpha: RS.response_accelerated(de, alpha).rate,
        lambda de, alpha: alpha / (4 * pi() ** 2) * planck_reference(2 * pi() * de / alpha),
        3e-13),
}
_LOG_UNIFORM = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)


@pytest.mark.parametrize("name", sorted(_PLANCK_CLOSED_FORMS))
@given(_LOG_UNIFORM, _LOG_UNIFORM)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_planck_closed_forms_over_the_float_range(name, x, y):
    # both arguments log-uniform over [1e-300, 1e300], against 50 digits of
    # x / (e^x - 1).  Measured on 48000 points: the bracket and the
    # relaxation rate are within 4.0e-16; the response carries the x 2^-53
    # conditioning of e^-x up to x ~ 1400, where it is still normal: 1.4e-13.
    # closed_form, of Python floats, carries that of e^{-Gamma tau} up to
    # Gamma tau ~ 708: 9.3e-14 on 50000 points.
    # A subnormal value carries 2^-1074 absolute; beyond the float range
    # the bracket is inf; no call warns
    call, reference, bound = _PLANCK_CLOSED_FORMS[name]
    with digits(50):
        want = reference(Decimal(x), Decimal(y))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = call(x, y)
    if want > Decimal(sys.float_info.max):
        assert got == math.inf
    else:
        assert abs(Decimal(got) - want) <= Decimal(bound) * want + Decimal(2) ** -1074, (got, want)


# The checks as written with numpy throughout (np.isfinite, np.all): the
# reference whose results and messages the numpy-free scalar paths keep.
def _require_all_np(ok, values, what):
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        ok = np.asarray(ok)
        bad = np.broadcast_to(values, ok.shape)[~ok]
        raise DomainError(f"{what}, got {bad.flat[0]}")


def _detector_np(omega0, mu=1.0):
    _require_all_np(np.isfinite(omega0), omega0, "omega0 must be finite")
    _require_all_np(np.isfinite(mu), mu, "mu must be finite")
    _require_all_np(omega0 > 0, omega0, "omega0 must be positive")
    _require_all_np(mu >= 0, mu, "mu must be non-negative")
    return omega0, mu


def _check_beta_np(beta):
    _require_all_np(beta > 0, beta, "beta must be positive (or +inf)")
    return beta


def _ordering_np(lam):
    _require_all_np((0.0 <= lam) & (lam <= 1.0), lam,
                    "ordering weight must lie in [0, 1]")
    return bool(np.all(lam == 0.5))


def _validate_np(config):
    detector = _detector_np(config["detector.omega0"], config["detector.mu"])
    beta = _check_beta_np(config["thermal.beta"])
    alpha = config["trajectory.alpha"]
    _require_all_np(np.isfinite(alpha), alpha, "alpha must be finite")
    _require_all_np(alpha >= 0, alpha, "alpha must be >= 0")
    return detector, beta, abs(alpha)


def _plain_np(x):
    return float(x) if isinstance(x, np.generic) else x


def _detector(omega0, mu=1.0):
    detector = DetectorParams(omega0, mu)
    return detector.omega0, detector.mu


def _validate(config):
    detector, beta, alpha = validate(config)
    return (detector.omega0, detector.mu), beta, alpha


# {name: (the check, its numpy reference)}, each a function of one value
_CHECKS = {
    "require_all": (
        lambda x: require_all(x == x, x, "x must not be NaN"),
        lambda x: _require_all_np(x == x, x, "x must not be NaN"),
    ),
    "plain": (plain, _plain_np),
    "check_beta": (check_beta, _check_beta_np),
    "DetectorParams.omega0": (_detector, _detector_np),
    "DetectorParams.mu": (lambda x: _detector(1.0, x), lambda x: _detector_np(1.0, x)),
    "OrderingParam": (lambda x: OrderingParam(x).is_symmetric, _ordering_np),
    **{
        f"validate.{field}": (
            lambda x, field=field: _validate({**_config(), field: x}),
            lambda x, field=field: _validate_np({**_config(), field: x}),
        )
        for field in ("detector.omega0", "detector.mu", "thermal.beta",
                      "trajectory.alpha")
    },
}
_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 0.5, 1.0, 2.0, -1.0, 1e308]
# a Python float, a numpy scalar, a 0-d array, and an array whose second
# element is the value
_FORMS = {
    "float": float,
    "np.float64": np.float64,
    "0-d array": np.array,
    "array": lambda v: np.array([0.5, v, -2.0]),
}


def _described(x):
    """x's type and repr, element by element for a tuple."""
    if isinstance(x, tuple):
        return tuple(map(_described, x))
    return type(x).__name__, repr(x)


def _outcome(check, x):
    """('ok', the result described) or ('error', the message); a warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = check(x)
        except DomainError as exc:
            return "error", str(exc)
    return "ok", _described(result)


@pytest.mark.parametrize("form", list(_FORMS))
@pytest.mark.parametrize("name", list(_CHECKS))
def test_scalar_checks_match_their_numpy_reference(name, form):
    check, reference = _CHECKS[name]
    for value in _VALUES:
        x = _FORMS[form](value)
        assert _outcome(check, x) == _outcome(reference, x), (name, form, value)


@given(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(list(_FORMS)))
def test_validate_matches_its_numpy_reference_at_random_values(value, form):
    for name in ("validate.detector.omega0", "validate.thermal.beta",
                 "validate.trajectory.alpha", "OrderingParam"):
        check, reference = _CHECKS[name]
        x = _FORMS[form](value)
        assert _outcome(check, x) == _outcome(reference, x)


def test_python_floats_are_checked_without_numpy():
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from unruh_kinetics import core\n"
        "config = {'detector.omega0': 2.0, 'detector.mu': 0.0,\n"
        "          'thermal.beta': float('inf'), 'trajectory.alpha': -0.0}\n"
        "detector, beta, alpha = core.validate(config)\n"
        "assert (detector.omega0, beta, str(alpha)) == (2.0, float('inf'), '0.0')\n"
        "assert core.OrderingParam(0.5).is_symmetric\n"
        "assert not core.OrderingParam(0.25).is_symmetric\n"
        "assert core.plain(1.5) == 1.5 and core.AtomState(-0.5)\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).resolve().parents[1] / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False"]


def test_math_or_numpy_takes_python_floats_and_ints_only():
    assert math_or_numpy(1.0, 2, -3) is _FloatMath
    for other in (True, np.float64(1.0), np.int64(1), np.array(1.0)):
        assert math_or_numpy(1.0, other) is np, other


def test_int_arguments_match_their_floats_without_numpy():
    # an int (not a bool) takes the math path, so each call returns its
    # float-argument call's bits, as a float, and numpy is never loaded
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from unruh_kinetics.core import AtomState, DetectorParams\n"
        "from unruh_kinetics.master import steady_state\n"
        "from unruh_kinetics.rates import atom_total_rate\n"
        "from unruh_kinetics.response import response_accelerated\n"
        "pairs = [\n"
        "    (steady_state(1, 1).sigma_plus, steady_state(1.0, 1.0).sigma_plus),\n"
        "    (steady_state(1, 1).sigma_minus, steady_state(1.0, 1.0).sigma_minus),\n"
        "    (response_accelerated(1, 2).rate, response_accelerated(1.0, 2.0).rate),\n"
        "    (atom_total_rate(DetectorParams(1, 1), 1, AtomState.plus()).total,\n"
        "     atom_total_rate(DetectorParams(1.0, 1.0), 1.0, AtomState.plus()).total),\n"
        "]\n"
        "assert all(type(got) is float and got.hex() == want.hex()\n"
        "           for got, want in pairs), pairs\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).resolve().parents[1] / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False"]


@pytest.mark.parametrize(
    "call",
    [lambda: M.steady_state(10**400, 1),
     lambda: RS.response_accelerated(10**400, 1),
     lambda: R.atom_total_rate(DetectorParams(10**400), 1.0, AtomState.plus()),
     lambda: M.steady_state(1.0, 10**400),
     lambda: M.steady_state(np.array([1.0]), 10**400),
     lambda: RS.response_accelerated(np.array([1.0]), 10**400)],
    ids=["steady_state", "response_accelerated", "atom_total_rate",
         "steady_state_float_omega0", "steady_state_array", "response_accelerated_array"],
)
def test_an_int_beyond_the_float_range_is_a_domain_error(call):
    # neither math nor numpy can convert it: each call raised a bare
    # OverflowError
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == "an int of 1329 bits is beyond the float range"
