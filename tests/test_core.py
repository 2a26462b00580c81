"""Domain types, validation and the scalar helpers."""

import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from unruh_kinetics import fermion as F
from unruh_kinetics import master as M
from unruh_kinetics.core import (
    AtomState,
    DetectorParams,
    DomainError,
    OrderingParam,
    check_beta,
    fermi,
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
    assert fermi(709.78) > 0.0
    assert fermi(709.79) == 0.0 and fermi(math.inf) == 0.0
    assert fermi(-math.inf) == 1.0
    assert math.isnan(fermi(math.nan))


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
