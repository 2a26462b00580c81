"""Domain types and validation."""

import math

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
