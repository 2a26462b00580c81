"""Domain types and validation."""

import math

import pytest
from hypothesis import given, strategies as st

from unruh_kinetics.core import (
    AtomState,
    DetectorParams,
    DomainError,
    Inertial,
    OrderingParam,
    SYMMETRIC_ORDERING,
    ThermalState,
    UniformAcceleration,
    validate,
)


def _config(omega0=1.0, beta=1.0, kind="accelerated", alpha=1.0, mu=1.0):
    return {
        "detector": {"omega0": omega0, "mu": mu},
        "thermal": {"beta": beta},
        "trajectory": {"kind": kind, "alpha": alpha},
    }


def test_validate_accepts_reasonable_config():
    detector, thermal, trajectory = validate(_config(mu=0.1, alpha=2.0))
    assert detector == DetectorParams(omega0=1.0, mu=0.1)
    assert thermal == ThermalState(beta=1.0)
    assert trajectory == UniformAcceleration(alpha=2.0)


def test_validate_is_idempotent():
    config = _config(beta=math.inf, kind="inertial")
    model = validate(config)
    assert model == (DetectorParams(1.0), ThermalState(math.inf), Inertial())
    assert validate(config) == model
    # each dataclass enforces its own invariants
    with pytest.raises(DomainError, match="alpha"):
        validate(_config(alpha=-1.0))
    with pytest.raises(DomainError, match="beta"):
        validate(_config(beta=0.0))


def test_zero_beta_rejected():
    with pytest.raises(DomainError, match="beta"):
        ThermalState(beta=0.0)


def test_negative_omega0_rejected():
    with pytest.raises(DomainError):
        DetectorParams(omega0=-1.0)
    with pytest.raises(DomainError):
        DetectorParams(omega0=0.0)


def test_negative_coupling_rejected():
    with pytest.raises(DomainError):
        DetectorParams(omega0=1.0, mu=-0.1)


def test_zero_temperature_is_first_class():
    t = ThermalState(math.inf)
    assert t.is_zero_temperature
    assert t.temperature == 0.0
    assert not ThermalState(2.0).is_zero_temperature
    assert ThermalState(2.0).temperature == 0.5


def test_ordering_param():
    assert SYMMETRIC_ORDERING.is_symmetric
    assert not OrderingParam(0.3).is_symmetric
    with pytest.raises(DomainError):
        OrderingParam(1.5)


def test_atom_state_constructors():
    assert AtomState.plus().r3_expectation == 0.5
    assert AtomState.minus().r3_expectation == -0.5
    mixed = AtomState.superposition(1 / math.sqrt(2), 1 / math.sqrt(2))
    assert mixed.r3_expectation == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(DomainError):
        AtomState.superposition(1.0, 1.0)  # not normalized
    with pytest.raises(DomainError):
        AtomState(0.6)


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_validate_never_clamps(omega0, beta):
    # accepted values must round-trip unchanged (rejection is total, no clamping)
    detector, thermal, _ = validate(_config(omega0=omega0, beta=beta))
    assert detector.omega0 == omega0
    assert thermal.beta == beta
