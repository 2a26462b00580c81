"""Acceptance criteria.

`unruh-kinetics verify` computes each criterion as one or more records; this
test runs it once at the defaults and asserts that every record of each
criterion passes.  CRITERIA is the one place the numbering lives.  Each
check prints one pass/fail line with its measured error (run with -s).
"""

import json

import pytest

from unruh_kinetics.cli import main

CRITERIA = {
    1: ("lattice_sum",),
    2: ("unruh_correspondence",),
    3: ("inertial_silence", "inertial_silence_decay"),
    4: ("planck_response",),
    5: ("master_oracle",),  # conservation holds by construction in evolve
    6: ("steady_fixed_point", "steady_state_approach", "detailed_balance"),
    7: ("high_temperature_regime", "equal_filling", "low_temperature_regime"),
    8: ("fermion_limits", "fermion_zero_temperature", "fermion_conservation"),
    9: ("energy_decomposition", "response_energy_rate", "ground_state_absorption"),
    10: ("energy_balance",),
    11: ("derivative_coupling_invariance",),
    12: ("kernel_acceleration_shape",),
    13: ("coarse_graining_boundary",),
}


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """verify's records at the defaults, by check name."""
    path = tmp_path_factory.mktemp("verify") / "report.json"
    main(["verify", "--out", str(path)])
    return {r["check"]: r for r in json.loads(path.read_text())["checks"]}


@pytest.mark.parametrize("criterion", sorted(CRITERIA))
def test_criterion(records, criterion):
    for name in CRITERIA[criterion]:
        r = records[name]
        print(f"[criterion {criterion:02d}] {name}: {r['status'].upper()} "
              f"(error {r['error']}, tol {r['tol']})")
    assert all(records[name]["status"] == "pass" for name in CRITERIA[criterion])
