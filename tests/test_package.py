"""The package namespace: lazy, and the same names as an eager import."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# The public names of the package, by the submodule that defines them.
PUBLIC = {
    "core": ["AtomState", "DetectorParams", "DomainError", "NonConvergence",
             "OrderingParam", "SingularInput", "check_beta", "validate"],
    "fermion": ["BathSpectrum", "FermionRates", "coarse_graining_diagnostic",
                "coarse_graining_valid", "default_bath", "fermion_energy_rate",
                "fermion_population_rhs", "fermion_rates"],
    "kernels": ["KernelValue", "g_thermal_accelerated", "g_thermal_inertial",
                "g_thermal_inertial_sum", "wightman_vacuum_accelerated"],
    "master": ["PopulationState", "PopulationTrajectory", "closed_form",
               "detailed_balance_ratio", "evolve", "rate_rhs", "steady_state"],
    "rates": ["EnergyRateReport", "atom_rr_rate", "atom_total_rate", "atom_vf_rate",
              "derivative_coupling_rates", "field_rates", "planck_bracket"],
    "response": ["ResponseResult", "response_accelerated", "unruh_temperature"],
}

# Run in a fresh interpreter: the test session has imported every submodule.
LAZY_CHECKS = f"""
import importlib, sys
sys.path.insert(0, sys.argv[1])
import unruh_kinetics as uk
assert [m for m in sys.modules if m.startswith("unruh_kinetics.")] == []
public = {PUBLIC!r}
assert sorted(uk.__all__) == sorted(n for names in public.values() for n in names)
assert len(uk.__all__) == 38
for module, names in public.items():
    defining = importlib.import_module("unruh_kinetics." + module)
    for name in names:
        assert getattr(uk, name) is getattr(defining, name), name
star = {{}}
exec("from unruh_kinetics import *", star)
assert set(star) - {{"__builtins__"}} == set(uk.__all__)
assert all(star[name] is getattr(uk, name) for name in uk.__all__)
try:
    uk.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown attribute did not raise")
print("ok")
"""


def test_namespace_is_lazy_and_binds_the_public_names():
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_CHECKS, str(ROOT / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ok"]


def test_a_submodule_is_an_attribute_of_the_package():
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import unruh_kinetics\n"
        "assert unruh_kinetics.kernels is sys.modules['unruh_kinetics.kernels']\n"
        "assert 'unruh_kinetics.master' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "demo", ["energy_budget.py", "kernel_landscape.py", "population_relaxation.py"]
)
def test_demos_run_on_the_lazy_namespace(demo):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and proc.stderr == ""
