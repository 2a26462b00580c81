"""Finite-temperature master-equation dynamics of an accelerated two-level detector.

Thermal two-point kernels on inertial and uniformly accelerated worldlines,
detector response, two-level population evolution, fermion-bath rates, and
the vacuum-fluctuation / radiation-reaction energy decomposition — every
closed form backed by an independent brute-force oracle.

The namespace is lazy (PEP 562): a public name, or a submodule, is imported
on first access, so importing the package, or one submodule such as ``cli``,
loads nothing else.
"""

import importlib

# Each public name and the submodule that defines it.
_MODULE_OF = {
    **dict.fromkeys((
        "AtomState", "DetectorParams", "DomainError", "NonConvergence",
        "OrderingParam", "SingularInput", "check_beta", "validate",
    ), "core"),
    **dict.fromkeys((
        "BathSpectrum", "FermionRates", "coarse_graining_diagnostic",
        "coarse_graining_valid", "default_bath", "fermion_energy_rate",
        "fermion_population_rhs", "fermion_rates",
    ), "fermion"),
    **dict.fromkeys((
        "KernelValue", "g_thermal_accelerated", "g_thermal_inertial",
        "g_thermal_inertial_sum", "wightman_vacuum_accelerated",
    ), "kernels"),
    **dict.fromkeys((
        "PopulationState", "PopulationTrajectory", "closed_form",
        "detailed_balance_ratio", "evolve", "rate_rhs", "steady_state",
    ), "master"),
    **dict.fromkeys((
        "EnergyRateReport", "atom_rr_rate", "atom_total_rate", "atom_vf_rate",
        "derivative_coupling_rates", "field_rates", "planck_bracket",
    ), "rates"),
    **dict.fromkeys((
        "ResponseResult", "response_accelerated", "unruh_temperature",
    ), "response"),
}
_SUBMODULES = (
    "cli", "core", "csvformat", "fermion", "kernels", "master", "numerics", "rates",
    "response",
)

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
