"""Finite-temperature master-equation dynamics of an accelerated two-level detector.

Thermal two-point kernels on inertial and uniformly accelerated worldlines,
detector response, two-level population evolution, fermion-bath rates, and
the vacuum-fluctuation / radiation-reaction energy decomposition — every
closed form backed by an independent brute-force oracle.
"""

from .core import (
    AtomState,
    DetectorParams,
    DomainError,
    NonConvergence,
    OrderingParam,
    SingularInput,
    check_beta,
    validate,
)
from .fermion import (
    BathSpectrum,
    FermionRates,
    coarse_graining_diagnostic,
    coarse_graining_valid,
    default_bath,
    fermion_energy_rate,
    fermion_population_rhs,
    fermion_rates,
)
from .kernels import (
    KernelValue,
    g_thermal_accelerated,
    g_thermal_inertial,
    g_thermal_inertial_sum,
    wightman_vacuum_accelerated,
)
from .master import (
    PopulationState,
    PopulationTrajectory,
    closed_form,
    detailed_balance_ratio,
    evolve,
    rate_rhs,
    steady_state,
)
from .rates import (
    EnergyRateReport,
    atom_rr_rate,
    atom_total_rate,
    atom_vf_rate,
    derivative_coupling_rates,
    field_rates,
    planck_bracket,
)
from .response import (
    ResponseResult,
    response_accelerated,
    unruh_temperature,
)

__version__ = "0.1.0"
