"""Two-level finite-temperature master equation.

Rate form, fixed-step RK4 evolution (propagated with RK4's exact one-step
map), closed-form populations, Fermi-Dirac steady state and detailed
balance.  The dynamics is a one-dimensional linear relaxation with rate
Gamma = (omega0 / 8 pi) coth(omega0 beta / 2) toward
sigma_plus(inf) = 1 / (1 + e^{omega0 beta}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (SMALL_GRID, DomainError, _FloatMath, check_beta, check_populations,
                   check_positive, fermi, linspace, math_or_numpy, planck, plain,
                   require_all)

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PopulationState",
    "PopulationTrajectory",
    "rate_rhs",
    "evolve",
    "closed_form",
    "steady_state",
    "detailed_balance_ratio",
    "relaxation_rate",
]

# evolve picks h so that Gamma * h stays below Z_DEFAULT, which keeps RK4's
# accumulated z^4/120 local-truncation error below 1e-8.
Z_DEFAULT = 0.01
# Largest RK4 step count: every step index up to 2^53 is exact in a double.
MAX_STEPS = 2**53


@dataclass(frozen=True)
class PopulationState:
    """Diagonal reduced density matrix (sigma_plus, sigma_minus) of the atom;
    arrays of them, checked at every element, on a grid of times."""

    sigma_plus: float
    sigma_minus: float

    def __post_init__(self) -> None:
        check_populations(self.sigma_plus, self.sigma_minus)


@dataclass(frozen=True, eq=False)
class PopulationTrajectory:
    """sigma_plus (and sigma_minus = 1 - sigma_plus) at the strictly
    increasing proper times taus: two lists of Python floats of one length,
    or two float arrays past SMALL_GRID samples (see evolve)."""

    taus: list[float] | np.ndarray
    sigma_plus: list[float] | np.ndarray


def _check_params(omega0: float, beta: float) -> None:
    math_or_numpy(omega0, beta)  # refuses an int beyond the float range
    check_positive(omega0, "omega0")
    check_beta(beta)


def relaxation_rate(omega0: float, beta: float) -> float:
    """Gamma = (omega0 / 8 pi) coth(omega0 beta / 2) = (omega0 + 2 P / beta) / 8 pi,
    P = a b of `core.planck` at x = omega0 beta: 1 / (4 pi beta) where x
    underflows, omega0 / 8 pi at beta = +inf."""
    _check_params(omega0, beta)
    a, b = planck(omega0 * beta)
    return (omega0 + 2.0 * (a * b / beta)) / (8.0 * math.pi)


def rate_rhs(
    state: PopulationState, omega0: float, beta: float
) -> tuple[float, float]:
    """(d sigma_plus / d tau, d sigma_minus / d tau); the pair sums to zero.

    d sigma_plus / d tau
        = -(omega0 / 8 pi) [sigma_plus + nbar (sigma_plus - sigma_minus)],

    nbar = 1 / (e^{omega0 beta} - 1), and omega0 nbar = P / beta with P = a b
    of `core.planck` at x = omega0 beta, finite where x underflows.
    """
    _check_params(omega0, beta)
    (a, b), gap = planck(omega0 * beta), state.sigma_plus - state.sigma_minus
    d_plus = -(omega0 * state.sigma_plus + a * b * (gap / beta)) / (8.0 * math.pi)
    return d_plus, -d_plus


def steady_state(omega0: float, beta: float) -> PopulationState:
    """Fermi-Dirac pair (1/(1+e^{omega0 beta}), e^{omega0 beta}/(1+e^{omega0 beta}));
    omega0 or beta may be an array, which `core.fermi` evaluates with numpy."""
    _check_params(omega0, beta)
    sp = fermi(omega0 * beta)  # 0.0 at beta = +inf
    return PopulationState(sp, 1.0 - sp)


def detailed_balance_ratio(omega0: float, beta: float) -> float:
    """Steady-state ratio sigma_plus / sigma_minus = e^{-omega0 beta}."""
    _check_params(omega0, beta)
    return math.exp(-omega0 * beta)  # 0.0 at beta = +inf


def closed_form(
    init: PopulationState, omega0: float, beta: float, tau
) -> PopulationState:
    """Exact populations: exponential relaxation onto the Fermi-Dirac pair.
    tau may be an array; at tau = 0 the populations are init's own.  A Python
    float or int tau is evaluated with math, anything else with numpy."""
    _check_params(omega0, beta)
    require_all(tau >= 0, tau, "tau must be non-negative")
    xp = math_or_numpy(tau)
    sp_inf = steady_state(omega0, beta).sigma_plus
    with xp.errstate(over="ignore"):  # Gamma tau = inf decays to 0
        decay = xp.exp(-relaxation_rate(omega0, beta) * tau)
    sp = sp_inf + (init.sigma_plus - sp_inf) * decay
    if xp is _FloatMath:
        return init if tau == 0 else PopulationState(sp, 1.0 - sp)
    at_0 = tau == 0
    sp, sm = xp.where(at_0, init.sigma_plus, sp), xp.where(at_0, init.sigma_minus, 1.0 - sp)
    return PopulationState(plain(sp[()]), plain(sm[()]))


def evolve(
    init: PopulationState,
    omega0: float,
    beta: float,
    tau_end: float,
    *,
    samples: int | None = None,
) -> PopulationTrajectory:
    """Fixed-step RK4 solution of rate_rhs on [0, tau_end].

    The step count caps z = Gamma * h at Z_DEFAULT so the accumulated RK4
    truncation error stays below 1e-8.  A step count above
    MAX_STEPS = 2^53 raises DomainError.

    rate_rhs is linear, d sigma_plus / d tau = -Gamma (sigma_plus - sp_inf),
    so one RK4 step is exactly the affine map
    sigma_plus <- sp_inf + R(z) (sigma_plus - sp_inf) with RK4's stability
    function R(z) = 1 - z + z^2/2 - z^3/6 + z^4/24, and step k is
    sp_inf + (sigma_plus_0 - sp_inf) R(z)^k.  That is evaluated directly at
    the requested step indices; the result is the RK4 solution, not the exact
    exponential (see closed_form).  The row for step 0 is init.sigma_plus.

    Only steps round(linspace(0, steps, samples)) are evaluated (duplicates
    dropped), so the cost scales with ``samples``, not with ``steps``;
    ``samples=None`` is samples = steps + 1, every step 0..steps.  At most
    SMALL_GRID samples are evaluated point by point with math and returned
    as lists of Python floats, more with numpy as arrays.

    Conservation holds by construction: sigma_minus = 1 - sigma_plus.
    """
    _check_params(omega0, beta)
    if not (math.isfinite(tau_end) and tau_end >= 0):
        raise DomainError(
            f"tau_end must be finite and non-negative, got {tau_end}"
        )
    if samples is not None and samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    if tau_end == 0:
        return PopulationTrajectory([0.0], [init.sigma_plus])

    gamma = relaxation_rate(omega0, beta)
    sp_inf = steady_state(omega0, beta).sigma_plus
    need = gamma * tau_end / Z_DEFAULT
    if not need <= MAX_STEPS:
        raise DomainError(f"tau_end = {tau_end} needs {need:.3e} RK4 steps, > 2^53")
    steps = max(1, math.ceil(need))

    h = tau_end / steps
    z = gamma * h
    # R(z)^k as exp(k log1p(R(z) - 1)): rounding R(z) itself to a double
    # would put a relative error ~k * 1e-16 on R(z)^k.
    r_minus_1 = z * (-1.0 + z * (0.5 + z * (-1.0 / 6.0 + z / 24.0)))

    def at(k):
        """sigma_plus at step k, an int or an array of them."""
        xp = math_or_numpy(k)
        return sp_inf + (init.sigma_plus - sp_inf) * xp.exp(k * xp.log1p(r_minus_1))

    # k is nondecreasing, so a repeat follows its first copy; np.unique would
    # sort it again and import numpy.ma on its first call
    count = steps + 1 if samples is None else samples
    if count <= SMALL_GRID:
        k = [round(i) for i in linspace(0.0, float(steps), count)]
        k = k[:1] + [j for i, j in zip(k, k[1:]) if j != i]
        taus, sigma_plus = [i * h for i in k], [at(i) for i in k]
    else:
        import numpy as np

        k = np.linspace(0, steps, count).round()
        k = k[np.append(True, k[1:] != k[:-1])]
        taus, sigma_plus = k * h, at(k)
    sigma_plus[0] = init.sigma_plus
    return PopulationTrajectory(taus, sigma_plus)
