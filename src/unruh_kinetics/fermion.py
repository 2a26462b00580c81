"""Fermion oscillator in a fermionic heat bath.

Spontaneous (C) and thermally stimulated (T_F) transition rates for a
discrete bath spectrum under the coarse-graining window dt, the two-level
population dynamics they generate, the energy rate, and the Markov-Born
validity diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (DomainError, check_beta, check_populations, check_positive,
                   check_positive_finite, fermi, linspace)

__all__ = [
    "BathSpectrum",
    "FermionRates",
    "default_bath",
    "fermion_rates",
    "fermion_population_rhs",
    "fermion_energy_rate",
    "coarse_graining_diagnostic",
    "coarse_graining_valid",
]

@dataclass(frozen=True)
class BathSpectrum:
    """Discrete bath modes (omega_i, g_i) at inverse temperature beta."""

    modes: tuple[tuple[float, float], ...]
    beta: float

    def __post_init__(self) -> None:
        if len(self.modes) == 0:
            raise DomainError("bath spectrum must contain at least one mode")
        for w, g in self.modes:
            check_positive_finite(w, "mode frequency")
            if not (math.isfinite(g) and g >= 0):
                raise DomainError(f"coupling must be finite and >= 0, got {g}")
        check_beta(self.beta)


@dataclass(frozen=True)
class FermionRates:
    """Rates over a coarse-graining window: C (spontaneous) and T_F (stimulated)."""

    C: float
    T_F: float

    def __post_init__(self) -> None:
        if self.C < 0 or self.T_F < 0:
            raise DomainError(
                f"rates must be >= 0, got C={self.C}, T_F={self.T_F}"
            )
        # Fermi blocking: every occupancy factor is <= 1/2
        if self.T_F > 0.5 * self.C * (1.0 + 1e-12) + 1e-300:
            raise DomainError(f"T_F={self.T_F} exceeds C/2={0.5 * self.C}")


def default_bath(omega0: float, beta: float, g: float = 0.1) -> BathSpectrum:
    """101 equally coupled modes spanning [0.5 omega0, 1.5 omega0].

    The frequencies are np.linspace(0.5 omega0, 1.5 omega0, 101) bit for bit
    (`core.linspace`).
    """
    start, stop = 0.5 * omega0, 1.5 * omega0
    if stop == math.inf:
        raise DomainError(
            f"default bath edge 1.5 * omega0 overflows a float, got omega0 = {omega0}"
        )
    return BathSpectrum(tuple((float(w), g) for w in linspace(start, stop, 101)), beta)


def _window_weight(detuning: float, dt: float) -> float:
    """[1 - cos x] / (detuning^2 dt) with x = detuning dt, evaluated as
    (dt / 2) (sin(x/2) / (x/2))^2, which does not cancel: dt/2 at x = 0.

    Once x overflows (so |detuning| > 1), the weight is below
    2 / (|detuning| 1e308): 0.
    """
    x = detuning * dt
    if not math.isfinite(x):
        return 0.0
    h = 0.5 * x
    sinc = math.sin(h) / h if h else 1.0
    return 0.5 * dt * sinc * sinc


def fermion_rates(
    spectrum: BathSpectrum, omega0: float, dt: float
) -> FermionRates:
    """C = 2 sum_i |g_i|^2 w(omega0 - omega_i, dt); T_F weights each term
    by the Fermi occupancy of the bath mode."""
    check_positive(omega0, "omega0")
    check_positive_finite(dt, "dt")
    c = 0.0
    tf = 0.0
    for w, g in spectrum.modes:
        term = 2.0 * g * g * _window_weight(omega0 - w, dt)
        c += term
        tf += term * fermi(spectrum.beta * w)  # modes have w > 0
    return FermionRates(C=c, T_F=tf)


def fermion_population_rhs(
    diag: tuple[float, float], rates: FermionRates
) -> tuple[float, float]:
    """(d sigma_00 / dt, d sigma_11 / dt) for the two-level truncation.

    d sigma_11 / dt = -C sigma_11 + T_F sigma_00; the ground-level component
    is the exact negative, so probability is conserved.
    """
    if len(diag) != 2:
        raise DomainError(f"two-level populations required, got {len(diag)}")
    s0, s1 = diag
    check_populations(s0, s1)
    d1 = -rates.C * s1 + rates.T_F * s0
    return (-d1, d1)


def fermion_energy_rate(
    diag: tuple[float, float], rates: FermionRates, omega0: float
) -> float:
    """d<H_A>/dt = omega0 (-C sigma_11 + T_F sigma_00)."""
    _, d1 = fermion_population_rhs(diag, rates)
    return omega0 * d1


def coarse_graining_diagnostic(v_typ: float, tau_c: float) -> float:
    """Third-to-second-order ratio 2 v tau_c of the coarse-grained expansion."""
    if v_typ < 0 or tau_c < 0:
        raise DomainError("interaction strength and correlation time must be >= 0")
    ratio = 2.0 * v_typ * tau_c
    if not math.isfinite(ratio):
        raise DomainError(f"coarse-graining ratio 2 v tau_c must be finite, got {ratio}")
    return ratio


def coarse_graining_valid(v_typ: float, tau_c: float) -> bool:
    """Markov-Born validity: (v tau_c)^2 < 0.01."""
    ratio = coarse_graining_diagnostic(v_typ, tau_c) / 2.0
    return ratio * ratio < 0.01
