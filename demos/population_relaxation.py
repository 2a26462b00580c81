#!/usr/bin/env python3
"""Population relaxation of the two-level detector at two temperatures.

Reproduces the two qualitative regimes of the thermal master equation: at
high temperature both levels equalize; at low temperature the ground level
fills almost completely.  The RK4 integration is checked against the exact
closed-form solution at every step, from one array call of closed_form.

Run:  python3 demos/population_relaxation.py
"""

import math

from unruh_kinetics import (
    PopulationState,
    closed_form,
    detailed_balance_ratio,
    evolve,
    steady_state,
)


def show(title, omega0, beta, init_sp, tau_end):
    print(f"\n=== {title} (omega0={omega0}, beta={beta}) ===")
    init = PopulationState(init_sp, 1.0 - init_sp)
    traj = evolve(init, omega0, beta, tau_end)
    target = steady_state(omega0, beta)
    print(f"steady state: sigma+ = {target.sigma_plus:.6f}, "
          f"sigma- = {target.sigma_minus:.6f}")
    print(f"detailed balance e^(-omega0 beta) = "
          f"{detailed_balance_ratio(omega0, beta):.6f}")
    print(f"{'tau':>8} {'sigma+':>10} {'sigma-':>10} {'closed-form defect':>20}")
    defect = abs(traj.sigma_plus - closed_form(init, omega0, beta, traj.taus).sigma_plus)
    n = len(traj.taus)
    for i in range(0, n, max(1, n // 8)):
        tau, sp = float(traj.taus[i]), float(traj.sigma_plus[i])
        print(f"{tau:8.2f} {sp:10.6f} {1.0 - sp:10.6f} {defect[i]:20.2e}")
    print(f"largest |RK4 - closed form| along the run: {defect.max():.2e}")


def main():
    # hot bath: omega0 beta << 1, populations equalize
    show("high-temperature regime", 1.0, 0.01, init_sp=0.01, tau_end=400.0)
    # cold bath: omega0 beta >> 1, ground state fills
    show("low-temperature regime", 1.0, 5.0, init_sp=0.9, tau_end=300.0)
    # zero temperature is a first-class limit, not a large float
    show("zero temperature", 1.0, math.inf, init_sp=1.0, tau_end=120.0)


if __name__ == "__main__":
    main()
