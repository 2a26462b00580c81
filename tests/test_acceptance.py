"""Acceptance criteria.

One test per criterion; each prints a single pass/fail line with the measured
error before asserting.  Criterion 10's radiation-reaction half compares the
numeric field-side commutator integral with the acceleration-independent
closed form -omega0^2 mu^2/16 pi (see the module-level notes in
test_rates.py).
"""

import math

import numpy as np

from unruh_kinetics.core import AtomState, DetectorParams
from unruh_kinetics import fermion as F
from unruh_kinetics import kernels as K
from unruh_kinetics import master as M
from unruh_kinetics import rates as R
from unruh_kinetics import response as RS

PLUS = AtomState.plus()
MINUS = AtomState.minus()


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} ({detail})")


def test_criterion_01_lattice_sum_oracle():
    # Grid restricted to u/beta <= 2: beyond that the closed value is
    # exponentially small relative to the summand scale and the comparison is
    # not representable in float64 (see ledger).
    worst = 0.0
    for u in (0.2, 0.5, 1.0, 1.5, 2.0):
        for beta in (1.0, 1.5, 2.0, 3.0, 4.0):
            s = K.thermal_image_sum(u, beta)
            c = K.thermal_image_closed(u, beta)
            worst = max(worst, abs(s - c) / abs(c))
    ok = worst < 1e-8
    _report(1, "lattice-sum oracle", ok, f"worst rel err {worst:.3e}, tol 1e-08")
    assert ok


def test_criterion_02_unruh_correspondence():
    worst = 0.0
    for alpha in np.linspace(0.3, 6.0, 20):
        ga = K.g_thermal_accelerated(1.0, 0.0, math.inf, float(alpha))
        gi = K.thermal_image_closed(1.0, 2.0 * math.pi / float(alpha))
        worst = max(worst, abs(ga.value - gi) / abs(gi))
    ok = worst < 1e-14
    _report(2, "Unruh correspondence", ok, f"worst rel err {worst:.3e}, tol 1e-14")
    assert ok


def test_criterion_03_inertial_silence():
    vals = [abs(RS.inertial_silence_oracle(1.0, 1e-3 / 2**k)) for k in range(4)]
    ok = vals[0] < 1e-2 and all(b < a for a, b in zip(vals, vals[1:]))
    _report(
        3, "inertial detector silence", ok,
        f"|value|(eps=1e-3)={vals[0]:.3e} < 1e-2, ladder {vals}"
    )
    assert ok


def test_criterion_04_planck_response():
    oracle = RS.planck_response_oracle(1.0, 2.0)
    closed = RS.response_accelerated(1.0, 2.0).rate
    rel = abs(oracle - closed) / closed
    ok = rel < 1e-4
    _report(4, "Planck response oracle", ok, f"rel err {rel:.3e}, tol 1e-04")
    assert ok


def test_criterion_05_master_oracle_equivalence():
    worst = 0.0
    worst_defect = 0.0
    for w0 in (0.5, 1.0, 2.0):
        for beta in (0.1, 1.0, 10.0):
            for sp in (0.0, 0.25, 0.5, 0.75, 1.0):
                init = M.PopulationState(sp, 1.0 - sp)
                traj = M.evolve(init, w0, beta, 25.0)
                ref = M.closed_form(init, w0, beta, traj.taus)
                worst = max(worst, np.max(np.abs(traj.sigma_plus - ref.sigma_plus)))
                sigma_minus = 1.0 - traj.sigma_plus
                worst_defect = max(
                    worst_defect, np.max(np.abs(traj.sigma_plus + sigma_minus - 1.0))
                )
    ok = worst < 1e-8 and worst_defect < 1e-12
    _report(
        5, "master-equation oracle equivalence", ok,
        f"sup err {worst:.3e} (tol 1e-08), conservation {worst_defect:.3e}"
    )
    assert ok


def test_criterion_06_steady_state_and_detailed_balance():
    worst_state = 0.0
    worst_balance = 0.0
    for w0, beta in [(0.5, 1.0), (1.0, 2.0), (2.0, 0.5)]:
        final = M.evolve(M.PopulationState(1.0, 0.0), w0, beta, 400.0 / w0).sigma_plus[-1]
        target = M.steady_state(w0, beta)
        worst_state = max(worst_state, abs(final - target.sigma_plus))
        ratio = target.sigma_plus / target.sigma_minus
        worst_balance = max(
            worst_balance, abs(ratio - M.detailed_balance_ratio(w0, beta))
        )
    ok = worst_state < 1e-6 and worst_balance < 1e-10
    _report(
        6, "steady state and detailed balance", ok,
        f"state err {worst_state:.3e} (tol 1e-06), "
        f"balance err {worst_balance:.3e} (tol 1e-10)"
    )
    assert ok


def test_criterion_07_figure1_regimes():
    # At omega0 beta = 0.01 the exact steady state is 1/(1+e^{0.01}) = 0.49750,
    # which is 2.5e-3 from 1/2 by construction; "reaches (1/2, 1/2) within
    # 1e-4" is therefore read as convergence (to 1e-4) onto the
    # high-temperature steady state, which equals equal filling to O(omega0
    # beta).  See the decision ledger.
    hot = M.evolve(M.PopulationState(0.01, 0.99), 1.0, 0.01, 500.0).sigma_plus[-1]
    hot_target = M.steady_state(1.0, 0.01)
    hot_err = abs(hot - hot_target.sigma_plus)
    equal_filling_offset = abs(hot_target.sigma_plus - 0.5)
    cold_minus = 1.0 - M.evolve(M.PopulationState(0.9, 0.1), 1.0, 5.0, 300.0).sigma_plus[-1]
    ok = (
        hot_err < 1e-4
        and equal_filling_offset < 0.005
        and cold_minus > 0.99
    )
    _report(
        7, "figure-1 temperature regimes", ok,
        f"high-T convergence err {hot_err:.3e} (tol 1e-04, steady state "
        f"{equal_filling_offset:.2e} from exact 1/2), "
        f"low-T sigma_minus {cold_minus:.6f} > 0.99"
    )
    assert ok


def test_criterion_08_fermion_limits():
    w0 = 1.0
    cold = F.fermion_rates(F.default_bath(w0, math.inf), w0, 1.0)
    hot = F.fermion_rates(F.default_bath(w0, 1e-6), w0, 1.0)
    ratio_err = abs(hot.T_F / hot.C - 0.5) / 0.5
    d0, d1 = F.fermion_population_rhs((0.3, 0.7), cold)
    ok = cold.T_F == 0.0 and ratio_err < 1e-4 and d0 + d1 == 0.0
    _report(
        8, "fermion thermodynamic limits", ok,
        f"T_F(beta=inf)={cold.T_F}, half-C rel err {ratio_err:.3e}, "
        f"rhs sum {d0 + d1}"
    )
    assert ok


def test_criterion_09_energy_decomposition():
    worst_split = 0.0
    worst_ground = 0.0
    for w0 in (0.5, 1.0, 2.0):
        for alpha in (0.0, 0.5, 2.0):
            p = DetectorParams(w0, 0.8)
            rep = R.atom_total_rate(p, alpha, PLUS)
            worst_split = max(worst_split, abs(rep.vf + rep.rr - rep.total))
            # ground state absorbs at the Planck rate: total = mu^2 omega0 F/4
            # (0 inertially), measured against the scale omega0^2 mu^2/16 pi
            # that vf + rr cancels at
            want = 0.0 if alpha == 0.0 else (
                p.mu**2 * w0 * RS.response_accelerated(w0, alpha).rate / 4
            )
            scale = w0**2 * p.mu**2 / (16.0 * math.pi)
            worst_ground = max(
                worst_ground,
                abs(R.atom_total_rate(p, alpha, MINUS).total - want) / scale,
            )
    ok = worst_split < 1e-12 and worst_ground < 1e-15
    _report(
        9, "energy decomposition", ok,
        f"vf+rr-total {worst_split:.3e} (tol 1e-12), "
        f"ground-state total vs mu^2 omega0 F/4 {worst_ground:.3e} (tol 1e-15)"
    )
    assert ok


def test_criterion_10_energy_balance():
    vf_worst = 0.0
    rr_worst = 0.0
    failures = []
    for w0 in (1.0, 2.0, 3.0):
        for alpha in (0.5, 1.0, 2.0):
            p = DetectorParams(w0, 1.0)
            vf_f, rr_f = R.field_rates(p, alpha, PLUS)
            vf_a = R.atom_vf_rate(p, alpha, PLUS)
            rr_a = R.atom_rr_rate(p, alpha)
            vf_rel = abs(abs(vf_f) - abs(vf_a)) / abs(vf_a)
            rr_rel = abs(abs(rr_f) - abs(rr_a)) / abs(rr_a)
            vf_worst = max(vf_worst, vf_rel)
            rr_worst = max(rr_worst, rr_rel)
            if rr_rel >= 1e-4:
                failures.append(f"(w0={w0}, alpha={alpha}): rr rel {rr_rel:.2e}")
    ok = vf_worst < 1e-4 and rr_worst < 1e-4
    _report(
        10, "energy balance (field vs atom)", ok,
        f"vf worst rel {vf_worst:.3e}, rr worst rel {rr_worst:.3e}, tol 1e-04"
    )
    assert ok, (
        "vf worst rel {:.3e}; rr fails at: {}. The numeric field commutator "
        "integral should equal the acceleration-independent vacuum value "
        "omega0^2 mu^2/16 pi of the closed form.".format(
            vf_worst, "; ".join(failures)
        )
    )


def test_criterion_11_derivative_coupling_invariance():
    p = DetectorParams(1.0, 1.0)
    base = R.derivative_coupling_rates(p, 1.0, PLUS, n=0)
    worst = 0.0
    for n in (1, 2):
        rep = R.derivative_coupling_rates(p, 1.0, PLUS, n=n)
        worst = max(
            worst,
            abs(rep.vf - base.vf) / abs(base.vf),
            abs(rep.rr - base.rr) / abs(base.rr),
        )
    ok = worst < 1e-3
    _report(
        11, "derivative-coupling invariance", ok,
        f"worst rel err vs n=0: {worst:.3e}, tol 1e-03"
    )
    assert ok


def test_criterion_12_figure2_qualitative():
    # Signed kernel value: at T = 0 it rises monotonically with acceleration;
    # at finite temperature a decreasing segment appears (see ledger for the
    # signed-vs-modulus reading).
    alphas = np.linspace(0.1, 5.0, 40)
    zero_t = [
        K.g_thermal_accelerated(1.0, 0.0, math.inf, float(a)).value.real
        for a in alphas
    ]
    finite_t = [
        K.g_thermal_accelerated(1.0, 0.0, 1.0, float(a)).value.real
        for a in alphas
    ]
    increasing = all(b > a for a, b in zip(zero_t, zero_t[1:]))
    has_decrease = any(b < a for a, b in zip(finite_t, finite_t[1:]))
    ok = increasing and has_decrease
    _report(
        12, "figure-2 qualitative behaviour", ok,
        f"T=0 monotone increase: {increasing}; "
        f"finite-T decreasing segment: {has_decrease}"
    )
    assert ok


def test_criterion_13_coarse_graining_diagnostic():
    ratio = F.coarse_graining_diagnostic(0.01, 1.0)
    ok = (
        ratio == 2.0 * 0.01 * 1.0
        and F.coarse_graining_valid(0.0999, 1.0)
        and not F.coarse_graining_valid(0.1001, 1.0)
    )
    _report(
        13, "coarse-graining diagnostic", ok,
        f"ratio(0.01,1)={ratio}, validity boundary at (v tau_c)^2 = 0.01"
    )
    assert ok
