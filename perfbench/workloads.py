"""Seeded inputs for the four workloads.

Each generator draws its parameters from a fixed range with
``random.Random(seed)`` and returns a list of operations.  A CLI operation is
``{"name", "kind", "argv", ...}``: ``argv`` is everything after the program
name, and the other keys are the generated inputs the output check needs.  A
rate-scan operation is one (omega0, alpha) point.

The draws are chosen so the work per pass does not depend on the seed:
grid sizes are fixed, the relaxation end times are solved for a fixed RK4
step count, and the rate-scan points are one jittered point per cell of a
fixed grid over the parameter range.
"""

from __future__ import annotations

import math
import random

# Default RK4 step-size target of master.evolve (Gamma * h <= 0.01).  It and
# the relaxation rate below are restated here rather than imported, so the
# generated inputs do not depend on the code being measured.
_Z_DEFAULT = 0.01
HOT_STEPS = 398_000
COLD_STEPS = 398_000
OUTPUT_STEPS = 172_000
OUTPUT_SAMPLES = 100_001
SWEEP_POINTS = 10_000
# The kernel and response commands are ~10x cheaper per point than sweep, so
# they get 10x the points: the closed forms, not start-up, then dominate those
# processes too, and every operation of a pass takes about as long.
CLOSED_FORM_POINTS = 100_000

# Planck-oracle contract point of `verify`; the only point where that
# oracle is gated.
CONTRACT_POINT = (1.0, 2.0)
SCAN_OMEGA0 = (0.5, 2.0)
SCAN_ALPHA = (0.5, 3.0)
SCAN_CELLS = 4


def _num(x: float) -> str:
    """A float as the CLI parses it back exactly."""
    return "inf" if math.isinf(x) else repr(float(x))


def _relaxation_rate(omega0: float, beta: float) -> float:
    coth = 1.0 if math.isinf(beta) else 1.0 / math.tanh(0.5 * omega0 * beta)
    return omega0 * coth / (8.0 * math.pi)


def _tau_for_steps(omega0: float, beta: float, steps: int) -> float:
    """End time at which the default step controller takes ``steps`` steps."""
    return (steps - 0.5) * _Z_DEFAULT / _relaxation_rate(omega0, beta)


def cli_defaults(seed: int) -> list[dict]:
    """All eight commands at their default sizes, one process each."""
    rng = random.Random(seed)
    w0 = rng.uniform(0.8, 1.25)
    beta = rng.uniform(0.8, 1.25)
    alpha = rng.uniform(0.8, 1.25)
    sp0 = rng.uniform(0.5, 1.0)
    common = ["--detector.omega0", _num(w0), "--thermal.beta", _num(beta),
              "--trajectory.alpha", _num(alpha)]
    params = {"omega0": w0, "beta": beta, "alpha": alpha}
    return [
        {"name": "steady", "kind": "steady", "argv": ["steady", *common], **params},
        {"name": "response", "kind": "response",
         "argv": ["response", *common], **params,
         "start": 0.5, "stop": 5.0, "count": 10},
        {"name": "fermion", "kind": "fermion", "argv": ["fermion", *common], **params},
        {"name": "kernel", "kind": "kernel", "argv": ["kernel", *common], **params,
         "param": "alpha", "u": 1.0, "start": 0.1, "stop": 5.0, "count": 50},
        {"name": "sweep", "kind": "sweep_steady", "argv": ["sweep", *common],
         **params, "start": 0.5, "stop": 2.0, "count": 4},
        {"name": "rates", "kind": "rates", "argv": ["rates", *common], **params},
        {"name": "rates_numeric", "kind": "rates_numeric",
         "argv": ["rates", *common, "--rates.numeric", "true", "--rates.field", "true"],
         **params},
        {"name": "populations", "kind": "populations",
         "argv": ["populations", *common, "--populations.sigma_plus", _num(sp0)],
         **params, "sigma_plus": sp0, "tau_end": 100.0, "samples": 101},
        {"name": "verify", "kind": "verify", "argv": ["verify"]},
    ]


def grid_sweep(seed: int) -> list[dict]:
    """Three 10^4-point sweeps, two kernel sweeps and one response grid."""
    rng = random.Random(seed)
    n, m = SWEEP_POINTS, CLOSED_FORM_POINTS
    ops = []

    w_lo, w_hi, beta = rng.uniform(0.4, 0.6), rng.uniform(1.8, 2.2), rng.uniform(0.5, 2.0)
    ops.append({
        "name": "sweep_steady", "kind": "sweep_steady",
        "argv": ["sweep", "--sweep.param", "detector.omega0",
                 "--sweep.start", _num(w_lo), "--sweep.stop", _num(w_hi),
                 "--sweep.count", str(n), "--sweep.quantity", "steady",
                 "--thermal.beta", _num(beta)],
        "start": w_lo, "stop": w_hi, "count": n, "beta": beta,
    })

    a_lo, a_hi, w0 = rng.uniform(0.4, 0.6), rng.uniform(2.8, 3.2), rng.uniform(0.5, 2.0)
    ops.append({
        "name": "sweep_rates", "kind": "sweep_rates",
        "argv": ["sweep", "--sweep.param", "trajectory.alpha",
                 "--sweep.start", _num(a_lo), "--sweep.stop", _num(a_hi),
                 "--sweep.count", str(n), "--sweep.quantity", "rates",
                 "--detector.omega0", _num(w0)],
        "start": a_lo, "stop": a_hi, "count": n, "omega0": w0,
    })

    a_lo, a_hi, w0 = rng.uniform(0.4, 0.6), rng.uniform(2.8, 3.2), rng.uniform(0.5, 2.0)
    ops.append({
        "name": "sweep_response", "kind": "sweep_response",
        "argv": ["sweep", "--sweep.param", "trajectory.alpha",
                 "--sweep.start", _num(a_lo), "--sweep.stop", _num(a_hi),
                 "--sweep.count", str(n), "--sweep.quantity", "response",
                 "--detector.omega0", _num(w0)],
        "start": a_lo, "stop": a_hi, "count": n, "omega0": w0,
    })

    u, a_lo, a_hi = rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.2), rng.uniform(4.5, 5.5)
    ops.append({
        "name": "kernel_alpha_cold", "kind": "kernel",
        "argv": ["kernel", "--thermal.beta", "inf", "--kernel.u", _num(u),
                 "--kernel.sweep.param", "alpha",
                 "--kernel.sweep.start", _num(a_lo), "--kernel.sweep.stop", _num(a_hi),
                 "--kernel.sweep.count", str(m)],
        "param": "alpha", "u": u, "beta": math.inf,
        "start": a_lo, "stop": a_hi, "count": m,
    })

    u, alpha = rng.uniform(0.5, 2.0), rng.uniform(0.5, 3.0)
    b_lo, b_hi = rng.uniform(0.4, 0.6), rng.uniform(4.5, 5.5)
    ops.append({
        "name": "kernel_beta", "kind": "kernel",
        "argv": ["kernel", "--trajectory.alpha", _num(alpha), "--kernel.u", _num(u),
                 "--kernel.sweep.param", "beta",
                 "--kernel.sweep.start", _num(b_lo), "--kernel.sweep.stop", _num(b_hi),
                 "--kernel.sweep.count", str(m)],
        "param": "beta", "u": u, "alpha": alpha,
        "start": b_lo, "stop": b_hi, "count": m,
    })

    alpha, e_lo, e_hi = rng.uniform(0.5, 3.0), rng.uniform(0.4, 0.6), rng.uniform(4.5, 5.5)
    ops.append({
        "name": "response", "kind": "response",
        "argv": ["response", "--trajectory.alpha", _num(alpha),
                 "--response.deltaE.start", _num(e_lo),
                 "--response.deltaE.stop", _num(e_hi),
                 "--response.deltaE.count", str(m)],
        "alpha": alpha, "start": e_lo, "stop": e_hi, "count": m,
    })
    return ops


def relaxation(seed: int) -> list[dict]:
    """Two step-bound populations runs and one sample/output-bound run."""
    rng = random.Random(seed)
    ops = []
    for name, beta, steps, samples in (
        ("hot", rng.uniform(0.0095, 0.0105), HOT_STEPS, 101),
        ("cold", math.inf, COLD_STEPS, 101),
        ("output", rng.uniform(0.9, 1.1), OUTPUT_STEPS, OUTPUT_SAMPLES),
    ):
        w0 = rng.uniform(0.9, 1.1)
        sp0 = rng.uniform(0.5, 1.0)
        tau_end = _tau_for_steps(w0, beta, steps)
        ops.append({
            "name": name, "kind": "populations",
            "argv": ["populations", "--detector.omega0", _num(w0),
                     "--thermal.beta", _num(beta),
                     "--populations.sigma_plus", _num(sp0),
                     "--populations.tau_end", _num(tau_end),
                     "--populations.samples", str(samples)],
            "omega0": w0, "beta": beta, "sigma_plus": sp0,
            "tau_end": tau_end, "samples": samples,
        })
    return ops


def rate_scan(seed: int) -> list[dict]:
    """The contract point, then one jittered point per cell of a 4 x 4 grid."""
    rng = random.Random(seed)
    (w_lo, w_hi), (a_lo, a_hi) = SCAN_OMEGA0, SCAN_ALPHA
    dw, da = (w_hi - w_lo) / SCAN_CELLS, (a_hi - a_lo) / SCAN_CELLS
    points = [CONTRACT_POINT]
    for i in range(SCAN_CELLS):
        for j in range(SCAN_CELLS):
            points.append((w_lo + (i + rng.random()) * dw, a_lo + (j + rng.random()) * da))
    return [
        {"name": f"point{k}", "kind": "scan", "omega0": w0, "alpha": a,
         "gate_planck": k == 0}
        for k, (w0, a) in enumerate(points)
    ]


WORKLOADS = {
    "cli_defaults": cli_defaults,
    "grid_sweep": grid_sweep,
    "relaxation": relaxation,
    "rate_scan": rate_scan,
}
