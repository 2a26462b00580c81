"""Output checks against the package's own oracles.

Every check parses the values the program printed and compares them with the
library's scalar closed form or oracle at the generated inputs.  A check
raises ``CheckFailed``; any non-finite number in an output fails as well.

Tolerances:
  * CSV rows: 1e-10 relative.  The CLI prints 12 significant digits
    (rounding <= 5e-12 relative); the rest allows a vectorised closed form to
    round differently from the scalar one.
  * populations: every ``defect`` <= 1e-8 (master.EVOLVE_TOL) and
    sigma_plus + sigma_minus = 1 to 1e-9.
  * numeric VF against the closed form and RR across coupling orders:
    1e-3 (acceptance criterion 11); field-side |VF|: 1e-4 (criterion 10, VF
    half); image-sum oracles: 1e-8 (criterion 1).  The Planck oracle is gated
    at 1e-4 only at the contract point (1, 2) of `verify`; elsewhere its
    error is reported, not gated.
"""

from __future__ import annotations

import json
import math

import numpy as np

from unruh_kinetics import fermion as F
from unruh_kinetics import kernels as K
from unruh_kinetics import master as M
from unruh_kinetics import rates as R
from unruh_kinetics import response as RS
from unruh_kinetics.core import AtomState, DetectorParams, OrderingParam

CSV_RTOL = 1e-10
EVOLVE_TOL = 1e-8
SUM_TOL = 1e-9
VF_TOL = 1e-3
RR_ORDER_TOL = 1e-3
FIELD_VF_TOL = 1e-4
IMAGE_SUM_TOL = 1e-8
PLANCK_TOL = 1e-4

PLUS = AtomState.plus()


class CheckFailed(Exception):
    """An operation's output is missing, malformed, non-finite or wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(got, want, rtol: float = CSV_RTOL, atol: float = 1e-300, what: str = "value"):
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    err = np.abs(got - want)
    bad = ~(err <= rtol * np.abs(want) + atol)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise CheckFailed(
            f"{what}: got {got.flat[i]!r}, want {want.flat[i]!r} "
            f"(row {i}, rtol {rtol:g})"
        )


def _cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    """Header and an object array of rows (floats, or bools for flags)."""
    lines = text.splitlines()
    _require(len(lines) >= 2, "output has no data rows")
    header = lines[0].split(",")
    try:
        flat = np.array(",".join(lines[1:]).split(","), dtype=float)
        rows = flat.reshape(len(lines) - 1, len(header))
    except ValueError:
        try:
            rows = np.array([[_cell(c) for c in line.split(",")] for line in lines[1:]],
                            dtype=object)
        except ValueError as exc:
            raise CheckFailed(f"unparsable CSV cell: {exc}") from None
        _require(rows.ndim == 2 and rows.shape[1] == len(header), "ragged CSV rows")
    numeric = [float(x) for x in rows.flat if not isinstance(x, bool)] \
        if rows.dtype == object else rows
    _require(bool(np.all(np.isfinite(numeric))), "non-finite number in output")
    return header, rows


def _columns(text: str, expected: list[str]) -> dict[str, np.ndarray]:
    header, rows = parse_csv(text)
    _require(header == expected, f"header {header}, want {expected}")
    return {name: rows[:, i] for i, name in enumerate(header)}


def _grid(op: dict) -> np.ndarray:
    return np.linspace(op["start"], op["stop"], op["count"])


def _check_grid_column(col, op) -> np.ndarray:
    grid = _grid(op)
    _require(len(col) == len(grid), f"{len(col)} rows, want {len(grid)}")
    _close(col.astype(float), grid, rtol=1e-11, what="grid value")
    return grid


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

def check_steady(op, text):
    c = _columns(text, ["omega0", "beta", "sigma_plus", "sigma_minus", "balance_ratio"])
    w0, beta = op["omega0"], op["beta"]
    st = M.steady_state(w0, beta)
    _close(c["omega0"], [w0], rtol=1e-11, what="omega0")
    _close(c["sigma_plus"], [st.sigma_plus], what="sigma_plus")
    _close(c["sigma_minus"], [st.sigma_minus], what="sigma_minus")
    _close(c["balance_ratio"], [M.detailed_balance_ratio(w0, beta)], what="balance_ratio")


def check_response(op, text):
    c = _columns(text, ["deltaE", "alpha", "rate"])
    grid = _check_grid_column(c["deltaE"], op)
    alpha = op["alpha"]
    _close(c["alpha"], np.full(len(grid), alpha), rtol=1e-11, what="alpha")
    want = [RS.response_accelerated(float(de), alpha).rate for de in grid]
    _close(c["rate"], want, what="rate")


def check_fermion(op, text):
    header, rows = parse_csv(text)
    want_header = ["C", "T_F", "dt", "d_sigma00", "d_sigma11", "energy_rate",
                   "coarse_graining_ratio", "valid"]
    _require(header == want_header and len(rows) == 1, f"unexpected fermion output {header}")
    row = dict(zip(header, rows[0]))
    w0 = op["omega0"]
    rates = F.fermion_rates(F.default_bath(w0, op["beta"]), w0, 1.0)
    d0, d1 = F.fermion_population_rhs((1.0, 0.0), rates)
    for key, want in (("C", rates.C), ("T_F", rates.T_F), ("d_sigma00", d0),
                      ("d_sigma11", d1),
                      ("energy_rate", F.fermion_energy_rate((1.0, 0.0), rates, w0)),
                      ("coarse_graining_ratio", F.coarse_graining_diagnostic(0.01, 1.0))):
        _close([row[key]], [want], what=key)
    _require(row["valid"] is True, "coarse-graining flag should be true")


def check_kernel(op, text):
    c = _columns(text, ["tau_diff", op["param"], "re_g", "im_g"])
    grid = _check_grid_column(c[op["param"]], op)
    u = op["u"]
    _close(c["tau_diff"], np.full(len(grid), u), rtol=1e-11, what="tau_diff")
    if op["param"] == "alpha" and math.isinf(op["beta"]):
        # Unruh correspondence: the T = 0 accelerated kernel is the inertial
        # thermal kernel at beta = 2 pi / alpha.
        want = [complex(K.thermal_image_closed(u, 2.0 * math.pi / float(a))) for a in grid]
    elif op["param"] == "alpha":
        want = [K.g_thermal_accelerated(u, 0.0, op["beta"], float(a)).value for a in grid]
    else:
        want = [K.g_thermal_accelerated(u, 0.0, float(b), op["alpha"]).value for b in grid]
    want = np.asarray(want, dtype=complex)
    got = c["re_g"].astype(float) + 1j * c["im_g"].astype(float)
    _close(got, want, what="kernel")


def check_sweep_steady(op, text):
    c = _columns(text, ["param", "sigma_plus", "sigma_minus"])
    grid = _check_grid_column(c["param"], op)
    st = [M.steady_state(float(w), op["beta"]) for w in grid]
    _close(c["sigma_plus"], [s.sigma_plus for s in st], what="sigma_plus")
    _close(c["sigma_minus"], [s.sigma_minus for s in st], what="sigma_minus")


def check_sweep_rates(op, text):
    c = _columns(text, ["param", "vf", "rr", "total"])
    grid = _check_grid_column(c["param"], op)
    p = DetectorParams(op["omega0"], 1.0)
    reps = [R.atom_total_rate(p, float(a), PLUS) for a in grid]
    _close(c["vf"], [r.vf for r in reps], what="vf")
    _close(c["rr"], [r.rr for r in reps], what="rr")
    _close(c["total"], [r.total for r in reps], what="total")


def check_sweep_response(op, text):
    c = _columns(text, ["param", "rate"])
    grid = _check_grid_column(c["param"], op)
    want = [RS.response_accelerated(op["omega0"], float(a)).rate for a in grid]
    _close(c["rate"], want, what="rate")


_RATES_HEADER = ["vf", "rr", "total", "finite", "lambda", "coupling_order"]


def _rates_row(text, header_want) -> dict:
    header, rows = parse_csv(text)
    _require(header == header_want and len(rows) == 1, f"unexpected rates output {header}")
    return dict(zip(header, rows[0]))


def check_rates(op, text):
    row = _rates_row(text, _RATES_HEADER)
    rep = R.atom_total_rate(DetectorParams(op["omega0"], 1.0), op["alpha"], PLUS,
                            OrderingParam(0.5))
    for key in ("vf", "rr", "total"):
        _close([row[key]], [getattr(rep, key)], what=key)
    _require(row["finite"] is True, "symmetric ordering must give a finite split")


def check_rates_numeric(op, text):
    """n = 0 numeric rates with the field-side rates (--rates.field true)."""
    row = _rates_row(text, _RATES_HEADER + ["vf_field", "rr_field"])
    want = R.atom_vf_rate(DetectorParams(op["omega0"], 1.0), op["alpha"], PLUS)
    _close([row["vf"]], [want], rtol=VF_TOL, what="numeric vf")
    _close([abs(row["vf_field"])], [abs(want)], rtol=FIELD_VF_TOL, what="field vf")
    _close([row["total"]], [row["vf"] + row["rr"]], what="vf + rr")
    _require(row["finite"] is True and row["coupling_order"] == 0,
             "numeric n = 0 rates must be finite at coupling order 0")


def check_populations(op, text):
    c = _columns(text, ["tau", "sigma_plus_numeric", "sigma_plus_closed",
                        "sigma_minus_numeric", "sigma_minus_closed", "defect"])
    tau = c["tau"]
    _require(len(tau) == op["samples"], f"{len(tau)} samples, want {op['samples']}")
    _require(tau[0] == 0.0 and bool(np.all(np.diff(tau) > 0)), "tau grid not increasing from 0")
    _close(tau[-1:], [op["tau_end"]], rtol=1e-11, what="final tau")
    _require(float(np.max(c["defect"])) <= EVOLVE_TOL,
             f"defect {np.max(c['defect']):.3e} > {EVOLVE_TOL:g}")
    for kind in ("numeric", "closed"):
        total = c[f"sigma_plus_{kind}"] + c[f"sigma_minus_{kind}"]
        _require(float(np.max(np.abs(total - 1.0))) <= SUM_TOL,
                 f"sigma_plus + sigma_minus off 1 by {np.max(np.abs(total - 1.0)):.3e}")
    init = M.PopulationState(op["sigma_plus"], 1.0 - op["sigma_plus"])
    w0, beta = op["omega0"], op["beta"]
    ref = np.array([M.closed_form(init, w0, beta, float(t)).sigma_plus for t in tau])
    _close(c["sigma_plus_closed"], ref, rtol=0.0, atol=1e-10, what="closed form")
    _close(c["sigma_plus_numeric"], ref, rtol=0.0, atol=EVOLVE_TOL, what="RK4 vs closed form")


def check_verify(op, text):
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"verify output is not JSON: {exc}") from None
    checks = report.get("checks", [])
    _require(report.get("total", 0) >= 1 and report.get("passed") == report.get("total"),
             f"verify passed {report.get('passed')} of {report.get('total')}")
    for entry in checks:
        _require(entry.get("status") == "pass", f"verify check {entry.get('check')} failed")
        for key in ("error", "tol"):
            _require(isinstance(entry.get(key), (int, float))
                     and math.isfinite(entry[key]), f"verify {key} not finite")


CLI_CHECKS = {
    "steady": check_steady,
    "response": check_response,
    "fermion": check_fermion,
    "kernel": check_kernel,
    "sweep_steady": check_sweep_steady,
    "sweep_rates": check_sweep_rates,
    "sweep_response": check_sweep_response,
    "rates": check_rates,
    "rates_numeric": check_rates_numeric,
    "populations": check_populations,
    "verify": check_verify,
}


def check_cli(op: dict, returncode: int, stdout: str, stderr: str) -> None:
    """Raise CheckFailed unless the command exited 0 and printed the right values."""
    _require(returncode == 0, f"exit code {returncode}: {stderr.strip()[-300:]}")
    _require("Traceback" not in stderr, f"traceback on stderr: {stderr.strip()[-300:]}")
    CLI_CHECKS[op["kind"]](op, stdout)


# ---------------------------------------------------------------------------
# rate scan
# ---------------------------------------------------------------------------

def check_scan(op: dict, values: dict) -> dict:
    """Check one rate-scan point; return its measured accuracies."""
    nums = [v for v in values.values() if isinstance(v, float)]
    _require(len(nums) == len(values) and all(math.isfinite(v) for v in nums),
             "non-finite or missing number in rate-scan output")
    w0, alpha = op["omega0"], op["alpha"]
    p = DetectorParams(w0, 1.0)
    vf_closed = R.atom_vf_rate(p, alpha, PLUS)
    vf_err = 0.0
    for n in (0, 1, 2):
        vf, rr, total = values[f"vf{n}"], values[f"rr{n}"], values[f"total{n}"]
        vf_err = max(vf_err, abs(vf - vf_closed) / abs(vf_closed))
        _close([rr], [values["rr0"]], rtol=RR_ORDER_TOL, what=f"rr at n={n} vs n=0")
        _close([total], [vf + rr], rtol=1e-12, atol=1e-300, what=f"vf + rr at n={n}")
    _require(vf_err <= VF_TOL, f"numeric vf off the closed form by {vf_err:.3e}")
    _close([abs(values["vf_field"])], [abs(vf_closed)], rtol=FIELD_VF_TOL, what="field vf")

    u, beta = 1.0 / w0, 2.0 * math.pi / alpha
    _close([complex(values["thermal_sum_re"], values["thermal_sum_im"])],
           [complex(K.thermal_image_closed(u, beta))], rtol=IMAGE_SUM_TOL,
           what="thermal_image_sum")
    _close([complex(values["accel_sum_re"], values["accel_sum_im"])],
           [K.wightman_vacuum_accelerated(u, alpha).value], rtol=IMAGE_SUM_TOL,
           what="wightman_vacuum_accelerated_sum")
    _close([complex(values["inertial_sum_re"], values["inertial_sum_im"])],
           [K.g_thermal_inertial(u, beta, 0.5).value], rtol=IMAGE_SUM_TOL,
           what="g_thermal_inertial_sum")

    closed = RS.response_accelerated(w0, alpha).rate
    planck_err = abs(values["planck"] - closed) / closed if closed > 0 else math.inf
    if op["gate_planck"]:
        _require(planck_err <= PLANCK_TOL,
                 f"Planck oracle off by {planck_err:.3e} at the contract point")
    return {"vf_rel_err": vf_err, "planck_rel_err": planck_err}
