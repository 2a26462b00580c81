"""Command-line front end.

One JSON config document drives every subcommand; any field can be overridden
on the command line by its dotted name (e.g. --detector.omega0 2.0).  Output
is deterministic CSV or JSON.  Every float cell of a CSV table is exactly
CPython's "%.11e" of it (12 significant digits).  A table of Python floats,
one row or a small linear grid, is formatted cell by cell; for a larger one
numpy computes the digits, and CPython formats the cells near a rounding tie,
the non-finite ones and those of magnitude below 1e-99 or from 1e99 on.

Exit codes: 0 success, 1 domain or usage error, 2 numeric non-convergence
(a NaN or inf in the output table or a float overflow included), 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

# numpy and the modules of the physics are imported in the commands that run
# them, so that a process loads only what its command needs: steady, fermion,
# the closed-form rates and a small linear grid never import numpy.
from .core import (
    AtomState,
    DetectorParams,
    DomainError,
    NonConvergence,
    OrderingParam,
    linspace,
    require_all,
    validate,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    import numpy as np

__all__ = ["main", "DEFAULT_CONFIG"]

# Every field by its dotted name, the name its flag, sweep.param and the
# error messages use, as {name: (default, *kinds)}, with the kinds in the
# order its error message names them.  A quoted kind other than 'inf' is the
# one string it names: a string field lists its values.  A config document
# may nest these names as objects.
_FIELDS = {
    "detector.omega0": (1.0, "a number"),
    "detector.mu": (1.0, "a number"),
    "thermal.beta": (1.0, "a number", "'inf'"),
    "trajectory.alpha": (1.0, "a number"),
    "output.format": ("csv", "'csv'", "'json'"),
    "output.path": (None, "a string", "null"),
    "kernel.u": (1.0, "a number"),
    "kernel.sweep.param": ("alpha", "'alpha'", "'beta'"),
    "kernel.sweep.start": (0.1, "a number"),
    "kernel.sweep.stop": (5.0, "a number"),
    "kernel.sweep.count": (50, "an integer"),
    "kernel.sweep.scale": ("linear", "'linear'", "'log'"),
    "populations.sigma_plus": (1.0, "a number"),
    "populations.tau_end": (100.0, "a number"),
    "populations.samples": (101, "an integer"),
    "rates.atom": ("plus", "'plus'", "'minus'", "a number"),  # or <R3>
    "rates.lam": (0.5, "a number"),
    "rates.n": (0, "an integer"),
    "rates.numeric": (False, "a boolean"),
    "rates.field": (False, "a boolean"),
    "response.deltaE.start": (0.5, "a number"),
    "response.deltaE.stop": (5.0, "a number"),
    "response.deltaE.count": (10, "an integer"),
    "response.deltaE.scale": ("linear", "'linear'", "'log'"),
    "fermion.spectrum": (None, "a string", "null"),
    "fermion.dt": (1.0, "a number"),
    "fermion.init": ([1.0, 0.0], "a list of numbers"),
    "fermion.v_typ": (0.01, "a number"),
    "fermion.tau_c": (1.0, "a number"),
    "sweep.param": ("detector.omega0", "a number field outside sweep"),
    "sweep.start": (0.5, "a number"),
    "sweep.stop": (2.0, "a number"),
    "sweep.count": (4, "an integer"),
    "sweep.scale": ("linear", "'linear'", "'log'"),
    "sweep.quantity": ("steady", "'steady'", "'rates'", "'response'"),
}
DEFAULT_CONFIG: dict = {name: default for name, (default, *_) in _FIELDS.items()}


# The range (low, high) of every integer field.  kernel and response evaluate
# a whole grid as arrays at once (10^6 rows are ~50 MB of CSV); rates.n is a
# derivative-coupling order, of which the rates module has 0..2.
MAX_COUNT = 1_000_000
_INT_RANGES = {
    "kernel.sweep.count": (1, MAX_COUNT),
    "response.deltaE.count": (1, MAX_COUNT),
    "sweep.count": (1, MAX_COUNT),
    "populations.samples": (1, MAX_COUNT),
    "rates.n": (0, 2),
}
# A linear grid of at most SMALL_GRID points is a list of Python floats,
# which response and sweep evaluate point by point with math, in less time
# than numpy takes to import: the closed-form rates, the slowest at ~25 us a
# point, break even near 3000 points.
SMALL_GRID = 1000


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _coerce(text: str):
    try:
        return json.loads(text)
    except ValueError:  # not JSON, or an int of more digits than int() takes
        return text


def _set(config: dict, name: str, value) -> None:
    """Set the field name to value as given (_check_types checks it), or,
    for an object value, each of its members as name.member."""
    if name in _FIELDS:
        config[name] = value
    elif isinstance(value, dict):
        for key, val in value.items():
            _set(config, f"{name}.{key}", val)
    elif any(field.startswith(name + ".") for field in _FIELDS):
        raise DomainError(f"config section '{name}' must be an object")
    else:
        raise DomainError(f"unknown config field '{name}'")


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSON, UTF-8 or int() digit-limit errors
            raise DomainError(f"{path} is not valid JSON: {exc}") from None


def load_config(path: str | None, overrides: list[str], flags=None) -> dict:
    """The checked config: the document at path, then the overrides, then
    the flags' {dotted name: value} taken verbatim where not None."""
    config = dict(DEFAULT_CONFIG)
    if path is not None:
        doc = _read_json(path)
        if not isinstance(doc, dict):
            raise DomainError(f"config {path} must be a JSON object")
        for key, val in doc.items():
            _set(config, key, val)
    i = 0
    while i < len(overrides):
        arg = overrides[i]
        if not arg.startswith("--"):
            raise DomainError(f"unrecognized argument '{arg}'")
        if "=" in arg:
            name, _, raw = arg[2:].partition("=")
        else:
            if i + 1 >= len(overrides):
                raise DomainError(f"override '{arg}' is missing a value")
            name, raw = arg[2:], overrides[i + 1]
            i += 1
        _set(config, name, _coerce(raw))
        i += 1
    for name, value in (flags or {}).items():
        if value is not None:
            _set(config, name, value)
    _check_types(config)
    for name, (low, high) in _INT_RANGES.items():
        value = config[name]
        if value < low:
            raise DomainError(f"{name} must be >= {low}, got {value}")
        if value > high:
            raise DomainError(f"{name} must be <= {high}, got {value}")
    return config


def _is_number(x) -> bool:
    """A float, or an int (not a bool) no larger than the largest float."""
    return isinstance(x, float) or type(x) is int and abs(x) <= sys.float_info.max


_INF_WORDS = ("inf", "+inf", "infinity")
# What a field of each kind accepts, keyed by the kind's description.
_KINDS = {
    "a number": _is_number,
    "an integer": lambda x: type(x) is int or _is_number(x) and x % 1 == 0,
    "a boolean": lambda x: isinstance(x, bool),
    "a string": lambda x: isinstance(x, str),
    "a list of numbers": lambda x: (
        isinstance(x, list) and all(map(_is_number, x))
    ),
    "null": lambda x: x is None,
    "'inf'": lambda x: isinstance(x, str) and x.lower() in _INF_WORDS,
    "a number field outside sweep": lambda x: isinstance(x, str) and x in _SWEEPABLE,
}
_SWEEPABLE = frozenset(
    name for name, (_, *kinds) in _FIELDS.items()
    if "a number" in kinds and not name.startswith("sweep.")
)


def _is_kind(kind: str, value) -> bool:
    test = _KINDS.get(kind)
    return test(value) if test else value == kind.strip("'")


def _check_types(config: dict) -> None:
    """Check each field of config against its kinds, in place.

    'inf' becomes math.inf, a number a float, an integral float in an
    integer field an int and a list a copy, so no config shares
    DEFAULT_CONFIG's lists.
    """
    for name, (_, *kinds) in _FIELDS.items():
        value = config[name]
        kind = next((k for k in kinds if _is_kind(k, value)), None)
        if kind is None:
            raise DomainError(
                f"{name} must be {' or '.join(kinds)}, got {value!r}"
            )
        if kind == "'inf'":
            config[name] = math.inf
        elif kind == "a number":
            config[name] = float(value)
        elif kind == "an integer":
            config[name] = int(value)
        elif kind == "a list of numbers":
            config[name] = list(value)


def _grid(config: dict, prefix: str) -> list[float] | np.ndarray:
    """The grid of the fields prefix.start, .stop, .count and .scale: a list
    if it is linear and of at most SMALL_GRID points, else an array."""
    start, stop = config[f"{prefix}.start"], config[f"{prefix}.stop"]
    count = config[f"{prefix}.count"]
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise DomainError(f"grid ends must be finite, got {start} and {stop}")
    if not math.isfinite(stop - start):  # linspace would overflow and warn
        raise DomainError(f"grid span stop - start overflows, got {start} and {stop}")
    linear = config[f"{prefix}.scale"] == "linear"
    if linear and count <= SMALL_GRID:
        return linspace(start, stop, count)
    if not linear and min(start, stop) <= 0:
        raise DomainError(f"log grid ends must be > 0, got {start} and {stop}")
    import numpy as np

    return (np.linspace if linear else np.geomspace)(start, stop, count)


def _atom(name) -> AtomState:
    """The state rates.atom names: plus, minus or <R3> (an array in a sweep)."""
    named = {"plus": 0.5, "minus": -0.5}
    return AtomState(named[name] if isinstance(name, str) else name)


def _numeric(config: dict) -> bool:
    """Whether the rates section's energy rates run the numeric pipeline:
    if rates.numeric asks for it, or for a derivative coupling (n > 0)."""
    return config["rates.numeric"] or config["rates.n"] > 0


def _energy_rates(config: dict, detector: DetectorParams, alpha: float, field=False):
    """The rates section's energy rates: closed form unless _numeric, else
    the numeric pipeline, which has only the symmetric ordering.  field asks
    for the pipeline's field side, (vf_field, rr_field)."""
    from . import rates as R

    lam = OrderingParam(config["rates.lam"])
    atom = _atom(config["rates.atom"])
    if not (field or _numeric(config)):
        return R.atom_total_rate(detector, alpha, atom, lam)
    if not lam.is_symmetric:
        raise DomainError(f"numeric rates need rates.lam 0.5, got {lam.lam}")
    if field:
        return R.field_rates(detector, alpha, atom)
    return R.derivative_coupling_rates(detector, alpha, atom, config["rates.n"])


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return f"{x:.11e}"
    return str(x)


# What a table command returns to main: its header, its rows (a list of
# rows or a 2-D float array) and any warnings, which main prints to stderr
# only once the table is written.
Table = tuple


def _write(text: str, config: dict) -> None:
    path = config["output.path"]
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv_rows(rows) -> str:
    """CSV lines, every float cell exactly "%.11e" % cell.  A list of rows is
    formatted cell by cell (its None, bool and int cells included); a 2-D
    float array by the vectorised formatter."""
    if isinstance(rows, list):
        return "".join(",".join(map(_fmt, row)) + "\n" for row in rows)
    from . import csvformat

    return csvformat.csv_lines(rows)


def _non_finite(rows) -> str | None:
    """'a NaN' or 'an inf' if a float cell holds one, else None; a list of
    rows is checked cell by cell, as _csv_rows formats it."""
    if isinstance(rows, list):
        cells = [x for row in rows for x in row if isinstance(x, float)]
        tests = (("a NaN", math.isnan), ("an inf", math.isinf))
        return next((what for what, test in tests if any(map(test, cells))), None)
    import numpy as np

    table = np.asarray(rows, dtype=float)
    if np.isfinite(table).all():
        return None
    return "a NaN" if np.isnan(table).any() else "an inf"


def emit(header: list[str], rows, config: dict) -> None:
    """Write rows (a list of rows or a 2-D float array) as CSV or JSON."""
    if config["output.format"] == "csv":
        text = ",".join(header) + "\n" + _csv_rows(rows)
    else:
        records = [dict(zip(header, row)) for row in rows]
        text = json.dumps(records, sort_keys=True, indent=2) + "\n"
    _write(text, config)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_kernel(config: dict) -> Table:
    import numpy as np

    from . import kernels as K

    _, beta, alpha = validate(config)
    u = config["kernel.u"]
    param = config["kernel.sweep.param"]
    values = np.asarray(_grid(config, "kernel.sweep"))
    if param == "alpha":
        g = K.g_thermal_accelerated(u, 0.0, beta, values).value
    else:
        g = K.g_thermal_accelerated(u, 0.0, values, alpha).value
    table = np.column_stack([np.full(len(values), u), values, g.real, g.imag])
    return ["tau_diff", param, "re_g", "im_g"], table


def cmd_populations(config: dict) -> Table:
    import numpy as np

    from . import master as M

    detector, beta, _ = validate(config)
    sp = config["populations.sigma_plus"]
    init = M.PopulationState(sp, 1.0 - sp)
    w0 = detector.omega0
    traj = M.evolve(init, w0, beta, config["populations.tau_end"],
                    samples=config["populations.samples"])
    num = traj.sigma_plus
    ref = M.closed_form(init, w0, beta, traj.taus)
    table = np.column_stack([
        traj.taus, num, ref.sigma_plus, 1.0 - num, ref.sigma_minus,
        np.abs(num - ref.sigma_plus),
    ])
    header = ["tau", "sigma_plus_numeric", "sigma_plus_closed", "sigma_minus_numeric",
              "sigma_minus_closed", "defect"]
    return header, table


def cmd_steady(config: dict) -> Table:
    from . import master as M

    detector, beta, _ = validate(config)
    w0 = detector.omega0
    st = M.steady_state(w0, beta)
    # beta = inf is written as the token the config reads (JSON has no inf)
    rows = [[
        w0, "inf" if beta == math.inf else beta, st.sigma_plus, st.sigma_minus,
        M.detailed_balance_ratio(w0, beta),
    ]]
    return ["omega0", "beta", "sigma_plus", "sigma_minus", "balance_ratio"], rows


def cmd_rates(config: dict) -> Table:
    detector, _, alpha = validate(config)
    report = _energy_rates(config, detector, alpha)
    record = {
        "vf": report.vf,
        "rr": report.rr,
        "total": report.total,
        "finite": report.finite,
        "lambda": config["rates.lam"],
        "coupling_order": config["rates.n"],
    }
    if config["rates.field"]:
        field = _energy_rates(config, detector, alpha, field=True)
        record.update(zip(["vf_field", "rr_field"], field))
    return list(record), [list(record.values())]


def cmd_response(config: dict) -> Table:
    from . import response as RS

    _, _, alpha = validate(config)
    grid = _grid(config, "response.deltaE")
    header = ["deltaE", "alpha", "rate"]
    if isinstance(grid, list):
        return header, [[e, alpha, RS.response_accelerated(e, alpha).rate] for e in grid]
    import numpy as np

    rate = RS.response_accelerated(grid, alpha).rate
    return header, np.column_stack([grid, np.full(len(grid), alpha), rate])


def cmd_fermion(config: dict) -> Table:
    from . import fermion as F

    detector, beta, _ = validate(config)
    w0 = detector.omega0
    path, dt = config["fermion.spectrum"], config["fermion.dt"]
    if path is not None:
        modes = _read_json(path)
        try:
            pairs = tuple((m["omega"], m["g"]) for m in modes)
        except (KeyError, TypeError):
            pairs = ((None, None),)
        if not all(_is_number(x) for pair in pairs for x in pair):
            raise DomainError(
                f"spectrum {path} must be a JSON array of "
                '{"omega": <number>, "g": <number>} objects'
            )
        spectrum = F.BathSpectrum(pairs, beta)
    else:
        spectrum = F.default_bath(w0, beta)
    rates = F.fermion_rates(spectrum, w0, dt)
    diag = tuple(config["fermion.init"])
    d0, d1 = F.fermion_population_rhs(diag, rates)
    energy = F.fermion_energy_rate(diag, rates, w0)
    v_typ, tau_c = config["fermion.v_typ"], config["fermion.tau_c"]
    ratio = F.coarse_graining_diagnostic(v_typ, tau_c)
    valid = F.coarse_graining_valid(v_typ, tau_c)
    header = [
        "C", "T_F", "dt", "d_sigma00", "d_sigma11",
        "energy_rate", "coarse_graining_ratio", "valid",
    ]
    table = header, [[rates.C, rates.T_F, dt, d0, d1, energy, ratio, valid]]
    if valid:
        return table
    return *table, (
        f"coarse-graining ratio {ratio} outside the Markov-Born validity regime"
    )


_SWEEP_HEADERS = {
    "steady": ["param", "sigma_plus", "sigma_minus"],
    "rates": ["param", "vf", "rr", "total"],
    "response": ["param", "rate"],
}
# The fields each quantity reads, which sweep.param may name.
_SWEPT_FIELDS = {
    "steady": ("detector.omega0", "thermal.beta"),
    "response": ("detector.omega0", "trajectory.alpha"),
    "rates": ("detector.omega0", "detector.mu", "trajectory.alpha", "rates.lam",
              "rates.atom"),
}


def _columns(point: dict) -> list:
    """The sweep quantity's columns after param at point, which validate
    checks, in one library call (over an array if the swept field is one);
    the rates' [vf, rr, total] are refused where they do not exist."""
    detector, beta, alpha = validate(point)
    quantity = point["sweep.quantity"]
    if quantity == "steady":
        from . import master as M

        st = M.steady_state(detector.omega0, beta)
        return [st.sigma_plus, st.sigma_minus]
    if quantity == "response":
        from . import response as RS

        return [RS.response_accelerated(detector.omega0, alpha).rate]
    rep = _energy_rates(point, detector, alpha)
    if not rep.finite:
        lam = point["rates.lam"]
        require_all(lam == 0.5, lam, "VF and RR exist only at rates.lam 0.5")
    return [rep.vf, rep.rr, rep.total]


def _sweep_rows(config: dict, values: list[float] | np.ndarray) -> list | np.ndarray:
    """The sweep's rows [value, *columns], with param set to each grid value.

    An array is one _columns call, whose columns make a 2-D array.  A list,
    and an array for the numeric pipeline, which is scalar (as
    values.tolist()), is one _columns call per point in grid order, a list
    of rows, so the first point to fail raises its own error.  A check of an
    array names the first element it refuses, which need not be the first
    point to fail, so a failed array call is swept once more as that list;
    if the list passes, the array's error stands.
    """
    param, swept = config["sweep.param"], dict(config)
    if not isinstance(values, list):
        if swept["sweep.quantity"] != "rates" or not _numeric(swept):
            try:
                columns = _columns({**swept, param: values})
            except (DomainError, NonConvergence, OverflowError):
                _sweep_rows(config, values.tolist())
                raise
            import numpy as np

            return np.column_stack(np.broadcast_arrays(values, *columns))
        values = values.tolist()
    rows = []
    for value in values:
        swept[param] = value
        rows.append([value, *_columns(swept)])
    return rows


def cmd_sweep(config: dict) -> Table:
    param, quantity = config["sweep.param"], config["sweep.quantity"]
    fields = _SWEPT_FIELDS[quantity]
    if param not in fields:
        raise DomainError(
            f"sweep.param must be a field sweep.quantity {quantity} reads "
            f"({', '.join(fields)}), got '{param}'"
        )
    return _SWEEP_HEADERS[quantity], _sweep_rows(config, _grid(config, "sweep"))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_checks(config: dict):
    from . import fermion as F
    from . import kernels as K
    from . import master as M
    from . import rates as R
    from . import response as RS

    detector, _, _ = validate(config)

    def worst(pairs):
        """The largest relative error |value - ref| / |ref| of the pairs."""
        return max(abs(value - ref) / abs(ref) for value, ref in pairs)

    def lattice_sum():
        pairs = [(K.thermal_image_sum(u, b), K.thermal_image_closed(u, b))
                 for u, b in [(0.5, 1.0), (1.0, 2.0), (2.0, 4.0)]]
        return worst(pairs), 1e-8

    def accelerated_image_sum():
        pair = (K.wightman_vacuum_accelerated_sum(1.0, 1.0).value,
                K.wightman_vacuum_accelerated(1.0, 1.0).value)
        return worst([pair]), 1e-8

    def inertial_finite_v():
        pair = (K.g_thermal_inertial_sum(1.0, 1.0, 0.5).value,
                K.g_thermal_inertial(1.0, 1.0, 0.5).value)
        return worst([pair]), 1e-8

    def unruh_correspondence():
        pairs = [(K.g_thermal_accelerated(1.0, 0.0, math.inf, a).value,
                  K.thermal_image_closed(1.0, 2.0 * math.pi / a))
                 for a in (0.5, 1.375, 2.25, 3.125, 4.0)]
        return worst(pairs), 1e-14

    def master_oracle():
        init = M.PopulationState(0.9, 0.1)
        errors = []
        for w0, b in [(0.5, 1.0), (1.0, 10.0), (2.0, 0.1)]:
            traj = M.evolve(init, w0, b, 20.0)
            ref = M.closed_form(init, w0, b, traj.taus[-1])
            errors.append(abs(traj.sigma_plus[-1] - ref.sigma_plus))
        return max(errors), 1e-8

    def steady_fixed_point():
        d_plus, _ = M.rate_rhs(M.steady_state(1.0, 1.0), 1.0, 1.0)
        return abs(d_plus), 1e-14

    def planck_bracket_identity():
        pairs = [(R.planck_bracket(w0, a), 1.0 / math.tanh(math.pi * w0 / a))
                 for w0, a in [(1.0, 1.0), (2.0, 0.5), (0.5, 3.0)]]
        return worst(pairs), 1e-12

    def energy_decomposition():
        rep = R.atom_total_rate(detector, 1.0, AtomState.plus())
        return abs(rep.vf + rep.rr - rep.total), 1e-12

    def fermion_limits():
        w0 = detector.omega0
        cold = F.fermion_rates(F.default_bath(w0, math.inf), w0, 1.0)
        # beta w0 fixed, so |T_F / C - 1/2| ~ beta w0 / 4 at every scale
        # capped: at w0 < 1e-306, 1e-6 / w0 is +inf, a zero-temperature bath
        hot_beta = min(1e-6 / w0, 1e300)
        hot = F.fermion_rates(F.default_bath(w0, hot_beta), w0, 1.0)
        err = abs(cold.T_F) + abs(hot.T_F / hot.C - 0.5)
        return err, 1e-4

    def planck_response():
        pair = (RS.planck_response_oracle(1.0, 2.0),
                RS.response_accelerated(1.0, 2.0).rate)
        return worst([pair]), 1e-4

    def response_energy_rate():
        # ground-state total energy rate = mu^2 omega0 F / 4; at (5, 1) it is
        # 5e-14 of VF, which RR cancels
        pairs = [(R.atom_total_rate(DetectorParams(w0), a, AtomState.minus()).total,
                  w0 * RS.response_accelerated(w0, a).rate / 4.0)
                 for w0, a in [(1.0, 1.0), (1.0, 2.0), (0.5, 3.0), (5.0, 1.0)]]
        return worst(pairs), 1e-12

    return [(check.__name__, check) for check in (
        lattice_sum, accelerated_image_sum, inertial_finite_v, unruh_correspondence,
        master_oracle, steady_fixed_point, planck_bracket_identity,
        energy_decomposition, fermion_limits, planck_response, response_energy_rate,
    )]


def _overflowed(exc: OverflowError) -> str:
    """The error's text, not the (errno, text) tuple that str() gives for a
    float power."""
    return f"overflowed a float: {exc.args[-1] if exc.args else exc}"


def cmd_verify(config: dict) -> int:
    results = []
    nonconverged = False
    for name, check in _verify_checks(config):
        try:
            error, tol = check()
            status = "pass" if error <= tol else "fail"
            results.append(
                {"check": name, "status": status, "error": error, "tol": tol}
            )
        except (NonConvergence, OverflowError) as exc:
            nonconverged = True
            detail = _overflowed(exc) if isinstance(exc, OverflowError) else str(exc)
            results.append(
                {"check": name, "status": "nonconvergence",
                 "error": None, "tol": None, "detail": detail}
            )
    report = {
        "checks": results,
        "passed": sum(r["status"] == "pass" for r in results),
        "total": len(results),
    }
    _write(json.dumps(report, sort_keys=True, indent=2) + "\n", config)
    if nonconverged:
        return 2
    return 0 if report["passed"] == report["total"] else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "kernel": cmd_kernel,
    "populations": cmd_populations,
    "steady": cmd_steady,
    "rates": cmd_rates,
    "response": cmd_response,
    "fermion": cmd_fermion,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error: exit 1, one line
        raise DomainError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="unruh-kinetics",
        allow_abbrev=False,
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", default=None, help="csv (default) or json")
    try:
        args, overrides = parser.parse_known_args(argv)
        config = load_config(args.config, overrides, {
            "output.path": args.out, "output.format": args.format,
        })
        result = _COMMANDS[args.command](config)
        if args.command == "verify":  # its exit code is its checks' verdict
            return result
        header, rows, *warnings = result
        bad = _non_finite(rows)
        if bad:
            raise NonConvergence(f"{args.command} computed {bad}")
        emit(header, rows, config)
        for text in warnings:
            print(f"warning: {text}", file=sys.stderr)
        return 0
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonConvergence as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"numeric failure: {args.command} {_overflowed(exc)}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
