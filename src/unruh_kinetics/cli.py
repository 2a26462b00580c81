"""Command-line front end.

One JSON config document drives every subcommand; any field can be overridden
on the command line by its dotted name (e.g. --detector.omega0 2.0).  Output
is deterministic CSV or JSON.  Every float cell of a CSV table is exactly
CPython's "%.11e" of it (12 significant digits).  For a table of more than
one row, numpy computes the digits, and CPython formats the cells near a
rounding tie, the non-finite ones and those of magnitude below 1e-11 or from
1e34 on.

Exit codes: 0 success, 1 domain or usage error, 2 numeric non-convergence
(a NaN or inf in the output table or a float overflow included), 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import fermion as F
from . import kernels as K
from . import master as M
from . import rates as R
from . import response as RS
from .core import (
    AtomState,
    DetectorParams,
    DomainError,
    NonConvergence,
    OrderingParam,
    require_all,
    validate,
)

__all__ = ["main", "DEFAULT_CONFIG"]

# Every field by its dotted name, the name its flag, sweep.param and the
# error messages use.  A config document may nest these names as objects.
DEFAULT_CONFIG: dict = {
    "detector.omega0": 1.0,
    "detector.mu": 1.0,
    "thermal.beta": 1.0,
    "trajectory.alpha": 1.0,
    "output.format": "csv",
    "output.path": None,
    "kernel.u": 1.0,
    "kernel.sweep.param": "alpha",
    "kernel.sweep.start": 0.1,
    "kernel.sweep.stop": 5.0,
    "kernel.sweep.count": 50,
    "kernel.sweep.scale": "linear",
    "populations.sigma_plus": 1.0,
    "populations.tau_end": 100.0,
    "populations.samples": 101,
    "rates.atom": "plus",
    "rates.lam": 0.5,
    "rates.n": 0,
    "rates.numeric": False,
    "rates.field": False,
    "response.deltaE.start": 0.5,
    "response.deltaE.stop": 5.0,
    "response.deltaE.count": 10,
    "response.deltaE.scale": "linear",
    "fermion.spectrum": None,
    "fermion.dt": 1.0,
    "fermion.init": [1.0, 0.0],
    "fermion.v_typ": 0.01,
    "fermion.tau_c": 1.0,
    "sweep.param": "detector.omega0",
    "sweep.start": 0.5,
    "sweep.stop": 2.0,
    "sweep.count": 4,
    "sweep.scale": "linear",
    "sweep.quantity": "steady",
}


# Upper limit of every size field, each also at least 1.  kernel and response
# evaluate a whole grid as arrays at once (10^6 rows are ~50 MB of CSV).
MAX_COUNT = 1_000_000
_SIZE_LIMITS = {
    "kernel.sweep.count": MAX_COUNT,
    "response.deltaE.count": MAX_COUNT,
    "sweep.count": MAX_COUNT,
    "populations.samples": MAX_COUNT,
}


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _coerce(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
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
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
    for name, limit in _SIZE_LIMITS.items():
        size = config[name]
        if size < 1:
            raise DomainError(f"{name} must be >= 1, got {size}")
        if size > limit:
            raise DomainError(f"{name} must be <= {limit}, got {size}")
    return config


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_INF_WORDS = ("inf", "+inf", "infinity")
# What a field of each kind accepts, keyed by the kind's description.
_KINDS = {
    "a number": _is_number,
    "an integer": lambda x: _is_number(x) and x % 1 == 0,
    "a boolean": lambda x: isinstance(x, bool),
    "a string": lambda x: isinstance(x, str),
    "a list of numbers": lambda x: (
        isinstance(x, list) and all(map(_is_number, x))
    ),
    "null": lambda x: x is None,
    "'inf'": lambda x: isinstance(x, str) and x.lower() in _INF_WORDS,
    "a number field outside sweep": lambda x: isinstance(x, str) and x in _SWEEPABLE,
}
_KIND_OF_DEFAULT = {
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    list: "a list of numbers",
}
_SCALES = ("'linear'", "'log'")
# Fields of no default type, or of more than one kind.  A quoted kind other
# than 'inf' is the one string it names: a string field lists its values.
_FIELD_KINDS = {
    "thermal.beta": ("a number", "'inf'"),
    "output.format": ("'csv'", "'json'"),
    "output.path": ("a string", "null"),
    "kernel.sweep.param": ("'alpha'", "'beta'"),
    "kernel.sweep.scale": _SCALES,
    "rates.atom": ("'plus'", "'minus'", "a number"),  # or <R3>
    "response.deltaE.scale": _SCALES,
    "fermion.spectrum": ("a string", "null"),
    "sweep.param": ("a number field outside sweep",),
    "sweep.scale": _SCALES,
    "sweep.quantity": ("'steady'", "'rates'", "'response'"),
}


# {dotted name: kinds} of every field, in DEFAULT_CONFIG's order.
_FIELDS = {
    name: _FIELD_KINDS.get(name) or (_KIND_OF_DEFAULT[type(default)],)
    for name, default in DEFAULT_CONFIG.items()
}
_SWEEPABLE = frozenset(
    name for name, kinds in _FIELDS.items()
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
    for name, kinds in _FIELDS.items():
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


def _grid(config: dict, prefix: str) -> np.ndarray:
    """The grid of the fields prefix.start, .stop, .count and .scale."""
    start, stop = config[f"{prefix}.start"], config[f"{prefix}.stop"]
    count = config[f"{prefix}.count"]
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise DomainError(f"grid ends must be finite, got {start} and {stop}")
    if config[f"{prefix}.scale"] == "linear":
        return np.linspace(start, stop, count)
    if min(start, stop) <= 0:
        raise DomainError(f"log grid ends must be > 0, got {start} and {stop}")
    return np.geomspace(start, stop, count)


def _atom(name) -> AtomState:
    """The state rates.atom names: plus, minus or <R3> (an array in a sweep)."""
    named = {"plus": 0.5, "minus": -0.5}
    return AtomState(named[name] if isinstance(name, str) else name)


def _energy_rates(config: dict, detector: DetectorParams, alpha: float):
    """The rates section's energy rates: closed form at n = 0, else (or if
    numeric) the numeric pipeline, which has only the symmetric ordering."""
    lam = OrderingParam(config["rates.lam"])
    atom = _atom(config["rates.atom"])
    n = config["rates.n"]
    if not (config["rates.numeric"] or n > 0):
        return R.atom_total_rate(detector, alpha, atom, lam)
    if not lam.is_symmetric:
        raise DomainError(f"numeric rates need rates.lam 0.5, got {lam.lam}")
    return R.derivative_coupling_rates(detector, alpha, atom, n)


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


# The multi-row formatter.  Each float cell gets a 20-byte slot of five
# uint32 words, "[-]d.d" | dddd | dddd | "dde" | "+dd" and its "," or "\n";
# zero bytes (an absent "-", the pad after "e") are dropped at the end.  The
# words come from tables of their ASCII bytes, built here with numpy
# arithmetic.
def _words(cells) -> np.ndarray:
    """The rows of an (n, 4) byte array as n native uint32 words."""
    return np.ascontiguousarray(cells, dtype=np.uint8).view(np.uint32).ravel()


# "00" .. "99"
_DIGITS_2 = np.column_stack(np.divmod(np.arange(100, dtype=np.uint8), 10)) + 48
_E_MIN, _E_MAX = -11, 33  # the decimal exponents the vector path takes
_EXPONENTS = np.arange(_E_MIN, _E_MAX + 2)  # + 1 for a round-up to 10^12
# Index 100 * negative + the first two digits.
_LEAD_WORDS = _words(np.column_stack([
    np.repeat([0, 45], 100), np.tile(_DIGITS_2[:, 0], 2), np.full(200, 46),
    np.tile(_DIGITS_2[:, 1], 2),
]))
_QUAD_WORDS = _words(np.column_stack([
    np.repeat(_DIGITS_2, 100, axis=0), np.tile(_DIGITS_2, (100, 1)),
]))
_TAIL_WORDS = _words(
    np.column_stack([_DIGITS_2, np.full(100, 101), np.zeros(100, int)])
)
# Index exponent - _E_MIN, + len(_EXPONENTS) in a row's last column.
_EXP_WORDS = _words(np.column_stack([
    np.tile(np.where(_EXPONENTS < 0, 45, 43), 2),
    np.tile(_DIGITS_2[np.abs(_EXPONENTS)], (2, 1)),
    np.repeat([44, 10], len(_EXPONENTS)),
]))
# 10^(11 - e) as an exact multiplier (e <= 11) or divisor (e > 11), index
# _E_MAX - e: 10^22 is the largest power of ten a double holds exactly.
_SHIFTS = [11 - e for e in range(_E_MAX, _E_MIN - 1, -1)]
_SCALE_UP = np.array([float(10 ** max(j, 0)) for j in _SHIFTS])
_SCALE_DOWN = np.array([float(10 ** max(-j, 0)) for j in _SHIFTS])
# Cells per chunk, so that the temporaries stay small.
_CHUNK_CELLS = 1 << 14


def _scaled(ax: np.ndarray, e: np.ndarray) -> np.ndarray:
    """ax * 10^(11 - e), one rounding."""
    k = (_E_MAX - e).astype(np.intp)
    return ax * _SCALE_UP[k] / _SCALE_DOWN[k]


def _csv_block(x: np.ndarray, cols: int) -> str:
    """Rows of cols cells each, flattened in x, as "%.11e" CSV lines.

    The 12 digits are r = rint(|x| 10^(11 - e)) with e = floor(log10 |x|),
    taken one lower where the scaled value falls below 10^11 and one higher
    where r rounds up to 10^12.  The scaled value is within half an ulp,
    6.1e-5, of the exact one, so r is the correctly rounded digit string
    wherever it is more than 0.499 from a tie.  CPython formats the cells
    nearer a tie, the non-finite ones and those with e outside
    [_E_MIN, _E_MAX].
    """
    ax = np.abs(x)
    e = np.floor(np.log10(ax))
    e[ax == 0.0] = 0.0
    ec = np.fmax(np.fmin(e, _E_MAX), _E_MIN)  # NaN and +-inf go to an end
    vector = e == ec
    m = _scaled(ax, ec)
    low = np.flatnonzero((m < 1e11) & (m > 0.0))
    if low.size:
        e_low = ec[low] - 1.0
        vector[low] &= e_low >= _E_MIN
        ec[low] = e_low = np.fmax(e_low, _E_MIN)
        m[low] = _scaled(ax[low], e_low)
    r = np.rint(m)
    scalar = ~vector | (np.abs(m - r) >= 0.499) | (r > 1e12)
    up = r == 1e12
    r[up] = 1e11
    ec += up
    r[scalar] = 0.0
    # r = 10^6 hi + lo, hi = 10^4 q0 + q1, lo = 100 q2 + q3; every quotient
    # is exact, as r < 2^53
    hi = np.floor(r / 1e6)
    lo = r - hi * 1e6
    q0 = np.floor(hi / 1e4)
    q2 = np.floor(lo / 1e2)
    slots = np.empty((x.size, 5), np.uint32)
    slots[:, 0] = _LEAD_WORDS[(q0 + 100.0 * np.signbit(x)).astype(np.intp)]
    slots[:, 1] = _QUAD_WORDS[(hi - q0 * 1e4).astype(np.intp)]
    slots[:, 2] = _QUAD_WORDS[q2.astype(np.intp)]
    slots[:, 3] = _TAIL_WORDS[(lo - q2 * 1e2).astype(np.intp)]
    exp_index = (ec - _E_MIN).astype(np.intp).reshape(-1, cols)
    exp_index[:, -1] += len(_EXPONENTS)
    slots[:, 4] = _EXP_WORDS[exp_index.ravel()]
    text = slots.view(np.uint8).reshape(x.size, 20)
    fallback = np.flatnonzero(scalar)
    if fallback.size:  # padded to 19 bytes, the longest "%.11e"
        cells = ("%-19.11e" * fallback.size) % tuple(x[fallback].tolist())
        cells = np.frombuffer(cells.encode("ascii"), np.uint8).reshape(-1, 19)
        text[fallback, :19] = np.where(cells == 32, 0, cells)
    return text.tobytes().replace(b"\0", b"").decode("ascii")


def _csv_rows(rows) -> str:
    """CSV lines, every float cell exactly "%.11e" % cell.  One row is
    formatted cell by cell (its None, bool and int cells included); a longer
    table is read as a 2-D float array and formatted in numpy chunks."""
    if len(rows) == 1:
        return ",".join(map(_fmt, rows[0])) + "\n"
    table = np.ascontiguousarray(rows, dtype=float)
    cols = table.shape[1]
    step = max(1, _CHUNK_CELLS // cols)
    with np.errstate(all="ignore"):
        return "".join([
            _csv_block(table[i:i + step].ravel(), cols)
            for i in range(0, len(table), step)
        ])


# Columns that echo an input and so may hold inf: steady's beta (inf is
# zero temperature).
_ECHO_COLUMNS = {"steady": ("beta",)}


def _non_finite(header: list[str], rows, echo) -> str | None:
    """'a NaN' or 'an inf' if a cell outside the echo columns holds one, else
    None; the table is split as _csv_rows splits it."""
    first = np.array([x if isinstance(x, float) else 0.0 for x in rows[0]])
    table = np.asarray(rows[1:], dtype=float).reshape(-1, len(header))
    if np.isfinite(first).all() and np.isfinite(table).all():
        return None
    checked = np.array([name not in echo for name in header])
    for what, test in (("a NaN", np.isnan), ("an inf", np.isinf)):
        if (checked & (test(first) | test(table).any(axis=0))).any():
            return what
    return None


def emit(header: list[str], rows, config: dict, echo=()) -> None:
    """Write rows (a list of rows or a 2-D float array) as CSV or JSON.

    JSON has no inf: a non-finite cell of an ``echo`` column is written as
    the string the config reads it from ("inf")."""
    if config["output.format"] == "csv":
        text = ",".join(header) + "\n" + _csv_rows(rows)
    else:
        records = [
            {k: str(v) if k in echo and not math.isfinite(v) else v
             for k, v in zip(header, row)}
            for row in rows
        ]
        text = json.dumps(records, sort_keys=True, indent=2) + "\n"
    _write(text, config)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_kernel(config: dict) -> Table:
    _, beta, alpha = validate(config)
    u = config["kernel.u"]
    param = config["kernel.sweep.param"]
    values = _grid(config, "kernel.sweep")
    if param == "alpha":
        g = K.g_thermal_accelerated(u, 0.0, beta, values).value
    else:
        g = K.g_thermal_accelerated(u, 0.0, values, alpha).value
    table = np.column_stack([np.full(len(values), u), values, g.real, g.imag])
    return ["tau_diff", param, "re_g", "im_g"], table


def cmd_populations(config: dict) -> Table:
    detector, beta, _ = validate(config)
    sp = config["populations.sigma_plus"]
    init = M.PopulationState(sp, 1.0 - sp)
    w0 = detector.omega0
    traj = M.evolve(init, w0, beta, config["populations.tau_end"],
                    samples=config["populations.samples"])
    tau, num = traj.taus, traj.sigma_plus
    # closed_form, vectorised: exact at tau = 0
    sp_inf = M.steady_state(w0, beta).sigma_plus
    decay = np.exp(-M.relaxation_rate(w0, beta) * tau)
    ref = np.where(
        tau == 0.0, init.sigma_plus, sp_inf + (init.sigma_plus - sp_inf) * decay
    )
    table = np.column_stack(
        [tau, num, ref, 1.0 - num, 1.0 - ref, np.abs(num - ref)]
    )
    header = [
        "tau",
        "sigma_plus_numeric",
        "sigma_plus_closed",
        "sigma_minus_numeric",
        "sigma_minus_closed",
        "defect",
    ]
    return header, table


def cmd_steady(config: dict) -> Table:
    detector, beta, _ = validate(config)
    w0 = detector.omega0
    st = M.steady_state(w0, beta)
    rows = [[
        w0, beta, st.sigma_plus, st.sigma_minus,
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
        field = R.field_rates(detector, alpha, _atom(config["rates.atom"]))
        record.update(zip(["vf_field", "rr_field"], field))
    return list(record), [list(record.values())]


def cmd_response(config: dict) -> Table:
    _, _, alpha = validate(config)
    grid = _grid(config, "response.deltaE")
    rate = RS.response_accelerated(grid, alpha).rate
    table = np.column_stack([grid, np.full(len(grid), alpha), rate])
    return ["deltaE", "alpha", "rate"], table


def cmd_fermion(config: dict) -> Table:
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
# The fields each quantity reads, which sweep.param may name: validate's, and
# the ordering and atom state of the rates.
_MODEL_FIELDS = ("detector.omega0", "detector.mu", "thermal.beta", "trajectory.alpha")
_SWEPT_FIELDS = {
    "steady": _MODEL_FIELDS,
    "response": _MODEL_FIELDS,
    "rates": (*_MODEL_FIELDS, "rates.lam", "rates.atom"),
}


def _rate_columns(config: dict, detector: DetectorParams, alpha) -> list:
    """[vf, rr, total] of the rates section, refused where they do not exist."""
    rep = _energy_rates(config, detector, alpha)
    if not rep.finite:
        lam = config["rates.lam"]
        require_all(np.equal(lam, 0.5), lam, "VF and RR exist only at rates.lam 0.5")
    return [rep.vf, rep.rr, rep.total]


def _sweep_columns(config: dict, values: np.ndarray) -> list:
    """The sweep's columns after param, with param set to the grid values.

    One validate checks every point.  response and the closed-form rates are
    one array call each; steady and the numeric rates are evaluated point by
    point, the numeric pipeline being scalar.
    """
    param, quantity = config["sweep.param"], config["sweep.quantity"]
    swept = dict(config)
    swept[param] = values
    detector, _, alpha = validate(swept)
    if quantity == "response":
        return [RS.response_accelerated(detector.omega0, alpha).rate]
    if quantity == "rates" and not (config["rates.numeric"] or config["rates.n"] > 0):
        return _rate_columns(swept, detector, alpha)
    point, rows = dict(config), []
    for value in values.tolist():
        point[param] = value
        w0 = point["detector.omega0"]
        if quantity == "steady":
            st = M.steady_state(w0, point["thermal.beta"])
            rows.append([st.sigma_plus, st.sigma_minus])
        else:
            params = DetectorParams(w0, point["detector.mu"])
            rows.append(_rate_columns(point, params, abs(point["trajectory.alpha"])))
    return list(zip(*rows))


def cmd_sweep(config: dict) -> Table:
    param, quantity = config["sweep.param"], config["sweep.quantity"]
    fields = _SWEPT_FIELDS[quantity]
    if param not in fields:
        raise DomainError(
            f"sweep.param must be a field sweep.quantity {quantity} reads "
            f"({', '.join(fields)}), got '{param}'"
        )
    values = _grid(config, "sweep")
    try:
        columns = _sweep_columns(config, values)
    except (DomainError, NonConvergence, OverflowError):
        # a check of the whole grid names the first element it refuses, which
        # need not be the first point to fail: sweep one point at a time to
        # raise that point's error
        for i in range(len(values)):
            _sweep_columns(config, values[i:i + 1])
        raise
    columns = np.broadcast_arrays(values, *columns)
    return _SWEEP_HEADERS[quantity], np.column_stack(columns)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_checks(config: dict):
    detector, _, _ = validate(config)

    def lattice_sum():
        worst = 0.0
        for u, b in [(0.5, 1.0), (1.0, 2.0), (2.0, 4.0)]:
            s = K.thermal_image_sum(u, b)
            c = K.thermal_image_closed(u, b)
            worst = max(worst, abs(s - c) / abs(c))
        return worst, 1e-8

    def accelerated_image_sum():
        s = K.wightman_vacuum_accelerated_sum(1.0, 1.0)
        c = K.wightman_vacuum_accelerated(1.0, 1.0)
        return abs(s.value - c.value) / abs(c.value), 1e-8

    def inertial_finite_v():
        g = K.g_thermal_inertial(1.0, 1.0, 0.5)
        s = K.g_thermal_inertial_sum(1.0, 1.0, 0.5)
        return abs(g.value - s.value) / abs(g.value), 1e-8

    def unruh_correspondence():
        worst = 0.0
        for alpha in np.linspace(0.5, 4.0, 5):
            ga = K.g_thermal_accelerated(1.0, 0.0, math.inf, float(alpha))
            gi = K.thermal_image_closed(1.0, 2.0 * math.pi / float(alpha))
            worst = max(worst, abs(ga.value - gi) / abs(gi))
        return worst, 1e-14

    def master_oracle():
        init = M.PopulationState(0.9, 0.1)
        worst = 0.0
        for w0, b in [(0.5, 1.0), (1.0, 10.0), (2.0, 0.1)]:
            traj = M.evolve(init, w0, b, 20.0)
            ref = M.closed_form(init, w0, b, traj.taus[-1])
            worst = max(worst, abs(traj.final.sigma_plus - ref.sigma_plus))
        return worst, 1e-8

    def steady_fixed_point():
        d_plus, _ = M.rate_rhs(M.steady_state(1.0, 1.0), 1.0, 1.0)
        return abs(d_plus), 1e-14

    def planck_bracket_identity():
        worst = 0.0
        for w0, a in [(1.0, 1.0), (2.0, 0.5), (0.5, 3.0)]:
            lhs = R.planck_bracket(w0, a)
            rhs = 1.0 / math.tanh(math.pi * w0 / a)
            worst = max(worst, abs(lhs - rhs) / rhs)
        return worst, 1e-12

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
        oracle = RS.planck_response_oracle(1.0, 2.0)
        closed = RS.response_accelerated(1.0, 2.0).rate
        return abs(oracle - closed) / closed, 1e-4

    def response_energy_rate():
        # ground-state total energy rate = mu^2 omega0 F / 4
        worst = 0.0
        for w0, a in [(1.0, 1.0), (1.0, 2.0), (0.5, 3.0)]:
            total = R.atom_total_rate(DetectorParams(w0), a, AtomState.minus()).total
            want = w0 * RS.response_accelerated(w0, a).rate / 4.0
            worst = max(worst, abs(total - want) / want)
        return worst, 1e-12

    return [
        ("lattice_sum", lattice_sum),
        ("accelerated_image_sum", accelerated_image_sum),
        ("inertial_finite_v", inertial_finite_v),
        ("unruh_correspondence", unruh_correspondence),
        ("master_oracle", master_oracle),
        ("steady_fixed_point", steady_fixed_point),
        ("planck_bracket_identity", planck_bracket_identity),
        ("energy_decomposition", energy_decomposition),
        ("fermion_limits", fermion_limits),
        ("planck_response", planck_response),
        ("response_energy_rate", response_energy_rate),
    ]


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
        echo = _ECHO_COLUMNS.get(args.command, ())
        bad = _non_finite(header, rows, echo)
        if bad:
            raise NonConvergence(f"{args.command} computed {bad}")
        emit(header, rows, config, echo)
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
