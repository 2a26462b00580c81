"""CLI subcommands: config handling, output formats, exit codes."""

import copy
import dataclasses
import errno
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from unruh_kinetics import cli, core
from unruh_kinetics import fermion as F
from unruh_kinetics import kernels as K
from unruh_kinetics import master as M
from unruh_kinetics import rates as R
from unruh_kinetics import response as RS
from unruh_kinetics.cli import _INT_RANGES, emit, load_config, main
from unruh_kinetics.core import (
    AtomState,
    DetectorParams,
    DomainError,
    OrderingParam,
    validate,
)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_steady_csv(capsys):
    code, out, _ = run(capsys, "steady", "--thermal.beta", "ln2")
    assert code == 1  # non-numeric override is rejected, not guessed
    code, out, _ = run(capsys, "steady", "--thermal.beta", "0.6931471805599453")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "omega0,beta,sigma_plus,sigma_minus,balance_ratio"
    row = [float(x) for x in lines[1].split(",")]
    assert row[2] == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_csv_formatting_is_scientific_12_digits(capsys):
    code, out, _ = run(capsys, "steady")
    assert code == 0
    value = out.strip().splitlines()[1].split(",")[0]
    mantissa, _, exponent = value.partition("e")
    assert len(mantissa.replace("-", "").replace(".", "")) == 12


def test_kernel_sweep_monotone_at_zero_temperature(capsys):
    code, out, _ = run(
        capsys, "kernel", "--thermal.beta", "inf", "--kernel.sweep.count", "20"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    re_g = [float(r[2]) for r in rows]
    # signed kernel value rises toward zero as acceleration grows
    assert all(b > a for a, b in zip(re_g, re_g[1:]))


def test_kernel_sweep_decreasing_segment_at_finite_temperature(capsys):
    code, out, _ = run(capsys, "kernel", "--kernel.sweep.count", "20")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    re_g = [float(r[2]) for r in rows]
    assert any(b < a for a, b in zip(re_g, re_g[1:]))


def test_populations_defect_column(capsys):
    code, out, _ = run(
        capsys,
        "populations",
        "--populations.tau_end", "30",
        "--populations.samples", "7",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert all(float(r[5]) < 1e-8 for r in rows)


def test_emit_array_rows_match_list_rows(capsys):
    rows = [[0.0, -0.0, 1.5e-300, 123456.789], [math.nan, math.inf, -math.inf, -2.5]]
    config = {"output.format": "csv", "output.path": None}
    emit(["a", "b", "c", "d"], rows, config)
    from_list = capsys.readouterr().out
    emit(["a", "b", "c", "d"], np.array(rows), config)
    assert capsys.readouterr().out == from_list


def test_rates_json_record(capsys):
    code, out, _ = run(capsys, "rates", "--format", "json")
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["finite"] is True
    assert rec["vf"] + rec["rr"] == pytest.approx(rec["total"], abs=1e-15)


def test_rates_divergent_ordering(capsys):
    code, out, _ = run(
        capsys, "rates", "--format", "json", "--rates.lam", "0.3"
    )
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["finite"] is False
    assert rec["vf"] is None and rec["rr"] is None


def test_response_grid(capsys):
    code, out, _ = run(capsys, "response", "--response.deltaE.count", "4")
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_fermion_with_spectrum_file(tmp_path, capsys):
    spec = tmp_path / "modes.json"
    spec.write_text(json.dumps([{"omega": 1.0, "g": 1.0}]))
    code, out, _ = run(
        capsys,
        "fermion",
        "--format", "json",
        "--fermion.spectrum", str(spec),
        "--thermal.beta", "inf",
    )
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["T_F"] == 0.0
    assert rec["C"] == pytest.approx(1.0, rel=1e-9)


def test_fermion_spectrum_refuses_an_infinite_mode_frequency(tmp_path, capsys):
    # inf is positive: the message named half of the positive-and-finite rule
    spec = tmp_path / "modes.json"
    spec.write_text('[{"omega": Infinity, "g": 0.1}]')
    code, out, err = run(capsys, "fermion", "--fermion.spectrum", str(spec))
    assert (code, out) == (1, "")
    assert err == "error: mode frequency must be positive and finite, got inf\n"


def test_fermion_invalid_coarse_graining_warns(capsys):
    code, _, err = run(capsys, "fermion", "--fermion.v_typ", "2.0")
    assert code == 0
    assert "warning" in err


def test_fermion_negative_init_population_is_domain_error(capsys):
    # [2, -1] sums to 1; it printed d_sigma11 = 1.55 with exit 0
    code, out, err = run(capsys, "fermion", "--fermion.init", "[2,-1]")
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: populations must be non-negative, got (2.0, -1.0)"
    ]


def test_failing_fermion_prints_no_warning(tmp_path, capsys):
    # the coarse-graining warning used to precede the one failure line
    spec = tmp_path / "modes.json"
    spec.write_text(json.dumps([{"omega": 1e308, "g": 1e308}]))
    code, out, err = run(capsys, "fermion", "--fermion.spectrum", str(spec),
                         "--fermion.tau_c", "1e300")
    assert code == 2 and out == ""
    assert err.splitlines() == ["numeric failure: fermion computed a NaN"]


def test_sweep_rows_in_grid_order(capsys):
    code, out, _ = run(capsys, "sweep", "--sweep.count", "5")
    assert code == 0
    params = [float(l.split(",")[0]) for l in out.strip().splitlines()[1:]]
    assert params == sorted(params)  # grid order preserved


def test_sweep_leaves_its_config_unchanged():
    config = load_config(None, ["--sweep.quantity", "steady",
                                "--sweep.param", "thermal.beta"])
    before = copy.deepcopy(config)
    defaults = copy.deepcopy(cli.DEFAULT_CONFIG)
    cli.cmd_sweep(config)
    assert config == before and cli.DEFAULT_CONFIG == defaults


def test_a_loaded_config_shares_no_list_with_the_defaults():
    config = load_config(None, [])
    config["fermion.init"].append(2.0)
    assert cli.DEFAULT_CONFIG["fermion.init"] == [1.0, 0.0]
    assert load_config(None, [])["fermion.init"] == [1.0, 0.0]


def test_inertial_response_sweep_is_zero_like_response(capsys):
    inertial = ("--trajectory.alpha", "0")
    code, out, err = run(
        capsys, "sweep", *inertial, "--sweep.quantity", "response"
    )
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [float(r[1]) for r in rows] == [0.0] * 4
    code, out, _ = run(capsys, "response", *inertial)
    assert code == 0
    assert {line.split(",")[2] for line in out.strip().splitlines()[1:]} == {
        rows[0][1]
    }


@pytest.mark.parametrize(
    "quantity, command_args, cells",
    [("response", ["--response.deltaE.start", "1", "--response.deltaE.count",
                   "1"], slice(2, 3)),
     ("rates", [], slice(0, 3))],
)
def test_alpha_sweep_from_zero_starts_on_the_inertial_worldline(
    capsys, quantity, command_args, cells
):
    # a sweep of trajectory.alpha from 0 used to exit 1
    code, out, err = run(capsys, "sweep", "--sweep.quantity", quantity,
                         "--sweep.param", "trajectory.alpha", "--sweep.start", "0")
    assert code == 0 and err == ""
    first = out.splitlines()[1].split(",")
    assert float(first[0]) == 0.0
    code, out, _ = run(capsys, quantity, "--trajectory.alpha", "0", *command_args)
    assert code == 0
    assert out.splitlines()[1].split(",")[cells] == first[1:]


def test_config_file_and_dotted_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"detector": {"omega0": 2.0}}))
    code, out, _ = run(
        capsys, "steady", "--config", str(cfg), "--thermal.beta", "1.0"
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[0]) == 2.0
    assert float(row[4]) == pytest.approx(math.exp(-2.0), rel=1e-10)


def test_unknown_override_is_domain_error(capsys):
    code, _, err = run(capsys, "steady", "--no.such.field", "1")
    assert code == 1
    assert "error" in err


def test_invalid_parameter_exit_code(capsys):
    code, _, _ = run(capsys, "steady", "--thermal.beta", "0")
    assert code == 1


def test_malformed_config_json_is_domain_error(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"detector": {"omega0": 2.0')
    code, _, err = run(capsys, "steady", "--config", str(cfg))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("mode", [{"omega": 1.0}, {"g": 1.0}])
def test_spectrum_mode_missing_key_is_domain_error(tmp_path, capsys, mode):
    spec = tmp_path / "modes.json"
    spec.write_text(json.dumps([mode]))
    code, _, err = run(capsys, "fermion", "--fermion.spectrum", str(spec))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    [
        json.dumps([{"omega": "1", "g": 0.1}]),
        json.dumps([{"omega": 1.0, "g": None}]),
        json.dumps([{"omega": 1.0, "g": True}]),
        json.dumps({"omega": 1.0, "g": 0.1}),
        json.dumps([1.0, 2.0]),
        json.dumps(3),
        b"\xff\xfe[",  # not UTF-8
    ],
)
def test_spectrum_that_is_not_numeric_modes_is_domain_error(tmp_path, capsys, text):
    # a string or null omega / g used to raise TypeError out of main
    spec = tmp_path / "modes.json"
    if isinstance(text, bytes):
        spec.write_bytes(text)
    else:
        spec.write_text(text)
    code, out, err = run(capsys, "fermion", "--fermion.spectrum", str(spec))
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("param", ["sweep.quantity", "sweep.count", "sweep.param"])
def test_sweep_of_a_sweep_field_is_domain_error(capsys, param):
    # sweep.quantity used to change the rows' width under the header's
    code, out, err = run(capsys, "sweep", "--sweep.param", param)
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: sweep.param must be a number field outside sweep, got '{param}'"
    ]


@pytest.mark.parametrize(
    "rates_args",
    [["--rates.n", "2"], ["--rates.n", "1", "--rates.atom", "minus"],
     ["--rates.numeric", "true"], ["--rates.atom", "0.25"]],
)
def test_rates_sweep_matches_the_rates_command_row_by_row(capsys, rates_args):
    # a rates sweep used to ignore rates.n and rates.numeric and print the
    # closed-form n = 0 split
    grid = ["--sweep.param", "trajectory.alpha", "--sweep.start", "0.5",
            "--sweep.stop", "2.0", "--sweep.count", "3"]
    code, out, err = run(capsys, "sweep", "--sweep.quantity", "rates",
                         *grid, *rates_args)
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 3
    for param, *cells in rows:
        code, out, _ = run(capsys, "rates", "--trajectory.alpha", param, *rates_args)
        assert code == 0
        assert out.splitlines()[1].split(",")[:3] == cells


@pytest.mark.parametrize(
    "args, message",
    [
        (["sweep", "--sweep.quantity", "rates", "--rates.lam", "0.3"],
         "error: VF and RR exist only at rates.lam 0.5, got 0.3"),
        # the sweep reaches lam != 1/2 at its second point
        (["sweep", "--sweep.quantity", "rates", "--sweep.param", "rates.lam",
          "--sweep.start", "0.5", "--sweep.stop", "1.0", "--sweep.count", "2"],
         "error: VF and RR exist only at rates.lam 0.5, got 1.0"),
        # the numeric pipeline printed lambda 0.5 in place of the 0.3 given
        (["rates", "--rates.numeric", "true", "--rates.lam", "0.3"],
         "error: numeric rates need rates.lam 0.5, got 0.3"),
        (["rates", "--rates.n", "1", "--rates.lam", "0.3"],
         "error: numeric rates need rates.lam 0.5, got 0.3"),
        (["sweep", "--sweep.quantity", "rates", "--rates.numeric", "true",
          "--rates.lam", "0"],
         "error: numeric rates need rates.lam 0.5, got 0.0"),
    ],
)
def test_vf_rr_split_at_a_non_symmetric_ordering_is_refused(capsys, args, message):
    code, out, err = run(capsys, *args)
    assert code == 1 and out == ""
    assert err.splitlines() == [message]


@pytest.mark.parametrize(
    "args",
    # the numeric pipeline integrates the accelerated image sum, which has
    # no alpha = 0 case
    [["rates", "--rates.numeric", "true"],
     ["rates", "--rates.field", "true"],
     ["sweep", "--sweep.quantity", "rates", "--rates.n", "1"]],
)
def test_numeric_rates_on_an_inertial_trajectory_are_refused(capsys, args):
    code, out, err = run(capsys, *args, "--trajectory.alpha", "0")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: alpha must be positive, got 0.0"]


@pytest.mark.parametrize(
    "param",
    # rates.n reached math.factorial as a float once a rates sweep read it
    ["rates.n", "populations.steps", "populations.samples", "kernel.sweep.count",
     "trajectory.kind", "rates.numeric", "fermion.init", "output.path",
     "detector", "no.such.field", ""],
)
def test_sweep_param_must_name_a_number_field(capsys, param):
    code, out, err = run(capsys, "sweep", "--sweep.quantity", "rates",
                         "--sweep.param", param)
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: sweep.param must be a number field outside sweep, got '{param}'"
    ]


@pytest.mark.parametrize(
    "args", [["--sweep.quantity", "rates", "--sweep.param", "rates.atom",
              "--sweep.start", "-0.5", "--sweep.stop", "0.5"],
             ["--sweep.quantity", "steady", "--sweep.param", "thermal.beta"]],
)
def test_sweep_takes_number_fields_of_more_than_one_kind(capsys, args):
    code, out, err = run(capsys, "sweep", *args)
    assert code == 0 and err == "" and len(out.splitlines()) == 5


@pytest.mark.parametrize(
    "quantity, param",
    [("steady", "kernel.sweep.start"), ("response", "fermion.dt"),
     ("steady", "rates.lam"), ("response", "rates.atom"),
     ("rates", "populations.tau_end"), ("rates", "response.deltaE.start"),
     ("steady", "trajectory.alpha"), ("steady", "detector.mu"),
     ("response", "thermal.beta"), ("response", "detector.mu"),
     ("rates", "thermal.beta")],
)
def test_sweep_param_must_be_a_field_the_quantity_reads(capsys, quantity, param):
    # these printed identical rows with exit 0: the quantity never read param
    code, out, err = run(capsys, "sweep", "--sweep.quantity", quantity,
                         "--sweep.param", param)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {_refusal(quantity, param)}"]


# The fields each quantity's evaluator reads: steady_state, the response at
# deltaE = omega0, and the rates of an atom state under an ordering.  validate
# checks all four of _VALIDATED whatever the quantity.
_VALIDATED = ("detector.omega0", "detector.mu", "thermal.beta", "trajectory.alpha")
_READS = {
    "steady": ("detector.omega0", "thermal.beta"),
    "response": ("detector.omega0", "trajectory.alpha"),
    "rates": ("detector.omega0", "detector.mu", "trajectory.alpha", "rates.lam",
              "rates.atom"),
}


def _refusal(quantity: str, param: str) -> str:
    return (f"sweep.param must be a field sweep.quantity {quantity} reads "
            f"({', '.join(_READS[quantity])}), got '{param}'")


def _sweep_point_by_point(config):
    """The reference sweep: validate and the scalar library calls at each
    grid point in turn, so an error is that of the first point that fails."""
    param, quantity = config["sweep.param"], config["sweep.quantity"]
    if param not in _READS[quantity]:
        raise DomainError(_refusal(quantity, param))
    point, rows = dict(config), []
    for value in np.asarray(cli._grid(config, "sweep")).tolist():
        point[param] = value
        detector, beta, alpha = validate(point)
        if quantity == "steady":
            st = M.steady_state(detector.omega0, beta)
            rows.append([value, st.sigma_plus, st.sigma_minus])
            continue
        if quantity == "response":
            rows.append([value, RS.response_accelerated(detector.omega0, alpha).rate])
            continue
        lam = OrderingParam(point["rates.lam"])
        r3, n = point["rates.atom"], point["rates.n"]
        atom = AtomState({"plus": 0.5, "minus": -0.5}.get(r3, r3))
        if point["rates.numeric"] or n > 0:
            if not lam.is_symmetric:
                raise DomainError(f"numeric rates need rates.lam 0.5, got {lam.lam}")
            rep = R.derivative_coupling_rates(detector, alpha, atom, n)
        else:
            rep = R.atom_total_rate(detector, alpha, atom, lam)
        if not rep.finite:
            raise DomainError(f"VF and RR exist only at rates.lam 0.5, got {lam.lam}")
        rows.append([value, rep.vf, rep.rr, rep.total])
    return cli._SWEEP_HEADERS[quantity], np.array(rows)


# (start, stop, scale): increasing and decreasing, linear and log, and
# linear grids through 0, which every field refuses on one side or at 0.  The
# grids over a field the quantity does not read are refused before the grid.
_GRIDS = [("0.5", "2.0", "linear"), ("2.0", "0.5", "linear"), ("0.1", "0.4", "log"),
          ("3.0", "0.25", "log"), ("-1", "1", "linear"), ("1", "-1", "linear"),
          ("-0.5", "0.5", "linear"), ("0.5", "-0.5", "linear")]
_SWEEP_CASES = [
    ["--sweep.quantity", quantity, "--sweep.param", param, "--sweep.start", start,
     "--sweep.stop", stop, "--sweep.scale", scale, "--sweep.count", "5", *extra]
    for quantity, extras in [
        ("steady", [[], ["--thermal.beta", "inf"]]),
        ("response", [[], ["--trajectory.alpha", "0"]]),
        ("rates", [[], ["--rates.atom", "minus"], ["--rates.lam", "0.3"]]),
    ]
    for param in dict.fromkeys(_VALIDATED + _READS[quantity])
    for start, stop, scale in _GRIDS
    for extra in extras
    if f"--{param}" not in extra
] + [
    # the numeric pipeline, point by point: n > 0 and rates.numeric
    ["--sweep.quantity", "rates", "--sweep.param", param, "--sweep.start", start,
     "--sweep.stop", stop, "--sweep.count", "3", *extra]
    for param in dict.fromkeys(_VALIDATED + _READS["rates"])
    for start, stop in [("0.5", "2.0"), ("1", "-1"), ("-0.5", "0.5")]
    for extra in [["--rates.n", "1"], ["--rates.n", "2"], ["--rates.numeric", "true"]]
] + [
    ["--sweep.quantity", "rates", *args] for args in [
        # a NaN VF (0 * inf at the pole) refused at the first point, an
        # omega0^2 overflow at the last
        ["--rates.atom", "0", "--trajectory.alpha", "1e308", "--sweep.param",
         "detector.omega0", "--sweep.start", "10", "--sweep.stop", "1e200",
         "--sweep.scale", "log"],
        # mu = 0: every rate is 0, though omega0 alpha and omega0^2 overflow
        ["--detector.mu", "0", "--trajectory.alpha", "1e308", "--sweep.param",
         "detector.omega0", "--sweep.start", "10", "--sweep.stop", "1e200",
         "--sweep.scale", "log"],
        ["--rates.atom", "0", "--trajectory.alpha", "1e308", "--sweep.param",
         "detector.omega0", "--sweep.start", "1e200", "--sweep.stop", "10",
         "--sweep.scale", "log"],
        ["--sweep.param", "detector.mu", "--sweep.start", "1", "--sweep.stop", "1e200",
         "--sweep.scale", "log"],
        # a numeric failure before the grid reaches a refused alpha
        ["--rates.n", "1", "--sweep.param", "trajectory.alpha", "--sweep.start",
         "1e-100", "--sweep.stop", "-1", "--sweep.count", "3"],
        ["--rates.atom", "0.75", "--sweep.param", "rates.atom", "--sweep.start", "0.75",
         "--sweep.stop", "-0.75"],
        ["--sweep.param", "rates.lam", "--sweep.start", "0.5", "--sweep.stop", "1.5",
         "--sweep.count", "3"],
    ]
]


@pytest.mark.parametrize("args", _SWEEP_CASES, ids=" ".join)
def test_sweep_matches_the_point_by_point_reference(capsys, monkeypatch, args):
    got = run(capsys, "sweep", *args)
    monkeypatch.setitem(cli._COMMANDS, "sweep", _sweep_point_by_point)
    assert got == run(capsys, "sweep", *args)


@pytest.mark.parametrize(
    "args, rows, calls",
    [(["--sweep.count", "50"], 50, 50),
     (["--sweep.quantity", "response", "--sweep.param", "trajectory.alpha",
       "--sweep.count", "50"], 50, 50),
     (["--sweep.quantity", "rates", "--sweep.param", "rates.atom", "--sweep.start",
       "-0.5", "--sweep.stop", "0.5", "--sweep.count", "50"], 50, 50),
     (["--sweep.quantity", "rates", "--rates.n", "1", "--sweep.count", "3"], 3, 3),
     # past SMALL_GRID the grid is an array, validated at once
     (["--sweep.count", str(cli.SMALL_GRID + 1)], cli.SMALL_GRID + 1, 1)],
)
def test_a_sweep_validates_an_array_once_and_a_list_per_point(
    capsys, monkeypatch, args, rows, calls
):
    seen = []

    def counted(config):
        seen.append(config)
        return validate(config)

    monkeypatch.setattr(core, "validate", counted)
    monkeypatch.setattr(cli, "validate", counted)
    code, out, err = run(capsys, "sweep", *args)
    assert code == 0 and err == "" and len(out.splitlines()) == rows + 1
    assert len(seen) == calls


def test_a_steady_sweep_of_an_array_grid_is_one_library_call(capsys, monkeypatch):
    # past SMALL_GRID the grid is an array, which steady_state broadcasts
    calls, steady_state = [], M.steady_state

    def counted(omega0, beta):
        calls.append(omega0)
        return steady_state(omega0, beta)

    monkeypatch.setattr(M, "steady_state", counted)
    count = cli.SMALL_GRID + 1
    code, out, err = run(capsys, "sweep", "--sweep.count", str(count))
    assert code == 0 and err == "" and len(out.splitlines()) == count + 1
    assert len(calls) == 1 and np.shape(calls[0]) == (count,)


def test_a_failing_array_sweep_reruns_as_one_list_pass(capsys, monkeypatch):
    # beta from 1 to -1 at 1001 points is an array that check_beta refuses;
    # swept again point by point in Python floats, it stops at its first
    # failing point, beta = 0.0, the 501st
    calls, steady_state = [], M.steady_state

    def counted(omega0, beta):
        calls.append(beta)
        return steady_state(omega0, beta)

    monkeypatch.setattr(M, "steady_state", counted)
    code, out, err = run(capsys, "sweep", "--sweep.param", "thermal.beta",
                         "--sweep.start", "1", "--sweep.stop", "-1", "--sweep.count",
                         str(cli.SMALL_GRID + 1))
    assert (code, out) == (1, "")
    assert err == "error: beta must be positive (or +inf), got 0.0\n"
    assert len(calls) == 500 and all(type(beta) is float for beta in calls)


ENUM_FIELDS = {
    name: kinds for name, (_, *kinds) in cli._FIELDS.items()
    if any(k.startswith("'") and k != "'inf'" for k in kinds)
}


@pytest.mark.parametrize("command", ["steady", "verify"])
@pytest.mark.parametrize("field", sorted(ENUM_FIELDS))
def test_every_command_refuses_a_bad_enumerated_value(capsys, command, field):
    # steady --sweep.scale lgo used to exit 0: only the command that read a
    # field checked it
    code, out, err = run(capsys, command, f"--{field}", "lgo")
    assert code == 1 and out == ""
    kinds = " or ".join(ENUM_FIELDS[field])
    assert err.splitlines() == [f"error: {field} must be {kinds}, got 'lgo'"]


@pytest.mark.parametrize(
    "args, message",
    [
        ([], "error: the following arguments are required: command"),
        (["foo"], "error: argument command: invalid choice: 'foo'"),
        (["steady", "--format", "xml"],
         "error: output.format must be 'csv' or 'json', got 'xml'"),
        (["steady", "--out"], "error: argument --out: expected one argument"),
        (["steady", "--config"], "error: argument --config: expected one argument"),
        (["steady", "--format"], "error: argument --format: expected one argument"),
    ],
)
def test_usage_errors_exit_1_with_one_line(capsys, args, message):
    # argparse printed three lines of usage text and exited 2, the code of a
    # numeric failure
    code, out, err = run(capsys, *args)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(message)


def test_out_and_format_are_taken_verbatim(tmp_path, capsys, monkeypatch):
    # "1" and "null" are JSON, but --format and --out are not read as JSON
    code, out, err = run(capsys, "steady", "--format", "1")
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: output.format must be 'csv' or 'json', got '1'"]
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "steady", "--out", "null", "--output.path", "x")
    assert code == 0 and out == ""
    assert (tmp_path / "null").exists() and not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag", ["--fo", "--o", "--conf"])
def test_abbreviated_flags_are_unknown_fields(tmp_path, capsys, monkeypatch, flag):
    # argparse would take each as --format, --out or --config
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.json").write_text("{}")
    code, out, err = run(capsys, "steady", flag, "x.json")
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: unknown config field '{flag[2:]}'"]
    assert [p.name for p in tmp_path.iterdir()] == ["x.json"]
    code, out, _ = run(capsys, "steady", "--format=json", "--out=y.json")
    assert code == 0 and out == ""
    assert json.loads((tmp_path / "y.json").read_text())[0]["beta"] == 1.0


@pytest.mark.parametrize(
    "doc, args, error",
    [
        # accepted: each sets detector.omega0 to 2
        ({"detector": {"omega0": 2}}, [], None),
        ({"detector.omega0": 2}, [], None),
        ({"detector": {}}, ["--detector", '{"omega0": 2}'], None),
        (None, ["--detector.omega0=2"], None),
        # refused: an object for a field (silently ignored before), a
        # non-object for a section, an unknown dotted name
        (None, ["--detector.omega0", "{}"], "detector.omega0 must be a number, got {}"),
        ({"detector": {"omega0": {}}}, [], "detector.omega0 must be a number, got {}"),
        (None, ["--detector", "5"], "config section 'detector' must be an object"),
        ({"kernel": {"sweep": 5}}, [], "config section 'kernel.sweep' must be an object"),
        (None, ["--foo.bar", "1"], "unknown config field 'foo.bar'"),
        ({"detector": {"omega0.x": 1}}, [], "unknown config field 'detector.omega0.x'"),
    ],
)
def test_config_forms(tmp_path, capsys, doc, args, error):
    if doc is not None:
        (tmp_path / "run.json").write_text(json.dumps(doc))
        args = ["--config", str(tmp_path / "run.json"), *args]
    code, out, err = run(capsys, "steady", *args)
    if error is None:
        assert code == 0 and err == ""
        assert out.splitlines()[1].startswith("2.00000000000e+00,")
    else:
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {error}"]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: unruh-kinetics")


@pytest.mark.parametrize(
    "field, value",
    [
        ("populations.samples", "abc"),
        ("populations.samples", "2.5"),
        ("kernel.sweep.count", "x"),
        ("populations.tau_end", "abc"),
        ("detector.omega0", "abc"),
        ("detector.omega0", "true"),
        ("rates.numeric", "1"),
        ("fermion.init", "[1, \"a\"]"),
        ("kernel.sweep", "5"),
    ],
)
def test_non_numeric_config_value_is_domain_error(capsys, field, value):
    code, out, err = run(capsys, "populations", f"--{field}", value)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert field in err


@pytest.mark.parametrize(
    "doc",
    [
        {"populations": {"samples": "abc"}},
        {"thermal": {"beta": "ln2"}},
        {"detector": {"omega0": 1.0, "spin": 1}},
        {"detector": 5},
    ],
)
def test_config_file_type_errors_are_domain_errors(tmp_path, capsys, doc):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run(capsys, "steady", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_config_accepts_inf_null_integral_floats_and_numeric_atom(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "thermal": {"beta": "Infinity"},
        "populations": {"samples": 3.0},
        "output": {"path": None},
    }))
    code, out, _ = run(capsys, "populations", "--config", str(cfg))
    assert code == 0 and len(out.strip().splitlines()) == 4
    code, out, _ = run(capsys, "rates", "--rates.atom", "0.25", "--rates.n", "1.0")
    assert code == 0
    assert out.strip().splitlines()[1].endswith(",1")  # coupling_order 1


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--sweep.scale", "lgo"],
        ["sweep", "--sweep.scale", "log", "--sweep.start", "0"],
        ["response", "--response.deltaE.scale", "log", "--response.deltaE.stop", "NaN"],
        ["kernel", "--kernel.sweep.scale", "log", "--kernel.sweep.start", "-1"],
        ["kernel", "--kernel.sweep.stop", "Infinity"],
        ["populations", "--populations.samples", "0"],
        # more than 2^53 RK4 steps: a hot bath, a fast detector, a long run
        ["populations", "--thermal.beta", "1e-300"],
        ["populations", "--detector.omega0", "1e300"],
        ["populations", "--populations.tau_end", "1e300"],
        # finite ends whose difference overflows
        ["kernel", "--kernel.sweep.start", "-1e308", "--kernel.sweep.stop", "1.7e308",
         "--kernel.sweep.count", "3"],
        ["sweep", "--sweep.start", "-1e308", "--sweep.stop", "1.7e308",
         "--sweep.count", "3"],
        ["response", "--response.deltaE.start", "-1e308",
         "--response.deltaE.stop", "1.7e308", "--response.deltaE.count", "3"],
    ],
)
def test_bad_grid_or_sample_count_is_domain_error(capsys, args):
    with warnings.catch_warnings():  # a numpy warning would be stderr lines
        warnings.simplefilter("error")
        code, out, err = run(capsys, *args)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_log_grid_is_geometric(capsys):
    code, out, _ = run(
        capsys, "sweep", "--sweep.scale", "log",
        "--sweep.start", "0.5", "--sweep.stop", "2.0", "--sweep.count", "3",
    )
    assert code == 0
    params = [float(l.split(",")[0]) for l in out.strip().splitlines()[1:]]
    assert params == pytest.approx([0.5, 1.0, 2.0], rel=1e-12)


# n = 2 at omega0/alpha = 2e-4: S_6 cancels on the ray and the line integrals
# at Im z = d and d/2 disagree
REFUSED_RATES = ["rates", "--rates.n", "2", "--detector.omega0", "0.01",
                 "--trajectory.alpha", "50"]


def test_nan_numeric_rate_is_numeric_failure(capsys):
    code, out, err = run(capsys, *REFUSED_RATES)
    assert code == 2 and out == ""
    assert err.startswith("numeric failure:") and "Traceback" not in err


def test_numeric_rates_match_closed_form_where_the_ladder_failed(capsys):
    # the regulator ladder refused omega0 = 1000 and printed vf = -6.79142e-04
    # (closed form -6.53955e-04) at n = 2, omega0 = 0.1 with exit 0
    for args, tol in ((["--rates.numeric", "true", "--detector.omega0", "1000"], 1e-12),
                      (["--rates.n", "2", "--detector.omega0", "0.1"], 1e-9)):
        code, out, err = run(capsys, "rates", *args, "--format", "json")
        assert code == 0 and err == ""
        row = json.loads(out)[0]
        p = DetectorParams(float(args[-1]), 1.0)
        vf, rr = R.atom_vf_rate(p, 1.0, AtomState.plus()), R.atom_rr_rate(p, 1.0)
        assert row["vf"] == pytest.approx(vf, rel=tol)
        assert row["rr"] == pytest.approx(rr, rel=tol)
        assert row["total"] == pytest.approx(vf + rr, rel=tol)


def test_large_alpha_numeric_failure_prints_one_line():
    # the image sums used to add 14 numpy overflow warnings to stderr
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); "
         "from unruh_kinetics.cli import main; sys.exit(main(sys.argv[2:]))",
         str(src), *REFUSED_RATES],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("numeric failure:")


@pytest.mark.parametrize("beta", ["1.0", "inf"])
def test_kernel_far_from_the_diagonal_is_finite(capsys, beta):
    # u = 800 raised OverflowError at finite beta and printed nan at beta = inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "kernel", "--kernel.u", "800", "--thermal.beta", beta
        )
    assert code == 0 and err == ""
    rows = np.array([line.split(",") for line in out.strip().splitlines()[1:]], dtype=float)
    assert rows.shape == (50, 4) and np.all(np.isfinite(rows))


@pytest.mark.parametrize(
    "args, param",
    [(["--trajectory.alpha", "0", "--kernel.sweep.param", "beta"], "beta"),
     (["--kernel.sweep.start", "0"], "alpha")],
)
def test_kernel_on_an_inertial_trajectory_is_the_thermal_kernel(capsys, args, param):
    # alpha = 0 was refused; the accelerated kernel's formula reduces to
    # -csch^2(pi u / beta) / 4 beta^2 there
    code, out, err = run(capsys, "kernel", *args)
    assert code == 0 and err == ""
    rows = np.array([line.split(",") for line in out.strip().splitlines()[1:]],
                    dtype=float)
    if param == "alpha":  # the first row is alpha = 0, at beta = 1
        rows = rows[:1]
    beta = rows[:, 1] if param == "beta" else 1.0
    want = K.thermal_image_closed(rows[:, 0], beta).real
    assert rows[:, 2] == pytest.approx(want, rel=1e-11, abs=0.0)
    assert np.all(rows[:, 3] == 0.0)


@pytest.mark.parametrize(
    "command, field",
    [
        ("kernel", "kernel.sweep.count"),
        ("response", "response.deltaE.count"),
        ("sweep", "sweep.count"),
        ("populations", "populations.samples"),
    ],
)
def test_row_counts_above_the_cap_are_domain_errors(capsys, command, field):
    # rejected while the config loads, before any array is allocated
    cap = _INT_RANGES[field][1]
    code, out, err = run(capsys, command, f"--{field}", str(cap + 1))
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {field} must be <= {cap}, got {cap + 1}"]
    load_config(None, [f"--{field}", str(cap)])  # the cap itself is allowed


@pytest.mark.parametrize(
    "field", sorted(field for field, (low, _) in _INT_RANGES.items() if low == 1)
)
@pytest.mark.parametrize("value", ["0", "-3"])
def test_row_counts_below_one_are_domain_errors(capsys, field, value):
    # the message named no field ("grid count must be >= 1"), and a command
    # that does not read the field ran
    for command in (field.split(".")[0], "steady"):  # its command, and one other
        code, out, err = run(capsys, command, f"--{field}", value)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {field} must be >= 1, got {value}"]


@pytest.mark.parametrize(
    "args, message",
    # the first two printed the n = 0 rates labelled coupling_order -1 with
    # exit 0: only the numeric branch (n > 0) reached the library's range check
    [(["rates", "--rates.n", "-1"], "rates.n must be >= 0, got -1"),
     (["sweep", "--sweep.quantity", "rates", "--rates.n", "-1"],
      "rates.n must be >= 0, got -1"),
     (["steady", "--rates.n", "3"], "rates.n must be <= 2, got 3")],
)
def test_coupling_orders_outside_0_to_2_are_domain_errors(capsys, args, message):
    code, out, err = run(capsys, *args)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {message}"]


def _reference_csv(rows) -> str:
    """CSV lines of a float table, one CPython "%.11e" per cell."""
    return "".join(",".join("%.11e" % x for x in row) + "\n" for row in rows)


def test_emit_writes_constant_columns_with_the_reference_bytes(capsys):
    rows = [[2.0, 0.0, math.nan, 1.0, -0.0], [2.0, -0.0, math.nan, 3.0, -0.0],
            [2.0, 0.0, math.nan, -1e-300, -0.0]]
    config = {"output.format": "csv", "output.path": None}
    want = "a,b,c,d,e\n" + _reference_csv(rows)
    emit(["a", "b", "c", "d", "e"], rows, config)
    assert capsys.readouterr().out == want
    emit(["a", "b", "c", "d", "e"], np.array(rows), config)
    assert capsys.readouterr().out == want


@settings(max_examples=500, deadline=None)
@given(arrays(
    np.float64,
    array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
    elements=st.floats(allow_subnormal=True),
))
def test_csv_rows_are_cpython_percent_e_for_every_float(table):
    # floats() draws subnormals, +-0, +-inf and NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = cli._csv_rows(table)
    assert text == _reference_csv(table.tolist())


def _powers_of_ten_and_neighbours():
    powers = np.array([10.0**k for k in range(-110, 111)])
    return np.concatenate([
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
    ])


@pytest.mark.parametrize("cells", [
    _powers_of_ten_and_neighbours(),
    # 13-digit ties: "%.11e" rounds them half to even
    [1234567890125.0, 1234567890135.0, -1234567890125.0, -1234567890135.0],
    [9.9999999999995e-3, 5e-324, 1.7976931348623157e308, 1e-12],
    [0.0, -0.0, math.inf, -math.inf, math.nan, 99999999999.5, 999999999999.5],
    # decimal ties whose double lies off the tie by less than the scaling
    # error: rint of the scaled value rounds them the wrong way
    [8.271467107625e-11, 8.641421830115e-10, 0.0009951851014265,
     0.7727320967405, 5.550509964165],
])
def test_csv_rows_edge_cells_are_cpython_percent_e(cells):
    for cols in (1, 2):
        table = np.array(cells, dtype=float)[: len(cells) // cols * cols]
        table = table.reshape(-1, cols)
        assert cli._csv_rows(table) == _reference_csv(table.tolist())
        assert cli._csv_rows(-table) == _reference_csv((-table).tolist())


def test_csv_rows_round_13_digit_decimal_ties_as_cpython():
    # (12-digit integer + 0.5) * 10^(e - 11) for every e the vector path
    # takes, [-99, 98], and one beyond each end; each double lies a little
    # off its decimal tie, and beyond 10^22 the power of ten it is scaled by
    # is inexact too
    rng = np.random.default_rng(13)
    digits = rng.integers(10**11, 10**12, (200, 1000)) + 0.5
    scales = 10.0 ** np.arange(-111, 89)[:, None]
    table = (digits * scales).reshape(-1, 4)
    assert cli._csv_rows(table) == _reference_csv(table.tolist())


@pytest.mark.parametrize("bias", [-0.5, 0.5])
def test_csv_rows_trust_the_log10_exponent_only_to_within_one(monkeypatch, bias):
    # a biased log10 puts floor(log10 |x|) one off for about half the cells
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + bias)
    rng = np.random.default_rng(7)
    exponents = rng.integers(-101, 101, (2000, 3))
    table = rng.uniform(1.0, 10.0, exponents.shape) * 10.0**exponents
    assert cli._csv_rows(table) == _reference_csv(table.tolist())


def test_singular_kernel_point_is_domain_error(capsys):
    code, out, err = run(
        capsys, "kernel", "--kernel.u", "0", "--kernel.sweep.count", "2"
    )
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: tau1 = tau2 is singular"]


def test_cli_and_numeric_rates_load_only_numpy_and_the_standard_library():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, numpy\n"
        "before = {m.split('.')[0] for m in sys.modules}\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import unruh_kinetics.cli as cli\n"
        "assert cli.main(['rates', '--rates.numeric', 'true']) == 0\n"
        "loaded = {m.split('.')[0] for m in sys.modules} - before\n"
        "print(sorted(loaded - set(sys.stdlib_module_names) - {'unruh_kinetics'}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


_RATES_MODULES = {"cli", "core", "kernels", "numerics", "rates"}
_STEADY_MODULES = {"cli", "core", "master"}
# what a command that writes a table of more than one row adds
_TABLE = {"csvformat"}


def _fresh_interpreter(code: str, *args: str) -> list:
    """The JSON of the last stdout line of code, run in a fresh interpreter
    with src/ first on sys.path and numpy not yet imported."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\nsys.path.insert(0, sys.argv[1])\n" + code,
         str(src), *args],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_loads_neither_numpy_nor_the_physics():
    loaded = _fresh_interpreter(
        "import json\n"
        "assert 'numpy' not in sys.modules\n"
        "import unruh_kinetics.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'numpy' or m.startswith('unruh_kinetics.'))))\n"
    )
    assert loaded == ["unruh_kinetics.cli", "unruh_kinetics.core"]


@pytest.fixture(scope="module")
def numpy_imports():
    """Whether import numpy itself imports numpy.polynomial and numpy.ma
    (numpy 1.24 imports both)."""
    return dict(zip(("polynomial", "ma"), _fresh_interpreter(
        "import json, numpy\n"
        "print(json.dumps(['numpy.polynomial' in sys.modules, 'numpy.ma' in sys.modules]))\n"
    )))


# argv, the package modules it loads, whether it loads numpy, and whether it
# integrates
@pytest.mark.parametrize("argv, modules, numpy, integrates", [
    (["kernel"], {"cli", "core", "kernels"} | _TABLE, True, False),
    (["populations"], _STEADY_MODULES, False, False),
    # one sample past a small trajectory: arrays, and the vectorised formatter
    (["populations", "--populations.samples", str(cli.SMALL_GRID + 1)],
     _STEADY_MODULES | _TABLE, True, False),
    (["steady"], _STEADY_MODULES, False, False),
    (["rates"], {"cli", "core", "rates"}, False, False),
    (["rates", "--rates.numeric", "true"], _RATES_MODULES, True, True),
    (["response"], {"cli", "core", "response"}, False, False),
    (["fermion"], {"cli", "core", "fermion"}, False, False),
    (["sweep"], _STEADY_MODULES, False, False),
    (["sweep", "--sweep.quantity", "response"], {"cli", "core", "response"}, False, False),
    (["sweep", "--sweep.quantity", "rates"], {"cli", "core", "rates"}, False, False),
    # one point past a small grid: an array, and the vectorised formatter
    (["sweep", "--sweep.count", str(cli.SMALL_GRID + 1)], _STEADY_MODULES | _TABLE,
     True, False),
    (["verify"], _RATES_MODULES | {"fermion", "master", "response"}, True, True),
])
def test_each_command_loads_only_the_modules_it_runs(
    argv, modules, numpy, integrates, numpy_imports
):
    # started without numpy, so that a command that does not need it is seen
    # not to load it; numpy.polynomial is the quadrature's, and numpy.ma,
    # which np.unique imported on its first call, no command needs
    loaded, with_numpy, polynomial, ma = _fresh_interpreter(
        "import contextlib, io, json\n"
        "assert 'numpy' not in sys.modules\n"
        "import unruh_kinetics.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(sys.argv[2:]) == 0\n"
        "print(json.dumps([\n"
        "    sorted(m.split('.', 1)[1] for m in sys.modules\n"
        "           if m.startswith('unruh_kinetics.')),\n"
        "    'numpy' in sys.modules, 'numpy.polynomial' in sys.modules,\n"
        "    'numpy.ma' in sys.modules,\n"
        "]))\n",
        *argv,
    )
    assert set(loaded) == modules
    assert with_numpy == numpy
    assert polynomial == (integrates or (numpy and numpy_imports["polynomial"]))
    assert ma == (numpy and numpy_imports["ma"])


def _stdout(argv: list[str], hide_numpy: bool) -> str:
    """The stdout of the CLI on argv in a fresh interpreter, in which import
    numpy raises ImportError if hide_numpy."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        + ("sys.modules['numpy'] = None\n" if hide_numpy else "")
        + "from unruh_kinetics.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    return proc.stdout


@pytest.mark.parametrize("command",
                         ["steady", "fermion", "sweep", "response", "rates", "populations"])
def test_default_commands_run_where_numpy_cannot_be_imported(command):
    assert _stdout([command], hide_numpy=True) == _stdout([command], hide_numpy=False)


def test_a_small_linear_grid_is_numpy_linspace_bit_for_bit():
    # counts 1 to 3000 over spans of random sign and magnitude, then spans
    # whose step is subnormal (numpy's step == 0 branch, i / div * delta),
    # with +-0.0 ends, with start == stop, and the widest span a grid takes
    def bits(grid):
        return np.asarray(grid, dtype=float).view(np.int64)

    rng = np.random.default_rng(36)
    ends = rng.choice([-1.0, 1.0], (3000, 2)) * 10.0 ** rng.uniform(-300, 300, (3000, 2))
    for count, (start, stop) in enumerate(ends.tolist(), start=1):
        assert np.array_equal(bits(core.linspace(start, stop, count)),
                              bits(np.linspace(start, stop, count))), (start, stop, count)
    spans = [(0.0, 1e-321), (1e-321, -1e-321), (-5e-324, 5e-324), (1.0, 1.0 + 2**-52),
             (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (-0.0, 1.0), (1.0, -0.0),
             (2.5, 2.5), (-8e307, 8e307), (1e-300, 1e-300)]
    for start, stop in spans:
        for count in (1, 2, 3, 5, 100, 405, 406, 407, 1000, 1001, 3000):
            assert np.array_equal(bits(core.linspace(start, stop, count)),
                                  bits(np.linspace(start, stop, count))), (start, stop, count)


# The commands that run without numpy, on their error and edge paths: the
# exit code and the exact stdout and stderr bytes.
_STEADY_HEADER = "omega0,beta,sigma_plus,sigma_minus,balance_ratio\n"
_SCALAR_PATHS = [
    (["steady", "--detector.omega0", "NaN"], 1, "",
     "error: omega0 must be finite, got nan\n"),
    (["steady", "--detector.mu", "Infinity"], 1, "",
     "error: mu must be finite, got inf\n"),
    (["steady", "--thermal.beta", "-1"], 1, "",
     "error: beta must be positive (or +inf), got -1.0\n"),
    (["steady", "--thermal.beta", "inf", "--format", "json"], 0,
     '[\n  {\n    "balance_ratio": 0.0,\n    "beta": "inf",\n    "omega0": 1.0,\n'
     '    "sigma_minus": 1.0,\n    "sigma_plus": 0.0\n  }\n]\n', ""),
    (["fermion", "--fermion.init", "[2,-1]"], 1, "",
     "error: populations must be non-negative, got (2.0, -1.0)\n"),
    (["fermion", "--fermion.dt", "0"], 1, "",
     "error: dt must be positive and finite, got 0.0\n"),
    (["steady", "--detector.omega0", "1e-320"], 0, _STEADY_HEADER
     + "9.99988867183e-321,1.00000000000e+00,5.00000000000e-01,"
       "5.00000000000e-01,1.00000000000e+00\n", ""),
    # the default bath's edge 1.5 omega0 overflows: this printed "mode
    # frequency must be positive, got nan"
    (["fermion", "--detector.omega0", "1.7e308"], 1, "",
     "error: default bath edge 1.5 * omega0 overflows a float, got omega0 = 1.7e+308\n"),
    # an int too large for a float: this exited 2 on float()'s OverflowError
    (["steady", "--detector.omega0", "1" + "0" * 400], 1, "",
     f"error: detector.omega0 must be a number, got 1{'0' * 400}\n"),
    (["fermion", "--fermion.init", f"[1{'0' * 400},0]"], 1, "",
     f"error: fermion.init must be a list of numbers, got [1{'0' * 400}, 0]\n"),
]


@pytest.mark.parametrize("argv, code, out, err", _SCALAR_PATHS,
                         ids=[" ".join(path[0])[:60] for path in _SCALAR_PATHS])
def test_scalar_commands_keep_their_error_paths(argv, code, out, err):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "unruh_kinetics.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_coupling_order_out_of_range_names_n(capsys):
    code, _, err = run(capsys, "rates", "--rates.n", "3")
    assert code == 1
    assert err.splitlines() == ["error: rates.n must be <= 2, got 3"]


def test_populations_cost_follows_samples_not_steps(capsys):
    # ~9e9 RK4 steps; only the 3 sampled steps are evaluated
    code, out, _ = run(
        capsys,
        "populations",
        "--populations.tau_end", "1e9",
        "--populations.samples", "3",
    )
    assert code == 0
    rows = [[float(x) for x in line.split(",")] for line in out.strip().splitlines()[1:]]
    assert len(rows) == 3
    assert rows[-1][0] == pytest.approx(1e9, rel=1e-12)
    assert all(r[5] < 1e-8 for r in rows)


def test_output_file_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["kernel", "--kernel.sweep.count", "5", "--out", str(a)]) == 0
    assert main(["kernel", "--kernel.sweep.count", "5", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_verify_passes_on_defaults(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = main(["verify", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["passed"] == report["total"]
    assert {c["status"] for c in report["checks"]} == {"pass"}


@pytest.mark.parametrize("omega0", ["1e-320", "1e-3", "1", "500", "1e6"])
def test_verify_passes_at_every_level_splitting(capsys, omega0):
    # the fermion check's hot bath scales with omega0: a fixed beta failed
    # its 1e-4 gate above omega0 ~ 400, and below ~1e-306 its beta
    # 1e-6 / omega0 overflowed to +inf, a zero-temperature bath
    code, out, err = run(capsys, "verify", "--detector.omega0", omega0)
    report = json.loads(out)
    assert code == 0 and err == ""
    assert report["passed"] == report["total"] == 25


@pytest.mark.parametrize(
    "field, value",
    [("detector.omega0", "1e200"), ("detector.omega0", "1e300"),
     ("detector.mu", "1e200")],
)
def test_verify_reports_a_check_that_overflows(capsys, field, value):
    # omega0^2 mu^2 overflows in energy_decomposition alone; verify used to
    # exit 2 with one stderr line and no report
    code, out, err = run(capsys, "verify", f"--{field}", value)
    assert code == 2 and err == ""
    report = json.loads(out)
    assert (report["passed"], report["total"]) == (24, 25)
    [failed] = [c for c in report["checks"] if c["status"] != "pass"]
    assert failed["check"] == "energy_decomposition"
    assert failed["status"] == "nonconvergence"
    assert failed["detail"] == f"overflowed a float: {os.strerror(errno.ERANGE)}"


def test_verify_forced_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(K, "TRUNC_TOL", 1e-30)
    out_file = tmp_path / "report.json"
    code = main(["verify", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 2
    report = json.loads(out_file.read_text())
    assert any(c["status"] == "nonconvergence" for c in report["checks"])


@pytest.mark.parametrize("records, module, name, poison", [
    (["inertial_silence_decay"], RS, "inertial_silence_oracle",
     lambda f: lambda d, eps: math.nan if eps == 1e-3 / 2 else f(d, eps)),
    (["planck_bracket_identity"], R, "planck_bracket",
     lambda f: lambda w0, a: math.nan if w0 == 2.0 else f(w0, a)),
    (["kernel_acceleration_shape"], K, "g_thermal_accelerated",
     lambda f: lambda *args: K.KernelValue(np.where(np.arange(40) == 5, np.nan,
                                                    f(*args).value))),
    (["fermion_limits", "fermion_zero_temperature", "fermion_conservation"], F,
     "fermion_rates",
     lambda f: lambda bath, w0, dt: dataclasses.replace(f(bath, w0, dt), T_F=math.nan)
     if w0 == 1.0 else f(bath, w0, dt)),
], ids=["silence_decay", "planck_bracket", "kernel_shape", "fermion"])
def test_verify_fails_a_record_with_one_nan(monkeypatch, records, module, name, poison):
    # a NaN at one point passed: max(x, nan) is x, and a count of b >= a or
    # of cold <= 0 counts a NaN step as no violation
    monkeypatch.setattr(module, name, poison(getattr(module, name)))
    checks = dict(cli._verify_checks(load_config(None, ["--detector.omega0", "2"])))
    for record in records:
        error, tol = checks[record]()
        assert not error <= tol, record


def test_verify_report_schema_stable(tmp_path, capsys):
    files = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        assert main(["verify", "--out", str(path)]) == 0
        files.append(json.loads(path.read_text()))
    capsys.readouterr()
    assert [c["check"] for c in files[0]["checks"]] == [
        c["check"] for c in files[1]["checks"]
    ]


def _inject(monkeypatch, command, header, rows):
    """Make command return the table (header, rows) without computing it."""
    monkeypatch.setitem(cli._COMMANDS, command, lambda config: (header, rows))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_nan_row_is_numeric_failure_and_nothing_is_written(
    tmp_path, capsys, monkeypatch, fmt
):
    # a NaN cell once printed as nan (null in JSON) with exit 0
    _inject(monkeypatch, "rates", ["vf", "rr"], [[math.nan, 1.0]])
    out_file = tmp_path / "rates.out"
    args = ["rates", "--format", fmt]
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert err.splitlines() == ["numeric failure: rates computed a NaN"]
    code, _, _ = run(capsys, *args, "--out", str(out_file))
    assert code == 2 and not out_file.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "rows",
    [
        [[1.0, -math.inf, None, True]],  # one row, formatted cell by cell
        [[1.0, 2.0, 0.0, 1.0], [1.0, math.inf, 0.0, 1.0]],
        np.array([[1.0, 2.0, 0.0, 1.0], [1.0, 2.0, -math.inf, 1.0]]),
    ],
)
def test_inf_cell_is_numeric_failure_and_nothing_is_written(
    tmp_path, capsys, monkeypatch, fmt, rows
):
    _inject(monkeypatch, "response", ["a", "b", "c", "d"], rows)
    out_file = tmp_path / "response.out"
    code, out, err = run(capsys, "response", "--format", fmt, "--out", str(out_file))
    assert code == 2 and out == "" and not out_file.exists()
    assert err.splitlines() == ["numeric failure: response computed an inf"]


@pytest.mark.parametrize("command", sorted(set(cli._COMMANDS) - {"verify"}))
@pytest.mark.parametrize("rows", [[[1.0, math.inf, 0.0, 1.0, 0.0]],
                                  [[1.0, math.inf, 0.0, 1.0, 0.0]] * 2])
def test_no_table_command_may_print_a_float_inf(capsys, monkeypatch, command, rows):
    # steady included: it writes beta = inf as the token "inf", not a float
    header = ["omega0", "beta", "sigma_plus", "sigma_minus", "balance_ratio"]
    _inject(monkeypatch, command, header, rows)
    code, out, err = run(capsys, command)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"numeric failure: {command} computed an inf"]


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_infinite_beta_is_echoed_by_steady(capsys, fmt):
    code, out, err = run(capsys, "steady", "--thermal.beta", "inf", "--format", fmt)
    assert code == 0 and err == ""
    if fmt == "csv":
        assert out.splitlines()[1].split(",")[1] == "inf"
    else:
        # RFC 8259 has no Infinity: the echo is the config's own token
        records = json.loads(out, parse_constant=_reject_constant)
        assert records[0]["beta"] == "inf"


@pytest.mark.parametrize(
    "args",
    [
        # Python float ** raises OverflowError instead of returning inf
        ["rates", "--detector.omega0", "1e308"],
        ["rates", "--detector.mu", "1e200"],
        # omega0^2 mu^2 of the numeric rates' prefactor
        ["rates", "--rates.numeric", "true", "--detector.mu", "1e200"],
        # verify writes an overflowing check into its report instead, see
        # test_verify_reports_a_check_that_overflows
        ["sweep", "--sweep.quantity", "rates", "--detector.mu", "1e200"],
    ],
)
def test_overflow_is_numeric_failure(capsys, args):
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("numeric failure:")


@pytest.mark.parametrize(
    "args, point",
    [
        # the pair (omega0, alpha) = (1, 1e300) overflowed on the ray: exit 2
        (["--rates.numeric", "true", "--trajectory.alpha", "1e300"], (1.0, 1e300, 1.0)),
        # J_- at (1e-100, 1e-100) underflowed to 0: -0.0 rows, then exit 2
        (["--rates.n", "1", "--detector.omega0", "1e-100", "--trajectory.alpha", "1e-100",
          "--detector.mu", "1e100"], (1e-100, 1e-100, 1e100)),
        # alpha/omega0 = 1e-200: S_4's (alpha d/2)^2 csch^2 was 0 * inf on the
        # rays: exit 2
        (["--rates.n", "1", "--detector.omega0", "1e200", "--detector.mu", "1e-200"],
         (1e200, 1.0, 1e-200)),
        (["--rates.numeric", "true", "--trajectory.alpha", "1e-320"], (1.0, 1e-320, 1.0)),
    ],
)
def test_numeric_rates_once_refused_match_the_closed_form(capsys, args, point):
    code, out, err = run(capsys, "rates", *args, "--format", "json")
    assert code == 0 and err == ""
    row = json.loads(out)[0]
    w0, alpha, mu = point
    want = R.atom_total_rate(DetectorParams(w0, mu), alpha, AtomState.plus())
    for key in ("vf", "rr", "total"):
        assert row[key] == pytest.approx(getattr(want, key), rel=1e-9), key


def test_overflow_line_names_the_command(tmp_path, capsys):
    out_file = tmp_path / "rates.csv"
    code, out, err = run(capsys, "rates", "--detector.omega0", "1e308",
                         "--out", str(out_file))
    assert code == 2 and out == "" and not out_file.exists()
    # the error's text, not str() of its (errno, text) args tuple
    assert err.splitlines() == [
        f"numeric failure: rates overflowed a float: {os.strerror(errno.ERANGE)}"
    ]


def test_rates_at_tiny_omega0_are_finite(capsys):
    # omega0^2 coth(pi omega0 / alpha) was formed as 0 * inf: exit 2 on a NaN
    code, out, err = run(capsys, "rates", "--detector.omega0", "1e-320",
                         "--trajectory.alpha", "1e300", "--format", "json")
    assert code == 0 and err == ""
    record = json.loads(out)[0]
    want = -0.5 * 1e-320 * 1e300 / (8.0 * math.pi**2)
    assert record["vf"] == pytest.approx(want, rel=1e-12)
    assert record["total"] == record["vf"]


@pytest.mark.parametrize(
    "args, field",
    [
        (["--regularization.n_max", "10"], "regularization"),
        (["--regularization.epsilon", "1e-3"], "regularization"),
        (["--trajectory.v", "0.5"], "trajectory.v"),
        (["--populations.steps", "5"], "populations.steps"),
        (["--trajectory.kind", '"inertial"'], "trajectory.kind"),
    ],
)
def test_removed_config_fields_are_unknown(tmp_path, capsys, args, field):
    # the oracle settings are constants of kernels; no command read
    # trajectory.v; populations picks its RK4 step count from its inputs;
    # trajectory.alpha alone names the worldline (0 is inertial)
    for command in ("verify", "steady"):
        code, out, err = run(capsys, command, *args)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: unknown config")
        assert field in err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({args[0][2:]: json.loads(args[1])}))
    code, out, err = run(capsys, "steady", "--config", str(cfg))
    assert code == 1 and out == "" and err.startswith("error: unknown config")


@pytest.mark.parametrize(
    "args, message",
    [
        (["fermion", "--fermion.v_typ", "1e308"],
         "error: coarse-graining ratio 2 v tau_c must be finite, got inf"),
        (["fermion", "--fermion.dt", "Infinity"],
         "error: dt must be positive and finite, got inf"),
    ],
)
def test_non_finite_fermion_inputs_are_domain_errors(capsys, args, message):
    code, out, err = run(capsys, *args)
    assert code == 1 and out == ""
    assert err.splitlines() == [message]


@pytest.mark.parametrize("omega0", ["1e300", "1e-300"])
def test_fermion_extreme_detuning_times_window_prints_its_row(capsys, omega0):
    # the phase detuning * dt overflowed (cos raised ValueError) or
    # detuning^2 dt underflowed (ZeroDivisionError), out of main
    code, out, err = run(capsys, "fermion", "--detector.omega0", omega0,
                         "--fermion.dt", "1e300")
    assert code == 0 and err == ""
    row = [float(x) for x in out.splitlines()[1].split(",")[:-1]]
    assert all(map(math.isfinite, row)) and row[0] > 0.0


@pytest.mark.parametrize(
    "args",
    [
        ["response", "--trajectory.alpha", "1e-320"],
        ["response", "--response.deltaE.start", "1e308"],
    ],
)
def test_response_overflowing_exponent_gives_rate_zero_without_warning(capsys, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *args)
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert "0.00000000000e+00" in {r[2] for r in rows}


def test_response_at_underflowing_exponent_is_its_limit(capsys):
    # x = 2 pi deltaE / alpha underflows to 0: the rate is alpha / 4 pi^2, not inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "response", "--response.deltaE.start", "1e-320",
                             "--trajectory.alpha", "1e300", "--format", "json")
    assert code == 0 and err == ""
    first = json.loads(out)[0]
    assert first["deltaE"] == 1e-320
    assert first["rate"] == pytest.approx(1e300 / (4.0 * math.pi**2), rel=1e-15)


# 2 pi deltaE overflows at deltaE = 4e307; deltaE / alpha = 4 does not
@pytest.mark.parametrize("args", [
    ["response", "--response.deltaE.start", "4e307", "--response.deltaE.count", "1",
     "--trajectory.alpha", "1e307"],
    ["sweep", "--sweep.quantity", "response", "--sweep.param", "trajectory.alpha",
     "--sweep.start", "1e307", "--sweep.stop", "1e307", "--sweep.count", "1",
     "--detector.omega0", "4e307"],
])
def test_response_where_two_pi_deltaE_overflows_is_the_scaled_rate(capsys, args):
    # the rate scales as lambda under (deltaE, alpha) -> lambda (deltaE, alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *args, "--format", "json")
    assert code == 0 and err == ""
    (record,) = json.loads(out)
    assert record["rate"] == pytest.approx(7.742287464073752e295, rel=1e-12)
    assert record["rate"] == pytest.approx(
        1e307 * RS.response_accelerated(4.0, 1.0).rate, rel=1e-12
    )


@pytest.mark.parametrize(
    "args",
    [
        ["rates", "--rates.numeric", "true", "--trajectory.alpha", "1e-320"],
    ],
)
def test_regulator_ladder_overflow_gives_no_warning(capsys, args):
    # S_m at alpha/omega0 = 1e-320 was a NaN that failed the rates' d vs d/2
    # check (exit 2); it is now the closed-form rate, still without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, _ = run(capsys, *args)
    assert code == 0


def test_integer_inputs_print_as_floats(capsys):
    code, out, _ = run(capsys, "steady", "--detector.omega0", "2")
    assert code == 0
    assert out.splitlines()[1].startswith("2.00000000000e+00,1.00000000000e+00,")
    code, out, _ = run(capsys, "steady", "--detector.omega0", "2", "--format", "json")
    assert code == 0
    assert '"omega0": 2.0' in out


@pytest.mark.parametrize("samples", [17, cli.SMALL_GRID + 1])
def test_populations_closed_column_is_closed_form_on_the_trajectory(samples):
    config = load_config(None, ["--populations.sigma_plus", "0.9", "--thermal.beta", "0.3",
                                "--populations.samples", str(samples)])
    header, table = cli.cmd_populations(config)
    init = M.PopulationState(0.9, 1.0 - 0.9)
    traj = M.evolve(init, 1.0, 0.3, config["populations.tau_end"], samples=samples)
    # a small trajectory is a list, whose rows call closed_form one tau at a time
    assert isinstance(table, list) == isinstance(traj.taus, list) == (samples <= cli.SMALL_GRID)
    if isinstance(traj.taus, list):
        refs = [M.closed_form(init, 1.0, 0.3, tau) for tau in traj.taus]
        ref = M.PopulationState(np.array([r.sigma_plus for r in refs]),
                                np.array([r.sigma_minus for r in refs]))
    else:
        ref = M.closed_form(init, 1.0, 0.3, traj.taus)
    table = np.asarray(table)
    assert header[2] == "sigma_plus_closed" and header[4] == "sigma_minus_closed"
    assert np.array_equal(table[:, 0], traj.taus)
    assert np.array_equal(table[:, 2], ref.sigma_plus)
    assert np.array_equal(table[:, 4], ref.sigma_minus)
    assert table[0, 2] == init.sigma_plus and table[0, 4] == init.sigma_minus


# (fault, twin, the twin's vf): omega0^2 or mu^2 alone left the normal float
# range, so the rates printed -0.0 with exit 0 or overflowed with exit 2; each
# twin has the same omega0 mu, mu alpha and omega0 / alpha, so the same rates
_RATE_TWINS = [
    (["--detector.omega0", "1e-200", "--trajectory.alpha", "1e-200",
      "--detector.mu", "1e150"],
     ["--detector.omega0", "1", "--trajectory.alpha", "1", "--detector.mu", "1e-50"],
     -1.99688100885e-102),
    (["--detector.omega0", "1e-200", "--detector.mu", "1e200"],
     ["--detector.omega0", "1e-100", "--trajectory.alpha", "1e100",
      "--detector.mu", "1e100"],
     -6.33257397765e197),
    (["--detector.omega0", "4e307", "--trajectory.alpha", "1e307",
      "--detector.mu", "1e-300"],
     ["--detector.omega0", "4", "--trajectory.alpha", "1", "--detector.mu", "1e7"],
     -3.18309886192e13),
    # at the coth pole omega0 alpha overflowed with mu^2 normal
    (["--detector.omega0", "1e10", "--trajectory.alpha", "1e300",
      "--detector.mu", "1e-10"],
     ["--detector.omega0", "1", "--trajectory.alpha", "1e290", "--detector.mu", "1"],
     -6.33257397765e287),
    # the numeric rates' line integral, before it ran in units of d =
    # min(pi / alpha, 1 / omega0), underflowed (exit 2) or overflowed
    (["--rates.n", "1", "--detector.omega0", "1e-100", "--trajectory.alpha", "1e-100",
      "--detector.mu", "1e100"],
     ["--rates.n", "1", "--detector.mu", "1"],
     -1.99688100885e-2),
    (["--rates.n", "1", "--detector.omega0", "1e100", "--detector.mu", "1"],
     ["--rates.n", "1", "--trajectory.alpha", "1e-100", "--detector.mu", "1e100"],
     -1.98943678865e198),
]


def _sweep_point(args):
    """The same point as a one-point sweep over detector.mu."""
    i = args.index("--detector.mu")
    mu, rest = args[i + 1], args[:i] + args[i + 2:]
    return ["sweep", "--sweep.quantity", "rates", "--sweep.param", "detector.mu",
            "--sweep.start", mu, "--sweep.stop", mu, "--sweep.count", "1", *rest]


@pytest.mark.parametrize("fault, twin, vf", _RATE_TWINS)
@pytest.mark.parametrize("command", ["rates", "sweep"])
def test_rates_where_a_square_leaves_the_float_range_match_their_twin(
    capsys, fault, twin, vf, command
):
    def record(args):
        argv = ["rates", *args] if command == "rates" else _sweep_point(args)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0 and err == ""
        return json.loads(out)[0]

    got, want = record(fault), record(twin)
    for key in ("vf", "rr", "total"):
        assert got[key] != 0.0 and math.isfinite(got[key])
        assert got[key] == pytest.approx(want[key], rel=1e-12)
    assert want["vf"] == pytest.approx(vf, rel=1e-11)


def test_rates_at_the_pole_with_no_inversion_are_finite_where_omega0_alpha_overflows(capsys):
    # <R3> = 0 makes VF 0, but 0 * (omega0 alpha = inf) was NaN: exit 1 with
    # "vf + rr must reproduce total"
    code, out, err = run(capsys, "rates", "--rates.atom", "0", "--trajectory.alpha",
                         "1e308", "--detector.omega0", "10", "--format", "json")
    assert code == 0 and err == ""
    record = json.loads(out)[0]
    assert record["vf"] == 0.0
    assert record["rr"] == record["total"] == pytest.approx(-100.0 / (16.0 * math.pi))


def test_rates_at_mu_zero_are_zero_where_omega0_squared_overflows(capsys):
    # omega0^2 = inf raised OverflowError (exit 2) though mu = 0 makes every rate 0
    code, out, err = run(capsys, "rates", "--detector.omega0", "1e200",
                         "--detector.mu", "0", "--format", "json")
    assert code == 0 and err == ""
    record = json.loads(out)[0]
    assert record["vf"] == record["rr"] == record["total"] == 0.0


def test_rates_whose_product_overflows_warn_nothing(capsys):
    # omega0^2 and mu^2 are finite, their product is not: numpy's overflow
    # warning used to reach stderr ahead of the error line; the product now
    # overflows as omega0^2 alone does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "rates", "--detector.omega0", "1e100",
                             "--detector.mu", "1e100")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "numeric failure: rates overflowed a float: Numerical result out of range"]


_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("args, field", [
    (["steady", "--detector.omega0", _HUGE], "detector.omega0"),
    (["steady", "--detector.omega0", "-" + _HUGE], "detector.omega0"),
    (["rates", "--rates.atom", _HUGE], "rates.atom"),
    (["sweep", "--sweep.start", _HUGE], "sweep.start"),
    (["fermion", "--fermion.init", f"[{_HUGE},0]"], "fermion.init"),
])
def test_an_int_too_large_for_a_float_is_a_domain_error(capsys, args, field):
    # float() raised OverflowError on it, which exited 2 as a numeric failure
    code, out, err = run(capsys, *args)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {field} must be ")


def test_an_int_too_large_for_a_float_in_a_spectrum_is_a_domain_error(tmp_path, capsys):
    spectrum = tmp_path / "bath.json"
    spectrum.write_text(f'[{{"omega": {_HUGE}, "g": 0.1}}]')
    code, out, err = run(capsys, "fermion", "--fermion.spectrum", str(spectrum))
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: spectrum {spectrum} must be a JSON array of "
        '{"omega": <number>, "g": <number>} objects'
    ]


def test_integer_fields_keep_their_range_message_for_a_huge_int(capsys):
    code, out, err = run(capsys, "sweep", "--sweep.count", _HUGE)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: sweep.count must be <= 1000000, got {_HUGE}"]


def test_an_int_past_the_digit_limit_is_a_domain_error(tmp_path, capsys):
    # where int() has a digit limit (4300 by default), json raised ValueError
    # for a longer int and main printed a traceback
    digits = "1" + "0" * 5000
    code, out, err = run(capsys, "steady", "--detector.omega0", digits)
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: detector.omega0 must be a number, got ")
    cfg = tmp_path / "run.json"
    cfg.write_text(f'{{"detector": {{"omega0": {digits}}}}}')
    code, out, err = run(capsys, "steady", "--config", str(cfg))
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ")
