"""In-process fuzz of every CLI command with extreme config values.

Each example sets one or two config fields and calls ``cli.main`` in this
process: a numeric field to an edge value, ``sweep.param`` or
``fermion.spectrum`` to a valid or a wrong name, every enumerated field
(``output.format``, the grid scales, ``rates.atom``, ...) to each of its
values or a wrong one, or ``fermion.init`` to a short list of edge values.  It
writes to stdout, or with ``--out`` to a new file, an existing directory, a
path under a missing directory or the empty string.  The contract checked: an
exit code in 0..3,
no exception out of ``main``, no numpy RuntimeWarning (a process would print
it to stderr), no NaN or inf in the output with exit 0 (bar the token
``inf`` that ``steady`` writes for beta), one stderr line and no output when a table command fails,
nothing on stdout with ``--out``, where exit 0 writes the file and exit 3 is
one ``i/o error:`` line, and a time bound per example.  Derandomized, so
every run draws the same examples.
"""

import contextlib
import io
import itertools
import json
import math
import tempfile
import time
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from unruh_kinetics import cli

EDGE_VALUES = [
    0, 1e-320, -1e-320, 1e-300, -1e-300, 1e300, -1e300, 1e308, -1e308,
    math.inf, -math.inf, math.nan, -1, 0.5, 3,
]
SECONDS_PER_EXAMPLE = 10.0


KINDS = {name: kinds for name, (_, *kinds) in cli._FIELDS.items()}
FIELDS = [
    name for name, kinds in KINDS.items() if {"a number", "an integer"} & set(kinds)
]
# The strings each enumerated field accepts ('inf' is a number of thermal.beta)
ENUMS = {
    name: [k.strip("'") for k in kinds if k.startswith("'") and k != "'inf'"]
    for name, kinds in KINDS.items()
}


# Spectrum files for fermion.spectrum: one valid, the rest each wrong in one
# way.  The directory lives as long as this module.
_SPECTRA = tempfile.TemporaryDirectory()
SPECTRUM_DOCS = {
    "valid": [{"omega": 1.0, "g": 0.1}, {"omega": 2.0, "g": 0.05}],
    "empty": [],
    "object": {"omega": 1.0, "g": 0.1},
    "numbers": [1.0, 2.0],
    "missing_g": [{"omega": 1.0}],
    "string_omega": [{"omega": "1", "g": 0.1}],
    "null_g": [{"omega": 1.0, "g": None}],
    "huge": [{"omega": 1e308, "g": 1e308}],
    "tiny": [{"omega": 1e-320, "g": 1e-300}],
}
for _name, _doc in SPECTRUM_DOCS.items():
    (Path(_SPECTRA.name) / f"{_name}.json").write_text(json.dumps(_doc))
(Path(_SPECTRA.name) / "not_json.json").write_text("[{")
(Path(_SPECTRA.name) / "not_utf8.json").write_bytes(b"\xff\xfe[")

STRING_VALUES = {
    **{name: values + [values[0].upper(), "lgo", ""]
       for name, values in ENUMS.items() if values},
    "sweep.param": list(KINDS) + [
        "detector", "sweep", "no.such.field", "detector.omega0.x", "",
    ],
    "fermion.spectrum": [None, "", _SPECTRA.name, f"{_SPECTRA.name}/missing.json"]
    + [str(p) for p in sorted(Path(_SPECTRA.name).iterdir())],
}

# --out targets.  "new_file" is a fresh path in this directory per example;
# the other three cannot be opened for writing.
_OUTPUTS = tempfile.TemporaryDirectory()
_OUTPUT_NUMBERS = itertools.count()
OUT_KINDS = [None, "new_file", "directory", "missing_directory", "empty"]


def _out_path(kind: str) -> str:
    if kind == "new_file":
        return f"{_OUTPUTS.name}/out{next(_OUTPUT_NUMBERS)}.txt"
    return {
        "directory": _OUTPUTS.name,
        "missing_directory": f"{_OUTPUTS.name}/missing/out.txt",
        "empty": "",
    }[kind]


VALUES = {
    **{field: st.sampled_from((EDGE_VALUES if field in FIELDS else [])
                              + STRING_VALUES.get(field, []))
       for field in {*FIELDS, *STRING_VALUES}},
    "fermion.init": st.lists(st.sampled_from(EDGE_VALUES), max_size=3),
}


def _records(command: str, out: str) -> list[dict]:
    if command == "verify":
        return json.loads(out)["checks"]
    if out.startswith("["):
        return json.loads(out)
    header, *lines = out.splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def _is_non_finite(cell) -> bool:
    try:
        return not math.isfinite(float(cell))
    except (TypeError, ValueError):  # true, None, a verify status
        return False


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(
    command=st.sampled_from(sorted(cli._COMMANDS)),
    overrides=st.lists(
        st.sampled_from(sorted(VALUES)).flatmap(
            lambda field: st.tuples(st.just(field), VALUES[field])
        ),
        min_size=1, max_size=2, unique_by=lambda fv: fv[0],
    ),
    as_json=st.booleans(),
    numeric_rates=st.booleans(),
    out_kind=st.sampled_from(OUT_KINDS),
)
def test_every_command_keeps_the_exit_contract(
    command, overrides, as_json, numeric_rates, out_kind
):
    argv = [command]
    for field, value in overrides:
        argv += [f"--{field}", json.dumps(value)]
    if as_json:
        argv += ["--format", "json"]
    if numeric_rates and command == "rates":
        argv += ["--rates.numeric", "true", "--rates.field", "true"]
    out_path = None if out_kind is None else _out_path(out_kind)
    if out_path is not None:
        argv += ["--out", out_path]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert time.perf_counter() - start < SECONDS_PER_EXAMPLE, argv
    assert code in (0, 1, 2, 3), argv
    numpy_warnings = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert [str(w.message) for w in numpy_warnings] == [], argv
    out, err = out.getvalue(), err.getvalue()
    if out_path is not None:
        assert out == "", argv
        if code == 3:
            assert len(err.splitlines()) == 1 and err.startswith("i/o error:"), argv
        written = Path(out_path)
        out = written.read_text() if out_kind == "new_file" and written.exists() else ""
        assert code != 0 or out != "", argv
    if code == 0:
        bad = [
            (key, value)
            for record in _records(command, out)
            for key, value in record.items()
            if _is_non_finite(value)
            and not (command == "steady" and key == "beta" and value == "inf")
        ]
        assert bad == [], argv
    elif command != "verify":
        assert out == "" and len(err.splitlines()) == 1, (argv, err)
