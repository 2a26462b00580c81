"""Whole-command outputs: each file in tests/cli_corpus is one invocation and
its expected exit code, stdout and stderr.

The file's first line is the command (``unruh-kinetics <args>``), the second
``exit <code>``, then ``--- stdout`` and ``--- stderr`` each followed by that
stream's text.  Numbers are compared at 1e-11 relative, since numpy versions
and CPUs differ in the last bits of their SIMD exp; every other character is
compared exactly.  A field that is a rounding-level difference of computed
values (verify's "error", populations' "defect") is compared to 1e-15
absolute instead, since one bit of an operand moves it by ~1e-16.

To add an invocation, write a file holding just its command line and run
``PYTHONPATH=src python tests/test_cli_corpus.py``.  It writes the
expectations, from the current code, of each file that has none or that
the code no longer matches, and leaves every passing file as it is, so a
row whose digits are rounding noise moves only when the code moves it.
"""

import io
import math
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from unruh_kinetics.cli import main

CORPUS = Path(__file__).with_name("cli_corpus")
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
_NOISE_FIELDS = {"error", "defect"}


def _read(path: Path) -> tuple[list[str], str | None]:
    """(argv, expected text or None) of a corpus file."""
    command, _, expected = path.read_text().partition("\n")
    return shlex.split(command)[1:], expected or None


def _run(argv: list[str]) -> str:
    """The text of a corpus file after its command line: main(argv)'s exit
    code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def _noise(line: str, header: list[str]) -> list[bool]:
    """For each number of the line, whether it is a noise field's value."""
    if line.strip().startswith('"'):  # a JSON "key": value line
        key = line.split('"')[1]
        return [key in _NOISE_FIELDS] * len(_NUMBER.findall(line))
    cells = line.split(",")
    if len(cells) != len(header):
        return [False] * len(_NUMBER.findall(line))
    return [header[i] in _NOISE_FIELDS
            for i, cell in enumerate(cells) for _ in _NUMBER.findall(cell)]


def _mismatch(got: str, want: str) -> str | None:
    """The first line where got differs from want, None if none does."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} lines, expected {len(want_lines)}"
    header, previous = [], ""
    for g, w in zip(got_lines, want_lines):
        if previous == "--- stdout":  # a CSV header names the columns below it
            header = w.split(",")
        previous = w
        g_parts, w_parts = _NUMBER.split(g), _NUMBER.split(w)
        if len(g_parts) != len(w_parts) or g_parts[::2] != w_parts[::2]:
            return f"{g!r}, expected {w!r}"
        for noise, a, b in zip(_noise(w, header), g_parts[1::2], w_parts[1::2]):
            a, b = float(a), float(b)
            if not math.isclose(a, b, rel_tol=1e-11, abs_tol=1e-15 if noise else 0.0):
                return f"{g!r}, expected {w!r}"
    return None


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.txt")), ids=lambda p: p.stem)
def test_command_output_is_the_corpus(path):
    argv, expected = _read(path)
    assert expected is not None, f"{path.name} has no expectations"
    problem = _mismatch(_run(argv), expected)
    assert problem is None, problem


if __name__ == "__main__":  # write the expectations that are absent or fail
    for path in sorted(CORPUS.glob("*.txt")):
        argv, expected = _read(path)
        text = _run(argv)
        if expected is None or _mismatch(text, expected) is not None:
            path.write_text(f"unruh-kinetics {shlex.join(argv)}\n{text}")
            print(path.name, text.partition("\n")[0])
