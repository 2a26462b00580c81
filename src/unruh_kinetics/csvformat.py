"""The vectorised CSV formatter of tables of more than one row.

Every float cell is exactly CPython's "%.11e" of it (12 significant digits):
numpy computes the digits, and CPython formats the cells near a rounding tie,
the non-finite ones and those of magnitude below 1e-99 or from 1e99 on (a
three-digit exponent).  The digits come from the cell scaled by a power of
ten, which is exact only up to 10^22; beyond it the rounded power adds an
error to that of the scaling, and the scaled value stays within 1.9e-4 of
the exact one, well inside the tie guard's 0.001 margin.  Its lookup tables
are built when the module is imported, so only a command that writes such a
table imports it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["csv_lines"]


# Each float cell gets a 20-byte slot of five uint32 words, "[-]d.d" | dddd | dddd | "dde" | "+dd" and its "," or "\n";
# zero bytes (an absent "-", the pad after "e") are dropped at the end.  The
# words come from tables of their ASCII bytes, built here with numpy
# arithmetic.
def _words(cells) -> np.ndarray:
    """The rows of an (n, 4) byte array as n native uint32 words."""
    return np.ascontiguousarray(cells, dtype=np.uint8).view(np.uint32).ravel()


# "00" .. "99"
_DIGITS_2 = np.column_stack(np.divmod(np.arange(100, dtype=np.uint8), 10)) + 48
_E_MIN, _E_MAX = -99, 98  # the decimal exponents the vector path takes
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
# 10^(11 - e) as a multiplier (e <= 11) or divisor (e > 11), index _E_MAX - e.
_SHIFTS = [11 - e for e in range(_E_MAX, _E_MIN - 1, -1)]
_SCALE_UP = np.array([float(10 ** max(j, 0)) for j in _SHIFTS])
_SCALE_DOWN = np.array([float(10 ** max(-j, 0)) for j in _SHIFTS])
# Cells per chunk, so that the temporaries stay small.
_CHUNK_CELLS = 1 << 14


def _scaled(ax: np.ndarray, e: np.ndarray) -> np.ndarray:
    """ax * 10^(11 - e) in one rounding, by a power of ten that is exact up to
    10^22 and the nearest double beyond."""
    k = (_E_MAX - e).astype(np.intp)
    return ax * _SCALE_UP[k] / _SCALE_DOWN[k]


def _csv_block(x: np.ndarray, cols: int) -> str:
    """Rows of cols cells each, flattened in x, as "%.11e" CSV lines.

    The 12 digits are r = rint(|x| 10^(11 - e)) with e = floor(log10 |x|),
    taken one lower where the scaled value falls below 10^11 and one higher
    where r rounds up to 10^12.  The exact scaled value is below 10^12 <
    2^40, so the rounding of the scaling is at most half an ulp, 2^-14 =
    6.1e-5.  For |11 - e| <= 22 the power of ten is exact and that is the
    only error; beyond, the power is the nearest double, off by at most
    2^-53 relative, which moves the scaled value by at most 2^-13 = 1.2e-4
    more.  So the scaled value is within 1.9e-4 of the exact one, and r is
    the correctly rounded digit string wherever the scaled value is more
    than 0.499 from a tie: the exact value is then more than 0.498 from it.
    CPython formats the cells nearer a tie, the non-finite ones and those
    with e outside [_E_MIN, _E_MAX].
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
    # translate deletes the pad bytes in about half the time replace takes
    return text.tobytes().translate(None, b"\0").decode("ascii")


def csv_lines(rows) -> str:
    """The CSV lines of rows, read as a 2-D float array and formatted in
    chunks."""
    table = np.ascontiguousarray(rows, dtype=float)
    cols = table.shape[1]
    step = max(1, _CHUNK_CELLS // cols)
    with np.errstate(all="ignore"):
        return "".join([
            _csv_block(table[i:i + step].ravel(), cols)
            for i in range(0, len(table), step)
        ])
