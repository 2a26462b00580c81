"""Shared numerical machinery: extrapolation ladders and oscillatory quadrature."""

from __future__ import annotations

import warnings
from collections.abc import Callable, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .core import NonConvergence

__all__ = [
    "halving_ladder",
    "neville",
    "extrapolate_to_zero",
    "damped_line_integral",
    "half_line_cos_sin_integral",
]


def halving_ladder(x0: float, steps: int) -> list[float]:
    """[x0, x0/2, ..., x0/2**steps]."""
    return [x0 / 2.0**k for k in range(steps + 1)]


def neville(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Polynomial extrapolation of (xs, ys) to x = 0.

    Returns (value, contraction) where contraction is the magnitude of the
    last correction, a proxy for the extrapolation error.
    """
    x = list(xs)
    v = [float(y) for y in ys]
    n = len(v)
    if n == 1:
        return v[0], abs(v[0])
    prev = v[0]
    for k in range(1, n):
        v = [
            (x[i] * v[i + 1] - x[i + k] * v[i]) / (x[i] - x[i + k])
            for i in range(n - k)
        ]
        last, prev = prev, v[0]
    return v[0], abs(v[0] - last)


def extrapolate_to_zero(
    f: Callable[[float], float | complex],
    xs: Sequence[float],
    tol: float | None = None,
    scale: float = 1e-300,
) -> float | complex:
    """Evaluate f on the regulator ladder xs and Neville-extrapolate to x = 0.

    A complex f is extrapolated part by part and gives a complex value.  If
    tol is given, raise NonConvergence unless the real part's contraction is
    within tol * max(|value|, scale); a NaN value or contraction fails too.
    """
    ys = [f(x) for x in xs]
    value, contraction = neville(xs, [y.real for y in ys])
    if isinstance(ys[0], complex):
        value = complex(value, neville(xs, [y.imag for y in ys])[0])
    if tol is not None and not contraction <= tol * max(abs(value), scale):
        raise NonConvergence(
            f"regulator ladder contracted only to {contraction:.3e} for a "
            f"value of magnitude {abs(value):.3e} (tolerance {tol:.1e})"
        )
    return value


def damped_line_integral(
    omega: float, c: float, delta: float, u_max: float
) -> float:
    """Real part of int_{-u_max}^{u_max} e^{-i omega u} e^{-delta |u|} (u + ic)^-2 du.

    Folded onto [0, u_max] via u -> -u and evaluated with QUADPACK's
    oscillatory-weight rule, which is the only stable option at large u_max.
    """
    f_re = lambda u: 2.0 * np.exp(-delta * u) * ((u + 1j * c) ** -2).real
    f_im = lambda u: 2.0 * np.exp(-delta * u) * ((u + 1j * c) ** -2).imag
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        vr, _ = quad(f_re, 0.0, u_max, weight="cos", wvar=omega, limit=4000)
        vi, _ = quad(f_im, 0.0, u_max, weight="sin", wvar=omega, limit=4000)
    return vr + vi


def half_line_cos_sin_integral(
    f: Callable[[float], float],
    u_max: float,
    breakpoints: Sequence[float] = (),
) -> float:
    """int_0^{u_max} f(u) du for kernels that are spiky near u = 0.

    The caller folds the trigonometric weight into f; breakpoints mark the
    spike scales so the adaptive rule resolves them.
    """
    pts = sorted({p for p in breakpoints if 0.0 < p < u_max})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(
            f, 0.0, u_max, points=pts or None, limit=800,
            epsabs=1e-13, epsrel=1e-12,
        )
    return val
