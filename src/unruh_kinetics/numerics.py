"""Shared numerical machinery: panel quadrature.

Integrals run on one composite 24-point Gauss-Legendre rule (Davis &
Rabinowitz, *Methods of Numerical Integration*, ch. 2) over [0, u_max], for
kernels that spike on a scale |c| at u = 0 and oscillate at a frequency omega:
panel widths double from |c|/100 up to h = min(1, 1/|omega|), then stay h.
`composite_rule` lays the same 24 points on any panel edges; the rate
pipeline's ray rule (`rates._line_integral`) is one fixed set of edges whose
widths double all the way out, since its integrand decays exponentially.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence

import numpy as np

from .core import DomainError

__all__ = [
    "neville",
    "panel_rule",
    "composite_rule",
    "panel_integral",
    "damped_line_integral",
    "half_line_cos_sin_integral",
]

# 10^4 panels are 2.4e5 nodes, ~4 MB per complex array.
MAX_PANELS = 10_000


def neville(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Polynomial extrapolation of (xs, ys) to x = 0.

    Returns (value, contraction) where contraction is the magnitude of the
    last correction, a proxy for the extrapolation error.  The package no
    longer calls it; it stays while the benchmark's tracer counts it.
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


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the 24-point rule on [-1, 1], built on first use:
    numpy.polynomial is imported only by the quadrature."""
    return np.polynomial.legendre.leggauss(24)


def panel_rule(c: float, omega: float, u_max: float) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the composite rule on [0, u_max].

    c = 0 has no doubling panels.  A rule of more than MAX_PANELS panels, or
    a u_max that is not finite, raises DomainError before any allocation.
    """
    h = 1.0 / max(1.0, abs(omega))
    knee = min(h, u_max)
    edges = [0.0]
    x = abs(c) / 100.0
    while 0.0 < x < knee:
        edges.append(x)
        x *= 2.0
    uniform = (u_max - knee) / h
    if not uniform + len(edges) <= MAX_PANELS:
        raise DomainError(
            f"quadrature at omega = {omega}, u_max = {u_max} needs more than "
            f"{MAX_PANELS} panels"
        )
    edges = np.append(edges, np.linspace(knee, u_max, math.ceil(uniform) + 1))
    return composite_rule(edges)


def composite_rule(edges) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the 24-point rule on each panel between
    consecutive edges, a 1-D increasing array."""
    gl_nodes, gl_weights = _gauss_legendre()
    half = 0.5 * np.diff(edges)[:, None]
    nodes = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * gl_nodes
    return nodes.ravel(), (half * gl_weights).ravel()


def panel_integral(f: Callable, c: float, omega: float, u_max: float) -> float:
    """int_0^{u_max} f(u) du, f evaluated once on the whole node array."""
    u, w = panel_rule(c, omega, u_max)
    return float(w @ f(u))


def damped_line_integral(
    omega: float, c: float, delta: float, u_max: float
) -> float:
    """Real part of int_{-u_max}^{u_max} e^{-i omega u} e^{-delta |u|} (u + ic)^-2 du.

    Folded onto [0, u_max] via u -> -u; c = 0 raises DomainError.
    """
    if c == 0.0:
        raise DomainError("c = 0 puts a non-integrable pole on the line")
    f = lambda u: 2.0 * (np.exp(-(delta + 1j * omega) * u) * (u + 1j * c) ** -2).real
    return panel_integral(f, c, omega, u_max)


def half_line_cos_sin_integral(
    f: Callable[[float], float],
    u_max: float,
    breakpoints: Sequence[float] = (),
) -> float:
    """int_0^{u_max} f(u) du on unit-width panels, f called with one float per
    node; the smallest positive breakpoint is the spike scale c."""
    c = min((p for p in breakpoints if 0.0 < p < u_max), default=0.0)
    scalar_calls = lambda u: np.array([f(x) for x in u.tolist()])
    return panel_integral(scalar_calls, c, 1.0, u_max)
