"""The numeric rate pipeline against its two-kernel form.

The VF and RR rates integrate the real and imaginary parts of one complex
image sum S_m(u + ic) per regulator.  The reference below keeps the form that
evaluates the symmetrized correlation as S_m(u - ic) + S_m(u + ic) and the
susceptibility as Im S_m(u + ic) in separate kernels, each through its own
panel quadrature.  For real u, S_m(u - ic) = conj S_m(u + ic) exactly in
floating point, so the two forms agree bit for bit.
"""

import math

import numpy as np
import pytest

from unruh_kinetics import rates as R
from unruh_kinetics.core import AtomState, DetectorParams, NonConvergence
from unruh_kinetics.kernels import _FOUR_PI_SQ, image_sum_inverse_power
from unruh_kinetics.numerics import extrapolate_to_zero, panel_integral

ATOMS = [AtomState.plus(), AtomState.minus(), AtomState(0.2)]
GRID = [(w0, a) for w0 in (0.5, 1.0, 3.0) for a in (0.3, 1.0, 3.0)]
# points whose ladders fail to contract for some rates: the same
# NonConvergence message, VF checked before RR
GRID += [(4.0, 1.0), (1.0, 50.0)]


def _two_kernel(kernel, trig, omega0, alpha, scale):
    u_max = min(60.0 / min(omega0, alpha), 400.0)

    def at_eps(e):
        c = 2.0 * e
        return panel_integral(
            lambda u: trig(omega0 * u) * kernel(u, c), c, omega0, u_max
        )

    return extrapolate_to_zero(at_eps, R._EPS_LADDER, R._CONTRACTION_TOL, scale)


def _field_rates_ref(params, alpha, atom):
    w0, mu = params.omega0, params.mu
    scale = w0**2 * mu**2 / (16.0 * math.pi)

    def vf_kernel(u, c):
        return (image_sum_inverse_power(3, u - 1j * c, alpha)
                + image_sum_inverse_power(3, u + 1j * c, alpha)).real

    def rr_kernel(u, c):
        return image_sum_inverse_power(3, u + 1j * c, alpha).imag

    vf = (
        (mu**2 / _FOUR_PI_SQ)
        * atom.r3_expectation
        * _two_kernel(vf_kernel, np.sin, w0, alpha, scale)
    )
    rr = -(mu**2 / _FOUR_PI_SQ) * _two_kernel(rr_kernel, np.cos, w0, alpha, scale)
    return vf, rr


def _derivative_rates_ref(params, alpha, atom, n):
    w0, mu = params.omega0, params.mu
    m = 2 * n + 2
    sign_fact = (-1.0) ** n * math.factorial(2 * n + 1)
    scale = w0**2 * mu**2 / (16.0 * math.pi)
    dim = mu**2 * w0 / w0 ** (2 * n)

    def corr_kernel(u, c):
        return -(sign_fact / (8.0 * math.pi**2)) * (
            image_sum_inverse_power(m, u - 1j * c, alpha)
            + image_sum_inverse_power(m, u + 1j * c, alpha)
        ).real

    def susc_kernel(u, c):
        return (sign_fact / (4.0 * math.pi**2)) * image_sum_inverse_power(
            m, u + 1j * c, alpha
        ).imag

    vf = -dim * atom.r3_expectation * _two_kernel(
        corr_kernel, np.cos, w0, alpha, scale
    )
    rr = 0.5 * dim * _two_kernel(susc_kernel, np.sin, w0, alpha, scale)
    return vf, rr, vf + rr


def _outcome(f, *args):
    """f's value, or the type and message of the NonConvergence it raises."""
    try:
        return f(*args)
    except NonConvergence as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("omega0,alpha", GRID)
def test_derivative_coupling_rates_equal_two_kernel_form(omega0, alpha):
    p = DetectorParams(omega0, 0.7)
    for atom in ATOMS:
        for n in (0, 1, 2):
            rep = _outcome(R.derivative_coupling_rates, p, alpha, atom, n)
            if isinstance(rep, R.EnergyRateReport):
                rep = (rep.vf, rep.rr, rep.total)
            assert rep == _outcome(_derivative_rates_ref, p, alpha, atom, n)


@pytest.mark.parametrize("omega0,alpha", GRID)
def test_field_rates_equal_two_kernel_form(omega0, alpha):
    p = DetectorParams(omega0, 0.7)
    for atom in ATOMS:
        assert _outcome(R.field_rates, p, alpha, atom) == _outcome(
            _field_rates_ref, p, alpha, atom
        )


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_image_sum_is_conjugate_symmetric_off_the_real_axis(m):
    rng = np.random.default_rng(m)
    u = np.concatenate([
        rng.uniform(0.0, 1.0, 5_000),
        rng.uniform(0.0, 400.0, 5_000),
        10.0 ** rng.uniform(-6.0, 2.0, 5_000),
        [0.0],
    ])
    for alpha in (0.3, 1.0, 3.0, 50.0):
        for c in (*R._EPS_LADDER, *(2.0 * e for e in R._EPS_LADDER)):
            lower = image_sum_inverse_power(m, u - 1j * c, alpha)
            upper = image_sum_inverse_power(m, u + 1j * c, alpha)
            assert np.array_equal(lower, np.conj(upper)), (alpha, c)
