"""The numeric rate pipeline against its two-kernel form.

The reference evaluates the symmetrized correlation as S_m(u - ic) + S_m(u + ic)
and the susceptibility as Im S_m(u + ic), each through its own panel
quadrature along the real half-line at one c inside the strip
0 < Im z < 2 pi/alpha.  Moving those line integrals to c -> 0+ by Cauchy
mixes each pair (A, B) of half-line integrals with cosh and sinh of omega0 c,
so the reference gives the eps -> 0+ rates with no regulator ladder, on a
contour independent of the pipeline's ray.
"""

import math

import numpy as np
import pytest

from unruh_kinetics import rates as R
from unruh_kinetics.core import AtomState, DetectorParams, NonConvergence
from unruh_kinetics.kernels import _FOUR_PI_SQ, image_sum_inverse_power
from unruh_kinetics.numerics import panel_integral

ATOMS = [AtomState.plus(), AtomState.minus(), AtomState(0.2)]
GRID = [(w0, a) for w0 in (0.5, 1.0, 3.0) for a in (0.3, 1.0, 3.0)]
# points the old regulator ladder refused for some rates
GRID += [(4.0, 1.0), (1.0, 50.0)]
TOL = 1e-10  # relative to omega0^2 mu^2 / 16 pi


def _two_kernel(m, trig_a, trig_b, omega0, alpha):
    """A = int trig_a 2 Re S_m(u + ic), B = int trig_b Im S_m(u + ic) over
    u >= 0, with (cosh, sinh) of omega0 c."""
    c = 0.5 * min(math.pi / alpha, 1.0 / omega0)
    u_max = 60.0 / min(omega0, alpha)
    s = lambda u, sign: image_sum_inverse_power(m, u + sign * 1j * c, alpha)
    a = panel_integral(
        lambda u: trig_a(omega0 * u) * (s(u, -1) + s(u, 1)).real, c, omega0, u_max
    )
    b = panel_integral(lambda u: trig_b(omega0 * u) * s(u, 1).imag, c, omega0, u_max)
    return a, b, math.cosh(omega0 * c), math.sinh(omega0 * c)


def _derivative_rates_ref(params, alpha, atom, n):
    w0, mu = params.omega0, params.mu
    k = mu**2 * w0 / w0 ** (2 * n) * (-1.0) ** n * math.factorial(2 * n + 1)
    a, b, ch, sh = _two_kernel(2 * n + 2, np.cos, np.sin, w0, alpha)
    vf = k * atom.r3_expectation / (2.0 * _FOUR_PI_SQ) * (ch * a + 2.0 * sh * b)
    rr = k / (2.0 * _FOUR_PI_SQ) * (0.5 * sh * a + ch * b)
    return vf, rr


def _field_rates_ref(params, alpha, atom):
    k = params.mu**2 / _FOUR_PI_SQ
    a, b, ch, sh = _two_kernel(3, np.sin, np.cos, params.omega0, alpha)
    vf = k * atom.r3_expectation * (ch * a - 2.0 * sh * b)
    return vf, -k * (ch * b - 0.5 * sh * a)


@pytest.mark.parametrize("omega0,alpha", GRID)
def test_derivative_coupling_rates_equal_two_kernel_form(omega0, alpha):
    p = DetectorParams(omega0, 0.7)
    scale = omega0**2 * p.mu**2 / (16.0 * math.pi)
    for atom in ATOMS:
        for n in (0, 1, 2):
            if n == 2 and alpha / omega0 > 10.0:
                # S_6 cancels by (alpha/omega0)^4 on the ray: refused
                with pytest.raises(NonConvergence, match="S_6 at omega0 = 1,"):
                    R.derivative_coupling_rates(p, alpha, atom, n)
                continue
            rep = R.derivative_coupling_rates(p, alpha, atom, n)
            vf, rr = _derivative_rates_ref(p, alpha, atom, n)
            assert abs(rep.vf - vf) <= TOL * scale and abs(rep.rr - rr) <= TOL * scale


@pytest.mark.parametrize("omega0,alpha", GRID)
def test_field_rates_equal_two_kernel_form(omega0, alpha):
    p = DetectorParams(omega0, 0.7)
    scale = omega0**2 * p.mu**2 / (16.0 * math.pi)
    for atom in ATOMS:
        got = np.array(R.field_rates(p, alpha, atom))
        assert np.all(np.abs(got - _field_rates_ref(p, alpha, atom)) <= TOL * scale)


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_image_sum_is_conjugate_symmetric_off_the_real_axis(m):
    # and periodic in Im z with period 2 pi/alpha, and of parity (-1)^m: the
    # identities that fold the pipeline's line integral onto its ray
    rng = np.random.default_rng(m)
    u = np.concatenate([
        rng.uniform(0.0, 1.0, 5_000),
        rng.uniform(0.0, 400.0, 5_000),
        10.0 ** rng.uniform(-6.0, 2.0, 5_000),
        [0.0],
    ])
    for alpha in (0.3, 1.0, 3.0, 50.0):
        s_at = lambda w: image_sum_inverse_power(m, w, alpha)
        d = min(math.pi / alpha, 1.0)  # the ray's start at omega0 = 1
        rays = [1j * h + u * R._RAY for h in (d, d / 2)]
        for z in [u + 1j * c for c in (0.32, 0.16, 0.08, 0.04, 0.02, 0.01)] + rays:
            s = s_at(z)
            assert np.array_equal(s_at(z.conj()), np.conj(s))
            assert np.array_equal(s_at(-z), (-1) ** m * s)
            # S_m = (alpha/2)^m F(alpha z/2); S_m(i pi/alpha) = 0 for odd m
            np.testing.assert_allclose(s_at(z + 2j * math.pi / alpha), s, rtol=1e-9,
                                       atol=1e-12 * (alpha / 2) ** m)
