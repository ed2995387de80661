"""The closed forms that replaced quadrature and special functions at run time.

``model`` sizes the gaussian and sech kernels as |amplitude| / width^5 * K and
``certify`` evaluates Lambert W by Newton steps in ``math``. scipy is the slow
path here: the package itself does not import it.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import lambertw

import cubelap as cl
from cubelap.certify import lambert_w0
from cubelap.model import GAUSSIAN_D6_L1, SECH_D6_L1

from test_model import _d6g, _gaussian_d6_l1_exact


def _d6_sign_changes(name):
    """Sign changes of the sixth derivative of the unit kernel."""
    if name == "gaussian":
        # roots of H6
        return np.sort(np.polynomial.hermite.hermgauss(6)[0])
    # d^6 sech = sech (1 - 182 y + 840 y^2 - 720 y^3) with y = sech^2 in (0, 1]
    y = np.roots([720.0, -840.0, 182.0, -1.0]).real
    x = np.arccosh(1.0 / np.sqrt(y))
    return np.sort(np.concatenate([-x, x]))


def _piecewise_quad_l1(kernel, half_width):
    """int |G^(6)| over [-half_width, half_width], split at the sign changes so
    that every piece has a smooth integrand."""
    cuts = [-half_width, *_d6_sign_changes(kernel.name), half_width]
    return sum(
        abs(quad(_d6g(kernel), lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)[0])
        for lo, hi in zip(cuts[:-1], cuts[1:])
    )


def test_sech_constant_is_the_exact_l1_size():
    value = _piecewise_quad_l1(cl.sech_kernel(1.0, 1.0), 60.0)
    assert abs(value - SECH_D6_L1) <= 1e-14 * SECH_D6_L1
    # the adaptive quadrature of |G^(6)| used before read 1.8e-9 lower, which
    # understated q
    assert SECH_D6_L1 > 65.14329018057799


def test_gaussian_constant_is_conservative_and_close_to_exact():
    exact = _piecewise_quad_l1(cl.gaussian_kernel(1.0, 1.0), 10.0)
    assert abs(exact - _gaussian_d6_l1_exact()) <= 1e-14 * exact
    assert GAUSSIAN_D6_L1 >= exact
    assert GAUSSIAN_D6_L1 - exact <= 1.1e-11 * exact


def _historical_quad_l1(kernel):
    """The adaptive quadrature earlier releases ran at every kernel build."""
    w, d6g = kernel.params["width"], _d6g(kernel)
    val, _ = quad(
        lambda t: abs(d6g(t)), -10.0 * w, 10.0 * w,
        limit=800, epsabs=1e-13, epsrel=1e-12,
    )
    return val


def test_gaussian_l1_d6_matches_the_historical_quadrature():
    # The march references were stored with the quadrature's l1_d6, so the
    # closed form must reproduce it. Draws cover the amplitudes and widths the
    # configs use; far outside (say amplitude 1e-3 at width 10) the integral
    # nears the quadrature's absolute tolerance of 1e-13 and the quadrature,
    # not the closed form, is the inexact side.
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.3, 0.3)
        w = rng.uniform(0.5, 2.5)
        k = cl.gaussian_kernel(a, w)
        ref = _historical_quad_l1(k)
        assert abs(k.l1_d6 - ref) <= 1e-13 * ref, (a, w)


@pytest.mark.parametrize("make", [cl.gaussian_kernel, cl.sech_kernel], ids=["gaussian", "sech"])
def test_l1_sizes_scale_with_amplitude_and_width(make):
    unit = make(1.0, 1.0)
    for a, w in [(2.5, 1.0), (-0.3, 1.0), (1.0, 0.4), (-0.01, 2.0), (7.0, 3.3)]:
        k = make(a, w)
        assert k.norm_method == "analytic"
        assert k.l1_d6 == pytest.approx(abs(a) / w**5 * unit.l1_d6, rel=4e-16)
        assert k.l1 == pytest.approx(abs(a) * w * unit.l1, rel=4e-16)


def test_lambert_w0_matches_scipy_over_the_float_range():
    xs = np.logspace(-300, 300, 6001)
    ours = np.array([lambert_w0(float(x)) for x in xs])
    ref = lambertw(xs).real
    assert np.max(np.abs(ours - ref) / ref) <= 4e-15


def test_lambert_w0_at_the_ends():
    assert lambert_w0(math.inf) == math.inf
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(5e-324) == 5e-324
    assert lambert_w0(math.e) == pytest.approx(1.0, rel=4e-16)
    big = lambert_w0(1.7976931348623157e308)
    assert big == pytest.approx(float(lambertw(1.7976931348623157e308).real), rel=4e-15)
