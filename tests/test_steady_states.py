"""Exact nonlinear steady states: a known answer for a whole march.

By the method of manufactured solutions: pick a band-limited state u* (a
constant plus a few cosines), a catalog rate rho and a kernel with
g = sqrt(2 pi) Ghat nonzero on u*'s modes, let P be the trigonometric
polynomial with P_hat = -lam u*_hat / g, and take the source
h = P - rho(u*), which is evaluated in closed form at any x, so on every
forcing grid. Then F(u*) = P and lam u*_hat + g P_hat = 0: u* is a steady
state of the equation. Its forcing is constant in time, for which the
phi-weight recursion is exact, e^{dt lam} u* + g dt phi1(dt lam) P_hat = u*,
so u* is also the fixed point of the discrete map, on every rung of the
forcing grid and through every handover between windows. Picard is run to
``TOL_FIX``, so what the march leaves is rounding, bounded by
eps * M * windows relative (measured at most 0.04 of it over the cases
below; with the default tolerance the Picard stop alone left up to 6e-14).
The Heun oracle is second order and does not reproduce u*: its deviation
is the only error source here, and falls by 4 per doubling of substeps.
"""

import numpy as np
import pytest

import cubelap as cl
import cubelap.evolve as ev
from cubelap.grid import irfft_raw, smooth_points
from cubelap.model import KERNELS, NONLINEARITIES

L, N, FRAMES = 20.0, 512, 64
WINDOW, WINDOWS = 0.4, 10
TOL_FIX = 1e-13
#: u* = sum of c_k cos(k pi x / L): a constant and six cosines, all inside
#: the band-limited kernel's cutoff (k = 8 is p = 1.26 < 2)
MODES = {0: 0.3, 1: 0.4, 2: -0.25, 3: 0.2, 5: -0.15, 6: 0.1, 8: 0.05}

KERNEL_BUILDS = {
    "gaussian": lambda grid: cl.gaussian_kernel(0.01, 2.0),
    "sech": lambda grid: cl.sech_kernel(0.01, 2.0),
    "bandlimited": lambda grid: cl.bandlimited_kernel(grid, 0.01, 2.0),
    "tabulated": lambda grid: cl.tabulated_kernel(
        grid, grid.x, 0.01 * np.exp(-((grid.x / 2.0) ** 2))),
}

RATE_BUILDS = {
    "linear_plus_source": lambda source=None: cl.linear_plus_source(0.3, source),
    "saturating": lambda source=None: cl.saturating(0.5, source),
    "logistic_clip": lambda source=None: cl.logistic_clip(0.5, 2.0, source),
}


def u_star(x):
    x = np.asarray(x, dtype=float)
    return sum(c * np.cos(k * np.pi / L * x) for k, c in MODES.items())


def steady_problem(kernel_name, rate_name, b, a=0.0):
    """The problem whose steady state is u*, started from u*."""
    grid = cl.make_grid(L, N)
    kernel = KERNEL_BUILDS[kernel_name](grid)
    g = np.sqrt(2.0 * np.pi) * kernel.spectrum_on(grid)
    # the symbol -p^6 + i b p + a at p = k pi / L, written out, not the solver's
    lam = {k: -((k * np.pi / L) ** 6) + 1j * b * (k * np.pi / L) + a for k in MODES}
    p_coeffs = {k: -lam[k] * c / g[k] for k, c in MODES.items()}
    rate = RATE_BUILDS[rate_name]()

    def source(x):
        x = np.asarray(x, dtype=float)
        p = sum((pk * np.exp(1j * k * np.pi / L * x)).real for k, pk in p_coeffs.items())
        return p - rate.fn(u_star(x), x)

    return cl.ProblemSpec(a=a, b=b, kernel=kernel, nonlinearity=RATE_BUILDS[rate_name](source),
                          u0=cl.field_from_function(grid, u_star), grid=grid)


def march(prob, **kwargs):
    return cl.global_march(prob, WINDOWS * WINDOW, max_window_length=WINDOW,
                           n_frames=FRAMES, tol_fix=TOL_FIX, **kwargs)


def worst_gap(prob, reports):
    """The largest relative L2 gap of a window's end state from u*."""
    target = u_star(prob.grid.x)
    return max(np.linalg.norm(irfft_raw(prob.grid, r.final_raw) - target)
               for r in reports) / np.linalg.norm(target)


def rounding_bound(reports):
    return np.finfo(float).eps * FRAMES * len(reports)


@pytest.mark.parametrize("b", [0.0, 1.0])
@pytest.mark.parametrize("rate_name", sorted(NONLINEARITIES))
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_march_stays_on_the_steady_state(kernel_name, rate_name, b):
    prob = steady_problem(kernel_name, rate_name, b)
    reports = march(prob)
    assert len(reports) >= WINDOWS
    assert worst_gap(prob, reports) <= rounding_bound(reports)


@pytest.mark.parametrize("b", [0.0, 1.0])
@pytest.mark.parametrize("rate_name", sorted(NONLINEARITIES))
def test_oracle_deviation_falls_fourfold_per_substep_doubling(rate_name, b):
    prob = steady_problem("gaussian", rate_name, b)
    worst = [max(r.oracle_rel_deviation for r in march(prob, run_oracle=True,
                                                      oracle_substeps_factor=factor))
             for factor in (4, 8)]
    assert 3.5 <= worst[0] / worst[1] <= 4.5


@pytest.mark.parametrize("rate_name", sorted(NONLINEARITIES))
def test_every_rung_reproduces_the_steady_state(rate_name, monkeypatch):
    """Each rung of the gaussian window's ladder, forced as its first rung,
    ends the march on u*. A rung whose forcing of an iterate aliases hands
    the window to the next one, as the sine's spectrum does on the lowest
    rung, so every rung above the lowest must have run."""
    prob = steady_problem("gaussian", rate_name, 1.0)
    band = ev._window(prob, WINDOW / FRAMES).band
    ladder = list(ev._rungs(smooth_points(band), N))
    assert len(ladder) >= 3 and ladder[-1] == N
    ran = set()
    for n in ladder:
        monkeypatch.setattr(ev, "_first_rung", lambda prob, w, n=n: n)
        reports = march(prob)
        points = {r.forcing_points for r in reports}
        assert len(points) == 1 and points <= set(ladder) and min(points) >= n
        ran |= points
        assert worst_gap(prob, reports) <= rounding_bound(reports)
    assert ran >= set(ladder[1:])
