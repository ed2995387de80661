"""The live band of a window against the full half spectrum it replaces.

Above the live band K of a window, each of the map's per-mode factors
e^{dt lam}, sqrt(2 pi) Ghat and the phi-weights is at most ``BAND_TOL``
(1e-32) times its own largest magnitude, so the solver iterates and stores
modes 0..K-1 only, plus frame 0's modes above K. A tabulated kernel's
factor has a floor far above that at every mode, so it keeps all N/2+1.
The slow path is the same march with the band rule forced to all N/2+1
modes: its frames 1..M must be at most ``BAND_TOL`` of its largest mode
above K, and the band march must agree with it by the march rule
(``scripts/march_rule.py``: the same iteration counts, the final frame to
1e-12 relative, every Picard distance to 1e-12 of the first and the oracle
deviations to 1e-12), with per-frame norms to 1e-15 relative, whether it
forces on all N points or on a reduced grid of N' < N. A bounded property
test draws every catalog kernel and reaction. The memory pin checks that a
march's reports keep no more than one band per window, window 0's frame 0
above its band and the per-window records.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cubelap as cl
import cubelap.evolve as ev
from cubelap.model import KERNELS, NONLINEARITIES
from march_rule import report_breaks
from test_reduced_forcing import problems

A, B, T, N_FRAMES = 0.3, -0.8, 0.4, 32

#: (L, N): at the march's dt the wide grid resolves modes where e^{dt lam}
#: and every analytic or band-limited kernel factor fall below ``BAND_TOL``
#: of their peaks; on the narrow one only e^{dt lam} and the band-limited
#: kernel's factor do, so the gaussian and sech kernels keep K = N/2+1.
WIDE, NARROW = (40.0, 2048), (20.0, 64)


def _kernel(name, grid):
    if name == "gaussian":
        return cl.gaussian_kernel(0.01, 2.0)
    if name == "sech":
        return cl.sech_kernel(0.01, 8.0)
    if name == "bandlimited":
        return cl.bandlimited_kernel(grid, 0.01, 3.0)
    if name == "tabulated":
        xs = np.linspace(-10.0, 10.0, 201)
        return cl.tabulated_kernel(grid, xs, 0.01 * np.exp(-(xs**2) / 4.0))
    raise AssertionError(f"no case for the catalog entry {name!r}")


def _problem(name, size):
    grid = cl.make_grid(*size)
    kernel = _kernel(name, grid)
    q = cl.kernel_strength(kernel)
    ell = 0.5 / cl.Certificate.for_window(q, 1.0, A, B, T).constant
    # a ripple at mode 3N/8, above the wide grid's bands, so that frame 0's
    # modes above K carry weight in its norms
    ripple = 3 * grid.n_points // 8 * grid.dp
    return cl.ProblemSpec(
        a=A, b=B, kernel=kernel,
        nonlinearity=cl.saturating(ell, cl.source_gaussian(0.1, 1.0, 0.5)),
        u0=cl.field_from_function(
            grid, lambda x: np.exp(-((x - 1.0) ** 2) / 2.0) * (1.0 + 1e-3 * np.cos(ripple * x))
        ),
        grid=grid,
    )


def _march(prob, n_frames=N_FRAMES, run_oracle=True):
    reports = cl.global_march(
        prob, 2 * T, n_frames=n_frames, max_window_length=T, run_oracle=run_oracle
    )
    assert len(reports) == 2
    return reports


def _assert_below_the_floor(full, k):
    """Frames 1..M of a full-width report above mode K - 1 are at most
    ``BAND_TOL`` of its largest mode."""
    top = np.max(np.abs(full.u_band))
    assert np.max(np.abs(full.u_band[1:, k:]), initial=0.0) <= ev.BAND_TOL * top


@pytest.mark.parametrize("size", [WIDE, NARROW], ids=["wide", "narrow"])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_live_band_march_matches_full_width_march(name, size, monkeypatch):
    prob = _problem(name, size)
    n_half = prob.grid.n_half
    reduced = _march(prob)
    with monkeypatch.context() as mp:
        # both marches force on the N rung: the full-width one always does
        mp.setattr(ev, "_first_rung", lambda prob, w: prob.grid.n_points)
        band = _march(prob)
        mp.setattr(ev, "_live_band", lambda *factors: factors[0].size)
        full = _march(prob)
    k = band[0].u_band.shape[1]
    # a tabulated kernel's factor is a transform of samples, with a floor
    # far above BAND_TOL at every mode; on the narrow grid the gaussian and
    # sech kernels' factors stay above it up to N/2
    assert (k < n_half) == (name != "tabulated" and (size == WIDE or name == "bandlimited"))
    # frame 0's modes above the band, up to its last nonzero one
    assert (0 < band[0].u0_tail.size <= n_half - k) == (k < n_half)
    assert np.array_equal(band[0].u0_tail, np.trim_zeros(full[0].u_band[0, k:], "b"))
    assert all(rep.u0_tail.size == 0 for rep in band[1:])
    for b, f in zip(band, full):
        assert f.u_band.shape[1] == n_half and b.u_band.shape[1] == k
        _assert_below_the_floor(f, k)
        assert report_breaks(b, f) == []
        for key in ("l2_per_frame", "d6_l2_per_frame", "dudt_l2_per_frame"):
            got, want = getattr(b, key), getattr(f, key)
            assert np.all(np.abs(got - want) <= 1e-15 * want), key
    # the window after the first starts from the last frame bit for bit
    for key in ("l2_per_frame", "d6_l2_per_frame"):
        assert getattr(band[1], key)[0] == getattr(band[0], key)[-1]
    # of these, every band of the wide grid below N/2 + 1 is narrow enough
    # to force on fewer points, 2K <= N' < N; the narrow grid's band-limited
    # band of 28 modes climbs from 60 points to N = 64
    n = prob.grid.n_points
    for r, f in zip(reduced, full):
        assert (r.forcing_points < n) == (size == WIDE and k < n_half)
        if r.forcing_points < n:
            assert 2 * k <= r.forcing_points and 0 <= r.alias_indicator <= ev.ALIAS_TOL
        else:
            assert r.alias_indicator is None
        assert report_breaks(r, f) == []


def _factors(prob, dt):
    """The map's per-mode factors on modes 0..N/2 for the frame spacing dt:
    e^{dt lam}, g = sqrt(2 pi) Ghat and the phi-weights g dt (phi1 - phi2)
    and g dt phi2, from the symbol and the kernel."""
    half = slice(0, prob.grid.n_half)
    z = dt * cl.build_symbol(prob.grid, prob.a, prob.b)[half]
    g = np.sqrt(2.0 * np.pi) * prob.kernel.spectrum_on(prob.grid)[half]
    return {"e_dt": np.exp(z), "g": g, "w_prev": g * dt * (cl.phi1(z) - cl.phi2(z)),
            "w_next": g * dt * cl.phi2(z)}


@pytest.mark.parametrize("size", [WIDE, NARROW], ids=["wide", "narrow"])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_the_live_band_ends_where_every_factor_is_below_the_floor(name, size):
    prob = _problem(name, size)
    dt = T / N_FRAMES
    k = ev._window(prob, dt).band
    factors = _factors(prob, dt)
    live = [np.abs(f) > ev.BAND_TOL * np.max(np.abs(f)) for f in factors.values()]
    for key, f in factors.items():
        assert np.all(np.abs(f[k:]) <= ev.BAND_TOL * np.max(np.abs(f))), key
    # mode K - 1 is live in at least one factor
    assert any(m[k - 1] for m in live)
    if name == "tabulated":
        assert k == prob.grid.n_half


@pytest.mark.parametrize("reaction_name", sorted(NONLINEARITIES))
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
@settings(max_examples=5, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_band_march_matches_full_width_march_on_drawn_problems(kernel_name, reaction_name, data):
    # two 16-frame windows of the reduced-forcing tests' drawn problems, the
    # band march on its reduced grids against the full-width march on N
    prob = data.draw(problems(kernel_name, reaction_name))
    band = _march(prob, n_frames=16, run_oracle=False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ev, "_live_band", lambda *factors: factors[0].size)
        full = _march(prob, n_frames=16, run_oracle=False)
    k = band[0].u_band.shape[1]
    assert (k < prob.grid.n_half) == (kernel_name != "tabulated")
    for r, f in zip(band, full):
        _assert_below_the_floor(f, k)
        assert report_breaks(r, f) == []


def test_march_reports_hold_their_live_band():
    # tracemalloc, not RSS. The reports keep one (M+1, K) band per window,
    # window 0's frame 0 above the band (at most one N/2+1 row) and, per
    # window, the records: three norm rows and the time grid of M+1 floats
    # each, and at most 4096 bytes of trace and object headers
    grid = cl.make_grid(40.0, 4096)
    kernel = cl.gaussian_kernel(0.01, 2.0)
    q = cl.kernel_strength(kernel)
    t_w = 0.25  # a whole number of windows exactly
    ell = 0.5 / (q * np.sqrt(9.0 * t_w**2 + 2.0))
    prob = cl.ProblemSpec(
        a=0.0, b=1.0, kernel=kernel, nonlinearity=cl.saturating(ell, cl.source_gaussian(0.1, 1.0)),
        u0=cl.field_from_function(grid, lambda x: np.exp(-(x**2) / 2.0)), grid=grid,
    )
    windows, frames = 3, 64

    def march():
        return cl.global_march(prob, windows * t_w, n_frames=frames, max_window_length=t_w)

    march()  # fill the per-grid caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reports = march()
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(reports) == windows
    k = reports[0].u_band.shape[1]
    assert 100 < k < grid.n_half
    bands = windows * (frames + 1) * k * 16
    records = windows * (4 * (frames + 1) * 8 + 4096)
    assert held <= bands + grid.n_half * 16 + records, held
    # measured 0.89 trajectories of real samples, (M+1) x N float64
    samples = (frames + 1) * grid.n_points * 8
    assert peak <= 1.6 * samples, peak / samples
