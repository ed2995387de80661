"""The live band of a window against the full half spectrum it replaces.

Above the live band K of a window, e^{dt lam} and sqrt(2 pi) Ghat are
exactly 0, so the solver iterates and stores modes 0..K-1 only, plus frame
0's modes above K. The slow path is the same march with the band rule
forced to all N/2+1 modes: its frames 1..M must be exactly 0 above K, and
the band march must report the same trajectories, Picard distances and
oracle deviations as values, and per-frame norms to 1e-15 relative (frame
0's norm is summed in two parts), when both force on all N points. Where
the band march forces on a reduced grid of N' < N points, it must agree
with the full-width march to the 1e-12 gate. The memory pin checks that a
march's reports keep no more than one band per window, window 0's frame 0
above its band and the per-window records.
"""

import tracemalloc

import numpy as np
import pytest

import cubelap as cl
import cubelap.evolve as ev
from cubelap.model import KERNELS

A, B, T, N_FRAMES = 0.3, -0.8, 0.4, 32

#: (L, N): at the march's dt the wide grid resolves modes where e^{dt lam}
#: and every analytic or band-limited kernel factor underflow; on the
#: narrow one e^{dt lam} is nonzero at every mode, so K = N/2+1.
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


def _march(prob):
    reports = cl.global_march(
        prob, 2 * T, n_frames=N_FRAMES, max_window_length=T, run_oracle=True
    )
    assert len(reports) == 2
    return reports


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
    # a tabulated kernel's factor is a transform of samples, nonzero at every mode
    assert (k < n_half) == (size == WIDE and name != "tabulated")
    # frame 0's modes above the band, up to its last nonzero one
    assert (0 < band[0].u0_tail.size <= n_half - k) == (k < n_half)
    assert all(rep.u0_tail.size == 0 for rep in band[1:])
    for b, f in zip(band, full):
        assert f.u_band.shape[1] == n_half and b.u_band.shape[1] == k
        assert np.all(f.u_band[1:, k:] == 0)
        assert np.array_equal(b.u_band, f.u_band[:, :k])
        assert np.array_equal(b.u0_tail, np.trim_zeros(f.u_band[0, k:], "b"))
        assert np.array_equal(b.field.frames, f.field.frames)
        assert np.array_equal(b.trace.distances, f.trace.distances)
        assert b.oracle_rel_deviation == f.oracle_rel_deviation
        for key in ("l2_per_frame", "d6_l2_per_frame", "dudt_l2_per_frame"):
            got, want = getattr(b, key), getattr(f, key)
            assert np.all(np.abs(got - want) <= 1e-15 * want), key
    # the window after the first starts from the last frame bit for bit
    for key in ("l2_per_frame", "d6_l2_per_frame"):
        assert getattr(band[1], key)[0] == getattr(band[0], key)[-1]
    # of these, every band below N/2 + 1 is narrow enough to force on fewer
    # points, 2K <= N' < N
    n = prob.grid.n_points
    assert all(r.forcing_points == reduced[0].forcing_points for r in reduced)
    assert (reduced[0].forcing_points < n) == (k < n_half)
    for r, f in zip(reduced, full):
        if r.forcing_points < n:
            assert 2 * k <= r.forcing_points and 0 <= r.alias_indicator <= ev.ALIAS_TOL
        else:
            assert r.alias_indicator is None
        final_gap = np.linalg.norm(r.final_raw - f.final_raw) / np.linalg.norm(f.final_raw)
        assert final_gap <= 1e-12
        assert r.trace.iterations == f.trace.iterations
        d_gap = np.max(np.abs(r.trace.distances - f.trace.distances)) / f.trace.distances[0]
        assert d_gap <= 1e-12
        # a deviation relative to the state's norm moves by at most its gap
        assert abs(r.oracle_rel_deviation - f.oracle_rel_deviation) <= 1e-12


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
    # measured 1.47 trajectories of real samples, (M+1) x N float64
    samples = (frames + 1) * grid.n_points * 8
    assert peak <= 1.6 * samples, peak / samples
