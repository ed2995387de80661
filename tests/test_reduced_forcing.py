"""The reduced forcing grid against the N-point forcing it replaces.

A window whose live band K satisfies 2K <= N' < N forces its band frames on
N' points instead of N: the first rung of its forcing grid's ladder N',
2N', ..., N, N' the smallest even 5-smooth length >= 2K on which the
N-point forcing of one band frame reads no alias (``evolve._first_rung``).
The slow path is the same ``picard_solve`` started on the top rung
(``_first_rung`` returning N), which forces on all N points as every window
did before. On drawn problems over every kernel, reaction and source of the
catalog the two agree by the march rule (``scripts/march_rule.py``): the
same iteration count, the final frame to 1e-12 relative and every Picard
distance to 1e-12 of the first. A tabulated kernel's factor has a floor above ``BAND_TOL`` at every
mode, so its windows never reduce. At 80 times the amplitude the reaction's
spectrum reaches the modes that fold onto the band: the probe starts the
window higher, and where a later block still aliases, the alias check
solves the window again on the next rung, up to N, where it reproduces the
N-point numbers bit for bit. The ladder ends at N whatever rung it starts
on, since nothing folds there. A source cut off by the box edge, whose flat
spectral floor folds onto the band, is forced on N points too. A
band-limited source above N'/2 folds onto the band below the top eighth,
where no reduced block can see it; the N-point forcing of one band frame
does, and the window starts on a grid that resolves the source. Below
N' = 8K/3 the top eighth takes in the band's top modes too, so a forcing
with energy there alone, which N' samples without folding, still sends the
window up the ladder. On the reduced grid, as on N points, the block size
changes no number.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cubelap as cl
import cubelap.evolve as ev
import cubelap.grid
from cubelap.model import KERNELS, NONLINEARITIES, SOURCES
from march_rule import distance_gap, final_gap, report_breaks

A, B, T, N_FRAMES = 0.3, -0.8, 0.4, 16
#: On this box the drawn kernels' bands are K <= 170, so N' <= 360 < N.
L, N = 10.0, 1024


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _kernel(draw, name, grid):
    if name == "gaussian":
        return cl.gaussian_kernel(draw(_floats(1e-3, 0.05)), draw(_floats(1.5, 4.0)))
    if name == "sech":
        return cl.sech_kernel(draw(_floats(1e-3, 0.05)), draw(_floats(9.0, 16.0)))
    if name == "bandlimited":
        return cl.bandlimited_kernel(grid, draw(_floats(1e-3, 0.05)), draw(_floats(1.0, 6.0)))
    if name == "tabulated":
        xs = np.linspace(-5.0, 5.0, 101)
        return cl.tabulated_kernel(grid, xs, draw(_floats(1e-3, 0.05)) * np.exp(-(xs**2)))
    raise AssertionError(f"no case for the catalog entry {name!r}")


def _source(draw, name, grid):
    if name == "zero":
        return cl.source_zero()
    if name == "gaussian":
        return cl.source_gaussian(draw(_floats(-0.2, 0.2)), draw(_floats(0.5, 2.0)),
                                  draw(_floats(-2.0, 2.0)))
    if name == "bandlimited":
        # up to p = 30, far above the Nyquist wavenumber 10 of N' = 64
        p_lo = draw(_floats(0.0, 28.0))
        return cl.source_bandlimited(grid, draw(_floats(0.01, 0.2)), p_lo,
                                     p_lo + draw(_floats(1.0, 2.0)))
    raise AssertionError(f"no case for the catalog entry {name!r}")


def _reaction(draw, name, ell, source):
    if name == "linear_plus_source":
        return cl.linear_plus_source(draw(st.sampled_from([-1.0, 1.0])) * ell, source)
    if name == "saturating":
        return cl.saturating(ell, source)
    if name == "logistic_clip":
        return cl.logistic_clip(ell, draw(_floats(0.5, 2.0)), source)
    raise AssertionError(f"no case for the catalog entry {name!r}")


def _certified(kernel, a, b):
    """The Lipschitz constant at which C = 0.5 on the window (C is linear in l)."""
    return 0.5 / cl.Certificate.for_window(cl.kernel_strength(kernel), 1.0, a, b, T).constant


@st.composite
def problems(draw, kernel_name, reaction_name, source_name=None):
    grid = cl.make_grid(L, N)
    a, b = draw(_floats(0.0, 0.5)), draw(_floats(-1.0, 1.0))
    kernel = _kernel(draw, kernel_name, grid)
    source = _source(draw, source_name or draw(st.sampled_from(sorted(SOURCES))), grid)
    reaction = _reaction(draw, reaction_name, _certified(kernel, a, b), source)
    amp, width, center = draw(_floats(0.1, 2.0)), draw(_floats(0.7, 2.0)), draw(_floats(-2, 2))
    u0 = cl.field_from_function(grid, lambda x: amp * np.exp(-((x - center) / width) ** 2))
    return cl.ProblemSpec(a=a, b=b, kernel=kernel, nonlinearity=reaction, u0=u0, grid=grid)


def _solve(prob, full=False):
    cert = cl.Certificate.for_window(
        cl.kernel_strength(prob.kernel), prob.nonlinearity.lipschitz_l, prob.a, prob.b, T
    )
    assert cert.valid
    with pytest.MonkeyPatch.context() as mp:
        if full:
            mp.setattr(ev, "_first_rung", lambda prob, w: prob.grid.n_points)
        return cl.picard_solve(prob, T, cert, n_frames=N_FRAMES)


@pytest.mark.parametrize("reaction_name", sorted(NONLINEARITIES))
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_reduced_forcing_matches_n_point_forcing(kernel_name, reaction_name, data):
    prob = data.draw(problems(kernel_name, reaction_name))
    rep, full = _solve(prob), _solve(prob, full=True)
    k = rep.u_band.shape[1]
    assert full.forcing_points == N and full.alias_indicator is None
    if prob.kernel.name == "tabulated":
        assert k == prob.grid.n_half
    else:
        assert 6 * k <= N  # so N' <= N/2
    if rep.forcing_points < N:
        assert 2 * k <= rep.forcing_points and 0 <= rep.alias_indicator <= ev.ALIAS_TOL
    else:
        # the window forced on N points, as its slow path does, with the same numbers
        assert rep.alias_indicator is None
        assert np.array_equal(rep.u_band, full.u_band)
    assert report_breaks(rep, full) == []


def _bumps_problem(n_points, amplitude):
    grid = cl.make_grid(L, n_points)
    kernel = cl.gaussian_kernel(0.01, 2.0)
    return cl.ProblemSpec(
        a=A, b=B, kernel=kernel,
        nonlinearity=cl.saturating(_certified(kernel, A, B), cl.source_gaussian(0.1, 1.0, 0.5)),
        u0=cl.field_from_function(grid, lambda x: amplitude * (
            np.exp(-((x - 1.0) ** 2) / 2.0) - 0.7 * np.exp(-((x + 1.5) ** 2) / 3.0))),
        grid=grid,
    )


def _even_5_smooth(lo, hi):
    """The even lengths lo <= n <= hi with no prime factor but 2, 3 and 5,
    in order, by enumeration."""
    lengths = (2**i * 3**j * 5**k for i in range(1, 16) for j in range(10) for k in range(7))
    return sorted(n for n in lengths if lo <= n <= hi)


def _scanned_first_rung(prob, w):
    """``_first_rung`` by a scan: the smallest even 5-smooth n >= 2K (at
    least 8) below N at which frame 1 of the first iterate, e^{dt lam} u0 on
    the band, forced on all N points, has at most ``ALIAS_TOL`` of its energy
    in modes 3n/8 and up, or N."""
    grid = prob.grid
    frame = np.zeros(grid.n_half, np.complex128)
    frame[: w.band] = w.e_dt * w.u0[: w.band]
    samples = np.fft.irfft(frame, n=grid.n_points)
    sq = np.abs(np.fft.rfft(cl.apply_nonlinearity(samples, prob.nonlinearity, grid)))**2
    for n in _even_5_smooth(max(8, 2 * w.band), grid.n_points - 1):
        if np.sum(sq[3 * n // 8:]) <= ev.ALIAS_TOL * np.sum(sq):
            return n
    return grid.n_points


@pytest.mark.parametrize("reaction_name", sorted(NONLINEARITIES))
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_the_first_rung_is_the_scanned_one(kernel_name, reaction_name, data):
    # on drawn problems at 1 and 80 times their drawn initial amplitude, from
    # prob.u0 and from a start state with no modes above the band
    prob = data.draw(problems(kernel_name, reaction_name))
    scale = data.draw(st.sampled_from([1.0, 80.0]))
    prob = replace(prob, u0=cl.Field(prob.grid, scale * prob.u0.values, "physical"))
    w = ev._window(prob, T / N_FRAMES)
    start = np.zeros(prob.grid.n_half, np.complex128)
    start[: w.band] = w.u0[: w.band]
    for win in (w, ev._window(prob, T / N_FRAMES, start)):
        assert ev._first_rung(prob, win) == _scanned_first_rung(prob, win)


@pytest.mark.parametrize(("n_points", "forcing_points"), [(1024, 1024), (4096, 960)])
def test_an_aliased_window_is_solved_again_on_more_points(n_points, forcing_points):
    # K = 28, so a window's first rung is at least 2K = 60 points; at
    # amplitude 1 the probe starts it on 120. At 80 the alias indicator
    # passes ALIAS_TOL on 60 points: the probe starts the window on 900
    # points of the smaller grid, where a later block aliases and the window
    # is solved again on all N = 1024 points, with the N-point numbers bit
    # for bit, and on 960 of the larger. Started blind on 60 points, the
    # window is solved again on 120, 240, 480 and 960 points
    calm = _solve(_bumps_problem(n_points, 1.0))
    assert calm.u_band.shape[1] == 28 and calm.forcing_points == 120
    prob = _bumps_problem(n_points, 80.0)
    rep, full = _solve(prob), _solve(prob, full=True)
    assert rep.forcing_points == forcing_points
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ev, "ALIAS_TOL", np.inf)
        aliased = _solve(prob)
    assert aliased.forcing_points == 60 and aliased.alias_indicator > ev.ALIAS_TOL
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ev, "_first_rung", lambda prob, w: 60)
        blind = _solve(prob)
    assert blind.forcing_points == 960
    assert report_breaks(blind, full) == []
    if forcing_points == n_points:
        assert rep.alias_indicator is None
        assert np.array_equal(rep.u_band, full.u_band)
        assert np.array_equal(rep.trace.distances, full.trace.distances)
    else:
        assert 0 <= rep.alias_indicator <= ev.ALIAS_TOL
    assert report_breaks(rep, full) == []


def _narrow_band_problem(source, n_points=N):
    """A window of band K = 18, the kernel's modes 0..17 below its cutoff,
    on ``n_points`` points, so N' = 36 at first, with the linear reaction
    around the source ``source(grid)``."""
    grid = cl.make_grid(L, n_points)
    kernel = cl.bandlimited_kernel(grid, 0.05, 5.5)
    return cl.ProblemSpec(
        a=A, b=B, kernel=kernel,
        nonlinearity=cl.linear_plus_source(-_certified(kernel, A, B), source(grid)),
        u0=cl.field_from_function(grid, lambda x: np.exp(-((x - 1.0) ** 2) / 2.0)), grid=grid,
    )


def test_a_source_cut_off_by_the_box_edge_is_forced_on_all_points():
    # the source reads 2.3e-8 at the right edge of the box, so its spectrum
    # has a floor at every mode; on N' = 36 points the modes above 18 fold
    # onto the band's forcing
    prob = _narrow_band_problem(lambda grid: cl.source_gaussian(0.2, 2.0, 2.0))
    rep, full = _solve(prob), _solve(prob, full=True)
    assert rep.forcing_points == N and rep.alias_indicator is None
    assert np.array_equal(rep.u_band, full.u_band)
    assert np.array_equal(rep.trace.distances, full.trace.distances)
    # its indicator, 4e-15, is far below 1e-13, yet the reduced forcing
    # misses the gate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ev, "ALIAS_TOL", np.inf)
        aliased = _solve(prob)
    assert aliased.forcing_points == 36 and 1e-16 < aliased.alias_indicator < 1e-13
    assert final_gap(aliased.final_raw, full.final_raw) > 1e-11
    assert distance_gap(aliased.trace.distances, full.trace.distances) > 1e-11


@pytest.mark.parametrize(("modes", "forcing_points"), [((46, 60), 160), ((180, 200), N)])
def test_a_source_band_above_the_reduced_nyquist_mode_is_resolved(modes, forcing_points):
    # K = 18, so N' = 36 at first; the probe starts the window on the first
    # even 5-smooth length whose top eighth the source's modes, seen on N
    # points, stay below: 160 points, and 800 for modes 180..200, where a
    # later block aliases and the window is solved again on N. Started blind on 64 points, the
    # source's modes fold onto modes 4..18 (and onto 0..20 of 256 and 512
    # at modes 180..200): onto the kernel's band, and below the top eighth,
    # modes 24..32
    prob = _narrow_band_problem(lambda grid: cl.source_bandlimited(
        grid, 0.2, modes[0] * grid.dp, modes[1] * grid.dp))
    rep, full = _solve(prob), _solve(prob, full=True)
    assert rep.u_band.shape[1] == 18 and rep.forcing_points == forcing_points
    assert report_breaks(rep, full) == []
    # with the probe's choice skipped for 64 points, the blocks read no
    # alias, and the reduced forcing is wrong by far more than the gate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ev, "_first_rung", lambda prob, w: 64)
        blind = _solve(prob)
    assert blind.forcing_points == 64 and blind.alias_indicator <= ev.ALIAS_TOL
    assert max(final_gap(blind.final_raw, full.final_raw),
               distance_gap(blind.trace.distances, full.trace.distances)) > 1e-6


@pytest.mark.parametrize(("n_points", "climbed"), [(72, 72), (N, 72)])
def test_a_forcing_in_the_band_top_modes_climbs_past_the_first_rung(n_points, climbed):
    # K = 18 and N' = 36 < 8K/3 = 48: the top eighth of 36 points, modes
    # 13..18, takes in the band's modes 13..17, where the source lies. On 36
    # points nothing folds, since the forcing has no mode above 17, but the
    # indicator counts them all the same: the probe starts the window on 48
    # points, the first whose top eighth starts above mode 17, and a window
    # started blind on 36 is solved again on 72. On N = 72 that is the top
    # rung, the N-point solve bit for bit.
    prob = _narrow_band_problem(lambda grid: cl.source_bandlimited(
        grid, 0.2, 12.5 * grid.dp, 17.5 * grid.dp), n_points)
    rep, full = _solve(prob), _solve(prob, full=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ev, "_first_rung", lambda prob, w: 36)
        blind = _solve(prob)
    assert rep.u_band.shape[1] == 18
    assert rep.forcing_points == 48 and 0 <= rep.alias_indicator <= ev.ALIAS_TOL
    assert blind.forcing_points == climbed
    assert report_breaks(rep, full) == []
    if climbed == n_points:
        assert blind.alias_indicator is None
        assert np.array_equal(blind.u_band, full.u_band)
        assert np.array_equal(blind.trace.distances, full.trace.distances)
    else:
        assert 0 <= blind.alias_indicator <= ev.ALIAS_TOL
        assert report_breaks(blind, full) == []
    # with the indicator off, the window stays on 36 points, where most of
    # the forcing's energy is in the top eighth, and, as nothing folds,
    # agrees with the N-point solve: the climb is the indicator's strictness
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ev, "ALIAS_TOL", np.inf)
        lax = _solve(prob)
    assert lax.forcing_points == 36 and lax.alias_indicator > 0.5
    assert report_breaks(lax, full) == []


@pytest.mark.parametrize(("start", "tried"), [(64, [64, 128, 256, 512, N]), (4 * N, [N])],
                         ids=["from_64", "from_4N"])
def test_the_alias_fallback_stops_at_n(start, tried, monkeypatch):
    # a blind first rung, and a tolerance that every block below N exceeds:
    # the window is tried on each rung up to N, where no block is checked,
    # and has the N-point numbers bit for bit
    prob = _narrow_band_problem(lambda grid: cl.source_gaussian(0.1, 1.0, 0.5))
    full = _solve(prob, full=True)
    rungs = []

    class Recorded(ev._ForcingGrid):
        def __init__(self, grid, n):
            rungs.append(n)
            super().__init__(grid, n)

    monkeypatch.setattr(ev, "_first_rung", lambda prob, w: start)
    monkeypatch.setattr(ev, "ALIAS_TOL", -1.0)
    monkeypatch.setattr(ev, "_ForcingGrid", Recorded)
    rep = _solve(prob)
    # the first is the window's default, the N rung of frame 0's forcing
    assert rungs == [N] + tried
    assert rep.forcing_points == N and rep.alias_indicator is None
    assert np.array_equal(rep.u_band, full.u_band)
    assert np.array_equal(rep.trace.distances, full.trace.distances)


@pytest.mark.parametrize("rows", [1, 5, 10**6], ids=["1_row", "5_rows", "whole_window"])
def test_block_size_changes_no_number_on_the_reduced_grid(rows, monkeypatch):
    prob = _bumps_problem(1024, 1.0)
    default = _solve(prob)
    assert default.forcing_points == 120
    # blocks are sized by the forcing grid and the band: at the default, one
    # block of 282 rows holds the window's 16 frames
    on = prob.grid.resampled(default.forcing_points)
    row = cubelap.grid.block_row_bytes(on, default.u_band.shape[1])
    monkeypatch.setattr(cubelap.grid, "BLOCK_BYTES", rows * row)
    rep = _solve(prob)
    assert rep.forcing_points == 120
    for key in ("u_band", "l2_per_frame", "d6_l2_per_frame", "dudt_l2_per_frame"):
        assert np.array_equal(getattr(rep, key), getattr(default, key)), key
    assert np.array_equal(rep.trace.distances, default.trace.distances)
    assert rep.alias_indicator == default.alias_indicator
