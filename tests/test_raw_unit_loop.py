"""The solvers in raw rfft units against the slow path of each, from
``slow_paths``: per-frame loops on the complex full spectrum, which read no
half-spectrum weight and no raw unit.

``_per_frame_picard`` is the slow path of ``picard_solve``: the trajectory
in ``forward_transform``'s coefficients of all N modes, one
``inverse_transform`` / ``forward_transform`` pair and one reaction call per
frame, the recursion with g applied per frame, the time derivative as one
expression, and the contraction norm of ``spacetime_sobolev_norm``.
``picard_solve`` must agree with it for every entry of the nonlinearity
catalog and on the override path (C >= 1), at a > 0 and b != 0, by the
march rule (``scripts/march_rule.py``): the same iteration count, the final
frame to 1e-12 relative and every Picard distance to 1e-12 of the first.
Each iterate is one forward walk over blocks of ``grid.BLOCK_BYTES``
through frames 1..32 of a 33-frame trajectory, all of them one block at
N = 256; the tests also shrink the blocks to 1 and 5 frames, so that blocks
end inside the trajectory, and at 5 frames the last one takes the 2 frames
left over as well, and grow them to a whole window at any size. At every
block size the walk calls ``duhamel_map``, ``time_derivative`` and
``apply_nonlinearity`` once per block and iterate, frame 0's forcing and
the first rung's probe are one more reaction call each, and a model error
names the frame of the trajectory.

The block size changes no number: at every block size a march of 257-frame
windows (one default block each) reports bitwise the trajectories,
distances, per-frame norms and oracle deviations of the default blocks, and
``runner.main`` writes byte-equal artifacts.

``_full_spectrum_heun`` is the slow path of ``etd_reference_solve``, the
Heun oracle on the full spectrum, frame by frame, checked single-state and
batched, here and on the drawn problems of ``test_reduced_forcing`` over
every kernel, reaction and source of the catalog, each batched with two
drawn starts. The report's per-frame norms are checked against ``l2_norm``
of its full-spectrum frames and of the time derivative the solve took its
norms of.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cubelap as cl
import cubelap.grid
from cubelap.grid import unitary_spectrum
from cubelap.model import KERNELS, NONLINEARITIES, SOURCES
from cubelap.runner import main
from march_rule import RTOL, breaks, final_gap
from slow_paths import _full_spectrum_heun, _per_frame_picard
from test_reduced_forcing import _floats, problems

A, B, T, N_FRAMES = 0.3, -0.8, 0.4, 32
DEFAULT_BLOCK_BYTES = cubelap.grid.BLOCK_BYTES


def _problem(nonlinearity):
    grid = cl.make_grid(20.0, 256)
    u0 = cl.field_from_function(grid, lambda x: np.exp(-((x - 1.0) ** 2) / 2.0))
    return cl.ProblemSpec(
        a=A, b=B, kernel=cl.gaussian_kernel(0.01, 2.0), nonlinearity=nonlinearity,
        u0=u0, grid=grid,
    )


def _certified_lipschitz():
    """The Lipschitz constant at which C = 0.5 on the window (C is linear in l)."""
    q = cl.kernel_strength(cl.gaussian_kernel(0.01, 2.0))
    return 0.5 / cl.Certificate.for_window(q, 1.0, A, B, T).constant


def _catalog_nonlinearity(name):
    ell = _certified_lipschitz()
    source = cl.source_gaussian(0.1, 1.0, 0.5)
    if name == "linear_plus_source":
        return cl.linear_plus_source(-ell, source)
    if name == "saturating":
        return cl.saturating(ell, source)
    if name == "logistic_clip":
        return cl.logistic_clip(ell, 1.5, source)
    raise AssertionError(f"no case for the catalog entry {name!r}")


def _assert_matches_slow_path(rep, prob):
    final, distances = _per_frame_picard(prob, T, N_FRAMES)
    assert breaks(iterations=(rep.trace.iterations, distances.size),
                  final=(rep.field.frames[-1], final),
                  distances=(rep.trace.distances, distances)) == []


WHOLE_WINDOW = 10**6


@pytest.fixture(
    params=[None, 1, 5, WHOLE_WINDOW],
    ids=["default_blocks", "1_frame_blocks", "5_frame_blocks", "whole_window_blocks"],
)
def block_frames(request, monkeypatch):
    """Frames per block of the solver's loops: the default, 1, 5, or more
    than any window holds, on whatever grid a window forces on and whatever
    its band (a row of one byte makes ``BLOCK_BYTES`` a row count)."""
    if request.param is not None:
        monkeypatch.setattr(cubelap.grid, "block_row_bytes", lambda grid, band: 1)
        monkeypatch.setattr(cubelap.grid, "BLOCK_BYTES", request.param)
    return request.param


@pytest.mark.parametrize("name", sorted(NONLINEARITIES))
def test_raw_unit_loop_matches_unitary_loop(name, block_frames):
    prob = _problem(_catalog_nonlinearity(name))
    q = cl.kernel_strength(prob.kernel)
    cert = cl.Certificate.for_window(q, prob.nonlinearity.lipschitz_l, A, B, T)
    assert cert.valid and abs(cert.constant - 0.5) <= 1e-12
    rep = cl.picard_solve(prob, T, cert, n_frames=N_FRAMES)
    assert rep.trace.iterations >= 3
    _assert_matches_slow_path(rep, prob)


def test_block_walk_calls_the_public_functions_once_per_block(block_frames, monkeypatch):
    import collections

    import cubelap.evolve as ev

    calls = collections.Counter()
    for name in ("duhamel_map", "time_derivative", "apply_nonlinearity"):
        def counting(*args, _orig=getattr(ev, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(ev, name, counting)
    prob = _problem(_catalog_nonlinearity("saturating"))
    q = cl.kernel_strength(prob.kernel)
    cert = cl.Certificate.for_window(q, prob.nonlinearity.lipschitz_l, A, B, T)
    its = cl.picard_solve(prob, T, cert, n_frames=N_FRAMES).trace.iterations
    # the walk covers frames 1..N_FRAMES; frame 0's forcing and the probe of
    # the first rung, the band of 55 modes being below N/2, are computed once
    blocks = 1 if block_frames is None else max(1, N_FRAMES // block_frames)
    want = its * blocks
    assert dict(calls) == {"duhamel_map": want, "time_derivative": want,
                           "apply_nonlinearity": want + 2}


def test_growth_violation_names_its_trajectory_frame(block_frames):
    # F triples u where |u| > 1.2 against a declared growth of 1.5: u0 grows
    # like e^{2t}, so the first iterate's reaction first breaks the bound at
    # a frame past the first block of 1 or 5 frames
    grid = cl.make_grid(20.0, 256)
    jump = cl.NonlinearitySpec(
        name="jump", fn=lambda u, x: np.where(np.abs(u) > 1.2, 3.0 * u, u),
        source=cl.source_zero(), growth_k=1.5, lipschitz_l=3.0,
    )
    u0 = cl.field_from_function(grid, lambda x: np.exp(-(x**2) / 2.0))
    prob = cl.ProblemSpec(
        a=2.0, b=0.0, kernel=cl.gaussian_kernel(0.01, 2.0), nonlinearity=jump, u0=u0, grid=grid
    )
    cert = cl.Certificate.for_window(cl.kernel_strength(prob.kernel), 3.0, 2.0, 0.0, T)
    assert cert.valid
    # the first frame of the free trajectory whose reaction fails on its own
    free = cl.etd_reference_solve(cl.ProblemSpec(
        a=2.0, b=0.0, kernel=prob.kernel, nonlinearity=cl.linear_plus_source(0.0), u0=u0,
        grid=grid,
    ), T, 4 * N_FRAMES, N_FRAMES)
    first = None
    for j in range(N_FRAMES + 1):
        try:
            cl.apply_nonlinearity(cl.to_physical(free.frame(j)).values.real, jump, grid)
        except cl.ModelEvaluationError:
            first = j
            break
    assert first is not None and first > 5
    with pytest.raises(cl.ModelEvaluationError, match=rf"^growth bound .* in frame {first}$"):
        cl.picard_solve(prob, T, cert, n_frames=N_FRAMES)


def test_raw_unit_loop_matches_unitary_loop_under_override(block_frames):
    prob = _problem(cl.saturating(0.3, cl.source_gaussian(0.1, 1.0, 0.5)))
    bad = cl.Certificate.for_window(1.0, 1.0, A, B, T)
    assert not bad.valid
    with pytest.warns(UserWarning, match="OVERRIDE"):
        rep = cl.picard_solve(prob, T, bad, n_frames=N_FRAMES, override_certificate=True)
    _assert_matches_slow_path(rep, prob)


@pytest.mark.parametrize("name", sorted(NONLINEARITIES))
def test_raw_unit_oracle_matches_unitary_oracle(name):
    prob = _problem(_catalog_nonlinearity(name))
    grid = prob.grid
    substeps = 4 * N_FRAMES
    single = cl.etd_reference_solve(prob, T, substeps, N_FRAMES)
    want = _full_spectrum_heun(prob, T, substeps, N_FRAMES)
    assert final_gap(single.frames, want) <= RTOL

    starts = np.stack([
        prob.u0.values.real,
        np.exp(-((grid.x + 2.0) ** 2)),
        0.5 * np.cos(grid.x) * np.exp(-(grid.x**2) / 8.0),
    ])
    ends = cl.etd_reference_solve(prob, T, substeps, N_FRAMES, starts=np.fft.rfft(starts))
    want = _full_spectrum_heun(prob, T, substeps, N_FRAMES, starts)[-1]
    for r in range(len(starts)):
        assert final_gap(unitary_spectrum(grid, ends[r]), want[r]) <= RTOL


@pytest.mark.parametrize("source_name", sorted(SOURCES))
@pytest.mark.parametrize("reaction_name", sorted(NONLINEARITIES))
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
@settings(max_examples=4, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_batched_oracle_matches_unitary_oracle_on_drawn_problems(
    kernel_name, reaction_name, source_name, data
):
    # the drawn problems of the reduced-forcing test, every kernel, reaction
    # and source of the catalog, each marched from its own start and from two
    # drawn gaussians in one block
    prob = data.draw(problems(kernel_name, reaction_name, source_name))
    grid = prob.grid
    starts = [prob.u0.values.real]
    for _ in range(2):
        amp, center = data.draw(_floats(0.1, 2.0)), data.draw(_floats(-3.0, 3.0))
        width = data.draw(_floats(0.7, 2.0))
        starts.append(amp * np.exp(-(((grid.x - center) / width) ** 2)))
    starts = np.stack(starts)
    substeps, n_frames = 4 * 8, 8
    ends = cl.etd_reference_solve(prob, T, substeps, n_frames, starts=np.fft.rfft(starts))
    want = _full_spectrum_heun(prob, T, substeps, n_frames, starts)[-1]
    for r in range(len(starts)):
        assert final_gap(unitary_spectrum(grid, ends[r]), want[r]) <= RTOL


@pytest.mark.parametrize("name", sorted(NONLINEARITIES))
def test_report_norms_match_full_spectrum_norms(name, monkeypatch):
    # the report keeps no derivative, so the one its norms were taken of is
    # captured from the solve and expanded here
    import cubelap.evolve as ev

    taken = []
    frame_norms = ev.frame_norms

    def capture(grid, band, kind, tail=None):
        taken.append((band, tail))
        return frame_norms(grid, band, kind, tail)

    monkeypatch.setattr(ev, "frame_norms", capture)
    prob = _problem(_catalog_nonlinearity(name))
    grid = prob.grid
    q = cl.kernel_strength(prob.kernel)
    cert = cl.Certificate.for_window(q, prob.nonlinearity.lipschitz_l, A, B, T)
    rep = cl.picard_solve(prob, T, cert, n_frames=N_FRAMES)
    (band, tail), = [(b, t) for b, t in taken if b is not rep.u_band]
    k = band.shape[1]
    raw = np.zeros((len(band), grid.n_half), np.complex128)
    raw[:, :k] = band
    raw[0, k : k + tail.size] = tail
    field, dudt = rep.field, cl.SpacetimeField(grid, rep.time_grid, unitary_spectrum(grid, raw))
    for j in range(field.n_frames):
        frame = field.frame(j)
        for got, want in (
            (rep.l2_per_frame[j], cl.l2_norm(frame)),
            (rep.d6_l2_per_frame[j], cl.l2_norm(cl.spectral_derivative(frame, 6))),
            (rep.dudt_l2_per_frame[j], cl.l2_norm(dudt.frame(j))),
        ):
            assert abs(got - want) <= 1e-12 * want, (j, got, want)


def _march_numbers():
    prob = _problem(_catalog_nonlinearity("saturating"))
    reports = cl.global_march(prob, 3 * T, n_frames=256, run_oracle=True)
    assert len(reports) >= 2
    return [
        {
            "u_band": rep.u_band,
            "distances": rep.trace.distances,
            "l2": rep.l2_per_frame,
            "d6_l2": rep.d6_l2_per_frame,
            "dudt_l2": rep.dudt_l2_per_frame,
            "oracle_rel_deviation": np.array(rep.oracle_rel_deviation),
        }
        for rep in reports
    ]


def test_block_size_changes_no_number_of_a_march(default_blocks, block_frames):
    # 257 frames of 55 modes forced on 256 and 180 points: a default
    # 2^19-byte block holds 137 and 163 rows, so each window's walk over
    # frames 1..256 is one block, which the 1- and 5-frame blocks split
    want = default_blocks["march"]
    got = _march_numbers()
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        for key in w:
            assert np.array_equal(g[key], w[key]), (k, key)


def _artifacts(tmp_path, oracle):
    """The text and dump artifacts of a two-window run through ``main``."""
    cfg = {
        "grid": {"L": 20.0, "N": 256},
        "model": {"a": 0.0, "b": 1.0},
        "kernel": {"name": "gaussian", "amplitude": 0.01, "width": 2.0},
        "nonlinearity": {
            "name": "saturating",
            "lipschitz": 3.8,
            "source": {"name": "gaussian", "amplitude": 0.1, "width": 1.0},
        },
        "initial_condition": {"name": "gaussian", "amplitude": 1.0, "width": 1.5},
        "horizon": 0.8,
        "solver": {"frames": 256, "max_window_length": 0.4},
        "output_dir": str(tmp_path / "out"),
        "flags": {},
    }
    tmp_path.mkdir()
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    argv = ["--config", str(path)] + (["--oracle"] if oracle else [])
    assert main(argv) == 0
    out = tmp_path / "out"
    names = sorted(f.name for f in out.iterdir() if f.name.startswith(("trace_w", "norms_w")))
    assert len(names) == 4
    return {name: (out / name).read_bytes()
            for name in names + ["summary.txt", "final_field.sxd"]}


@pytest.fixture(scope="module")
def default_blocks(tmp_path_factory):
    """The march numbers and both runs' artifacts with the default blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cubelap.grid, "BLOCK_BYTES", DEFAULT_BLOCK_BYTES)
        root = tmp_path_factory.mktemp("default_blocks")
        return {
            "march": _march_numbers(),
            "picard": _artifacts(root / "picard", False),
            "oracle": _artifacts(root / "oracle", True),
        }


@pytest.mark.parametrize("oracle", [False, True], ids=["picard", "oracle"])
def test_block_size_changes_no_artifact_byte(default_blocks, block_frames, oracle, tmp_path):
    want = default_blocks["oracle" if oracle else "picard"]
    got = _artifacts(tmp_path / "run", oracle)
    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == want[name], name
