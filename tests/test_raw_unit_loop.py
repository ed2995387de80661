"""The solvers in raw rfft units against the unitary-unit loops they replaced.

``_unitary_picard`` is the Picard loop, kept here as the slow path: the
trajectory in unitary coefficients (``forward_real``), the transform pair
``inverse_real`` / ``forward_real`` around every reaction call, the recursion
with g applied per frame, the time derivative as one expression, and the
contraction norm from ``np.abs(u) ** 2`` with ``np.trapezoid``.
``picard_solve`` must agree with it for every entry of the nonlinearity
catalog and on the override path (C >= 1), at a > 0 and b != 0: the same
iteration count, the final frame to 1e-12 relative and every Picard distance
to 1e-12 of the first. Each iterate is one forward walk over blocks of
``grid.BLOCK_BYTES``, a whole trajectory at N = 256; the tests also shrink
the blocks to 1 and 5 frames, so that blocks end inside the trajectory, and
at 5 frames the last one takes the 3 frames left over as well. At every
block size the walk calls
``duhamel_map``, ``time_derivative`` and ``apply_nonlinearity`` once per
block and iterate, and a model error names the frame of the trajectory.

``_unitary_heun`` is the Heun oracle in unitary coefficients, the slow path
of ``etd_reference_solve``, single-state and batched. The report's per-frame
norms are checked against ``l2_norm`` of its full-spectrum frames.
"""

import math

import numpy as np
import pytest

import cubelap as cl
import cubelap.grid
from cubelap.grid import raw_to_unitary
from cubelap.model import NONLINEARITIES

A, B, T, N_FRAMES = 0.3, -0.8, 0.4, 32


def forward_real(grid, values):
    """Real samples -> ``forward_transform``'s coefficients of modes 0..N/2,
    along the last axis."""
    coeff = grid.dx / math.sqrt(2.0 * math.pi)
    return coeff * grid._phase[: grid.n_half] * np.fft.rfft(values, axis=-1)


def inverse_real(grid, half):
    """Coefficients of modes 0..N/2 -> the real samples along the last axis."""
    coeff = grid.dp * grid.n_points / math.sqrt(2.0 * math.pi)
    return coeff * np.fft.irfft(grid._phase[: grid.n_half] * half, n=grid.n_points, axis=-1)


def _unitary_picard(prob, window_length, n_frames):
    """The unitary-unit Picard loop; the last iterate's half spectrum and the
    distances."""
    grid = prob.grid
    half = slice(0, grid.n_half)
    sym = cl.build_symbol(grid, prob.a, prob.b)
    lam = sym.lam[half]
    tg = np.linspace(0.0, window_length, n_frames + 1)
    dt = float(tg[1] - tg[0])
    z = dt * lam
    e_dt = sym.propagator(dt)[half]
    w_prev, w_next = dt * (cl.phi1(z) - cl.phi2(z)), dt * cl.phi2(z)
    g = math.sqrt(2.0 * math.pi) * prob.kernel.spectrum_on(grid)[half]
    u0 = forward_real(grid, prob.u0.values.real)
    weights = grid._half_weights

    def norm(u, du):
        per_frame = (
            np.sum(weights * (1.0 + grid._p12[half]) * np.abs(u) ** 2, axis=1)
            + np.sum(weights * np.abs(du) ** 2, axis=1)
        ) * grid.dp
        return float(np.sqrt(np.trapezoid(per_frame, tg)))

    u_prev = np.exp(np.outer(tg, lam)) * u0[None, :]
    du_prev = lam[None, :] * u_prev
    distances, tol = [], None
    while tol is None or distances[-1] >= tol:
        phys = inverse_real(grid, u_prev)
        fh = forward_real(grid, cl.apply_nonlinearity(phys, prob.nonlinearity, grid))
        u = np.empty_like(fh)
        u[0] = u0
        for j in range(n_frames):
            u[j + 1] = e_dt * u[j] + g * (w_prev * fh[j] + w_next * fh[j + 1])
        du = lam[None, :] * u + g[None, :] * fh
        distances.append(norm(u - u_prev, du - du_prev))
        if tol is None:
            tol = 1e-10 * max(1.0, norm(u, du))
        u_prev, du_prev = u, du
    return u_prev, np.array(distances)


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
    frames, distances = _unitary_picard(prob, T, N_FRAMES)
    assert rep.trace.iterations == distances.size
    final = frames[-1]
    assert np.linalg.norm(rep.u_half[-1] - final) <= 1e-12 * np.linalg.norm(final)
    assert np.all(np.abs(rep.trace.distances - distances) <= 1e-12 * distances[0])


@pytest.fixture(params=[None, 1, 5], ids=["default_blocks", "1_frame_blocks", "5_frame_blocks"])
def block_frames(request, monkeypatch):
    """Frames per block of the solver's loops: the default, or 1 or 5."""
    if request.param is not None:
        bytes_per_frame = 16 * (256 // 2 + 1)
        monkeypatch.setattr(cubelap.grid, "BLOCK_BYTES", request.param * bytes_per_frame)
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
    blocks = 1 if block_frames is None else max(1, (N_FRAMES + 1) // block_frames)
    want = its * blocks
    assert dict(calls) == {"duhamel_map": want, "time_derivative": want,
                           "apply_nonlinearity": want}


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


def _unitary_heun(prob, window_length, substeps, n_frames, u0):
    """The Heun oracle in unitary coefficients on the (K, N) real states u0;
    the (n_frames + 1, K, N/2+1) frames."""
    grid = prob.grid
    half = slice(0, grid.n_half)
    sym = cl.build_symbol(grid, prob.a, prob.b)
    g = math.sqrt(2.0 * math.pi) * prob.kernel.spectrum_on(grid)[half]
    h = window_length / substeps
    e_h = sym.propagator(h)[half]

    def reaction(u):
        phys = inverse_real(grid, u)
        return g * forward_real(grid, cl.apply_nonlinearity(phys, prob.nonlinearity, grid))

    u = forward_real(grid, u0)
    frames = [u]
    for n in range(substeps):
        nn = reaction(u)
        pred = e_h * (u + h * nn)
        u = e_h * u + 0.5 * h * (e_h * nn + reaction(pred))
        if (n + 1) % (substeps // n_frames) == 0:
            frames.append(u)
    return np.stack(frames)


def _rel_gap(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("name", sorted(NONLINEARITIES))
def test_raw_unit_oracle_matches_unitary_oracle(name):
    prob = _problem(_catalog_nonlinearity(name))
    grid = prob.grid
    substeps = 4 * N_FRAMES
    single = cl.etd_reference_solve(prob, T, substeps, N_FRAMES)
    want = _unitary_heun(prob, T, substeps, N_FRAMES, prob.u0.values.real[None, :])[:, 0]
    assert _rel_gap(single.frames[:, : grid.n_half], want) <= 1e-12

    starts = np.stack([
        prob.u0.values.real,
        np.exp(-((grid.x + 2.0) ** 2)),
        0.5 * np.cos(grid.x) * np.exp(-(grid.x**2) / 8.0),
    ])
    ends = cl.etd_reference_solve(prob, T, substeps, N_FRAMES, starts=starts)
    want = _unitary_heun(prob, T, substeps, N_FRAMES, starts)[-1]
    for r in range(len(starts)):
        assert _rel_gap(raw_to_unitary(grid, ends[r]), want[r]) <= 1e-12


@pytest.mark.parametrize("name", sorted(NONLINEARITIES))
def test_report_norms_match_full_spectrum_norms(name):
    prob = _problem(_catalog_nonlinearity(name))
    q = cl.kernel_strength(prob.kernel)
    cert = cl.Certificate.for_window(q, prob.nonlinearity.lipschitz_l, A, B, T)
    rep = cl.picard_solve(prob, T, cert, n_frames=N_FRAMES)
    field, dudt = rep.field, rep.dudt
    for j in range(field.n_frames):
        frame = field.frame(j)
        for got, want in (
            (rep.l2_per_frame[j], cl.l2_norm(frame)),
            (rep.d6_l2_per_frame[j], cl.l2_norm(cl.spectral_derivative(frame, 6))),
            (rep.dudt_l2_per_frame[j], cl.l2_norm(dudt.frame(j))),
        ):
            assert abs(got - want) <= 1e-12 * want, (j, got, want)
