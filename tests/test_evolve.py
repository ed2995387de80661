import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import cubelap as cl
from cubelap.evolve import _window
from cubelap.grid import raw_to_unitary, rfft_raw, unitary_spectrum


# --------------------------------------------------------------------------
# phi weights
# --------------------------------------------------------------------------


def _phi1_series_reference(z, terms=14):
    # ground truth near zero: the series converges with enormous margin there
    acc = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(terms):
        acc += term
        term = term * z / (k + 2)
    return acc


def test_phi1_known_values():
    assert cl.phi1(0.0) == 1.0
    assert abs(cl.phi1(1.0) - (math.e - 1.0)) <= 1e-15
    assert abs(cl.phi1(-1.0) - (1.0 - 1.0 / math.e)) <= 1e-15


def test_phi1_seam_consistency():
    # both branches against the series ground truth on either side of |z|=1e-4
    angles = np.linspace(0.0, 2.0 * np.pi, 37)
    for radius in (0.97e-4, 1.03e-4):
        z = radius * np.exp(1j * angles)
        vals = cl.phi1(z)
        refs = np.array([_phi1_series_reference(zz) for zz in z])
        assert np.max(np.abs(vals - refs) / np.abs(refs)) <= 1e-14


def test_phi1_stiff_limit():
    # strongly decaying modes: phi1(z) -> -1/z
    z = -1e6 + 0.0j
    assert abs(cl.phi1(z) - 1e-6) <= 1e-18


def test_phi2_values():
    assert abs(cl.phi2(0.0) - 0.5) <= 1e-16
    assert abs(cl.phi2(1.0) - (math.e - 2.0)) <= 1e-15
    z = 0.3 + 0.2j
    direct = (np.exp(z) - 1.0 - z) / z**2
    assert abs(cl.phi2(z) - direct) <= 1e-13


def test_phi_weights_vectorized():
    z = np.array([0.0, 1e-6, -2.0 + 1j, -1e5])
    v1 = cl.phi1(z)
    v2 = cl.phi2(z)
    assert v1.shape == z.shape and v2.shape == z.shape
    assert np.allclose(v1[0], 1.0)


# --------------------------------------------------------------------------
# symbol and propagator
# --------------------------------------------------------------------------


def test_symbol_values():
    g = cl.make_grid(np.pi, 64)
    lam = cl.build_symbol(g, 0.0, 0.0)
    idx1 = int(np.argmin(np.abs(g.wavenumbers - 1.0)))
    assert lam[idx1] == -1.0
    lam2 = cl.build_symbol(g, 2.0, 3.0)
    assert lam2[0] == 2.0  # p = 0 slot
    assert lam2[idx1] == pytest.approx(1.0 + 3.0j)


def test_symbol_real_part_bounded_by_a():
    g = cl.make_grid(13.0, 128)
    for a, b in [(0.0, 0.0), (1.5, -2.0), (0.3, 7.0)]:
        lam = cl.build_symbol(g, a, b)
        assert np.all(lam.real <= a)
        # max of the real part sits at the smallest |p|
        assert np.argmax(lam.real) == int(np.argmin(np.abs(g.wavenumbers)))


def test_symbol_rejects_negative_a():
    with pytest.raises(ValueError):
        cl.build_symbol(cl.make_grid(1.0, 8), -0.5, 0.0)


def test_propagate_identity_and_decay():
    g = cl.make_grid(np.pi, 64)
    lam = cl.build_symbol(g, 0.0, 0.0)
    f = cl.forward_transform(cl.Field(g, np.exp(1j * g.x), "physical"))
    assert cl.propagate(f, lam, 0.0) is f
    moved = cl.propagate(f, lam, 1.0)
    idx1 = int(np.argmin(np.abs(g.wavenumbers - 1.0)))
    assert abs(moved.values[idx1] / f.values[idx1] - np.exp(-1.0)) <= 1e-12


def test_propagate_modulus_independent_of_drift():
    g = cl.make_grid(np.pi, 64)
    f = cl.forward_transform(cl.Field(g, np.exp(2j * g.x), "physical"))
    t = 0.7
    for b in (0.0, 1.0, -3.0):
        lam = cl.build_symbol(g, 0.5, b)
        out = cl.propagate(f, lam, t)
        idx = int(np.argmin(np.abs(g.wavenumbers - 2.0)))
        assert abs(abs(out.values[idx]) - abs(f.values[idx]) * np.exp(t * (0.5 - 64.0))) <= 1e-12


def test_propagate_rejects_negative_time_and_physical_rep():
    g = cl.make_grid(1.0, 8)
    lam = cl.build_symbol(g, 0.0, 0.0)
    phys = cl.Field(g, np.ones(8), "physical")
    with pytest.raises(cl.RepresentationError):
        cl.propagate(phys, lam, 1.0)
    with pytest.raises(ValueError):
        cl.propagate(cl.forward_transform(phys), lam, -0.1)


# --------------------------------------------------------------------------
# mild-solution map
# --------------------------------------------------------------------------


def _free_trajectory(prob, T, m):
    """The reaction-free trajectory on modes 0..N/2 in raw rfft units, its
    time grid and the window data of its frame spacing."""
    tg = np.linspace(0.0, T, m + 1)
    w = _window(prob, float(tg[1] - tg[0]))
    return np.exp(np.outer(tg, w.lam)) * w.u0, tg, w


def _simple_problem(nonlinearity, a=0.0, b=0.0, n=128, zero_ic=False):
    g = cl.make_grid(20.0, n)
    if zero_ic:
        u0 = cl.Field(g, np.zeros(n), "physical")
    else:
        u0 = cl.field_from_function(g, lambda x: np.exp(-(x**2) / 2.0))
    return cl.ProblemSpec(
        a=a, b=b, kernel=cl.gaussian_kernel(0.01, 2.0), nonlinearity=nonlinearity,
        u0=u0, grid=g,
    )


def test_duhamel_map_zero_reaction_is_pure_propagation():
    prob = _simple_problem(cl.linear_plus_source(0.0), a=0.3, b=1.0)
    v, _, w = _free_trajectory(prob, 0.5, 24)
    out, _ = cl.duhamel_map(v, prob, w)
    assert np.max(np.abs(out - v)) <= 1e-13 * np.max(np.abs(v))


def test_duhamel_map_source_only_closed_form():
    # constant-in-s forcing: the phi-weighted quadrature is exact, so the
    # output matches e^{t lam} u0 + sqrt(2 pi) Ghat hhat t phi1(t lam) to
    # roundoff at every frame
    prob = _simple_problem(cl.linear_plus_source(0.0, cl.source_gaussian(0.1, 1.0)), b=1.0)
    T, m = 0.4, 32
    v, tg, w = _free_trajectory(prob, T, m)
    out = raw_to_unitary(prob.grid, cl.duhamel_map(v, prob, w)[0])
    half = slice(0, prob.grid.n_half)
    lam = cl.build_symbol(prob.grid, prob.a, prob.b)
    g_hat = prob.kernel.spectrum_on(prob.grid)
    h_hat = cl.forward_transform(
        cl.Field(prob.grid, prob.nonlinearity.source(prob.grid.x), "physical")
    ).values
    u0h = cl.to_spectral(prob.u0).values
    scale = np.max(np.abs(out))
    for j in (1, m // 2, m):
        t = tg[j]
        closed = np.exp(t * lam) * u0h + np.sqrt(2 * np.pi) * g_hat * h_hat * t * cl.phi1(
            t * lam
        )
        assert np.max(np.abs(out[j] - closed[half])) <= 1e-12 * scale


def test_duhamel_map_zero_fixed_point():
    prob = _simple_problem(cl.linear_plus_source(0.0), zero_ic=True)
    v, _, w = _free_trajectory(prob, 0.5, 16)
    out, _ = cl.duhamel_map(v, prob, w)
    assert np.all(out == 0)


def test_duhamel_map_is_frame_0_then_the_carried_recursion(certified_problem):
    # the closed-form tests above run the solver's own recursion: frame 0 is
    # u0 on the band, and frames 1..M are the carried map from (u[0], fh[0]),
    # bit for bit, carried over frames 1..M at once or one frame at a time
    prob, cert, T = certified_problem
    tg = np.linspace(0.0, T, 17)
    w = _window(prob, float(tg[1] - tg[0]))
    v = np.exp(np.outer(tg, w.lam)) * w.u0[: w.band]
    u, fh = cl.duhamel_map(v, prob, w)
    assert np.array_equal(u[0], w.u0[: w.band])
    rest, rest_fh = cl.duhamel_map(v[1:], prob, w, carry=(0, u[0], fh[0]))
    assert np.array_equal(u[1:], rest) and np.array_equal(fh[1:], rest_fh)
    frames, forcing = [u[0]], [fh[0]]
    for j in range(1, len(v)):
        bu, bf = cl.duhamel_map(v[j : j + 1], prob, w, carry=(j - 1, frames[-1], forcing[-1]))
        frames.append(bu[0])
        forcing.append(bf[0])
    assert np.array_equal(u, np.stack(frames)) and np.array_equal(fh, np.stack(forcing))


# --------------------------------------------------------------------------
# time derivative
# --------------------------------------------------------------------------


def test_time_derivative_requires_matching_history():
    prob = _simple_problem(cl.linear_plus_source(0.0))
    v, _, w = _free_trajectory(prob, 0.5, 8)
    with pytest.raises(ValueError):
        cl.time_derivative(v, None, w)
    with pytest.raises(ValueError):
        cl.time_derivative(v, np.zeros((3, 3)), w)


def test_time_derivative_eigenrelation_for_free_mode():
    g = cl.make_grid(np.pi, 64)
    u0 = cl.Field(g, np.cos(2 * g.x), "physical")
    prob = cl.ProblemSpec(
        a=0.0, b=0.0, kernel=cl.gaussian_kernel(1.0, 1.0),
        nonlinearity=cl.linear_plus_source(0.0), u0=u0, grid=g,
    )
    v, _, w = _free_trajectory(prob, 0.2, 8)
    u, fh = cl.duhamel_map(v, prob, w)
    assert np.max(np.abs(fh)) == 0.0
    du = cl.time_derivative(u, fh, w)
    assert np.max(np.abs(du - w.lam[None, :] * u)) == 0.0


def test_time_derivative_consistent_with_finite_differences(certified_problem):
    # away from the initial boundary layer (where the fast modes are not
    # time-resolved and centered differences cannot see them) the FD defect
    # shrinks like dt^2
    prob, cert, T = certified_problem

    def fd_defect(m):
        v, tg, w = _free_trajectory(prob, T, m)
        u, fh = cl.duhamel_map(v, prob, w)
        du = cl.time_derivative(u, fh, w)
        dt = tg[1] - tg[0]
        fd = (u[2:] - u[:-2]) / (2.0 * dt)
        grid = prob.grid
        err = np.abs(raw_to_unitary(grid, fd - du[1:-1]))
        per_frame = np.sqrt(np.sum(grid._half_weights * err**2, axis=1) * grid.dp)
        return np.max(per_frame[per_frame.size // 2 :])

    e1, e2 = fd_defect(32), fd_defect(64)
    assert 3.0 <= e1 / e2 <= 5.5  # second order: halving dt quarters the defect


# --------------------------------------------------------------------------
# Picard iteration
# --------------------------------------------------------------------------


def test_picard_zero_problem_converges_immediately():
    prob = _simple_problem(cl.linear_plus_source(0.0), zero_ic=True)
    q = cl.kernel_strength(prob.kernel)
    cert = cl.Certificate.for_window(q, prob.nonlinearity.lipschitz_l, 0.0, 0.0, 0.5)
    rep = cl.picard_solve(prob, 0.5, cert, n_frames=16)
    assert rep.trace.iterations == 1
    assert rep.trace.converged
    assert np.all(rep.field.frames == 0)


def test_picard_certified_fixture(certified_problem):
    prob, cert, T = certified_problem
    assert abs(cert.constant - 0.5) <= 1e-12
    rep = cl.picard_solve(prob, T, cert)
    tr = rep.trace
    assert tr.converged
    reported = tr.reported_ratios()
    assert reported.size >= 2
    assert np.max(reported) <= cert.constant * 1.05
    # distances shrink monotonically once the iteration is underway
    assert np.all(np.diff(tr.distances) < 0)
    assert np.all(np.isfinite(rep.l2_per_frame))
    assert rep.tail_warnings == ()


def test_picard_refuses_invalid_certificate():
    prob = _simple_problem(cl.saturating(0.3))
    bad = cl.Certificate.for_window(1.0, 1.0, 0.0, 0.0, 1.0)
    assert not bad.valid
    with pytest.raises(cl.CertificateRefusedError):
        cl.picard_solve(prob, 1.0, bad)


def test_picard_override_runs_with_warning():
    prob = _simple_problem(cl.saturating(0.3))
    bad = cl.Certificate.for_window(1.0, 1.0, 0.0, 0.0, 0.3)
    with pytest.warns(UserWarning, match="OVERRIDE"):
        rep = cl.picard_solve(prob, 0.3, bad, override_certificate=True, n_frames=16)
    assert rep.trace.converged


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_picard_refuses_a_non_finite_default_tolerance():
    # a = 400 on a unit window: C = 3.0e176, and the first image grows like
    # e^{400 t}, finite, but its squared norm is not
    prob = _simple_problem(cl.saturating(0.3), a=400.0)
    bad = cl.Certificate.for_window(1.0, 1.0, 400.0, 0.0, 1.0)
    assert bad.constant == pytest.approx(2.961e176, rel=1e-3) and not bad.valid
    with pytest.warns(UserWarning, match="OVERRIDE"), \
            pytest.raises(cl.SolverError, match=r"non-finite norm \(inf\)") as exc:
        cl.picard_solve(prob, 1.0, bad, override_certificate=True, n_frames=16)
    assert type(exc.value) is cl.SolverError


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_picard_with_a_tolerance_stops_at_the_first_non_finite_distance():
    # the a = 400 window of the test above, with tol_fix given: no default
    # tolerance is set, and the first distance is already inf
    prob = _simple_problem(cl.saturating(0.3), a=400.0)
    bad = cl.Certificate.for_window(1.0, 1.0, 400.0, 0.0, 1.0)
    with pytest.warns(UserWarning, match="OVERRIDE"), \
            pytest.raises(cl.PicardConvergenceError) as exc:
        cl.picard_solve(prob, 1.0, bad, tol_fix=1e-8, override_certificate=True, n_frames=16)
    assert str(exc.value) == (
        "the Picard distance of iteration 1 is not finite (last distance inf, tol 1.000e-08)"
    )
    assert exc.value.trace.iterations == 1 and not exc.value.trace.converged
    assert exc.value.trace.distances.tolist() == [math.inf]


def test_picard_nonconvergence_carries_trace(certified_problem):
    prob, cert, T = certified_problem
    with pytest.raises(cl.PicardConvergenceError) as exc:
        cl.picard_solve(prob, T, cert, max_iter=1)
    assert exc.value.trace.iterations == 1


@pytest.mark.parametrize("max_iter", [0, -3])
def test_picard_refuses_fewer_than_one_iteration(certified_problem, max_iter):
    prob, cert, T = certified_problem
    with pytest.raises(ValueError) as exc:
        cl.picard_solve(prob, T, cert, max_iter=max_iter)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"max_iter must be at least 1, got {max_iter}"


def test_fixed_point_satisfies_derivative_identity(certified_problem):
    # at the fixed point the reported derivative norms and those of the
    # identity evaluated on the solution itself agree to the iteration
    # tolerance
    prob, cert, T = certified_problem
    rep = cl.picard_solve(prob, T, cert, tol_fix=1e-12)
    frames = rep.field.frames
    fh_self = _per_frame_forcing(frames, prob)
    factors = SimpleNamespace(
        lam=cl.build_symbol(prob.grid, prob.a, prob.b),
        g=np.sqrt(2.0 * np.pi) * prob.kernel.spectrum_on(prob.grid),
    )
    du_self = cl.time_derivative(frames, fh_self, factors)
    norms = np.array([cl.l2_norm(cl.Field(prob.grid, row, "spectral")) for row in du_self])
    defect = np.max(np.abs(norms - rep.dudt_l2_per_frame))
    assert defect <= 1e-10 * np.max(rep.dudt_l2_per_frame)


def test_first_iterate_by_recursion_matches_exp_form(monkeypatch):
    # picard_solve builds e^{t_j lam} u0 by u_{j+1} = e^{dt lam} u_j; the
    # complex exp of t_j lam is the slow path, on every entry far from the
    # subnormal range (the high modes underflow either way)
    import cubelap.evolve as ev

    prob = _simple_problem(cl.saturating(0.2), a=0.3, b=-0.8, n=256)
    T, m = 0.4, 64
    first = []

    def capture(u, dudt, *args, **kwargs):
        if not first:
            first.append((u.copy(), dudt.copy()))
        return picard_iterate(u, dudt, *args, **kwargs)

    picard_iterate = ev._picard_iterate
    monkeypatch.setattr(ev, "_picard_iterate", capture)
    cert = cl.Certificate.for_window(cl.kernel_strength(prob.kernel), 0.2, 0.3, -0.8, T)
    assert cert.valid
    cl.picard_solve(prob, T, cert, n_frames=m)
    u, dudt = first[0]
    want, _, w = _free_trajectory(prob, T, m)
    normal = np.abs(want) > 1e-290
    assert 0.1 < normal.mean() < 1.0
    assert np.all(np.abs(u - want)[normal] <= 1e-12 * np.abs(want)[normal])
    assert np.all(np.abs(u[~normal]) <= 1e-280)
    assert np.array_equal(dudt, w.lam * u)


# --------------------------------------------------------------------------
# reference marcher
# --------------------------------------------------------------------------


def test_reference_matches_propagator_without_reaction():
    prob = _simple_problem(cl.linear_plus_source(0.0), a=0.2, b=1.0)
    ref = cl.etd_reference_solve(prob, 0.5, substeps=64, n_frames=16)
    v = raw_to_unitary(prob.grid, _free_trajectory(prob, 0.5, 16)[0])
    half = ref.frames[:, : prob.grid.n_half]
    assert np.max(np.abs(half - v)) <= 1e-12 * np.max(np.abs(v))


def test_reference_substep_preconditions():
    prob = _simple_problem(cl.linear_plus_source(0.0))
    with pytest.raises(ValueError):
        cl.etd_reference_solve(prob, 0.5, substeps=32, n_frames=16)
    with pytest.raises(ValueError):
        cl.etd_reference_solve(prob, 0.5, substeps=70, n_frames=16)


def test_reference_instability_guard():
    # a = 40 makes low modes grow like e^{40 t}: the blowup guard must fire
    prob = _simple_problem(cl.saturating(0.1), a=40.0)
    with pytest.raises(cl.ReferenceInstabilityError):
        cl.etd_reference_solve(prob, 1.0, substeps=64, n_frames=8)


def test_heun_march_yields_each_frame_in_the_shape_of_its_start(certified_problem):
    from cubelap.evolve import _heun_march

    prob, cert, T = certified_problem
    u0 = rfft_raw(prob.u0.values.real)
    starts = np.stack([u0, 0.5 * u0])
    march = (prob, T, 4 * 8, 8)
    single = list(_heun_march(*march, u0))
    block = list(_heun_march(*march, starts))
    assert [s.shape for s in single] == [u0.shape] * 8
    assert [s.shape for s in block] == [starts.shape] * 8
    # the single-state field is the start and the yields; the block keeps the last
    field = cl.etd_reference_solve(prob, T, 4 * 8, 8)
    assert np.array_equal(field.frames, unitary_spectrum(prob.grid, np.stack([u0, *single])))
    assert np.array_equal(cl.etd_reference_solve(prob, T, 4 * 8, 8, starts=starts), block[-1])


def test_oracle_equivalence(certified_problem):
    prob, cert, T = certified_problem
    rep = cl.picard_solve(prob, T, cert)
    ref = cl.etd_reference_solve(prob, T, substeps=4 * 64, n_frames=64)
    num = cl.l2_norm(cl.Field(prob.grid, rep.field.frames[-1] - ref.frames[-1], "spectral"))
    den = cl.l2_norm(rep.final_state)
    assert num / den <= 1e-4


# --------------------------------------------------------------------------
# windowed global march
# --------------------------------------------------------------------------


def test_march_single_window_equals_direct_solve(certified_problem):
    prob, cert, T = certified_problem
    reports = cl.global_march(prob, T, max_window_length=T)
    assert len(reports) == 1
    direct = cl.picard_solve(prob, T, reports[0].certificate)
    assert np.array_equal(reports[0].field.frames, direct.field.frames)


def test_windows_hand_over_in_raw_units(certified_problem):
    # window k >= 1 starts from window k-1's last frame as it is, so its
    # first frame norms repeat the previous window's last ones bit for bit;
    # du/dt there reads the reaction of the start state itself, the previous
    # window's that of the iterate before its last, so it agrees to the
    # Picard tolerance
    prob, cert, T = certified_problem
    reports = cl.global_march(prob, 0.75, max_window_length=0.25, n_frames=16)
    assert len(reports) == 3
    for prev, rep in zip(reports, reports[1:]):
        k = rep.u_band.shape[1]
        assert rep.u0_tail.size == 0 and not np.any(prev.final_raw[k:])
        assert np.array_equal(rep.u_band[0], prev.final_raw[:k])
        assert rep.d6_l2_per_frame[0] == prev.d6_l2_per_frame[-1]
        assert rep.l2_per_frame[0] == prev.l2_per_frame[-1]
        last = prev.dudt_l2_per_frame[-1]
        assert abs(rep.dudt_l2_per_frame[0] - last) <= 1e-9 * last


def test_picard_solve_rejects_a_malformed_start(certified_problem):
    prob, cert, T = certified_problem
    good = np.zeros(prob.grid.n_half, dtype=np.complex128)
    for bad in (good[:-1], np.where(np.arange(good.size) == 3, np.nan, good), [0.0] * 3):
        with pytest.raises(ValueError, match="start must be"):
            cl.picard_solve(prob, T, cert, start=bad)


_TOL_ERROR = "tol_fix must be None or positive"
_LENGTH_ERROR = "window length must be positive and finite"
_BAD_LENGTHS = [
    (entry, dict(starts, window_length=length), _LENGTH_ERROR)
    for length in (float("nan"), float("inf"), 0.0, -0.4)
    for entry, starts in (
        ("picard_solve", {}),
        ("etd_reference_solve", {}),
        ("etd_reference_solve", {"starts": True}),
    )
]


@pytest.mark.parametrize("entry, kwargs, match", [
    ("picard_solve", {"n_frames": 0}, "n_frames must be at least 1"),
    ("picard_solve", {"tol_fix": -1.0}, _TOL_ERROR),
    ("picard_solve", {"tol_fix": 0.0}, _TOL_ERROR),
    ("picard_solve", {"tol_fix": float("nan")}, _TOL_ERROR),
    ("etd_reference_solve", {"n_frames": 0}, "n_frames must be at least 1"),
    ("etd_reference_solve", {"n_frames": 0, "starts": True}, "n_frames must be at least 1"),
    ("global_march", {"n_frames": 0}, "n_frames must be at least 1"),
    ("global_march", {"tol_fix": -1.0}, _TOL_ERROR),
    *_BAD_LENGTHS,
])
def test_entry_points_reject_bad_inputs_up_front(certified_problem, entry, kwargs, match):
    # a value error before any work and with no numpy warning; the march and
    # the batched oracle report it as window 0's failure
    prob, cert, T = certified_problem
    kwargs = dict(kwargs)
    T = kwargs.pop("window_length", T)
    if kwargs.get("starts"):
        kwargs = dict(kwargs, starts=rfft_raw(prob.u0.values.real)[None, :])
    calls = {
        "picard_solve": lambda: cl.picard_solve(prob, T, cert, **kwargs),
        "etd_reference_solve": lambda: cl.etd_reference_solve(prob, T, 64, **kwargs),
        "global_march": lambda: cl.global_march(prob, T, max_window_length=T, **kwargs),
    }
    wrapped = entry == "global_march" or "starts" in kwargs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(cl.MarchWindowError if wrapped else ValueError) as exc:
            calls[entry]()
    err = exc.value
    if wrapped:
        assert err.window_index == 0
        err = err.__cause__
    assert isinstance(err, ValueError) and match in str(err)


def test_march_semigroup_for_free_evolution():
    g = cl.make_grid(np.pi, 64)
    u0 = cl.field_from_function(g, lambda x: np.cos(x))
    prob = cl.ProblemSpec(
        a=0.5, b=1.0, kernel=cl.gaussian_kernel(1.0, 1.0),
        nonlinearity=cl.linear_plus_source(0.0), u0=u0, grid=g,
    )
    T = 0.5
    reports = cl.global_march(prob, T, max_window_length=T / 2, n_frames=32)
    assert len(reports) == 2
    lam = cl.build_symbol(g, 0.5, 1.0)
    oneshot = cl.propagate(cl.to_spectral(u0), lam, T)
    end = reports[-1].final_state
    rel = cl.l2_norm(cl.Field(g, end.values - oneshot.values, "spectral")) / cl.l2_norm(oneshot)
    assert rel <= 1e-10


def test_march_linear_decay_and_drift_translation():
    # single resolved mode: L2 norm decays like e^{(a - p0^6) t} and the
    # drift translates the profile left for b > 0: u(x, t) = decay*u0(x + b t)
    g = cl.make_grid(np.pi, 64)
    p0 = 1.0
    u0 = cl.field_from_function(g, lambda x: np.cos(p0 * x))
    a, b = 0.5, 1.0
    prob = cl.ProblemSpec(
        a=a, b=b, kernel=cl.gaussian_kernel(1.0, 1.0),
        nonlinearity=cl.linear_plus_source(0.0), u0=u0, grid=g,
    )
    T = 0.5
    reports = cl.global_march(prob, T, n_frames=32, max_window_length=T)
    rep = reports[0]
    expect = np.exp((a - p0**6) * rep.field.time_grid) * cl.l2_norm(u0)
    assert np.max(np.abs(rep.l2_per_frame - expect) / expect) <= 1e-6
    phys_end = cl.inverse_transform(rep.final_state).values.real
    translated = np.exp((a - p0**6) * T) * np.cos(p0 * (g.x + b * T))
    assert np.max(np.abs(phys_end - translated)) <= 1e-10


def test_march_measures_no_overlap():
    # the support overlap is not the march's (the runner measures it with
    # nontriviality_overlap), so a zero reaction makes the march emit no warning
    g = cl.make_grid(np.pi, 64)
    prob = cl.ProblemSpec(
        a=0.5, b=1.0, kernel=cl.gaussian_kernel(1.0, 1.0),
        nonlinearity=cl.linear_plus_source(0.0),
        u0=cl.field_from_function(g, np.cos), grid=g,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(cl.global_march(prob, 0.5, n_frames=8)) == 1


def test_march_disjoint_bands_stay_zero():
    # u0 = 0, kernel band and source band disjoint: the reaction never feeds
    # any resolved mode, so the solution stays at zero round-off
    g = cl.make_grid(20.0, 256)
    kernel = cl.bandlimited_kernel(g, 1.0, 1.0)
    src = cl.source_bandlimited(g, 1.0, 2.0, 3.0)
    nl = cl.linear_plus_source(0.0, src)
    u0 = cl.Field(g, np.zeros(256), "physical")
    prob = cl.ProblemSpec(a=0.0, b=0.0, kernel=kernel, nonlinearity=nl, u0=u0, grid=g)
    reports = cl.global_march(prob, 0.5, n_frames=16, max_window_length=0.25)
    assert len(reports) == 2
    assert cl.nontriviality_overlap(kernel, nl, g) == 0.0
    for rep in reports:
        assert np.max(np.abs(rep.field.frames)) <= 1e-12


def test_march_wraps_window_failures(certified_problem):
    prob, cert, T = certified_problem
    with pytest.raises(cl.MarchWindowError) as exc:
        cl.global_march(prob, T, max_iter=1, max_window_length=T)
    assert exc.value.window_index == 0


def test_ratio_gate_trips_on_an_understated_lipschitz_constant(certified_problem):
    # l/40 gives C = 0.0125; the measured first ratio, about 0.023, is above
    # C * RATIO_SLACK, so the solve must be refused as a defect
    import dataclasses

    prob, cert, T = certified_problem
    ell = prob.nonlinearity.lipschitz_l
    low = cl.Certificate.for_window(cert.q, ell / 40, prob.a, prob.b, T)
    assert low.valid and abs(low.constant - 0.0125) <= 1e-12
    with pytest.raises(cl.ContractionRatioError) as exc:
        cl.picard_solve(prob, T, low)
    assert np.max(exc.value.trace.reported_ratios()) > low.constant * cl.evolve.RATIO_SLACK

    understated = dataclasses.replace(prob.nonlinearity, lipschitz_l=ell / 40)
    with pytest.raises(cl.MarchWindowError) as exc:
        cl.global_march(
            dataclasses.replace(prob, nonlinearity=understated), T, max_window_length=T
        )
    assert exc.value.window_index == 0
    assert isinstance(exc.value.__cause__, cl.ContractionRatioError)


def test_tail_warning_fires_for_mass_at_the_box_edge():
    g = cl.make_grid(20.0, 128)
    u0 = cl.field_from_function(g, lambda x: np.exp(-(((np.abs(x) - 18.0) / 1.0) ** 2)))
    prob = cl.ProblemSpec(
        a=0.0, b=0.0, kernel=cl.gaussian_kernel(0.01, 2.0),
        nonlinearity=cl.saturating(1.0), u0=u0, grid=g,
    )
    q = cl.kernel_strength(prob.kernel)
    rep = cl.picard_solve(prob, 0.1, cl.Certificate.for_window(q, 1.0, 0.0, 0.0, 0.1), n_frames=8)
    assert len(rep.tail_warnings) == 1
    assert "tail mass fraction" in rep.tail_warnings[0]


# --------------------------------------------------------------------------
# the batched oracle of the march
# --------------------------------------------------------------------------


def _next_start(prob, rep):
    """The next window's problem, whose u0 is rep's last frame as physical
    samples: the start of a single-state oracle march of that window."""
    import dataclasses

    from cubelap.grid import irfft_raw

    end = irfft_raw(prob.grid, rep.final_raw)
    return dataclasses.replace(prob, u0=cl.Field(prob.grid, end))


def _deviation(rep, end):
    """The relative L2 gap of the report's end state from the oracle's end
    state ``end``, both half spectra in ``rfft_raw`` units (whose scale
    cancels in the ratio); each mode weighted by its multiplicity."""
    weights = rep.grid._half_weights
    mine = rep.final_raw
    return math.sqrt(np.sum(weights * np.abs(mine - end) ** 2)
                     / np.sum(weights * np.abs(mine) ** 2))


def test_batched_oracle_matches_per_window_loop(certified_problem):
    prob, cert, T = certified_problem
    t_w = 0.25  # three windows exactly
    reports = cl.global_march(prob, 3 * t_w, max_window_length=t_w, n_frames=16, run_oracle=True)
    assert len(reports) == 3
    current, start = prob, rfft_raw(prob.u0.values.real)
    for k, rep in enumerate(reports):
        # the slow path: one etd_reference_solve per window, on its raw start
        # alone, which the single-state march from the physical start
        # reproduces: bit for bit at window 0, and up to the rounding of the
        # samples' round trip through the transform pair after it
        end = cl.etd_reference_solve(current, t_w, 4 * 16, n_frames=16, starts=start[None, :])[0]
        single = cl.etd_reference_solve(current, t_w, 4 * 16, n_frames=16)
        got = single.frames[-1, : prob.grid.n_half]
        want = raw_to_unitary(prob.grid, end)
        if k == 0:
            assert np.array_equal(got, want)
        else:
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        want = _deviation(rep, end)
        assert abs(rep.oracle_rel_deviation - want) <= 1e-12 * want
        current, start = _next_start(current, rep), rep.final_raw


def test_march_oracle_starts_from_the_picard_chain_states(certified_problem, monkeypatch):
    # one list of raw start states: the chain's window k and the oracle's row
    # k both start from rfft_raw of u0, then from report k-1's final_raw
    import cubelap.evolve as ev

    prob, cert, T = certified_problem
    picard_starts, blocks = [], []
    real_picard, real_heun = ev.picard_solve, ev._heun_march

    def picard(*args, **kwargs):
        picard_starts.append(kwargs["start"])
        return real_picard(*args, **kwargs)

    def heun(*args):
        if args[-1].ndim == 2:
            blocks.append(args[-1])
        return real_heun(*args)

    monkeypatch.setattr(ev, "picard_solve", picard)
    monkeypatch.setattr(ev, "_heun_march", heun)
    reports = cl.global_march(prob, 0.75, max_window_length=0.25, n_frames=16, run_oracle=True)
    want = np.stack([rfft_raw(prob.u0.values.real)] + [rep.final_raw for rep in reports[:-1]])
    assert len(reports) == 3 and len(blocks) == 1
    assert np.array_equal(blocks[0], want) and np.array_equal(np.stack(picard_starts), want)


_BLOWUP_T = 0.7


def _blowup_problem(u0_fn, nonlinearity=None):
    # a = 40: modes |p| <= 1 grow like e^{39 t} or faster, |p| = 2 decays like
    # e^{-24 t}; a window's oracle fails once its own norm grows 1e8-fold. The
    # weak kernel keeps C < 1 on 0.7-long windows despite the e^{2aT} factor.
    g = cl.make_grid(np.pi, 32)
    return cl.ProblemSpec(
        a=40.0, b=0.0, kernel=cl.gaussian_kernel(1e-6, 1.0),
        nonlinearity=nonlinearity or cl.linear_plus_source(0.0),
        u0=cl.field_from_function(g, u0_fn), grid=g,
    )


#: Window starts: window 0 decays, window 2 blows up at an earlier substep
#: than window 1, whose growing part starts 100 times smaller.
_STARTS = [
    lambda x: np.cos(2 * x),
    lambda x: 0.01 * np.cos(x) + np.cos(2 * x),
    lambda x: np.cos(x),
    lambda x: np.cos(2 * x),
]


def _staged_picard(monkeypatch, fail_at):
    """Stand in for picard_solve: solve, then end window k on the start of
    window k + 1 from _STARTS; fail at window fail_at. The stand-in's report
    keeps all N/2+1 modes in ``u_band``, frame 0's above the band included,
    since its end state is not band-limited."""
    import dataclasses

    import cubelap.evolve as ev
    from cubelap.grid import rfft_raw

    real = ev.picard_solve

    def staged(prob, T, cert, **kwargs):
        k = round(kwargs["t_offset"] / T)
        if k == fail_at:
            raise cl.PicardConvergenceError(f"stand-in failure at window {k}", None)
        rep = real(prob, T, cert, **kwargs)
        band, tail = rep.u_band.shape[1], rep.u0_tail.size
        frames = np.zeros((len(rep.u_band), prob.grid.n_half), np.complex128)
        frames[:, :band] = rep.u_band
        frames[0, band : band + tail] = rep.u0_tail
        frames[-1] = rfft_raw(_STARTS[(k + 1) % len(_STARTS)](prob.grid.x))
        return dataclasses.replace(rep, u_band=frames, u0_tail=rep.u0_tail[:0])

    monkeypatch.setattr(ev, "picard_solve", staged)
    return staged


def _sequential_march_error(prob, windows, n_frames, substeps, picard):
    """The slow path: each window's oracle right after its Picard solve, the
    order the march had before its oracle was batched; (window, error) of
    its first failure."""
    q = cl.kernel_strength(prob.kernel)
    cert = cl.Certificate.for_window(q, prob.nonlinearity.lipschitz_l, prob.a, prob.b, _BLOWUP_T)
    current = prob
    for k in range(windows):
        try:
            rep = picard(current, _BLOWUP_T, cert, n_frames=n_frames, t_offset=k * _BLOWUP_T)
            cl.etd_reference_solve(current, _BLOWUP_T, substeps, n_frames)
        except (cl.SolverError, ValueError, cl.ModelEvaluationError) as exc:
            return k, exc
        current = _next_start(current, rep)
    return None


def test_blowup_fixture_fails_window_2_before_window_1():
    steps = []
    for start in _STARTS:
        try:
            cl.etd_reference_solve(_blowup_problem(start), _BLOWUP_T, 256, n_frames=16)
            steps.append(None)
        except cl.ReferenceInstabilityError as exc:
            steps.append(int(str(exc).split("at step ")[1].split(":")[0]))
    assert steps[0] is None and steps[3] is None
    assert steps[2] < steps[1]


@pytest.mark.parametrize("picard_fails_at", [1, 2, 3, None])
def test_march_first_failure_wins(monkeypatch, picard_fails_at):
    # window 1's oracle fails after window 2's (in substeps) and before any
    # later Picard failure in march order, so it must be the one raised
    prob = _blowup_problem(_STARTS[0])
    staged = _staged_picard(monkeypatch, picard_fails_at)
    k, cause = _sequential_march_error(prob, 4, 16, 16 * 16, staged)
    with pytest.raises(cl.MarchWindowError) as exc:
        cl.global_march(
            prob, 4 * _BLOWUP_T, n_frames=16, max_window_length=_BLOWUP_T,
            run_oracle=True, oracle_substeps_factor=16,
        )
    got = exc.value
    assert (got.window_index, str(got)) == (k, str(cl.MarchWindowError(k, cause)))
    assert type(got.__cause__) is type(cause)
    if picard_fails_at == 1:
        assert isinstance(got.__cause__, cl.PicardConvergenceError)
    else:
        assert got.window_index == 1
        assert isinstance(got.__cause__, cl.ReferenceInstabilityError)


def test_batched_oracle_model_error_reads_as_one_window():
    # F is NaN once |u| passes 1e3: rows 1 and 2 reach it, row 2 first; the
    # batch raises row 1's error with the message of a single-state march
    def fn(u, x):
        return np.where(np.abs(u) > 1e3, np.nan, 0.0 * u)

    spec = cl.NonlinearitySpec(
        name="nan_above", fn=fn, source=cl.source_zero(), growth_k=1.0, lipschitz_l=1.0
    )
    probs = [_blowup_problem(start, spec) for start in _STARTS[:3]]
    singles = []
    for p in probs:  # the slow path: one march per start
        try:
            cl.etd_reference_solve(p, _BLOWUP_T, 256, n_frames=16)
            singles.append(None)
        except cl.ModelEvaluationError as exc:
            singles.append(str(exc))
    assert singles[0] is None and singles[1] and singles[2]
    starts = np.stack([rfft_raw(p.u0.values.real) for p in probs])
    with pytest.raises(cl.ModelEvaluationError) as exc:
        cl.etd_reference_solve(probs[0], _BLOWUP_T, 256, n_frames=16, starts=starts)
    assert str(exc.value) == singles[1]
    assert "in frame" not in str(exc.value)


def test_oracle_refuses_a_non_finite_forcing_in_both_forms():
    # from the zero start, F(0) = h is a gaussian of peak 1e308: every sample
    # is finite, but its transform sums them past the largest float. The
    # oracle's reaction is Picard's, guard included, so the transform's
    # overflow is named as such and not blamed on the reaction
    g = cl.make_grid(20.0, 128)
    nonlinearity = cl.linear_plus_source(1.0, cl.source_gaussian(1e308))
    prob = cl.ProblemSpec(a=0.0, b=1.0, kernel=cl.gaussian_kernel(0.01, 2.0),
                          nonlinearity=nonlinearity, u0=cl.Field(g, np.zeros(128)), grid=g)
    message = "forcing history contains non-finite values"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(cl.SolverError) as single:
            cl.etd_reference_solve(prob, 0.4, 64, n_frames=16)
        with pytest.raises(cl.MarchWindowError) as block:
            cl.etd_reference_solve(prob, 0.4, 64, n_frames=16, starts=np.zeros((1, g.n_half)))
    assert type(single.value) is cl.SolverError and str(single.value) == message
    assert block.value.window_index == 0 and str(block.value) == f"window 0 failed: {message}"


def test_batched_oracle_substep_preconditions_fail_window_0():
    prob = _simple_problem(cl.linear_plus_source(0.0))
    physical = np.stack([prob.u0.values.real] * 2)
    starts = rfft_raw(physical)
    with pytest.raises(cl.MarchWindowError) as exc:
        cl.etd_reference_solve(prob, 0.5, 32, n_frames=16, starts=starts)
    assert exc.value.window_index == 0 and isinstance(exc.value.__cause__, ValueError)
    # the block is raw half spectra: (K, N/2+1), never physical (K, N) samples
    nan_row = starts.copy()
    nan_row[1, 3] = np.nan
    for bad in (starts[:, :7], physical, starts[0], nan_row):
        with pytest.raises(ValueError, match=r"^starts must be a \(K, 65\) array"):
            cl.etd_reference_solve(prob, 0.5, 64, n_frames=16, starts=bad)
    # a non-finite row is named by its index, not blamed on the reaction
    with pytest.raises(ValueError, match=r"of finite modes; rows \[1\] are not finite$"):
        cl.etd_reference_solve(prob, 0.5, 64, n_frames=16, starts=nan_row)


def _threshold_reaction(name, factor, threshold):
    """F = factor * u where |u| passes threshold, else 0: NaN or a growth
    bound violation once a state grows large, nothing before."""
    def fn(u, x):
        return np.where(np.abs(u) > threshold, factor * u, 0.0 * u)

    return cl.NonlinearitySpec(
        name=name, fn=fn, source=cl.source_zero(), growth_k=1.0, lipschitz_l=3.0
    )


def _single_window_failure(prob, starts, substeps, n_frames):
    """The slow path: one single-state march per start, in order; (window,
    error) of the first failure, or (None, their end frames)."""
    import dataclasses

    ends = []
    for k, row in enumerate(starts):
        one = dataclasses.replace(prob, u0=cl.Field(prob.grid, row))
        try:
            ends.append(cl.etd_reference_solve(one, _BLOWUP_T, substeps, n_frames).frames[-1])
        except (cl.SolverError, ValueError, cl.ModelEvaluationError) as exc:
            return k, exc
    return None, np.stack(ends)


def test_batched_oracle_replay_matches_single_window_marches():
    from cubelap.grid import unitary_spectrum

    rng = np.random.default_rng(15)
    n_frames, seen = 8, set()
    for _ in range(40):
        kind = rng.integers(4)
        nonlinearity = [
            cl.linear_plus_source(0.0),
            _threshold_reaction("nan_above", np.nan, 10 ** rng.uniform(2, 10)),
            _threshold_reaction("grow_above", 3.0, 10 ** rng.uniform(2, 10)),
            cl.linear_plus_source(0.0),
        ][kind]
        substeps = int(rng.choice([20, 36])) if kind == 3 else 8 * n_frames
        prob = _blowup_problem(_STARTS[0], nonlinearity)
        x = prob.grid.x
        starts = np.stack([
            10 ** rng.uniform(-13, -1) * np.cos(x) + np.cos(2 * x) + 10 ** rng.uniform(-9, -3)
            for _ in range(rng.integers(1, 6))
        ])
        k, cause = _single_window_failure(prob, starts, substeps, n_frames)
        raw = rfft_raw(starts)
        if k is None:
            ends = cl.etd_reference_solve(prob, _BLOWUP_T, substeps, n_frames, starts=raw)
            assert np.array_equal(unitary_spectrum(prob.grid, ends), cause)
            seen.add("none")
            continue
        with pytest.raises((cl.SolverError, cl.ModelEvaluationError)) as exc:
            cl.etd_reference_solve(prob, _BLOWUP_T, substeps, n_frames, starts=raw)
        got = exc.value
        if isinstance(cause, (cl.SolverError, ValueError)):
            want = (cl.MarchWindowError, k, str(cl.MarchWindowError(k, cause)), type(cause))
        else:
            want = (type(cause), None, str(cause), type(None))
        assert (type(got), getattr(got, "window_index", None), str(got),
                type(got.__cause__)) == want
        seen.add((type(cause).__name__, k > 0))
    # the draws reach every failure type, at window 0 and past it
    assert seen >= {"none", ("ValueError", False), ("ModelEvaluationError", True),
                    ("ReferenceInstabilityError", True)}


def test_batched_oracle_raises_its_own_error_when_no_window_fails_alone():
    # F is NaN on a block of states only: every single-state march passes,
    # so the rows are coupled and the block's error is the one raised
    def fn(u, x):
        return np.full_like(u, np.nan) if u.ndim > 1 else 0.0 * u

    spec = cl.NonlinearitySpec(
        name="nan_on_blocks", fn=fn, source=cl.source_zero(), growth_k=1.0, lipschitz_l=1.0
    )
    prob = _blowup_problem(_STARTS[0], spec)
    starts = np.stack([start(prob.grid.x) for start in (_STARTS[0], _STARTS[3])])
    assert _single_window_failure(prob, starts, 64, 16)[0] is None
    with pytest.raises(cl.ModelEvaluationError, match=r"in frame 0$"):
        cl.etd_reference_solve(prob, _BLOWUP_T, 64, n_frames=16, starts=rfft_raw(starts))


def test_two_grid_consistency(certified_problem):
    prob, cert, T = certified_problem
    rep_c = cl.picard_solve(prob, T, cert, n_frames=64)
    fine_grid = cl.make_grid(prob.grid.half_length, 2 * prob.grid.n_points)
    u0_fine = cl.field_from_function(fine_grid, lambda x: np.exp(-(x**2) / 2.0))
    prob_f = cl.ProblemSpec(
        a=prob.a, b=prob.b, kernel=prob.kernel, nonlinearity=prob.nonlinearity,
        u0=u0_fine, grid=fine_grid,
    )
    rep_f = cl.picard_solve(prob_f, T, cert, n_frames=128)
    coarse_end = cl.inverse_transform(rep_c.final_state).values.real
    fine_end = cl.inverse_transform(rep_f.final_state).values.real
    on_coarse = fine_end[::2]  # doubling N keeps the coarse nodes
    num = np.sqrt(np.sum((on_coarse - coarse_end) ** 2) * prob.grid.dx)
    den = np.sqrt(np.sum(coarse_end**2) * prob.grid.dx)
    assert num / den <= 1e-6


# --------------------------------------------------------------------------
# the array hot path against the per-frame Field path it replaced
# --------------------------------------------------------------------------


def _bandlimited_source_problem():
    g = cl.make_grid(20.0, 256)
    nl = cl.saturating(1.7, cl.source_bandlimited(g, 0.1, 0.3, 1.0))
    u0 = cl.field_from_function(g, lambda x: np.exp(-(x**2) / 2.0))
    prob = cl.ProblemSpec(
        a=0.0, b=1.0, kernel=cl.gaussian_kernel(0.01, 2.0), nonlinearity=nl, u0=u0, grid=g,
    )
    q = cl.kernel_strength(prob.kernel)
    return prob, cl.Certificate.for_window(q, nl.lipschitz_l, 0.0, 1.0, 0.4), 0.4


@pytest.fixture(params=["certified_problem", "bandlimited_source"])
def hot_path_problem(request):
    if request.param == "certified_problem":
        return request.getfixturevalue("certified_problem")
    return _bandlimited_source_problem()


def _per_frame_forcing(frames, prob):
    """F(v) transformed frame by frame on all N modes, through ``Field``s."""
    grid = prob.grid
    out = np.empty_like(frames)
    for j in range(frames.shape[0]):
        phys = cl.inverse_transform(cl.Field(grid, frames[j], "spectral")).values.real
        vals = cl.apply_nonlinearity(phys, prob.nonlinearity, grid)
        out[j] = cl.forward_transform(cl.Field(grid, vals)).values
    return out


def _per_frame_picard(prob, T, n_frames):
    """The Field-by-Field Picard loop: per-frame transforms and reaction calls,
    phi-weights rebuilt on every iteration, wrappers around every iterate."""
    grid = prob.grid
    lam = cl.build_symbol(grid, prob.a, prob.b)
    tg = np.linspace(0.0, T, n_frames + 1)
    u0h = cl.to_spectral(prob.u0).values
    g_hat = prob.kernel.spectrum_on(grid)
    free = np.exp(np.outer(tg, lam)) * u0h[None, :]
    u_prev = cl.SpacetimeField(grid, tg, free)
    du_prev = cl.SpacetimeField(grid, tg, lam[None, :] * free)
    distances, tol = [], None
    while tol is None or distances[-1] >= tol:
        fh = _per_frame_forcing(u_prev.frames, prob)
        dt = u_prev.dt
        z = dt * lam
        w_prev, w_next = dt * (cl.phi1(z) - cl.phi2(z)), dt * cl.phi2(z)
        u = np.empty_like(fh)
        u[0] = u0h
        for j in range(n_frames):
            u[j + 1] = np.exp(dt * lam) * u[j] + np.sqrt(2.0 * np.pi) * g_hat * (
                w_prev * fh[j] + w_next * fh[j + 1]
            )
        u_new = cl.SpacetimeField(grid, tg, u)
        du_new = cl.SpacetimeField(
            grid, tg, lam[None, :] * u + np.sqrt(2.0 * np.pi) * g_hat[None, :] * fh
        )
        distances.append(cl.spacetime_sobolev_norm(
            cl.SpacetimeField(grid, tg, u_new.frames - u_prev.frames),
            cl.SpacetimeField(grid, tg, du_new.frames - du_prev.frames),
        ))
        if tol is None:
            tol = 1e-10 * max(1.0, cl.spacetime_sobolev_norm(u_new, du_new))
        u_prev, du_prev = u_new, du_new
    return u_prev.frames[-1], np.array(distances)


def test_batched_forcing_matches_per_frame_loop(hot_path_problem):
    from cubelap.evolve import _forcing_history

    prob, cert, T = hot_path_problem
    v, _, _ = _free_trajectory(prob, T, 32)
    batched = raw_to_unitary(prob.grid, _forcing_history(v, prob))
    reference = _per_frame_forcing(unitary_spectrum(prob.grid, v), prob)[:, : v.shape[1]]
    assert np.max(np.abs(batched - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_picard_matches_per_frame_reference(hot_path_problem):
    prob, cert, T = hot_path_problem
    rep = cl.picard_solve(prob, T, cert, n_frames=32)
    final, distances = _per_frame_picard(prob, T, 32)
    assert rep.trace.iterations == distances.size
    assert np.max(np.abs(rep.field.frames[-1] - final)) <= 1e-12 * np.max(np.abs(final))
    assert np.all(np.abs(rep.trace.distances - distances) <= 1e-12 * distances[0])


def _max_reported_ratio(distances):
    # the rule of PicardTrace: d_{n+1}/d_n, skipping bases at the noise floor
    floor = 10.0 * np.finfo(float).eps * distances[0]
    ratios = distances[1:] / distances[:-1]
    return np.max(ratios[distances[:-1] > floor])


def test_largest_picard_ratio_matches_per_frame_reference(hot_path_problem):
    # the certificate check reads this ratio
    prob, cert, T = hot_path_problem
    rep = cl.picard_solve(prob, T, cert, n_frames=32)
    _, distances = _per_frame_picard(prob, T, 32)
    got, ref = np.max(rep.trace.reported_ratios()), _max_reported_ratio(distances)
    assert abs(got - ref) <= 1e-12 * ref


def test_report_frames_are_exactly_hermitian(hot_path_problem):
    prob, cert, T = hot_path_problem
    rep = cl.picard_solve(prob, T, cert, n_frames=16)
    n = prob.grid.n_points
    k = np.arange(1, n // 2)
    frames = rep.field.frames
    assert np.array_equal(frames[:, n - k], np.conj(frames[:, k]))


def _full_spectrum_heun(prob, T, substeps, n_frames):
    """The integrating-factor Heun oracle on all N modes, with the full
    complex transforms (the oracle before the half-spectrum core)."""
    grid = prob.grid
    lam = cl.build_symbol(grid, prob.a, prob.b)
    g = np.sqrt(2.0 * np.pi) * prob.kernel.spectrum_on(grid)
    h = T / substeps
    e_h = np.exp(h * lam)

    def reaction(u_hat):
        return g * _per_frame_forcing(u_hat[None, :], prob)[0]

    u_hat = cl.to_spectral(prob.u0).values.copy()
    for _ in range(substeps):
        nn = reaction(u_hat)
        pred = e_h * (u_hat + h * nn)
        u_hat = e_h * u_hat + 0.5 * h * (e_h * nn + reaction(pred))
    return u_hat


def test_oracle_matches_full_spectrum_heun(hot_path_problem):
    prob, cert, T = hot_path_problem
    ref = cl.etd_reference_solve(prob, T, 4 * 16, n_frames=16)
    full = _full_spectrum_heun(prob, T, 4 * 16, 16)
    assert np.max(np.abs(ref.frames[-1] - full)) <= 1e-12 * np.max(np.abs(full))


_MODEL_ERROR_SCRIPT = """
import numpy as np
import cubelap as cl

g = cl.make_grid(20.0, 128)
u0 = cl.field_from_function(g, lambda x: np.exp(-(x**2) / 2.0))
specs = {
    "nan": cl.NonlinearitySpec(
        name="nan", fn=lambda u, x: np.where(x > 5.0, np.nan, u),
        source=cl.source_zero(), growth_k=1.0, lipschitz_l=1.0,
    ),
    "underdeclared_growth": cl.NonlinearitySpec(
        name="under", fn=lambda u, x: 2.0 * u,
        source=cl.source_zero(), growth_k=1.0, lipschitz_l=2.0,
    ),
}
kernel = cl.gaussian_kernel(0.01, 2.0)
for name, spec in specs.items():
    prob = cl.ProblemSpec(a=0.0, b=0.0, kernel=kernel, nonlinearity=spec, u0=u0, grid=g)
    cert = cl.Certificate.for_window(cl.kernel_strength(kernel), 2.0, 0.0, 0.0, 0.1)
    solvers = {
        "picard_solve": lambda: cl.picard_solve(prob, 0.1, cert, n_frames=8),
        "etd_reference_solve": lambda: cl.etd_reference_solve(prob, 0.1, 32, n_frames=8),
    }
    for solver, call in solvers.items():
        try:
            call()
        except cl.ModelEvaluationError as exc:
            print(name, solver, "raised:", exc)
        else:
            raise SystemExit(f"{name}: {solver} did not raise ModelEvaluationError")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_model_errors_raise_from_inside_the_solvers(flags):
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(cl.__file__).resolve().parents[1]))
    env.pop("PYTHONOPTIMIZE", None)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _MODEL_ERROR_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4
    assert sum("nonlinearity produced" in line and "in frame" in line for line in lines) == 1
    assert sum("growth bound violated" in line for line in lines) == 2


def test_solver_loops_construct_no_field_wrappers(certified_problem, monkeypatch):
    # wrappers are built at the API edge only: their count must not depend
    # on the number of Picard iterations or oracle substeps
    built = []
    for cls in (cl.Field, cl.SpacetimeField):
        def counting(self, _orig=cls.__post_init__):
            built.append(type(self).__name__)
            _orig(self)

        monkeypatch.setattr(cls, "__post_init__", counting)

    def constructions(call):
        built.clear()
        result = call()
        return len(built), result

    prob, cert, T = certified_problem
    prob.nonlinearity.source_norm(prob.grid)  # fill the once-per-grid cache first
    loose, rep_loose = constructions(lambda: cl.picard_solve(prob, T, cert, tol_fix=1e-4))
    tight, rep_tight = constructions(lambda: cl.picard_solve(prob, T, cert, tol_fix=1e-12))
    assert rep_loose.trace.iterations < rep_tight.trace.iterations
    assert loose == tight
    assert "SpacetimeField" not in built
    # the report expands its half spectrum on every access, never caching it
    assert rep_tight.field is not rep_tight.field
    few, _ = constructions(lambda: cl.etd_reference_solve(prob, T, 4 * 16, n_frames=16))
    many, _ = constructions(lambda: cl.etd_reference_solve(prob, T, 16 * 16, n_frames=16))
    assert few == many


def test_solver_loops_call_the_public_functions(certified_problem, monkeypatch):
    # per iterate picard_solve applies the map and its time derivative once
    # per block of frames, with one reaction call per block, and the 16
    # frames after frame 0 at N = 256 are one block; frame 0's forcing is one
    # more reaction call per window; the oracle calls the reaction twice per
    # substep
    import collections

    import cubelap.evolve as ev

    calls = collections.Counter()
    for name in ("duhamel_map", "time_derivative", "apply_nonlinearity"):
        def counting(*args, _orig=getattr(ev, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(ev, name, counting)

    prob, cert, T = certified_problem
    its = cl.picard_solve(prob, T, cert, n_frames=16).trace.iterations
    assert dict(calls) == {
        "duhamel_map": its, "time_derivative": its, "apply_nonlinearity": its + 1
    }
    calls.clear()
    cl.etd_reference_solve(prob, T, 4 * 16, n_frames=16)
    assert dict(calls) == {"apply_nonlinearity": 2 * 4 * 16}


@pytest.mark.parametrize("windows", [1, 3])
def test_march_oracle_calls_the_reaction_twice_per_substep(certified_problem, monkeypatch, windows):
    # one batched oracle for all windows: the reaction count is the Picard
    # iterations, one frame-0 forcing per window, and two per substep,
    # whatever the window count
    import cubelap.evolve as ev

    calls = []
    real = ev.apply_nonlinearity
    monkeypatch.setattr(
        ev, "apply_nonlinearity", lambda *a, **kw: calls.append(1) or real(*a, **kw)
    )
    prob, cert, T = certified_problem
    t_w = 0.25  # a whole number of windows exactly
    reports = cl.global_march(
        prob, windows * t_w, max_window_length=t_w, n_frames=16, run_oracle=True
    )
    assert len(reports) == windows
    its = sum(rep.trace.iterations for rep in reports)
    assert len(calls) == its + windows + 2 * 4 * 16


def test_window_solve_holds_about_two_trajectory_arrays():
    # tracemalloc, not RSS: the iterate and its time derivative (which become
    # the report's arrays) plus a few blocks of grid.BLOCK_BYTES; the full
    # spectrum of ``field`` is one more allocation of two such arrays
    import tracemalloc

    grid = cl.make_grid(40.0, 4096)
    kernel = cl.gaussian_kernel(0.01, 2.0)
    q = cl.kernel_strength(kernel)
    ell = 0.5 / (q * np.sqrt(9.0 * 0.4**2 + 2.0))
    prob = cl.ProblemSpec(
        a=0.0, b=1.0, kernel=kernel, nonlinearity=cl.saturating(ell, cl.source_gaussian(0.1, 1.0)),
        u0=cl.field_from_function(grid, lambda x: np.exp(-(x**2) / 2.0)), grid=grid,
    )
    cert = cl.Certificate.for_window(q, ell, 0.0, 1.0, 0.4)
    frames = 256
    array = (frames + 1) * grid.n_half * 16  # one (M+1, N/2+1) complex array
    cl.picard_solve(prob, 0.4, cert, n_frames=frames)  # fill the per-grid caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = cl.picard_solve(prob, 0.4, cert, n_frames=frames)
        solve_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        field = rep.field
        field_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.trace.iterations >= 3 and field.frames.shape == (frames + 1, grid.n_points)
    assert solve_peak <= 3.5 * array, solve_peak / array
    assert field_peak <= 2.1 * array, field_peak / array
