import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubelap as cl
import cubelap.grid as grid_mod

from conftest import random_smooth_field


# --------------------------------------------------------------------------
# grid construction
# --------------------------------------------------------------------------


def test_wavenumber_set_pi_grid():
    g = cl.make_grid(np.pi, 8)
    assert set(np.round(g.wavenumbers).astype(int)) == {-3, -2, -1, 0, 1, 2, 3, 4}
    assert np.allclose(sorted(g.wavenumbers), np.arange(-3, 5))


def test_grid_spacings():
    g = cl.make_grid(1.0, 16)
    assert g.dx == 0.125
    assert g.dp == np.pi
    assert g.x[0] == -1.0
    assert g.x[-1] == 1.0 - g.dx


@pytest.mark.parametrize(
    "L,N",
    [(0.0, 8), (-1.0, 8), (1.0, 7), (1.0, 9), (1.0, 6), (1.0, 0)],
)
def test_grid_rejects_bad_arguments(L, N):
    with pytest.raises(ValueError):
        cl.make_grid(L, N)


@pytest.mark.parametrize(
    "L,N,refused",
    [(1e160, 64, True), (1e308, 64, True), (1e-25, 64, True), (1e-20, 16384, True),
     (1e150, 64, False), (1e-20, 64, False)],
)
def test_grid_refuses_a_box_whose_norm_weights_leave_the_floats(L, N, refused):
    # (dx/sqrt(2 pi))^2 or p^12 overflows: the grid names L and N, with no
    # RuntimeWarning on the way; the boxes just inside still build
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if refused:
            with pytest.raises(ValueError, match=re.escape(f"the box L = {L!r} with N = {N} ")):
                cl.make_grid(L, N)
        else:
            g = cl.make_grid(L, N)
            assert all(np.all(np.isfinite(w)) for w in g._view_weights.values())
            assert np.all(np.isfinite(g.x)) and np.all(np.isfinite(g.wavenumbers))


# --------------------------------------------------------------------------
# transforms
# --------------------------------------------------------------------------


def test_gaussian_self_transform():
    # exp(-x^2/2) is its own transform under the unitary convention; the
    # p = 0 value is the quadrature-verified constant 1
    g = cl.make_grid(20.0, 512)
    f = cl.field_from_function(g, lambda x: np.exp(-(x**2) / 2.0))
    fh = cl.forward_transform(f)
    expected = np.exp(-(g.wavenumbers**2) / 2.0)
    assert np.max(np.abs(fh.values - expected)) <= 1e-10
    assert abs(fh.values[0] - 1.0) <= 1e-12  # slot 0 is p = 0


def test_zero_transform():
    g = cl.make_grid(5.0, 32)
    fh = cl.forward_transform(cl.Field(g, np.zeros(32), "physical"))
    assert np.all(fh.values == 0)


def test_round_trip_identity():
    g = cl.make_grid(15.0, 128)
    rng = np.random.default_rng(7)
    for _ in range(5):
        f = random_smooth_field(g, rng)
        back = cl.inverse_transform(cl.forward_transform(f))
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * scale


def test_representation_mismatch_rejected():
    g = cl.make_grid(5.0, 32)
    phys = cl.Field(g, np.ones(32), "physical")
    spec = cl.forward_transform(phys)
    with pytest.raises(cl.RepresentationError):
        cl.forward_transform(spec)
    with pytest.raises(cl.RepresentationError):
        cl.inverse_transform(phys)


def test_real_field_has_conjugate_symmetric_spectrum():
    g = cl.make_grid(12.0, 64)
    rng = np.random.default_rng(3)
    f = random_smooth_field(g, rng)
    v = cl.forward_transform(f).values
    scale = np.max(np.abs(v))
    n = g.n_points
    # pairs (k, N-k) are conjugate; slots 0 and N/2 are real
    for k in range(1, n // 2):
        assert abs(v[k] - np.conj(v[n - k])) <= 1e-12 * scale
    assert abs(v[0].imag) <= 1e-12 * scale
    assert abs(v[n // 2].imag) <= 1e-12 * scale


# --------------------------------------------------------------------------
# spectral differentiation
# --------------------------------------------------------------------------


def test_sixth_derivative_of_sine():
    # d^6/dx^6 sin = -sin; roundoff is amplified by p_max^6 ~ 1e9*eps
    g = cl.make_grid(np.pi, 64)
    f = cl.field_from_function(g, np.sin)
    d6 = cl.to_physical(cl.spectral_derivative(f, 6))
    assert np.max(np.abs(d6.values + np.sin(g.x))) <= 1e-6


def test_derivative_order_zero_is_identity():
    g = cl.make_grid(3.0, 32)
    rng = np.random.default_rng(11)
    f = random_smooth_field(g, rng, max_center=0.5)
    fh = cl.to_spectral(f)
    assert np.array_equal(cl.spectral_derivative(f, 0).values, fh.values)


def test_first_derivative_of_complex_mode():
    g = cl.make_grid(np.pi, 64)
    f = cl.Field(g, np.exp(1j * g.x), "physical")
    df = cl.to_physical(cl.spectral_derivative(f, 1))
    assert np.max(np.abs(df.values - 1j * np.exp(1j * g.x))) <= 1e-12


def test_derivative_order_bounds():
    g = cl.make_grid(1.0, 8)
    f = cl.Field(g, np.zeros(8), "physical")
    with pytest.raises(ValueError):
        cl.spectral_derivative(f, 9)
    with pytest.raises(ValueError):
        cl.spectral_derivative(f, -1)


def test_derivative_composition_and_linearity():
    g = cl.make_grid(10.0, 128)
    rng = np.random.default_rng(4)
    f1 = random_smooth_field(g, rng)
    f2 = random_smooth_field(g, rng)
    # order 2 after order 3 equals order 5
    step = cl.spectral_derivative(cl.spectral_derivative(f1, 3), 2)
    once = cl.spectral_derivative(f1, 5)
    scale = np.max(np.abs(once.values)) + 1e-300
    assert np.max(np.abs(step.values - once.values)) <= 1e-10 * scale
    combo = cl.Field(g, 2.0 * f1.values - 0.5 * f2.values, "physical")
    lhs = cl.spectral_derivative(combo, 4).values
    rhs = 2.0 * cl.spectral_derivative(f1, 4).values - 0.5 * cl.spectral_derivative(f2, 4).values
    scale = np.max(np.abs(rhs)) + 1e-300
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


# --------------------------------------------------------------------------
# norms
# --------------------------------------------------------------------------


def test_l2_norm_of_ones():
    g = cl.make_grid(1.0, 16)
    f = cl.Field(g, np.ones(16), "physical")
    assert np.isclose(cl.l2_norm(f), np.sqrt(2.0), rtol=0, atol=1e-14)


def test_l2_norm_of_zero():
    g = cl.make_grid(1.0, 16)
    assert cl.l2_norm(cl.Field(g, np.zeros(16), "physical")) == 0.0


def test_parseval():
    g = cl.make_grid(18.0, 256)
    rng = np.random.default_rng(21)
    for _ in range(10):
        f = random_smooth_field(g, rng)
        a = cl.l2_norm(f)
        b = cl.l2_norm(cl.forward_transform(f))
        assert abs(a - b) <= 1e-12 * a


def test_h6_norm_zero():
    g = cl.make_grid(1.0, 16)
    assert cl.h6_norm(cl.Field(g, np.zeros(16), "physical")) == 0.0


def test_h6_norm_gaussian_closed_form():
    # ||f||^2 = sqrt(pi); ||f^(6)||^2 = int p^12 e^{-p^2} dp = 10395/64*sqrt(pi)
    # (Gamma(13/2); quadrature-verified)
    g = cl.make_grid(20.0, 1024)
    f = cl.field_from_function(g, lambda x: np.exp(-(x**2) / 2.0))
    expected = np.sqrt(np.sqrt(np.pi) * (1.0 + 10395.0 / 64.0))
    assert abs(cl.h6_norm(f) - expected) <= 1e-8 * expected


def test_h6_norm_single_mode_multiplier():
    g = cl.make_grid(np.pi, 64)
    p0 = 3.0  # k = 3 on this grid
    f = cl.Field(g, np.exp(1j * p0 * g.x), "physical")
    l2 = cl.l2_norm(f)
    expected = np.sqrt((1.0 + p0**12) * l2**2)
    assert np.isclose(cl.h6_norm(f), expected, rtol=1e-12)


def test_spacetime_l2_and_sobolev_zero():
    g = cl.make_grid(2.0, 16)
    tg = np.linspace(0.0, 1.0, 5)
    u = cl.SpacetimeField(g, tg, np.zeros((5, 16), dtype=complex))
    assert cl.spacetime_sobolev_norm(u, u) == 0.0


def test_sobolev_norm_time_constant_field():
    # constant integrand: trapezoid rule is exact, norm = sqrt(T)*sqrt(||g||^2+||g6||^2)
    g = cl.make_grid(14.0, 128)
    rng = np.random.default_rng(5)
    f = random_smooth_field(g, rng)
    fh = cl.forward_transform(f)
    T = 2.5
    tg = np.linspace(0.0, T, 9)
    u = cl.SpacetimeField(g, tg, np.tile(fh.values, (9, 1)))
    du = cl.SpacetimeField(g, tg, np.zeros_like(u.frames))
    expected = np.sqrt(T) * cl.h6_norm(f)
    assert np.isclose(cl.spacetime_sobolev_norm(u, du), expected, rtol=1e-12)


def test_sobolev_norm_linear_in_time_mode():
    # u = e^{ix} t on [0,1]: per-frame integrand is 4*pi*t^2 + 2*pi; the
    # continuum value 10*pi/3 is matched up to the trapezoid dt^2 defect
    g = cl.make_grid(np.pi, 64)
    M = 16
    tg = np.linspace(0.0, 1.0, M + 1)
    mode = cl.forward_transform(cl.Field(g, np.exp(1j * g.x), "physical")).values
    u = cl.SpacetimeField(g, tg, np.outer(tg, mode))
    du = cl.SpacetimeField(g, tg, np.tile(mode, (M + 1, 1)))
    val_sq = cl.spacetime_sobolev_norm(u, du) ** 2
    oracle_sq = np.trapezoid(4.0 * np.pi * tg**2 + 2.0 * np.pi, tg)
    assert abs(val_sq - oracle_sq) <= 1e-10 * oracle_sq
    dt = 1.0 / M
    continuum = 10.0 * np.pi / 3.0
    assert abs(val_sq - continuum) <= 1.01 * (4.0 * np.pi / 6.0) * dt**2


def test_spacetime_field_rejects_nonuniform_times():
    g = cl.make_grid(2.0, 16)
    with pytest.raises(ValueError):
        cl.SpacetimeField(g, np.array([0.0, 0.1, 0.5]), np.zeros((3, 16), complex))
    with pytest.raises(ValueError):
        cl.SpacetimeField(g, np.array([0.1, 0.2, 0.3]), np.zeros((3, 16), complex))
    with pytest.raises(ValueError):
        cl.SpacetimeField(g, np.array([0.0, 0.5, 1.0]), np.zeros((2, 16), complex))


@pytest.mark.parametrize("m", [2**16, 2**17])
def test_spacetime_field_takes_linspace_grids_of_many_frames(m):
    # np.linspace's spacings spread by up to about eps M, far past 1e-12 of
    # the spacing at these M; a point moved by 1e-6 of the spacing is refused
    g = cl.make_grid(2.0, 8)
    frames = np.zeros((m + 1, 8), complex)
    for horizon in (0.4, 1.0 / 3.0, 7.77):
        times = np.linspace(0.0, horizon, m + 1)
        assert cl.SpacetimeField(g, times, frames).n_frames == m + 1
        times[m // 2] += 1e-6 * times[1]
        with pytest.raises(ValueError, match="time_grid must be uniform"):
            cl.SpacetimeField(g, times, frames)


def _spacetime(grid, times):
    return cl.SpacetimeField(grid, np.asarray(times, dtype=float),
                             np.zeros((len(times), grid.n_points), complex))


# id: (call, exception type, message) of each refusal of ``grid`` that no
# other test reaches
GRID_REFUSALS = {
    "field_unknown_representation": (
        lambda: cl.Field(cl.make_grid(2.0, 16), np.zeros(16), "fourier"),
        ValueError, "unknown representation 'fourier'"),
    "field_wrong_shape": (
        lambda: cl.Field(cl.make_grid(2.0, 16), np.zeros(8)),
        ValueError, "values shape (8,) does not match grid N=16"),
    "spacetime_one_time": (
        lambda: _spacetime(cl.make_grid(2.0, 16), [0.0]),
        ValueError, "time_grid needs at least two points"),
    "layout_other_grid": (
        lambda: cl.spacetime_sobolev_norm(_spacetime(cl.make_grid(2.0, 16), [0.0, 0.5]),
                                          _spacetime(cl.make_grid(2.0, 32), [0.0, 0.5])),
        ValueError, "spacetime fields live on different grids"),
    "layout_other_times": (
        lambda: cl.spacetime_sobolev_norm(_spacetime(cl.make_grid(2.0, 16), [0.0, 0.5]),
                                          _spacetime(cl.make_grid(2.0, 16), [0.0, 1.0, 2.0])),
        ValueError, "spacetime fields live on different time grids"),
}


@pytest.mark.parametrize("case", list(GRID_REFUSALS))
def test_grid_refusals_name_their_cause(case):
    call, kind, message = GRID_REFUSALS[case]
    with pytest.raises(kind) as exc:
        call()
    assert type(exc.value) is kind and str(exc.value) == message


# --------------------------------------------------------------------------
# sup-bound diagnostics
# --------------------------------------------------------------------------


def test_linf_bound_equality_for_nonnegative():
    g = cl.make_grid(20.0, 512)
    f = cl.field_from_function(g, lambda x: np.exp(-(x**2) / 2.0))
    lhs, rhs = cl.transform_linf_bound(f)
    assert np.isclose(lhs, 1.0, atol=1e-12)
    assert np.isclose(lhs, rhs, rtol=1e-12)


def test_linf_bound_zero_field():
    g = cl.make_grid(5.0, 32)
    assert cl.transform_linf_bound(cl.Field(g, np.zeros(32), "physical")) == (0.0, 0.0)


def test_linf_bound_strict_for_sign_changes():
    g = cl.make_grid(15.0, 256)
    f = cl.field_from_function(g, lambda x: x * np.exp(-(x**2)))
    lhs, rhs = cl.transform_linf_bound(f)
    assert lhs < 0.9 * rhs


def test_linf_bounds_on_random_corpus():
    # both sup bounds (plain and sixth-derivative weighted) over 50 fields
    g = cl.make_grid(18.0, 512)
    rng = np.random.default_rng(99)
    for _ in range(50):
        f = random_smooth_field(g, rng)
        lhs, rhs = cl.transform_linf_bound(f)
        assert lhs <= rhs * (1.0 + 1e-10)
        d6 = cl.spectral_derivative(f, 6)
        lhs6 = np.max(np.abs(d6.values))
        rhs6 = cl.l1_norm(cl.to_physical(d6)) / np.sqrt(2.0 * np.pi)
        assert lhs6 <= rhs6 * (1.0 + 1e-10)


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_the_n_point_rung_is_the_n_point_transform_pair_bit_for_bit(data):
    """At n = N, ``band_samples`` and ``resampled_rfft`` scale by exactly 1,
    so they are ``irfft_raw`` and ``rfft_raw`` bit for bit: the top rung of
    a window's forcing grid takes the one forcing path."""
    g = cl.make_grid(data.draw(st.floats(0.5, 50.0)), 2 * data.draw(st.integers(4, 600)))
    shape = tuple(data.draw(st.lists(st.integers(1, 4), max_size=2)))
    k = data.draw(st.integers(1, g.n_half))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    raw = rng.standard_normal(shape + (k,)) + 1j * rng.standard_normal(shape + (k,))
    assert _bits(grid_mod.band_samples(g, raw, g.n_points)) == _bits(grid_mod.irfft_raw(g, raw))
    x = rng.standard_normal(shape + (g.n_points,))
    assert _bits(grid_mod.resampled_rfft(g, x)) == _bits(grid_mod.rfft_raw(x))
    assert g.resampled(g.n_points) is g


def test_smooth_points_is_the_smallest_even_5_smooth_length_of_twice_the_band():
    import bisect

    smooth = sorted(2**a * 3**b * 5**c for a in range(14) for b in range(9) for c in range(6)
                    if 2**a * 3**b * 5**c <= 10**4)
    for k in range(1, 5001):
        assert grid_mod.smooth_points(k) == 2 * smooth[bisect.bisect_left(smooth, k)], k


@pytest.mark.parametrize("n", [90, 360, 720, 1440])
def test_a_band_round_trips_through_a_rung_of_5_smooth_points(n):
    """A band of K = n/2 modes sampled on n points, a length with factors 3
    and 5, is the band's trigonometric polynomial at those points, and
    ``resampled_rfft`` returns the band from them."""
    g = cl.make_grid(12.0, 4096)
    k = n // 2
    rng = np.random.default_rng(n)
    raw = rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k))
    raw[:, 0] = raw[:, 0].real
    samples = grid_mod.band_samples(g, raw, n)
    # the polynomial sum_k c_k e^{i p_k (x + L)} / N of a real field at the
    # n points x_j = -L + 2 L j / n, the mirror modes as conjugates
    phase = np.exp(2j * np.pi * (np.outer(np.arange(k), np.arange(n)) % n) / n)
    direct = (2.0 * (raw @ phase).real - raw[:, :1].real) / g.n_points
    assert np.max(np.abs(samples - direct)) <= 1e-14 * np.max(np.abs(direct))
    back = grid_mod.resampled_rfft(g, samples)
    assert back.shape == (3, n // 2 + 1)
    assert np.linalg.norm(back[:, :k] - raw) <= 1e-15 * np.linalg.norm(raw)
    assert np.linalg.norm(back[:, k:]) <= 1e-15 * np.linalg.norm(raw)


def test_tail_mass_fraction():
    g = cl.make_grid(20.0, 256)
    centered = cl.field_from_function(g, lambda x: np.exp(-(x**2)))
    assert cl.tail_mass_fraction(centered) < 1e-12
    shifted = cl.field_from_function(g, lambda x: np.exp(-((x - 19.0) ** 2)))
    assert cl.tail_mass_fraction(shifted) > 0.1
    zero = cl.Field(g, np.zeros(256), "physical")
    assert cl.tail_mass_fraction(zero) == 0.0


# --------------------------------------------------------------------------
# the transform convention has one home
# --------------------------------------------------------------------------

_CONVENTION_NAMES = {"fft", "_phase", "_raw_scale"}


def _convention_uses(path):
    """(line, name) of every use of the FFT module or of the grid's unit
    factors in one source file: attributes, bare names and imports."""
    import ast

    uses = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".") + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [part for a in node.names for part in a.name.split(".")]
        else:
            continue
        uses += [(node.lineno, n) for n in names if n in _CONVENTION_NAMES]
    return uses


def test_transform_convention_lives_in_grid_only():
    from pathlib import Path

    src = Path(cl.__file__).parent
    assert _convention_uses(src / "grid.py")  # the scan sees grid's own uses
    stray = {
        path.name: uses
        for path in sorted(src.glob("*.py"))
        if path.name != "grid.py" and (uses := _convention_uses(path))
    }
    assert stray == {}


def _calls(node, names):
    """(line, callee) of every call under an AST node to one of ``names``,
    by bare name or attribute."""
    import ast

    calls = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            f = sub.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in names:
                calls.append((sub.lineno, name))
    return calls


def _calls_by_function(tree, names):
    """(function, callee) of every call in a function to one of ``names``."""
    import ast

    return [(fn.name, name) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for _, name in _calls(fn, names)]


def test_window_data_is_built_in_window_only():
    """``evolve`` builds the symbol and the kernel factor in ``_half_symbols``
    only, the phi-weights in ``_window`` only, evaluates the reaction in
    ``_forcing_history`` only, for both solvers and on every rung of the
    forcing grid, with one transform pair, the resampled one, and the alias
    check there too, picks the first rung in ``picard_solve`` only, and the
    Heun march, which runs no phi-weight code and forces on the N rung,
    raises its failures with no ``try``."""
    import ast
    from pathlib import Path

    tree = ast.parse((Path(cl.__file__).parent / "evolve.py").read_text())
    callers = _calls_by_function(tree, ("build_symbol", "spectrum_on", "_half_symbols"))
    assert sorted(callers) == [
        ("_half_symbols", "build_symbol"), ("_half_symbols", "spectrum_on"),
        ("_heun_march", "_half_symbols"), ("_window", "_half_symbols"),
    ]
    phi = _calls_by_function(tree, ("phi1", "phi2"))
    assert sorted(phi) == [("_window", "phi1"), ("_window", "phi2"), ("_window", "phi2")]
    assert _calls_by_function(tree, ("apply_nonlinearity",)) == [
        ("_forcing_history", "apply_nonlinearity")
    ]
    one_path = ("band_samples", "resampled_rfft", "read", "resampled", "_first_rung", "_rungs")
    assert sorted(_calls_by_function(tree, one_path)) == [
        ("__init__", "resampled"), ("_forcing_history", "band_samples"),
        ("_forcing_history", "read"), ("_forcing_history", "resampled_rfft"),
        ("picard_solve", "_first_rung"), ("picard_solve", "_rungs"),
    ]
    fns = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    assert not _calls(fns["_forcing_history"], ("irfft_raw", "rfft_raw"))
    heun = fns["_heun_march"]
    assert not any(isinstance(node, ast.Try) for node in ast.walk(heun))
    assert not _calls_by_function(heun, ("phi1", "phi2", "_window"))
    assert [ast.unparse(node) for node in ast.walk(heun) if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "_ForcingGrid"] == ["_ForcingGrid(grid, grid.n_points)"]


def test_catalog_specs_are_built_in_their_builders_only():
    """``model`` constructs a ``KernelSpec`` only in ``_scaled_kernel`` (the
    analytic kernels) and ``_grid_kernel`` (the band-limited and tabulated
    kernels), and a ``NonlinearitySpec`` only in ``_reaction``, never at
    module level."""
    import ast
    from pathlib import Path

    tree = ast.parse((Path(cl.__file__).parent / "model.py").read_text())
    specs = ("KernelSpec", "NonlinearitySpec")
    assert sorted(_calls_by_function(tree, specs)) == [
        ("_grid_kernel", "KernelSpec"), ("_reaction", "NonlinearitySpec"),
        ("_scaled_kernel", "KernelSpec"),
    ]
    assert len(_calls(tree, specs)) == 3


_PLAN_CALLS = {"for_window", "max_window", "WindowSchedule"}


def _plan_calls(path):
    """(line, callee) of every call in one source file, module level
    included, to a name that plans a march."""
    import ast

    return _calls(ast.parse(path.read_text(), filename=str(path)), _PLAN_CALLS)


def test_march_plan_lives_in_certify_only():
    """Only ``certify`` sets a march's window count, length and certificate:
    no other module calls ``Certificate.for_window`` or ``max_window`` or
    constructs a ``WindowSchedule``."""
    from pathlib import Path

    src = Path(cl.__file__).parent
    # the scan sees certify's own calls
    assert {name for _, name in _plan_calls(src / "certify.py")} == _PLAN_CALLS
    stray = {
        path.name: calls
        for path in sorted(src.glob("*.py"))
        if path.name != "certify.py" and (calls := _plan_calls(path))
    }
    assert stray == {}


def test_march_is_planned_in_global_march_only():
    """``evolve.global_march`` is the one caller of ``window_schedule``: a
    run's plan is made once, by the march that runs it."""
    import ast
    from pathlib import Path

    src = Path(cl.__file__).parent
    callers = [
        (path.name, fn)
        for path in sorted(src.glob("*.py"))
        for fn, _ in _calls_by_function(ast.parse(path.read_text()), {"window_schedule"})
    ]
    assert callers == [("evolve.py", "global_march")]


def test_initial_conditions_are_read_from_model():
    """The runner's initial conditions ``zero`` and ``gaussian`` are the
    source entries of ``model.SOURCES``, and the runner reads no table and
    evaluates no profile of ``model`` itself: no ``loadtxt``, ``reader``,
    ``interp`` or ``exp``."""
    import ast
    from pathlib import Path

    from cubelap.model import SOURCES
    from cubelap.runner import INITIAL_CONDITIONS

    assert INITIAL_CONDITIONS["zero"] is SOURCES["zero"]
    assert INITIAL_CONDITIONS["gaussian"] is SOURCES["gaussian"]
    src = Path(cl.__file__).parent
    names = {"loadtxt", "reader", "interp", "exp"}

    def called(module):
        return {name for _, name in _calls(ast.parse((src / module).read_text()), names)}

    assert called("model.py") == names - {"loadtxt"}  # the scan sees model's own calls
    assert called("runner.py") == set()


_CERTIFICATE_KEYS = ("C_small_T_limit", "valid=")


def _certificate_layout_strings(path):
    """(line, text) of every string constant in one source file that names a
    certificate key, f-string parts included and docstrings left out."""
    import ast

    tree = ast.parse(path.read_text(), filename=str(path))
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node) is not None
    }
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in docstrings and any(k in node.value for k in _CERTIFICATE_KEYS)
    ]


def test_certificate_layout_lives_in_certify_only():
    from pathlib import Path

    src = Path(cl.__file__).parent
    found = {key for _, text in _certificate_layout_strings(src / "certify.py")
             for key in _CERTIFICATE_KEYS if key in text}
    assert found == set(_CERTIFICATE_KEYS)  # the scan sees certify's own layout
    stray = {
        path.name: strings
        for path in sorted(src.glob("*.py"))
        if path.name != "certify.py" and (strings := _certificate_layout_strings(path))
    }
    assert stray == {}
