import warnings

import numpy as np
import pytest

import cubelap as cl

from conftest import random_smooth_field


# --------------------------------------------------------------------------
# kernel catalog and its L1 sizes
# --------------------------------------------------------------------------


def test_gaussian_kernel_l1_is_sqrt_pi():
    k = cl.gaussian_kernel(1.0, 1.0)
    assert abs(k.l1 - np.sqrt(np.pi)) <= 1e-10


def _gaussian_d6_l1_exact():
    """Independent oracle for ||d^6/dx^6 e^{-x^2}||_L1.

    The sixth derivative is H6(x) e^{-x^2} (physicists' Hermite), which
    changes sign exactly at the roots of H6; between consecutive roots the
    integral telescopes to differences of the fifth derivative -H5 e^{-x^2}.
    """
    roots = np.sort(np.polynomial.hermite.hermgauss(6)[0])

    def g5(x):
        return -(32 * x**5 - 160 * x**3 + 120 * x) * np.exp(-(x**2))

    pts = np.concatenate(([-np.inf], roots, [np.inf]))
    vals = [0.0 if np.isinf(t) else g5(t) for t in pts]
    return float(sum(abs(vals[i + 1] - vals[i]) for i in range(len(vals) - 1)))


def _d6g(kernel):
    """The closed-form sixth derivative of a catalog gaussian or sech kernel."""
    a, w = kernel.params["amplitude"], kernel.params["width"]

    def gaussian(x):
        xi = np.asarray(x) / w
        h6 = 64 * xi**6 - 480 * xi**4 + 720 * xi**2 - 120  # physicists' Hermite
        return (a / w**6) * h6 * np.exp(-(xi**2))

    def sech(x):
        s = 1.0 / np.cosh(np.asarray(x) / w)
        return (a / w**6) * s * (1 - 182 * s**2 + 840 * s**4 - 720 * s**6)

    return {"gaussian": gaussian, "sech": sech}[kernel.name]


def test_gaussian_kernel_strength_vs_root_splitting_oracle():
    k = cl.gaussian_kernel(1.0, 1.0)
    q_exact = np.hypot(np.sqrt(np.pi), _gaussian_d6_l1_exact())
    assert abs(cl.kernel_strength(k) - q_exact) <= 1e-9 * q_exact


def test_kernel_strength_homogeneous_in_amplitude():
    base = cl.kernel_strength(cl.gaussian_kernel(1.0, 1.3))
    scaled = cl.kernel_strength(cl.gaussian_kernel(2.5, 1.3))
    assert abs(scaled - 2.5 * base) <= 1e-9 * scaled


def test_synthetic_three_four_five_kernel():
    k = cl.KernelSpec(
        name="synthetic",
        g=lambda x: np.exp(-np.asarray(x) ** 2),
        l1=3.0,
        l1_d6=4.0,
        norm_method="declared",
    )
    assert cl.kernel_strength(k) == 5.0


@pytest.mark.parametrize("l1, l1_d6", [(np.nan, 4.0), (3.0, np.inf), (0.0, 4.0)])
def test_unusable_kernel_l1_sizes_fail_validation(l1, l1_d6):
    k = cl.KernelSpec(
        name="synthetic",
        g=lambda x: np.exp(-np.asarray(x) ** 2),
        l1=l1,
        l1_d6=l1_d6,
        norm_method="declared",
    )
    for check in (lambda: cl.validate_kernel(k, cl.make_grid(10.0, 64)),
                  lambda: cl.kernel_strength(k)):
        with pytest.raises(cl.KernelAssumptionError, match="kernel L1 sizes unusable"):
            check()


def test_sech_kernel_l1_and_sixth_derivative():
    a, w = 0.7, 0.8
    k = cl.sech_kernel(a, w)
    assert np.isclose(k.l1, a * w * np.pi, rtol=1e-12)
    # Euler number: d^6 sech(0) = -61
    d6g = _d6g(k)
    assert np.isclose(d6g(0.0), -61.0 * a / w**6, rtol=1e-12)
    # cross-check the analytic rule against the spectral derivative
    g = cl.make_grid(40.0, 1024)
    d6_spec = cl.to_physical(
        cl.spectral_derivative(cl.field_from_function(g, k.g), 6)
    ).values.real
    assert np.max(np.abs(d6_spec - d6g(g.x))) <= 1e-8 * np.max(np.abs(d6_spec))


def test_gaussian_d6_rule_matches_spectral_derivative():
    k = cl.gaussian_kernel(1.0, 1.0)
    g = cl.make_grid(20.0, 512)
    d6_spec = cl.to_physical(
        cl.spectral_derivative(cl.field_from_function(g, k.g), 6)
    ).values.real
    assert np.max(np.abs(d6_spec - _d6g(k)(g.x))) <= 1e-7 * np.max(np.abs(d6_spec))


def test_bandlimited_kernel_support_is_exact():
    g = cl.make_grid(20.0, 256)
    k = cl.bandlimited_kernel(g, amplitude=1.0, cutoff=2.0)
    ghat = k.spectrum_on(g)
    outside = np.abs(g.wavenumbers) > 2.0
    assert np.all(ghat[outside] == 0)
    assert np.max(np.abs(ghat)) > 0
    report = cl.validate_kernel(k, g)
    assert report.compact_spectral_support
    assert any("compact spectral support" in note for note in report.notes)


def _dense_trig_sum(grid, coeffs, x):
    # every mode of the grid, zero coefficients included
    osc = np.exp(1j * np.outer(x, grid.wavenumbers))
    return (osc @ coeffs).real * (grid.dp / np.sqrt(2.0 * np.pi))


def _points(grid):
    rng = np.random.default_rng(11)
    return grid.x, rng.uniform(-grid.half_length, grid.half_length, 2000)


def test_bandlimited_kernel_matches_dense_trig_sum():
    g = cl.make_grid(20.0, 256)
    k = cl.bandlimited_kernel(g, amplitude=1.0, cutoff=2.0)
    for x in _points(g):
        dense = _dense_trig_sum(g, k.grid_spectrum, x)
        assert np.max(np.abs(k.g(x) - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_bandlimited_source_matches_dense_trig_sum():
    g = cl.make_grid(20.0, 256)
    amplitude, p_lo, p_hi = 0.1, 0.3, 1.0
    h = cl.source_bandlimited(g, amplitude, p_lo, p_hi)
    # the source's raised-cosine profile, rebuilt on every mode of the grid
    ap = np.abs(g.wavenumbers)
    center, halfwidth = 0.5 * (p_lo + p_hi), 0.5 * (p_hi - p_lo)
    coeffs = np.where(
        (ap >= p_lo) & (ap <= p_hi),
        amplitude * np.cos(np.pi * (ap - center) / (2.0 * halfwidth)) ** 2,
        0.0,
    ).astype(complex)
    assert 0 < np.count_nonzero(coeffs) < g.n_points // 8
    for x in _points(g):
        dense = _dense_trig_sum(g, coeffs, x)
        assert np.max(np.abs(h(x) - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_bandlimited_kernel_grid_binding():
    g = cl.make_grid(20.0, 256)
    other = cl.make_grid(20.0, 128)
    k = cl.bandlimited_kernel(g, 1.0, 2.0)
    with pytest.raises(ValueError):
        k.spectrum_on(other)


def test_tabulated_kernel_roundtrip(tmp_path):
    # samples aligned with the grid: the spectral fallback is clean
    g = cl.make_grid(20.0, 512)
    path = tmp_path / "kern.csv"
    with open(path, "w") as fh:
        for x in g.x:
            fh.write(f"{float(x)!r},{float(np.exp(-x * x))!r}\n")
    k = cl.tabulated_kernel_from_csv(g, path)
    ref = cl.gaussian_kernel(1.0, 1.0)
    assert abs(k.l1 - ref.l1) <= 1e-3 * ref.l1
    assert abs(k.l1_d6 - ref.l1_d6) <= 5e-2 * ref.l1_d6
    report = cl.validate_kernel(k, g)
    assert report.spectral_tail_fraction is not None
    assert report.spectral_tail_fraction < 1e-8


def test_tabulated_kernel_misaligned_samples_are_flagged(tmp_path):
    # linear interpolation corners pollute the sixth derivative; the p^6
    # spectral tail diagnostic must expose that the fallback was unresolved
    g = cl.make_grid(20.0, 512)
    xs = np.linspace(-20.0, 19.9, 700)  # not on the grid nodes
    k = cl.tabulated_kernel(g, xs, np.exp(-(xs**2)))
    report = cl.validate_kernel(k, g)
    assert report.spectral_tail_fraction > 1e-3


def test_tabulated_kernel_rejects_bad_samples():
    g = cl.make_grid(10.0, 64)
    with pytest.raises(ValueError):
        cl.tabulated_kernel(g, np.array([0.0, 1.0, 1.5]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        cl.tabulated_kernel(g, np.array([0.0, -1.0, -2.0]), np.array([1.0, 1.0, 1.0]))


def test_zero_kernel_fails_validation():
    g = cl.make_grid(10.0, 64)
    k = cl.tabulated_kernel(g, np.array([-1.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(cl.KernelAssumptionError):
        cl.validate_kernel(k, g)
    with pytest.raises(cl.KernelAssumptionError):
        cl.kernel_strength(k)


# --------------------------------------------------------------------------
# nonlinearity catalog
# --------------------------------------------------------------------------


def test_linear_plus_source_values():
    g = cl.make_grid(10.0, 64)
    n = cl.linear_plus_source(0.5)
    out = cl.apply_nonlinearity(2.0 * np.ones(64), n, g)
    assert np.allclose(out, 1.0)


def test_saturating_at_zero_state():
    g = cl.make_grid(10.0, 64)
    zero = np.zeros(64)
    plain = cl.saturating(1.0)
    assert np.all(cl.apply_nonlinearity(zero, plain, g) == 0)
    with_src = cl.saturating(1.0, cl.source_gaussian(1.0, 1.0))
    out = cl.apply_nonlinearity(zero, with_src, g)
    assert np.allclose(out, np.exp(-(g.x**2)))


def test_linear_nonlinearity_is_affine():
    g = cl.make_grid(10.0, 64)
    rng = np.random.default_rng(12)
    n = cl.linear_plus_source(0.7, cl.source_gaussian(0.3, 1.5))
    u1 = rng.normal(size=64)
    u2 = rng.normal(size=64)
    alpha = 0.3
    lhs = n.fn(alpha * u1 + (1 - alpha) * u2, g.x)
    rhs = alpha * n.fn(u1, g.x) + (1 - alpha) * n.fn(u2, g.x)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (np.max(np.abs(rhs)) + 1.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: cl.linear_plus_source(0.8, cl.source_gaussian(0.5, 1.0)),
        lambda: cl.saturating(1.7, cl.source_gaussian(0.5, 1.0)),
        lambda: cl.logistic_clip(2.0, 1.5, cl.source_gaussian(0.5, 1.0)),
    ],
)
def test_growth_bound_on_random_states(make):
    g = cl.make_grid(15.0, 128)
    n = make()
    rng = np.random.default_rng(8)
    h_norm = cl.l2_norm(cl.Field(g, n.source(g.x), "physical"))
    for _ in range(20):
        u = random_smooth_field(g, rng)
        out = cl.Field(g, cl.apply_nonlinearity(u.values.real, n, g))
        assert cl.l2_norm(out) <= n.growth_k * cl.l2_norm(u) + h_norm + 1e-9


def test_apply_nonlinearity_flags_nan():
    g = cl.make_grid(10.0, 64)
    bad = cl.NonlinearitySpec(
        name="bad",
        fn=lambda u, x: np.where(x > 5.0, np.nan, u),
        source=cl.source_zero(),
        growth_k=1.0,
        lipschitz_l=1.0,
    )
    with pytest.raises(cl.ModelEvaluationError, match="x\\["):
        cl.apply_nonlinearity(np.ones(64), bad, g)


def test_apply_nonlinearity_names_the_frame_of_the_trajectory():
    # a block of frames 7, 8, 9 of a trajectory: the NaN in its row 1 is in
    # frame 8, at the first x past 5
    g = cl.make_grid(10.0, 64)
    bad = cl.NonlinearitySpec(
        name="bad", fn=lambda u, x: np.where((x > 5.0) & (u > 1.5), np.nan, u),
        source=cl.source_zero(), growth_k=1.0, lipschitz_l=1.0,
    )
    block = np.ones((3, 64))
    block[1:] = 2.0
    j = int(np.argmax(g.x > 5.0))
    with pytest.raises(cl.ModelEvaluationError, match=rf"nan\) at x\[{j}\] = .* in frame 8$"):
        cl.apply_nonlinearity(block, bad, g, first_frame=7)


def test_a_finite_reaction_whose_norm_overflows_fails_the_growth_bound():
    # no entry is NaN or infinite, but the row norm overflows to inf: not a
    # non-finite value, and inf > k||u|| + ||h||
    g = cl.make_grid(10.0, 64)
    huge = cl.NonlinearitySpec(
        name="huge", fn=lambda u, x: np.full_like(u, 1e300),
        source=cl.source_zero(), growth_k=1.0, lipschitz_l=1.0,
    )
    with pytest.raises(cl.ModelEvaluationError, match="growth bound violated: .* = inf > "):
        cl.apply_nonlinearity(np.ones((2, 64)), huge, g)


def test_source_profiles_are_remembered_per_grid_bit_for_bit():
    g = cl.make_grid(10.0, 64)
    h = cl.source_gaussian(0.3, 1.2, 0.5)
    nl = cl.saturating(1.0, h)
    first = nl.source(g.x)
    assert nl.source(g.x) is first and not first.flags.writeable
    assert np.array_equal(first, h(g.x))
    other = cl.make_grid(12.0, 64)
    assert np.array_equal(nl.source(other.x), h(other.x))
    # a writeable array is never remembered
    x = np.array(g.x)
    assert nl.source(x) is not nl.source(x)
    u = np.linspace(-1.0, 1.0, 64)
    assert np.array_equal(cl.apply_nonlinearity(u, nl, g), np.sin(u) + h(g.x))


def test_lipschitz_sampling_linear_exact():
    n = cl.linear_plus_source(0.6)
    ratio = cl.check_lipschitz_sampling(n, trials=500, seed=1)
    assert np.isclose(ratio, 0.6, rtol=1e-12)


def test_lipschitz_sampling_saturating_tight():
    n = cl.saturating(1.4)
    ratio = cl.check_lipschitz_sampling(n, trials=5000, seed=2)
    assert ratio <= 1.4 * (1 + 1e-12)
    assert ratio >= 1.4 * (1 - 1e-4)  # near-zero pairs approach the constant


def test_lipschitz_sampling_catches_wrong_declaration():
    n = cl.linear_plus_source(2.0, lipschitz=1.0)
    with pytest.raises(cl.LipschitzDeclarationError, match="u1="):
        cl.check_lipschitz_sampling(n, trials=200, seed=3)


def _near_float_limit():
    """F = 1e300 u + h(x) with h ~ 1e308 on the sampled x, declared l = 1:
    |F(u1, x)| + |F(u2, x)| overflows there."""
    return cl.linear_plus_source(1e300, cl.source_gaussian(1e308, 1e6), lipschitz=1.0)


def test_lipschitz_sampling_rejects_underdeclaration_near_the_float_limit():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(cl.LipschitzDeclarationError, match="u1="):
            cl.check_lipschitz_sampling(_near_float_limit(), trials=2000, seed=0)


def _linear_with_bandlimited_source(**kwargs):
    g = cl.make_grid(20.0, 256)
    return cl.linear_plus_source(1.0, cl.source_bandlimited(g, 1.0, 0.3, 1.0), **kwargs)


def test_lipschitz_sampling_accepts_exact_constant_beside_a_large_source():
    # |F1 - F2| carries the roundoff of adding h(x) ~ 1 to kappa*u; the exact
    # constant |kappa| must not be rejected for it
    ratio = cl.check_lipschitz_sampling(_linear_with_bandlimited_source(), trials=2000, seed=0)
    assert ratio == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("declared", [0.999, 0.25], ids=["just_below", "kappa_over_4"])
def test_lipschitz_sampling_still_rejects_underdeclaration_beside_a_source(declared):
    n = _linear_with_bandlimited_source(lipschitz=declared)
    with pytest.raises(cl.LipschitzDeclarationError, match="u1="):
        cl.check_lipschitz_sampling(n, trials=2000, seed=0)


def test_logistic_clip_slope_inside_clip():
    n = cl.logistic_clip(3.0, 1.0)
    # slope at u = -u_max is the declared constant
    eps = 1e-7
    x = np.zeros(1)
    slope = abs(n.fn(np.array([-1.0 + eps]), x) - n.fn(np.array([-1.0]), x)) / eps
    assert np.isclose(slope[0], 3.0, rtol=1e-5)
    ratio = cl.check_lipschitz_sampling(n, trials=4000, seed=4)
    assert ratio <= 3.0 * (1 + 1e-12)


# --------------------------------------------------------------------------
# nontriviality overlap
# --------------------------------------------------------------------------


def test_overlap_zero_when_source_vanishes():
    g = cl.make_grid(20.0, 256)
    k = cl.gaussian_kernel(1.0, 1.0)
    n = cl.saturating(1.0)  # F(0, .) == 0
    with pytest.warns(UserWarning, match="identically zero"):
        assert cl.nontriviality_overlap(k, n, g) == 0.0


def test_overlap_zero_for_disjoint_bands():
    g = cl.make_grid(20.0, 256)
    k = cl.bandlimited_kernel(g, 1.0, 1.0)
    n = cl.linear_plus_source(0.0, cl.source_bandlimited(g, 1.0, 2.0, 3.0))
    assert cl.nontriviality_overlap(k, n, g) == 0.0


def test_overlap_positive_for_gaussians():
    g = cl.make_grid(20.0, 256)
    k = cl.gaussian_kernel(1.0, 1.0)
    n = cl.saturating(1.0, cl.source_gaussian(0.5, 1.0))
    assert cl.nontriviality_overlap(k, n, g) > 0.0


def test_overlap_monotone_in_threshold():
    g = cl.make_grid(20.0, 256)
    k = cl.gaussian_kernel(1.0, 1.0)
    n = cl.saturating(1.0, cl.source_gaussian(0.5, 2.0))
    vals = [cl.nontriviality_overlap(k, n, g, eps_supp=e) for e in (1e-12, 1e-8, 1e-4, 1e-1)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


# --------------------------------------------------------------------------
# problem assembly
# --------------------------------------------------------------------------


def test_problem_spec_rejects_negative_a():
    g = cl.make_grid(10.0, 64)
    u0 = cl.Field(g, np.zeros(64), "physical")
    with pytest.raises(cl.AssumptionViolation, match="a must be"):
        cl.ProblemSpec(
            a=-1.0, b=0.0, kernel=cl.gaussian_kernel(), nonlinearity=cl.saturating(1.0),
            u0=u0, grid=g,
        )


def test_problem_spec_rejects_grid_mismatch():
    g = cl.make_grid(10.0, 64)
    other = cl.make_grid(10.0, 128)
    u0 = cl.Field(other, np.zeros(128), "physical")
    with pytest.raises(ValueError, match="different grid"):
        cl.ProblemSpec(
            a=0.0, b=0.0, kernel=cl.gaussian_kernel(), nonlinearity=cl.saturating(1.0),
            u0=u0, grid=g,
        )


def test_apply_nonlinearity_flags_underdeclared_growth():
    g = cl.make_grid(10.0, 64)
    under = cl.NonlinearitySpec(
        name="under",
        fn=lambda u, x: 2.0 * u,
        source=cl.source_zero(),
        growth_k=1.0,
        lipschitz_l=2.0,
    )
    with pytest.raises(cl.ModelEvaluationError, match="growth bound"):
        cl.apply_nonlinearity(np.exp(-(g.x**2)), under, g)


def _growth_edge(scale):
    """F = scale * (2u + h) with growth constant 2 and source h; for u a
    nonnegative multiple of h, F = 2u + h sits exactly at k||u|| + ||h||."""
    h = cl.source_gaussian(0.5, 1.0)
    return cl.NonlinearitySpec(
        name="edge",
        fn=lambda u, x: scale * (2.0 * u + h(x)),
        source=h,
        growth_k=2.0,
        lipschitz_l=2.0,
    )


@pytest.mark.parametrize("frames", [None, 3], ids=["one_state", "frames"])
def test_growth_check_boundary(frames):
    g = cl.make_grid(10.0, 64)
    h = cl.source_gaussian(0.5, 1.0)(g.x)
    if frames is None:
        u, over, where = 0.75 * h, 1.0 + 1e-6, ""
    else:
        u = np.array([0.0, 0.5, 1.0])[:, None] * h
        # only the last frame is pushed over the bound
        over, where = np.array([1.0, 1.0, 1.0 + 1e-6])[:, None], " in frame 2"
    out = cl.apply_nonlinearity(u, _growth_edge(1.0), g)
    assert np.array_equal(out, 2.0 * u + h)
    with pytest.raises(cl.ModelEvaluationError, match="growth bound violated") as exc:
        cl.apply_nonlinearity(u, _growth_edge(over), g)
    assert str(exc.value).endswith(where) and ("in frame" in str(exc.value)) == bool(where)


def test_sech_spectrum_does_not_overflow_on_wide_grids():
    k = cl.sech_kernel(0.01, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ghat = k.spectrum_on(cl.make_grid(40.0, 8192))
    assert np.all(np.isfinite(ghat))


def _problem_with_initial_state(u0):
    return cl.ProblemSpec(
        a=0.0, b=0.0, kernel=cl.gaussian_kernel(), nonlinearity=cl.saturating(1.0),
        u0=u0, grid=u0.grid,
    )


def test_problem_spec_rejects_complex_initial_state():
    g = cl.make_grid(10.0, 64)
    bump = np.exp(-(g.x**2))
    u0 = cl.Field(g, bump + 1e-6j * bump, "physical")
    with pytest.raises(cl.AssumptionViolation, match=r"not real: max\|Im u0\| / max\|u0\| = 1\.000e-06"):
        _problem_with_initial_state(u0)


def test_problem_spec_accepts_roundoff_imaginary_part_and_stores_real_state():
    g = cl.make_grid(10.0, 64)
    rng = np.random.default_rng(3)
    f = random_smooth_field(g, rng)
    # the inverse transform of a Hermitian spectrum is real up to roundoff
    u0 = cl.inverse_transform(cl.forward_transform(f))
    assert 0 < np.max(np.abs(u0.values.imag)) <= 1e-12 * np.max(np.abs(u0.values))
    prob = _problem_with_initial_state(u0)
    assert np.all(prob.u0.values.imag == 0)
    assert np.array_equal(prob.u0.values.real, u0.values.real)
