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


def _synthetic_kernel():
    return cl.KernelSpec(name="synthetic", g=lambda x: np.exp(-np.asarray(x) ** 2),
                         l1=3.0, l1_d6=4.0, norm_method="declared")


def test_synthetic_three_four_five_kernel():
    assert cl.kernel_strength(_synthetic_kernel()) == 5.0


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


def test_analytic_kernels_keep_their_closed_forms_bit_for_bit():
    from cubelap.model import GAUSSIAN_D6_L1, SECH_D6_L1, _sech

    a, w = -0.013, 1.7
    x, p = np.linspace(-30.0, 30.0, 241), np.linspace(-6.0, 6.0, 121)
    g = cl.gaussian_kernel(a, w)
    assert (g.l1, g.l1_d6) == (abs(a) * w * np.sqrt(np.pi), abs(a) / w**5 * GAUSSIAN_D6_L1)
    assert np.array_equal(g.g(x), a * np.exp(-((x / w) ** 2)))
    assert np.array_equal(
        g.spectrum_fn(p), (a * w / np.sqrt(2.0)) * np.exp(-((w * p) ** 2) / 4.0)
    )
    s = cl.sech_kernel(a, w)
    assert (s.l1, s.l1_d6) == (abs(a) * w * np.pi, abs(a) / w**5 * SECH_D6_L1)
    assert np.array_equal(s.g(x), a * _sech(x / w))
    assert np.array_equal(
        s.spectrum_fn(p), a * w * np.sqrt(np.pi / 2.0) * _sech(np.pi * w * p / 2.0)
    )
    for k in (g, s):
        assert k.params == {"amplitude": a, "width": w} and k.norm_method == "analytic"


@pytest.mark.parametrize("build", [cl.gaussian_kernel, cl.sech_kernel], ids=["gaussian", "sech"])
@pytest.mark.parametrize("width", [1e-300, 1e-70, 1e-62, 5e61, 1e70, 1e300])
def test_analytic_kernel_refuses_a_width_whose_l1_sizes_leave_the_floats(build, width):
    # w**5 underflows or overflows, or |a|/w^5*K is past the float range
    import re

    name = build.__name__.split("_")[0]
    with pytest.raises(ValueError, match=rf"^{name} kernel width {re.escape(f'{width:g}')} is "
                                         "out of range"):
        build(1.0, width)


def test_analytic_kernels_accept_the_documented_width_range():
    for build in (cl.gaussian_kernel, cl.sech_kernel):
        for width in (1e-61, 4e61):
            k = build(1.0, width)
            assert 0 < k.l1 < np.inf and 0 < k.l1_d6 < np.inf


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
    assert k.spectral_cutoff is not None
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
    # both grid-built kernels keep the spectrum they were built with and
    # refuse, by name, a grid of another size or length
    g = cl.make_grid(20.0, 256)
    xs = np.linspace(-5.0, 5.0, 101)
    kernels = [cl.bandlimited_kernel(g, 1.0, 2.0),
               cl.tabulated_kernel(g, xs, np.exp(-(xs**2)))]
    for k in kernels:
        assert k.spectrum_on(g) is k.grid_spectrum and k.bound_grid is g
        assert k.spectrum_on(cl.make_grid(20.0, 256)) is k.grid_spectrum
        for other in (cl.make_grid(20.0, 128), cl.make_grid(10.0, 256)):
            with pytest.raises(ValueError) as exc:
                k.spectrum_on(other)
            assert str(exc.value) == (
                f"the {k.name} kernel was built on a different grid; rebuild it for this one"
            )
    # the tabulated spectrum is the transform of the table on the grid
    samples = cl.Field(g, kernels[1].g(g.x))
    assert np.array_equal(kernels[1].grid_spectrum, cl.forward_transform(samples).values)


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


def test_tabulated_csv_skips_comment_and_blank_rows(tmp_path):
    g = cl.make_grid(10.0, 64)
    xs = np.linspace(-3.0, 3.0, 13)
    path = tmp_path / "kern.csv"
    rows = [f"{float(x)!r},{float(np.exp(-x * x))!r}" for x in xs]
    path.write_text("# x, G(x)\n\n" + "\n".join(rows[:6]) + "\n  # mid\n\n"
                    + "\n".join(rows[6:]) + "\n")
    k = cl.tabulated_kernel_from_csv(g, path)
    ref = cl.tabulated_kernel(g, xs, np.exp(-(xs * xs)))
    assert k.params == {"n_samples": 13}
    assert (k.l1, k.l1_d6) == (ref.l1, ref.l1_d6)
    assert np.array_equal(k.grid_spectrum, ref.grid_spectrum)
    # the same table read as the runner's csv initial condition
    from cubelap.runner import INITIAL_CONDITIONS

    u0 = INITIAL_CONDITIONS["csv"].build(path)(g.x)
    assert np.array_equal(u0, np.interp(g.x, xs, np.exp(-(xs * xs)), left=0.0, right=0.0))


def _kernel_csv(text):
    """The call that reads ``text`` as a tabulated kernel's CSV in tmp."""
    def call(tmp_path):
        path = tmp_path / "kern.csv"
        path.write_text(text)
        return cl.tabulated_kernel_from_csv(cl.make_grid(10.0, 64), path)

    return call


def _problem_with_u0(values):
    g = cl.make_grid(10.0, 64)
    return cl.ProblemSpec(a=0.0, b=0.0, kernel=cl.gaussian_kernel(),
                          nonlinearity=cl.saturating(1.0), u0=cl.Field(g, values(g.x)), grid=g)


_G64 = cl.make_grid(10.0, 64)

# id: (call of tmp_path, exception type, message with {tmp} for tmp_path) of
# each refusal of ``model`` that no other test reaches
MODEL_REFUSALS = {
    "scaled_kernel_zero_amplitude": (
        lambda tmp: cl.gaussian_kernel(0.0), cl.KernelAssumptionError,
        "gaussian kernel amplitude must be nonzero"),
    "scaled_kernel_zero_width": (
        lambda tmp: cl.sech_kernel(1.0, 0.0), ValueError, "sech kernel width must be positive"),
    "scaled_kernel_negative_width": (
        lambda tmp: cl.gaussian_kernel(1.0, -1.0), ValueError,
        "gaussian kernel width must be positive"),
    "bandlimited_zero_amplitude": (
        lambda tmp: cl.bandlimited_kernel(_G64, 0.0, 1.0), cl.KernelAssumptionError,
        "bandlimited kernel amplitude must be nonzero"),
    "bandlimited_cutoff_outside_the_band": (
        lambda tmp: cl.bandlimited_kernel(_G64, 1.0, 20.0), ValueError,
        "cutoff must lie inside the resolved band (0, 10.0531)"),
    "bandlimited_cutoff_zero": (
        lambda tmp: cl.bandlimited_kernel(_G64, 1.0, 0.0), ValueError,
        "cutoff must lie inside the resolved band (0, 10.0531)"),
    "tabulated_ragged": (
        lambda tmp: cl.tabulated_kernel(_G64, np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0])),
        ValueError, "need two equal-length 1-d sample arrays"),
    "tabulated_csv_three_columns": (
        _kernel_csv("0.0,1.0\n1.0,0.5,2\n"), ValueError,
        "expected two columns in {tmp}/kern.csv, got ['1.0', '0.5', '2']"),
    "tabulated_csv_one_row": (
        _kernel_csv("# x, G(x)\n0.0,1.0\n"), ValueError,
        "table {tmp}/kern.csv needs two rows or more, got 1"),
    "tabulated_csv_x_decreasing": (
        _kernel_csv("1.0,1.0\n0.0,1.0\n"), ValueError,
        "table {tmp}/kern.csv: x samples must be strictly increasing"),
    "kernel_without_spectrum": (
        lambda tmp: _synthetic_kernel().spectrum_on(_G64), ValueError,
        "the synthetic kernel has no spectrum; build a kernel from samples with "
        "tabulated_kernel"),
    "source_band_reversed": (
        lambda tmp: cl.source_bandlimited(_G64, 1.0, 2.0, 1.0), ValueError,
        "need 0 <= p_lo < p_hi inside the resolved band"),
    "source_band_below_zero": (
        lambda tmp: cl.source_bandlimited(_G64, 1.0, -1.0, 1.0), ValueError,
        "need 0 <= p_lo < p_hi inside the resolved band"),
    "saturating_zero": (
        lambda tmp: cl.saturating(0.0), ValueError, "lipschitz must be positive"),
    "logistic_clip_zero_lipschitz": (
        lambda tmp: cl.logistic_clip(0.0, 1.0), ValueError,
        "lipschitz and u_max must be positive"),
    "logistic_clip_negative_u_max": (
        lambda tmp: cl.logistic_clip(1.0, -1.0), ValueError,
        "lipschitz and u_max must be positive"),
    "lipschitz_sampling_no_trials": (
        lambda tmp: cl.check_lipschitz_sampling(cl.saturating(1.0), trials=0), ValueError,
        "need at least one trial"),
    "overlap_zero_threshold": (
        lambda tmp: cl.nontriviality_overlap(cl.gaussian_kernel(), cl.saturating(1.0), _G64,
                                             eps_supp=0.0),
        ValueError, "eps_supp must be positive"),
    "u0_with_non_finite_h6_norm": (
        lambda tmp: _problem_with_u0(lambda x: 1e200 * np.exp(-(x**2))),
        cl.AssumptionViolation, "initial condition has non-finite Sobolev norm"),
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("case", list(MODEL_REFUSALS))
def test_model_refusals_name_their_cause(case, tmp_path):
    call, kind, message = MODEL_REFUSALS[case]
    with pytest.raises(kind) as exc:
        call(tmp_path)
    assert type(exc.value) is kind and str(exc.value) == message.format(tmp=tmp_path)


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


def test_catalog_reactions_keep_their_formulas_bit_for_bit():
    g = cl.make_grid(10.0, 64)
    u = np.random.default_rng(3).normal(size=(3, 64))
    h = cl.source_gaussian(0.1, 1.0, 0.3)
    c = np.clip(u, -1.5, 1.5)
    cases = [
        (cl.linear_plus_source(-1.3, h), -1.3 * u, (1.3, 1.3), {"kappa": -1.3}),
        (cl.linear_plus_source(0.0), 0.0 * u, (1e-12, 1e-12), {"kappa": 0.0}),
        (cl.saturating(2.0, h), 2.0 * np.sin(u), (2.0, 2.0), {"lipschitz": 2.0}),
        (cl.logistic_clip(2.0, 1.5, h), (2.0 / 3.0) * c * (1.0 - c / 1.5),
         (2.0 * 2.0 / 3.0, 2.0), {"lipschitz": 2.0, "u_max": 1.5}),
    ]
    for n, rate, constants, params in cases:
        source = h(g.x) if n.params != {"kappa": 0.0} else np.zeros(64)
        assert np.array_equal(n.fn(u, g.x), rate + source)
        assert np.array_equal(n.source(g.x), source)
        assert (n.growth_k, n.lipschitz_l) == constants and n.params == params


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
