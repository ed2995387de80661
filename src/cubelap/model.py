"""Model data: interaction kernel, reaction nonlinearity, problem assembly.

The evolution couples a sixth-order diffusion with drift and a nonlocal
reaction term (G * F(u, .)): the kernel G redistributes the reaction output
F(u(y), y) across the domain. Admissible model data satisfy two structural
requirements that everything downstream leans on:

  * the kernel must not vanish identically, and both G and its sixth
    derivative need finite L1 size (their combined magnitude is the kernel
    factor of the contraction certificate);
  * the nonlinearity F(u, x) must be globally Lipschitz in u with a declared
    constant, and grow at most linearly, |F(u, x)| <= k|u| + h(x) with a
    square-integrable source profile h.

Lipschitz constants are declared per catalog entry (they are analytically
known), never estimated; random sampling exists only to falsify wrong
declarations. The gaussian and sech kernels share the form
amplitude * profile(x / width) (``_scaled_kernel``), so their L1 sizes are
closed forms: ||G||_1 = |amplitude| width c1 and ||G^(6)||_1 = |amplitude| /
width^5 * K with constants c1, K per entry, and building one runs no
quadrature. The band-limited and tabulated kernels are built on a grid
(``_grid_kernel``): box-sum L1 sizes, and their spectrum on that grid kept.
The reactions are F(u, x) = rate(u) + h(x) (``_reaction``). Two-column CSV
tables are read by ``read_table`` and interpolated by ``table_profile``.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    CORE_FRACTION,
    Field,
    PHYSICAL,
    SpectralGrid,
    forward_transform,
    h6_norm,
    inverse_transform,
    l2_norm,
    tail_mass_fraction,
    to_physical,
)

#: Declared Lipschitz/growth floor for entries that are constant in u, so the
#: certificate arithmetic (which requires positive constants) stays in-domain.
MIN_DECLARED_CONSTANT = 1e-12

#: Relative modulus threshold below which a spectral coefficient counts as
#: "not in the support" for the overlap criterion.
DEFAULT_SUPPORT_EPS = 1e-12

#: Largest accepted max|Im u0| / max|u0|: the model's unknown is real, and an
#: inverse transform of a Hermitian spectrum leaves roundoff-level imaginary parts.
REAL_STATE_TOL = 1e-12


class AssumptionViolation(ValueError):
    """A structural requirement on the model data failed."""


class KernelAssumptionError(AssumptionViolation):
    """Kernel is identically zero or has no usable L1 size."""


class LipschitzDeclarationError(AssumptionViolation):
    """Sampling found a difference quotient above the declared constant."""


class ModelEvaluationError(RuntimeError):
    """Nonlinearity produced NaN/Inf."""


# ---------------------------------------------------------------------------
# kernel catalog
# ---------------------------------------------------------------------------

#: K = int |d^6/dxi^6 exp(-xi^2)| dxi, the total variation of H5(xi) exp(-xi^2)
#: over the roots of H6. The exact value is 195.9000655102777; this literal is
#: the adaptive-quadrature value every earlier release used, 1.06e-11 above it
#: (relative) and so conservative. It stays until the stored march references
#: are regenerated: the exact value moves them by 1.2e-12 relative, past their
#: 1e-12 check.
GAUSSIAN_D6_L1 = 195.90006551234788

#: K = int |d^6/dz^6 sech(z)| dz, exactly: the total variation of
#: d^5 sech = -sech tanh (1 - 60 sech^2 + 120 sech^4) over the sign changes of
#: d^6 sech, the roots of 720y^3 - 840y^2 + 182y - 1 in y = sech^2.
SECH_D6_L1 = 65.14329029892282


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Interaction kernel G with cached L1 sizes and spectral access.

    ``l1`` and ``l1_d6`` are computed once at construction (in
    ``_scaled_kernel`` for the analytic kernels, in ``_grid_kernel`` for the
    band-limited and tabulated ones) or injected directly for synthetic test
    kernels; ``norm_method`` records how: ``"analytic"`` for closed forms in
    the amplitude and width (gaussian, sech), ``"grid-spectral"`` and
    ``"spectral-fallback"`` for box sums on the grid. A grid-built kernel
    keeps its spectrum on that grid (``grid_spectrum`` on ``bound_grid``); a
    kernel with neither that nor ``spectrum_fn`` has no spectrum.
    """

    name: str
    g: object  # vectorized callable x -> G(x)
    l1: float
    l1_d6: float
    norm_method: str
    spectrum_fn: object | None = None
    grid_spectrum: np.ndarray | None = field(default=None, repr=False)
    bound_grid: SpectralGrid | None = field(default=None, repr=False)
    spectral_cutoff: float | None = None
    params: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.grid_spectrum is not None:
            gs = np.asarray(self.grid_spectrum, dtype=np.complex128)
            gs.flags.writeable = False
            object.__setattr__(self, "grid_spectrum", gs)

    def spectrum_on(self, grid: SpectralGrid) -> np.ndarray:
        """Spectral coefficients of G on the given grid.

        A grid-built kernel serves the spectrum it was built with and
        refuses, by its name, a grid of another length or size; an analytic
        kernel evaluates its transform, and a kernel with neither is refused
        by its name: ``tabulated_kernel`` builds a kernel from samples.
        """
        if self.grid_spectrum is not None:
            bg = self.bound_grid
            if bg.half_length != grid.half_length or bg.n_points != grid.n_points:
                raise ValueError(
                    f"the {self.name} kernel was built on a different grid; "
                    "rebuild it for this one"
                )
            out = self.grid_spectrum
        elif self.spectrum_fn is not None:
            out = np.asarray(self.spectrum_fn(grid.wavenumbers), dtype=np.complex128)
        else:
            raise ValueError(f"the {self.name} kernel has no spectrum; build a kernel "
                             "from samples with tabulated_kernel")
        out.flags.writeable = False
        return out


def _scaled_kernel(name: str, amplitude, width, profile, spectrum, l1_unit, d6_unit):
    """The catalog kernel G(x) = a * profile(x/w) with transform
    ``spectrum(a, w, p)`` and L1 sizes ||G||_1 = |a| w l1_unit and
    ||G^(6)||_1 = |a| / w^5 * d6_unit. A width at which either size is not
    a positive finite float (at |a| = 1, outside about 1e-61 < w < 4e61) is
    refused by name."""
    if amplitude == 0:
        raise KernelAssumptionError(f"{name} kernel amplitude must be nonzero")
    if width <= 0:
        raise ValueError(f"{name} kernel width must be positive")
    a, w = float(amplitude), float(width)
    l1 = abs(a) * w * l1_unit
    try:
        l1_d6 = abs(a) / w**5 * d6_unit
    except (ZeroDivisionError, OverflowError):  # w**5 leaves the float range
        l1_d6 = math.nan
    if not (0 < l1 < math.inf and 0 < l1_d6 < math.inf):
        raise ValueError(f"{name} kernel width {w:g} is out of range: at amplitude {a:g} "
                         "its L1 sizes are not both positive finite floats")
    return KernelSpec(name=name, g=lambda x: a * profile(np.asarray(x) / w),
                      spectrum_fn=lambda p: spectrum(a, w, p), l1=l1, l1_d6=l1_d6,
                      norm_method="analytic", params={"amplitude": a, "width": w})


def gaussian_kernel(amplitude: float = 1.0, width: float = 1.0) -> KernelSpec:
    """G(x) = amplitude * exp(-(x/width)^2), with closed-form L1 sizes.

    ||G||_1 = |amplitude| width sqrt(pi); ||G^(6)||_1 = |amplitude| / width^5
    * GAUSSIAN_D6_L1.
    """
    return _scaled_kernel(
        "gaussian", amplitude, width, lambda z: np.exp(-(z**2)),
        lambda a, w, p: (a * w / np.sqrt(2.0)) * np.exp(-((w * p) ** 2) / 4.0),
        np.sqrt(np.pi), GAUSSIAN_D6_L1)


def _sech(z):
    """sech(z) as 2e^{-|z|} / (1 + e^{-2|z|}), which cannot overflow."""
    e = np.exp(-np.abs(z))
    return 2.0 * e / (1.0 + e * e)


def sech_kernel(amplitude: float = 1.0, width: float = 1.0) -> KernelSpec:
    """G(x) = amplitude * sech(x/width), with closed-form L1 sizes.

    ||G||_1 = |amplitude| width pi; ||G^(6)||_1 = |amplitude| / width^5
    * SECH_D6_L1.
    """
    return _scaled_kernel(
        "sech", amplitude, width, _sech,
        lambda a, w, p: a * w * np.sqrt(np.pi / 2.0) * _sech(np.pi * w * p / 2.0),
        np.pi, SECH_D6_L1)


def _trig_poly(grid: SpectralGrid, coeffs: np.ndarray):
    """Callable evaluating the band-limited interpolant sum_k c_k exp(i p_k x).

    The sum runs over the nonzero coefficients only.
    """
    support = np.flatnonzero(coeffs)
    p, c = grid.wavenumbers[support], coeffs[support]
    dp = grid.dp

    def fn(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        osc = np.exp(1j * np.outer(x, p))
        return np.sum(osc * c, axis=-1).real * (dp / np.sqrt(2.0 * np.pi))

    return fn


def _raised_cosine(grid: SpectralGrid, amplitude, p_lo, p_hi) -> np.ndarray:
    """The spectrum amplitude * cos^2(pi (|p| - c) / (2 h)) on p_lo <= |p| <= p_hi,
    c and h the band's centre and half width, and zero off the band."""
    ap = np.abs(grid.wavenumbers)
    center, halfwidth = 0.5 * (p_lo + p_hi), 0.5 * (p_hi - p_lo)
    profile = amplitude * np.cos(np.pi * (ap - center) / (2.0 * halfwidth)) ** 2
    return np.where((ap >= p_lo) & (ap <= p_hi), profile, 0.0).astype(np.complex128)


def _grid_kernel(name: str, grid: SpectralGrid, g, samples, ghat, norm_method: str,
                 params: dict, spectral_cutoff=None):
    """The kernel G = ``g`` built on ``grid``, with real grid ``samples`` and
    spectrum ``ghat`` there: ||G||_1 is the rectangle rule of the samples and
    ||G^(6)||_1 that of the sixth derivative (i p)^6 ``ghat``, and the
    spectrum is kept for ``spectrum_on`` on this grid only."""
    d6 = inverse_transform(Field(grid, (1j * grid.wavenumbers) ** 6 * ghat, "spectral")).values
    return KernelSpec(name=name, g=g, l1=float(np.sum(np.abs(samples)) * grid.dx),
                      l1_d6=float(np.sum(np.abs(d6.real)) * grid.dx), norm_method=norm_method,
                      grid_spectrum=ghat, bound_grid=grid, spectral_cutoff=spectral_cutoff,
                      params=params)


def bandlimited_kernel(
    grid: SpectralGrid, amplitude: float = 1.0, cutoff: float = 1.0
) -> KernelSpec:
    """Kernel with exactly compact spectral support |p| <= cutoff.

    Built directly in spectral space on the target grid (raised-cosine
    profile), so the support statement holds at grid level exactly, not just
    up to truncation leakage. The physical kernel is the corresponding
    band-limited trigonometric interpolant; its L1 sizes are box norms.
    """
    if amplitude == 0:
        raise KernelAssumptionError("bandlimited kernel amplitude must be nonzero")
    p_max = np.max(np.abs(grid.wavenumbers))
    if not 0 < cutoff < p_max:
        raise ValueError(f"cutoff must lie inside the resolved band (0, {p_max:g})")
    # centre 0.0 and half width cutoff, both exactly: cos^2(pi p / (2 cutoff))
    profile = _raised_cosine(grid, amplitude, -cutoff, cutoff)
    if np.count_nonzero(profile) < 3:
        raise ValueError("cutoff resolves fewer than three modes; refine the grid")
    g_samp = inverse_transform(Field(grid, profile, "spectral")).values.real
    return _grid_kernel("bandlimited", grid, _trig_poly(grid, profile), g_samp, profile,
                        "grid-spectral", {"amplitude": float(amplitude), "cutoff": float(cutoff)},
                        spectral_cutoff=float(cutoff))


def read_table(path) -> tuple[np.ndarray, np.ndarray]:
    """The columns (x, y) of the two-column CSV table at ``path``, blank and
    ``#`` rows skipped: two columns, two rows or more and strictly increasing
    x, or a ValueError that names ``path``."""
    xs, ys = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if len(row) != 2:
                raise ValueError(f"expected two columns in {path}, got {row!r}")
            xs.append(float(row[0]))
            ys.append(float(row[1]))
    if len(xs) < 2:
        raise ValueError(f"table {path} needs two rows or more, got {len(xs)}")
    # np.interp reads a decreasing x as garbage, not as an error
    if not np.all(np.diff(xs) > 0):
        raise ValueError(f"table {path}: x samples must be strictly increasing")
    return np.asarray(xs), np.asarray(ys)


def table_profile(xs: np.ndarray, ys: np.ndarray):
    """x -> the table (xs, ys), linear between rows and zero outside them."""
    return lambda x: np.interp(np.asarray(x, dtype=float), xs, ys, left=0.0, right=0.0)


def tabulated_kernel(
    grid: SpectralGrid, x_samples: np.ndarray, g_samples: np.ndarray
) -> KernelSpec:
    """Kernel given by uniform samples; zero outside the tabulated range.

    L1 sizes come from the spectral fallback (grid transform, multiply by
    (i p)^6, transform back, rectangle rule); the report carries the p^6
    spectral tail so a caller can judge whether that fallback was resolved.
    """
    xs = np.asarray(x_samples, dtype=float)
    gs = np.asarray(g_samples, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or xs.shape != gs.shape:
        raise ValueError("need two equal-length 1-d sample arrays")
    steps = np.diff(xs)
    if np.any(steps <= 0):
        raise ValueError("tabulated x samples must be strictly increasing")
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("tabulated x samples must be uniformly spaced")
    g = table_profile(xs, gs)
    on_grid = g(grid.x)
    ghat = forward_transform(Field(grid, on_grid)).values
    return _grid_kernel("tabulated", grid, g, on_grid, ghat, "spectral-fallback",
                        {"n_samples": int(xs.size)})


def tabulated_kernel_from_csv(grid: SpectralGrid, path) -> KernelSpec:
    """The tabulated kernel of the CSV table (x, G(x)) at ``path`` (``read_table``)."""
    return tabulated_kernel(grid, *read_table(path))


@dataclass(frozen=True)
class KernelValidationReport:
    """What validation measured: box tail mass, outer share of |p^6 Ghat|, notes."""

    tail_fraction: float
    spectral_tail_fraction: float | None
    notes: tuple[str, ...]


def validate_kernel(kernel: KernelSpec, grid: SpectralGrid) -> KernelValidationReport:
    """Check the structural kernel requirements at grid level.

    Hard-fails (KernelAssumptionError) for an identically vanishing kernel
    and, through ``kernel_strength``, for unusable L1 sizes; everything else
    is reported, including the physical tail mass on the box and, for
    spectral-fallback entries, how much of |p^6 Ghat| sits in the outer
    wavenumber band.
    """
    samples = np.asarray(kernel.g(grid.x), dtype=float)
    notes = []
    if np.max(np.abs(samples)) == 0.0:
        raise KernelAssumptionError("kernel vanishes identically on the grid")
    kernel_strength(kernel)  # raises on unusable L1 sizes
    tail = tail_mass_fraction(Field(grid, samples))
    spectral_tail = None
    if kernel.norm_method == "spectral-fallback":
        ghat = kernel.spectrum_on(grid)
        weighted = np.abs(grid.wavenumbers**6 * ghat)
        total = float(np.sum(weighted))
        p_cut = CORE_FRACTION * np.max(np.abs(grid.wavenumbers))
        outer = float(np.sum(weighted[np.abs(grid.wavenumbers) >= p_cut]))
        spectral_tail = outer / total if total > 0 else 0.0
        notes.append("sixth-derivative L1 obtained via spectral fallback")
    if kernel.spectral_cutoff is not None:
        notes.append(
            f"compact spectral support by construction: |p| <= {kernel.spectral_cutoff:g}"
        )
    return KernelValidationReport(
        tail_fraction=tail,
        spectral_tail_fraction=spectral_tail,
        notes=tuple(notes),
    )


def kernel_strength(kernel: KernelSpec) -> float:
    """Euclidean combination of the kernel's two L1 sizes.

    This is the kernel factor of the contraction certificate; it is
    positively homogeneous of degree one in the kernel amplitude.
    """
    if not (np.isfinite(kernel.l1) and np.isfinite(kernel.l1_d6)) or kernel.l1 <= 0:
        raise KernelAssumptionError(
            f"kernel L1 sizes unusable: l1={kernel.l1}, l1_d6={kernel.l1_d6}"
        )
    return float(np.hypot(kernel.l1, kernel.l1_d6))


# ---------------------------------------------------------------------------
# source profiles (the u-independent part of the reaction)
# ---------------------------------------------------------------------------


def _per_grid(h):
    """The source profile h, remembering its values on the last three arrays
    it read that are read-only and own their data, as a grid's ``x`` is: the
    solvers call the reaction once per block of frames, on a box's N points
    (frame 0, the first rung's probe and the oracle) and on a window's
    reduced grid (its band frames), which may differ between window 0 and
    the windows after it, and h(x) is the part of it that does not change.
    The values are h's own, bit for bit, handed out read-only."""
    last = deque(maxlen=3)

    def profile(x):
        for seen, vals in last:
            if x is seen:
                return vals
        vals = h(x)
        if isinstance(x, np.ndarray) and not x.flags.writeable and x.flags.owndata:
            vals = np.asarray(vals)
            vals.flags.writeable = False
            last.append((x, vals))
        return vals

    return profile


def source_zero():
    def h(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return h


def source_gaussian(amplitude: float = 1.0, width: float = 1.0, center: float = 0.0):
    if width <= 0:
        raise ValueError("gaussian width must be positive")

    def h(x):
        return amplitude * np.exp(-(((np.asarray(x, dtype=float) - center) / width) ** 2))

    return h


def source_bandlimited(
    grid: SpectralGrid, amplitude: float, p_lo: float, p_hi: float
):
    """Real source whose spectrum is supported exactly in p_lo <= |p| <= p_hi.

    Same grid-spectral construction as bandlimited_kernel, so disjointness
    against a band-limited kernel is exact at grid level.
    """
    p_max = np.max(np.abs(grid.wavenumbers))
    if not 0 <= p_lo < p_hi < p_max:
        raise ValueError("need 0 <= p_lo < p_hi inside the resolved band")
    profile = _raised_cosine(grid, amplitude, p_lo, p_hi)
    if np.count_nonzero(profile) < 2:
        raise ValueError("band resolves fewer than two modes; refine the grid")
    return _trig_poly(grid, profile)


# ---------------------------------------------------------------------------
# nonlinearity catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonlinearitySpec:
    """Reaction rate F(u, x) with declared growth and Lipschitz constants.

    fn is vectorized over (u, x) and broadcasts u of shape (frames, N)
    against x of shape (N,); source is the u-independent profile h(x), so
    fn(0, x) == source(x) for every catalog member. Every catalog member is
    built by ``_reaction`` as fn(u, x) = rate(u) + h(x).
    """

    name: str
    fn: object
    source: object
    growth_k: float
    lipschitz_l: float
    params: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_source_norm_cache", {})

    def source_norm(self, grid: SpectralGrid) -> float:
        """||h|| on the grid, computed once per grid."""
        key = (grid.half_length, grid.n_points)
        cached = self._source_norm_cache.get(key)
        if cached is None:
            cached = l2_norm(Field(grid, self.source(grid.x), "physical"))
            self._source_norm_cache[key] = cached
        return cached


def _reaction(name: str, rate, source, growth_k: float, lipschitz_l: float, params: dict):
    """The catalog reaction F(u, x) = rate(u) + h(x), h the source profile
    (zero by default), read once per grid through ``_per_grid``."""
    h = _per_grid(source if source is not None else source_zero())

    def fn(u, x):
        return rate(np.asarray(u, dtype=float)) + h(x)

    return NonlinearitySpec(name=name, fn=fn, source=h, growth_k=growth_k,
                            lipschitz_l=lipschitz_l, params=params)


def linear_plus_source(kappa: float, source=None, lipschitz: float | None = None) -> NonlinearitySpec:
    """F(u, x) = kappa*u + h(x). Exact Lipschitz constant |kappa|.

    ``lipschitz`` (positive) overrides the declared constant (used to exercise the
    falsification path); by default it is |kappa|, floored at a tiny positive
    value so certificate arithmetic stays defined for pure sources.
    """
    if lipschitz is not None and lipschitz <= 0:
        raise ValueError("lipschitz must be positive")
    kap = float(kappa)
    k = max(abs(kap), MIN_DECLARED_CONSTANT)
    ell = float(lipschitz) if lipschitz is not None else k
    return _reaction("linear_plus_source", lambda u: kap * u, source, k, ell, {"kappa": kap})


def saturating(lipschitz: float, source=None) -> NonlinearitySpec:
    """F(u, x) = l*sin(u) + h(x). Lipschitz constant exactly l, growth too."""
    if lipschitz <= 0:
        raise ValueError("lipschitz must be positive")
    ell = float(lipschitz)
    return _reaction("saturating", lambda u: ell * np.sin(u), source, ell, ell, {"lipschitz": ell})


def logistic_clip(lipschitz: float, u_max: float, source=None) -> NonlinearitySpec:
    """Clipped logistic reaction (l/3)*c*(1 - c/u_max), c = clip(u, +-u_max).

    The clip makes the quadratic globally Lipschitz; the slope maximum
    (attained at u = -u_max) is exactly the declared l, and the growth
    constant is 2l/3.
    """
    if lipschitz <= 0 or u_max <= 0:
        raise ValueError("lipschitz and u_max must be positive")
    ell, um = float(lipschitz), float(u_max)

    def clipped(u):
        c = np.clip(u, -um, um)
        return ell / 3.0 * c * (1.0 - c / um)

    return _reaction("logistic_clip", clipped, source, 2.0 * ell / 3.0, ell,
                     {"lipschitz": ell, "u_max": um})


# ---------------------------------------------------------------------------
# catalog registry: the entries a run configuration can name
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Required:
    """Default of a catalog parameter that a configuration must give."""

    kind: type = float


#: A required number.
REQUIRED = Required()


@dataclass(frozen=True)
class Subsection:
    """A catalog parameter that is itself a section naming an entry of ``catalog``."""

    catalog: dict
    default: str


@dataclass(frozen=True)
class CatalogEntry:
    """Constructor of one catalog member and the parameters it takes.

    ``params`` maps each keyword of ``build``, in configuration order, to its
    default: a number, ``None`` (null or a number), a ``Required`` marker or a
    ``Subsection``. Entries with ``takes_grid`` get the grid first. Range
    checks on the values stay in the constructors.
    """

    build: object
    params: dict
    takes_grid: bool = False


KERNELS = {
    "gaussian": CatalogEntry(gaussian_kernel, {"amplitude": 1.0, "width": 1.0}),
    "sech": CatalogEntry(sech_kernel, {"amplitude": 1.0, "width": 1.0}),
    "bandlimited": CatalogEntry(
        bandlimited_kernel, {"amplitude": 1.0, "cutoff": REQUIRED}, takes_grid=True
    ),
    "tabulated": CatalogEntry(
        tabulated_kernel_from_csv, {"path": Required(str)}, takes_grid=True
    ),
}

SOURCES = {
    "zero": CatalogEntry(source_zero, {}),
    "gaussian": CatalogEntry(
        source_gaussian, {"amplitude": 1.0, "width": 1.0, "center": 0.0}
    ),
    "bandlimited": CatalogEntry(
        source_bandlimited,
        {"amplitude": 1.0, "p_lo": REQUIRED, "p_hi": REQUIRED},
        takes_grid=True,
    ),
}

_SOURCE = Subsection(SOURCES, "zero")

NONLINEARITIES = {
    "linear_plus_source": CatalogEntry(
        linear_plus_source, {"kappa": REQUIRED, "lipschitz": None, "source": _SOURCE}
    ),
    "saturating": CatalogEntry(saturating, {"lipschitz": REQUIRED, "source": _SOURCE}),
    "logistic_clip": CatalogEntry(
        logistic_clip, {"lipschitz": REQUIRED, "u_max": REQUIRED, "source": _SOURCE}
    ),
}


def apply_nonlinearity(
    u: np.ndarray,
    nonlinearity: NonlinearitySpec,
    grid: SpectralGrid,
    first_frame: int = 0,
    rows: str = "frame",
):
    """Pointwise F(u(x_j), x_j) on physical samples.

    u is a plain array of real physical samples of shape (N,) or (frames, N)
    on ``grid``, and the result is an array of the same shape; the solvers
    pass a block of frames at once, so ``nonlinearity.fn`` is called once
    for all of them. Hard-fails on NaN/Inf, naming the offending location,
    and on a frame that violates the declared linear growth bound
    ||F(u,.)|| <= k||u|| + ||h||. The frames of a (frames, N) array are
    numbered from ``first_frame`` in the messages, the index of its first
    frame in the trajectory it is a block of; ``rows`` names what a row is
    (a ``"window"`` of a batched march, say).
    """
    x = grid.x
    vals = np.asarray(nonlinearity.fn(u.real, x))
    if vals.shape != u.shape:
        # an F that ignores u may return one (N,) profile for all frames
        vals = np.broadcast_to(vals, u.shape)

    def in_frame(index):
        return f" in {rows} {first_frame + index[0]}" if u.ndim > 1 else ""

    # row dots of the real samples: no modulus, no temporaries, no overflow
    # warning (a run would list it; the growth check refuses such a norm). A
    # NaN or an infinity makes its row's norm non-finite, so only then is it looked for
    with np.errstate(over="ignore"):
        f_norm = np.sqrt(np.vecdot(vals, vals) * grid.dx)
        u_norm = np.sqrt(np.vecdot(u, u) * grid.dx)
    if not np.isfinite(f_norm).all():
        bad = ~np.isfinite(vals)
        if bad.any():
            index = np.unravel_index(bad.argmax(), bad.shape)
            j = index[-1]
            raise ModelEvaluationError(
                f"nonlinearity produced {vals[index]!r} at x[{j}] = {x[j]:g}{in_frame(index)}"
            )
    bound = nonlinearity.growth_k * u_norm + nonlinearity.source_norm(grid)
    over = ~(f_norm <= bound * (1 + 1e-9) + 1e-300)
    if over.any():
        # a single frame's norms are scalars; index them as rows
        f_norm, bound, over = np.atleast_1d(f_norm, bound, over)
        k = int(over.argmax())
        raise ModelEvaluationError(
            f"growth bound violated: ||F(u)|| = {f_norm[k]:g} > "
            f"k||u|| + ||h|| = {bound[k]:g}{in_frame((k,))}"
        )
    return vals


#: The sample count and seed of the Lipschitz falsification by default.
LIPSCHITZ_TRIALS = 2000
LIPSCHITZ_SEED = 0


def check_lipschitz_sampling(
    nonlinearity: NonlinearitySpec, trials: int = LIPSCHITZ_TRIALS, seed: int = LIPSCHITZ_SEED
) -> float:
    """Max observed difference quotient over random (u1, u2, x) triples.

    Falsification only: a quotient above the declared constant, by more than
    the rounding error of evaluating F at the two points can explain, raises
    with the witness triple; staying below proves nothing.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    # mix magnitudes so near-zero pairs (where smooth saturating entries are
    # steepest) are well represented
    scales = 10.0 ** rng.uniform(-4, 1, size=trials)
    u1 = rng.normal(0.0, 1.0, size=trials) * scales
    u2 = u1 + rng.normal(0.0, 1.0, size=trials) * scales
    degenerate = u1 == u2
    u2[degenerate] = u1[degenerate] + scales[degenerate]
    x = rng.uniform(-20.0, 20.0, size=trials)
    f1, f2 = nonlinearity.fn(u1, x), nonlinearity.fn(u2, x)
    du = np.abs(u1 - u2)
    df = np.abs(f1 - f2)
    quot = df / du
    # each of F(u1, x), F(u2, x) carries a rounding error of up to a few ulps
    # of its own size, so a large u-independent part such as a source h(x)
    # lifts |F(u1, x) - F(u2, x)| of an exact constant by about eps*|F|. In
    # product form, with each ulp term scaled on its own, no term overflows
    # while F is finite.
    eps4 = 4.0 * np.finfo(float).eps
    roundoff = eps4 * np.abs(f1) + eps4 * np.abs(f2)
    bad = df > nonlinearity.lipschitz_l * (1 + 1e-12) * du + roundoff
    if np.any(bad):
        worst = int(np.argmax(np.where(bad, quot, -np.inf)))
        raise LipschitzDeclarationError(
            f"declared Lipschitz constant {nonlinearity.lipschitz_l:g} is wrong: "
            f"|F(u1,x)-F(u2,x)|/|u1-u2| = {quot[worst]:g} at "
            f"u1={u1[worst]:g}, u2={u2[worst]:g}, x={x[worst]:g}"
        )
    return float(np.max(quot))


def nontriviality_overlap(
    kernel: KernelSpec,
    nonlinearity: NonlinearitySpec,
    grid: SpectralGrid,
    eps_supp: float = DEFAULT_SUPPORT_EPS,
) -> float:
    """Grid measure of supp Fhat(0,.) intersected with supp Ghat.

    A positive value realizes, at grid level, the hypothesis under which the
    solution cannot vanish identically. Support is detected relative to each
    spectrum's max modulus with threshold eps_supp.
    """
    if eps_supp <= 0:
        raise ValueError("eps_supp must be positive")
    f0 = nonlinearity.fn(np.zeros(grid.n_points), grid.x)
    if np.max(np.abs(f0)) == 0.0:
        warnings.warn(
            "F(0, .) is identically zero: the nontriviality hypothesis cannot hold",
            stacklevel=2,
        )
        return 0.0
    f0_hat = forward_transform(Field(grid, f0, "physical")).values
    g_hat = kernel.spectrum_on(grid)
    g_mask = np.abs(g_hat) > eps_supp * np.max(np.abs(g_hat))
    f_mask = np.abs(f0_hat) > eps_supp * np.max(np.abs(f0_hat))
    return float(np.count_nonzero(g_mask & f_mask) * grid.dp)


# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Everything the evolution needs: constants, kernel, reaction, state."""

    a: float
    b: float
    kernel: KernelSpec
    nonlinearity: NonlinearitySpec
    u0: Field
    grid: SpectralGrid

    def __post_init__(self):
        if self.a < 0:
            raise AssumptionViolation(f"linear rate a must be >= 0, got {self.a}")
        u0 = to_physical(self.u0)
        if u0.grid is not self.grid and (
            u0.grid.half_length != self.grid.half_length
            or u0.grid.n_points != self.grid.n_points
        ):
            raise ValueError("initial condition lives on a different grid")
        n0 = h6_norm(u0)
        if not np.isfinite(n0):
            raise AssumptionViolation("initial condition has non-finite Sobolev norm")
        # the solvers evolve real fields: an imaginary part above roundoff is
        # an error, not something to drop silently
        size = np.max(np.abs(u0.values))
        imag = np.max(np.abs(u0.values.imag))
        if imag > REAL_STATE_TOL * size:
            raise AssumptionViolation(
                f"initial condition is not real: max|Im u0| / max|u0| = {imag / size:.3e} "
                f"exceeds {REAL_STATE_TOL:g}"
            )
        object.__setattr__(self, "u0", Field(u0.grid, u0.values.real, PHYSICAL))
