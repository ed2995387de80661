"""Fixed-point evolution: propagator, mild-solution map, Picard iteration.

Each Fourier mode evolves linearly under the symbol

    lam(p) = -p^6 + i*b*p + a,

and the nonlocal reaction enters through the mild-solution (variation of
constants) form

    u_hat(p, t) = e^{t lam} u0_hat(p)
                + int_0^t e^{(t-s) lam} sqrt(2*pi) Ghat(p) fhat_v(p, s) ds,

where fhat_v is the transform of F(v(., s), .). Freezing the trajectory v on
the right makes this an affine map v -> u; under a valid certificate that map
contracts, and Picard iteration converges geometrically to the mild solution.

The s-integral is evaluated per substep by interpolating fhat_v linearly and
integrating it against the exact exponential using phi-weights, so the
quadrature is second order in the frame spacing and exact whenever fhat_v is
constant in s (pure source reactions, and the zero reaction). An independent
integrating-factor Heun marcher is kept alongside as a cross-validation
oracle; it deliberately shares no quadrature with the mild-solution map.

The unknown is a real field, the kernel and the reaction are real and
lam(-p) = conj(lam(p)), so every spectrum in the solvers is Hermitian and is
determined by its modes 0..N/2. Inside the solvers a trajectory is the plain
(M+1, N/2+1) complex array of those modes: the forcing history is one
batched real transform pair around one ``apply_nonlinearity`` call on the
real (M+1, N) samples, and norms weight each stored mode by its
multiplicity in the full spectrum. The Picard loop keeps raw ``rfft``
units (``grid.rfft_raw``), in which the transform pair needs no factor;
``duhamel_map`` and ``time_derivative`` take and return such arrays only,
with the window's half-spectrum weights computed once (``_window``), and
the ``SolveReport`` keeps the last iterate converted to unitary
coefficients. The Heun oracle works in unitary coefficients
(``forward_real`` / ``inverse_real``). ``Field`` and ``SpacetimeField``
(full spectrum, as in the ``SXD1`` dump) appear only at the API edge: the
report's ``field`` and ``dudt`` expand the half spectrum on every access.

The march first runs the certified Picard chain, window after window, since
each window starts from the previous one's end state. The oracle of window k
starts from that same state and reads no other oracle, so once the chain has
run, one Heun march checks every window at once on a (K, N/2+1) block: the
Picard chain is the sequential propagator and the oracle the fine solver of
the parareal split (Lions, Maday & Turinici, 2001). Failures are reported in
the sequential order Picard 0, oracle 0, Picard 1, ...: the first one wins.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace as dc_replace

import numpy as np

import math

from .certify import Certificate, NoAdmissibleWindow, WindowSchedule, window_schedule
from .grid import (
    Field,
    RepresentationError,
    SpacetimeField,
    SpectralGrid,
    TAIL_TOL,
    block_rows,
    forward_real,
    half_sq_norms,
    hermitian_expand,
    inverse_real,
    irfft_raw,
    l2_norm,
    raw_contraction_norm,
    raw_to_unitary,
    rfft_raw,
    tail_mass_fraction,
    trapezoid_weights,
)
from .model import (
    ModelEvaluationError,
    ProblemSpec,
    apply_nonlinearity,
    kernel_strength,
    nontriviality_overlap,
    validate_kernel,
)

SQRT_2PI = np.sqrt(2.0 * np.pi)

#: Measured Picard ratios may exceed the certified constant by at most this
#: factor before the solve is treated as defective (quadrature slack).
RATIO_SLACK = 1.05

DEFAULT_FRAMES = 64
DEFAULT_MAX_ITER = 200


class SolverError(RuntimeError):
    pass


class CertificateRefusedError(SolverError):
    """Solve requested with an invalid certificate and no override."""


class PicardConvergenceError(SolverError):
    def __init__(self, msg: str, trace: "PicardTrace"):
        super().__init__(msg)
        self.trace = trace


class ContractionRatioError(SolverError):
    """A measured ratio exceeded C * slack: coarse discretization or a bug."""

    def __init__(self, msg: str, trace: "PicardTrace"):
        super().__init__(msg)
        self.trace = trace


class ReferenceInstabilityError(SolverError):
    """The cross-validation marcher blew up."""


class MarchWindowError(SolverError):
    def __init__(self, window_index: int, cause: Exception):
        super().__init__(f"window {window_index} failed: {cause}")
        self.window_index = window_index


def phi1(z):
    """(e^z - 1)/z, stably: series below |z| = 1e-4, expm1-based above.

    Scalar in, scalar out; arrays elementwise. Both branches agree to better
    than 1e-14 relative at the seam.
    """
    z = np.asarray(z, dtype=np.complex128)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-4
    zs = z[small]
    out[small] = (
        1.0
        + zs / 2.0
        + zs**2 / 6.0
        + zs**3 / 24.0
        + zs**4 / 120.0
        + zs**5 / 720.0
        + zs**6 / 5040.0
    )
    zb = z[~small]
    out[~small] = _expm1_complex(zb) / zb
    return complex(out[0]) if scalar else out


def _expm1_complex(z: np.ndarray) -> np.ndarray:
    # e^z - 1 without cancellation: real part expm1(x)cos(y) - 2 sin^2(y/2)
    x, y = z.real, z.imag
    return (np.expm1(x) * np.cos(y) - 2.0 * np.sin(y / 2.0) ** 2) + 1j * (
        np.exp(x) * np.sin(y)
    )


def phi2(z):
    """(e^z - 1 - z)/z^2 with a series branch below |z| = 0.5."""
    z = np.asarray(z, dtype=np.complex128)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    small = np.abs(z) < 0.5
    zs = z[small]
    acc = np.full(zs.shape, 0.5, dtype=np.complex128)
    term = np.full(zs.shape, 0.5, dtype=np.complex128)
    for k in range(1, 24):
        term = term * zs / (k + 2)
        acc = acc + term
    out[small] = acc
    zb = z[~small]
    out[~small] = (_expm1_complex(zb) - zb) / zb**2
    return complex(out[0]) if scalar else out


@dataclass(frozen=True, eq=False)
class SymbolTable:
    """Per-mode linear symbol lam(p) = -p^6 + i*b*p + a."""

    grid: SpectralGrid
    a: float
    b: float
    lam: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=np.complex128)
        lam.flags.writeable = False
        object.__setattr__(self, "lam", lam)

    def propagator(self, t: float) -> np.ndarray:
        """e^{t*lam(p_j)}."""
        return np.exp(t * self.lam)


def build_symbol(grid: SpectralGrid, a: float, b: float) -> SymbolTable:
    if a < 0:
        raise ValueError(f"a must be nonnegative, got {a}")
    p = grid.wavenumbers
    lam = -(p**6) + 1j * b * p + a
    return SymbolTable(grid=grid, a=float(a), b=float(b), lam=lam)


def propagate(f: Field, sym: SymbolTable, t: float) -> Field:
    """Multiply a spectral field by e^{t*lam}; identity at t = 0."""
    if f.rep != "spectral":
        raise RepresentationError("propagate expects a spectral field")
    if t < 0:
        raise ValueError(f"propagation time must be nonnegative, got {t}")
    if t == 0:
        return f
    return Field(f.grid, sym.propagator(t) * f.values, "spectral")


@dataclass(frozen=True, eq=False)
class _Window:
    """What the mild-solution map needs on one window, computed once per window
    on the half spectrum (modes 0..N/2):

    the initial coefficients u0 in ``rfft_raw`` units, the recursion's
    per-mode factors e_dt = e^{dt lam}, w_prev = g dt (phi1 - phi2)(dt lam)
    and w_next = g dt phi2(dt lam), the convolution factor g = sqrt(2 pi) Ghat
    and the symbol lam itself.
    """

    u0: np.ndarray
    e_dt: np.ndarray
    w_prev: np.ndarray
    w_next: np.ndarray
    g: np.ndarray
    lam: np.ndarray


def _window(prob: ProblemSpec, dt: float) -> _Window:
    grid = prob.grid
    sym = build_symbol(grid, prob.a, prob.b)
    half = slice(0, grid.n_half)
    lam = sym.lam[half]
    z = dt * lam
    g = SQRT_2PI * prob.kernel.spectrum_on(grid)[half]
    return _Window(
        u0=rfft_raw(prob.u0.values.real),
        e_dt=sym.propagator(dt)[half],
        w_prev=g * (dt * (phi1(z) - phi2(z))),
        w_next=g * (dt * phi2(z)),
        g=g,
        lam=lam,
    )


def _forcing_history(frames: np.ndarray, prob: ProblemSpec) -> np.ndarray:
    """Transforms of F(v(., t_j), .) for every frame, on modes 0..N/2:
    (M+1, N/2+1) half-spectrum frames in, the same shape out, both in
    ``rfft_raw`` units."""
    grid = prob.grid
    phys = irfft_raw(grid, frames)
    fh = rfft_raw(apply_nonlinearity(phys, prob.nonlinearity, grid))
    if not np.all(np.isfinite(fh)):
        raise SolverError("forcing history contains non-finite values")
    return fh


def _recursion(fh: np.ndarray, w: _Window, out: np.ndarray | None = None) -> np.ndarray:
    """u_{j+1} = e^{dt lam} u_j + w_prev f_j + w_next f_{j+1}, u_0 = u0, into ``out``.

    Per block of frames (``block_rows``): the forcing terms of all its
    substeps in one pass into the output, then only u_{j+1} += e^{dt lam} u_j
    frame by frame, in place.
    """
    u = np.empty_like(fh) if out is None else out
    m, step = fh.shape[0] - 1, block_rows(fh)
    scratch = np.empty((step,) + fh.shape[1:], dtype=np.complex128)
    u[0] = w.u0
    for s in range(0, m, step):
        e = min(s + step, m)
        nxt = u[s + 1 : e + 1]
        np.multiply(w.w_prev, fh[s:e], out=nxt)
        nxt += np.multiply(w.w_next, fh[s + 1 : e + 1], out=scratch[: e - s])
        for j in range(s, e):
            u[j + 1] += np.multiply(w.e_dt, u[j], out=scratch[0])
    return u


def duhamel_map(
    v: np.ndarray, prob: ProblemSpec, window: _Window, out: np.ndarray | None = None
):
    """One application of the mild-solution map to the trajectory v.

    Walks the frames with the semigroup recursion

        u_{j+1} = e^{dt lam} u_j
                + sqrt(2 pi) Ghat * dt * [(phi1 - phi2) f_j + phi2 f_{j+1}],

    which is the windowed integral with fhat_v interpolated linearly on each
    substep and the exponential integrated exactly.

    v is the (M+1, N/2+1) array of half-spectrum frames of a real trajectory
    on ``prob.grid``, in ``rfft_raw`` units, and ``window`` the data
    ``_window`` computes for its frame spacing. Returns the image u, of the
    same shape and units (written into ``out`` if given), and the forcing
    transforms fh it was built from, with which ``time_derivative`` forms
    du/dt algebraically.
    """
    fh = _forcing_history(v, prob)
    return _recursion(fh, window, out), fh


def time_derivative(
    u: np.ndarray, fh: np.ndarray, window: _Window, out: np.ndarray | None = None
) -> np.ndarray:
    """Exact algebraic du_hat/dt = lam*u_hat + sqrt(2 pi)*Ghat*fhat.

    u and fh are the half-spectrum image and forcing history ``duhamel_map``
    returned, in one unit (the map is diagonal, so either unit); no finite
    differencing is ever involved. Formed block by block of frames
    (``block_rows``), into ``out`` if given.
    """
    fh = np.asarray(fh)
    if fh.shape != u.shape:
        raise ValueError(f"forcing history shape {fh.shape} does not match frames {u.shape}")
    du = np.empty_like(u) if out is None else out
    n_rows, step = u.shape[0], block_rows(u)
    scratch = np.empty((step,) + u.shape[1:], dtype=np.complex128)
    for s in range(0, n_rows, step):
        e = min(s + step, n_rows)
        np.multiply(window.lam, u[s:e], out=du[s:e])
        du[s:e] += np.multiply(window.g, fh[s:e], out=scratch[: e - s])
    return du


@dataclass(frozen=True, eq=False)
class PicardTrace:
    """Per-iteration contraction-norm distances and their measured ratios.

    ratios[n] = distances[n+1]/distances[n]; entries are NaN where the ratio
    is not reported (last iteration, or the base distance already sits at the
    noise floor 10*eps*d_1).
    """

    distances: np.ndarray
    ratios: np.ndarray
    iterations: int
    converged: bool

    def reported_ratios(self) -> np.ndarray:
        return self.ratios[np.isfinite(self.ratios)]


@dataclass(eq=False)
class SolveReport:
    """Everything a window solve produced, plus diagnostics.

    The solution and its time derivative are kept as the (M+1, N/2+1) half
    spectra ``u_half`` and ``dudt_half`` on ``time_grid``; ``field`` and
    ``dudt`` expand them to full-spectrum ``SpacetimeField``s on every access
    (uncached, so a caller holding many reports holds no full spectra).

    In every window after the first, ``dudt_l2_per_frame[0]`` (the first
    data row of ``norms_w<k>.csv``) is rounding noise times p^6, not a
    measurement: the window starts from the previous end state through an
    irfft/rfft round trip, whose ~1e-17 relative noise in the top modes is
    multiplied by lam ~ -p^6 (about -1e15 at N = 8192, L = 40). The Picard
    distances do not see it, since lam * u0 cancels in their differences.
    """

    grid: SpectralGrid
    time_grid: np.ndarray
    u_half: np.ndarray
    dudt_half: np.ndarray
    trace: PicardTrace
    certificate: Certificate
    t_offset: float
    l2_per_frame: np.ndarray
    d6_l2_per_frame: np.ndarray
    dudt_l2_per_frame: np.ndarray
    tail_warnings: tuple[str, ...]
    oracle_rel_deviation: float | None = None
    overlap: float | None = None

    @property
    def field(self) -> SpacetimeField:
        return SpacetimeField(self.grid, self.time_grid, hermitian_expand(self.grid, self.u_half))

    @property
    def dudt(self) -> SpacetimeField:
        return SpacetimeField(
            self.grid, self.time_grid, hermitian_expand(self.grid, self.dudt_half)
        )

    @property
    def final_state(self) -> Field:
        return Field(self.grid, hermitian_expand(self.grid, self.u_half[-1]), "spectral")


def _frame_norms(grid: SpectralGrid, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame ||u|| and ||d^6 u/dx^6|| of unitary half-spectrum frames."""
    return np.sqrt(half_sq_norms(grid, frames)), np.sqrt(half_sq_norms(grid, frames, "d6"))


def _tail_check(grid: SpectralGrid, frames: np.ndarray, t_offset: float) -> tuple[str, ...]:
    warnings_out = []
    fractions = [
        tail_mass_fraction(Field(grid, inverse_real(grid, frames[j]))) for j in (0, -1)
    ]
    worst = max(fractions)
    if worst > TAIL_TOL:
        warnings_out.append(
            f"tail mass fraction {worst:.3e} exceeds {TAIL_TOL:g} on the window "
            f"starting at t = {t_offset:g}; the box truncation is suspect"
        )
    return tuple(warnings_out)


def picard_solve(
    prob: ProblemSpec,
    window_length: float,
    cert: Certificate,
    tol_fix: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    n_frames: int = DEFAULT_FRAMES,
    override_certificate: bool = False,
    t_offset: float = 0.0,
) -> SolveReport:
    """Iterate the mild-solution map to its fixed point on one window.

    Starts from the pure propagation of the initial state (the exact solution
    of the reaction-free problem) and stops when the contraction-norm distance
    between consecutive iterates falls below tol_fix (default
    1e-10 * max(1, norm of the first iterate)). With a valid certificate every
    measured ratio must stay below C * 1.05; a violation is raised as a
    defect, not smoothed over.

    The iteration runs on plain (M+1, N/2+1) half-spectrum arrays in
    ``rfft_raw`` units: per iterate one call each of ``duhamel_map`` (one
    batched real transform pair around one reaction call) and
    ``time_derivative``, with the window's weights computed once. Two pairs
    of trajectory buffers take turns: an iterate is written into the buffers
    of the one before its predecessor, and its distance to the predecessor
    is summed frame by frame, so no difference is stored. The report keeps
    the last iterate's arrays, converted in place to unitary coefficients.
    """
    if window_length <= 0:
        raise ValueError(f"window length must be positive, got {window_length}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not cert.valid:
        if not override_certificate:
            raise CertificateRefusedError(
                f"contraction constant C = {cert.constant:.6g} >= 1; "
                "refusing to iterate (pass override_certificate=True to force)"
            )
        warnings.warn(
            f"OVERRIDE: iterating without a valid certificate (C = {cert.constant:.6g}); "
            "convergence is not guaranteed and results are experimental",
            stacklevel=2,
        )
    grid = prob.grid
    tg = np.linspace(0.0, window_length, n_frames + 1)
    tw = trapezoid_weights(tg)
    w = _window(prob, float(tg[1] - tg[0]))

    u_prev = np.exp(np.outer(tg, w.lam)) * w.u0[None, :]
    dudt_prev = w.lam[None, :] * u_prev
    spare_u = spare_dudt = None

    distances: list[float] = []
    tol = tol_fix
    converged = False
    for _ in range(max_iter):
        u_new, fh = duhamel_map(u_prev, prob, w, out=spare_u)
        dudt_new = time_derivative(u_new, fh, w, out=spare_dudt)
        del fh  # dead: let the next iterate's transforms take its memory
        d = raw_contraction_norm(grid, tw, u_new, dudt_new, minus=(u_prev, dudt_prev))
        distances.append(d)
        if tol is None:
            first_norm = raw_contraction_norm(grid, tw, u_new, dudt_new)
            tol = 1e-10 * max(1.0, first_norm)
        if d < tol:
            converged = True
            break
        # the previous iterate is dead: its buffers take the next one
        spare_u, spare_dudt, u_prev, dudt_prev = u_prev, dudt_prev, u_new, dudt_new

    dists = np.asarray(distances)
    ratios = np.full(dists.shape, np.nan)
    if dists.size >= 2:
        floor = 10.0 * np.finfo(float).eps * dists[0]
        base_ok = dists[:-1] > floor
        ratios[:-1] = np.where(base_ok, dists[1:] / dists[:-1], np.nan)
    trace = PicardTrace(
        distances=dists,
        ratios=ratios,
        iterations=len(distances),
        converged=converged,
    )
    if not converged:
        raise PicardConvergenceError(
            f"no fixed point within {max_iter} iterations "
            f"(last distance {dists[-1]:.3e}, tol {tol:.3e})",
            trace,
        )
    if cert.valid:
        reported = trace.reported_ratios()
        if reported.size and np.max(reported) > cert.constant * RATIO_SLACK:
            raise ContractionRatioError(
                f"measured ratio {np.max(reported):.6g} exceeds "
                f"C * {RATIO_SLACK} = {cert.constant * RATIO_SLACK:.6g}; "
                "discretization too coarse or a defect",
                trace,
            )

    raw_to_unitary(grid, u_new, out=u_new)
    raw_to_unitary(grid, dudt_new, out=dudt_new)
    l2, d6 = _frame_norms(grid, u_new)
    dudt_l2 = np.sqrt(half_sq_norms(grid, dudt_new))
    for arr in (tg, u_new, dudt_new):
        arr.flags.writeable = False
    return SolveReport(
        grid=grid,
        time_grid=tg,
        u_half=u_new,
        dudt_half=dudt_new,
        trace=trace,
        certificate=cert,
        t_offset=t_offset,
        l2_per_frame=l2,
        d6_l2_per_frame=d6,
        dudt_l2_per_frame=dudt_l2,
        tail_warnings=_tail_check(grid, u_new, t_offset),
    )


def etd_reference_solve(
    prob: ProblemSpec,
    window_length: float,
    substeps: int,
    n_frames: int = DEFAULT_FRAMES,
    starts: np.ndarray | None = None,
) -> SpacetimeField | np.ndarray:
    """Independent cross-validation marcher: integrating-factor Heun.

    Advances u_hat with the two-stage scheme

        pred   = e^{h lam} (u_n + h N_n)
        u_next = e^{h lam} u_n + (h/2) (e^{h lam} N_n + N(pred)),

    N(u) = sqrt(2 pi) Ghat fhat_u. Genuinely second order (including against
    constant forcing, where the mild-solution quadrature is exact), and free
    of phi-weights by design so the two solvers share no quadrature path.

    One march advances a (K, N/2+1) block of independent half-spectrum
    states: per substep two calls of the array form of
    ``apply_nonlinearity``, each on all K rows through one real transform
    pair, and a blowup check of every row against its own initial norm.
    Without ``starts`` the block is the single state ``prob.u0`` and the
    result is its ``SpacetimeField`` of n_frames + 1 frames. ``starts`` is a
    (K, N) array of real initial states, row r the start of window r of a
    march; the result is then only the (K, N/2+1) array of end states, and a
    failure is raised as ``global_march`` raises window r's: the lowest
    failing row wins, whatever substep it fails at, and the rows below it are
    still checked to the end. A failure reads as it does for one state: on a
    model error the substep is repeated row by row, and a substep count that
    fails the preconditions fails row 0.
    """
    grid = prob.grid
    batch = starts is not None
    u0 = np.asarray(starts, dtype=np.float64) if batch else prob.u0.values.real[None, :]
    if u0.ndim != 2 or u0.shape[0] < 1 or u0.shape[1] != grid.n_points:
        raise ValueError(
            f"starts must be a (K, {grid.n_points}) array with K >= 1, got shape {u0.shape}"
        )
    frames, ends, failure = _heun_march(prob, window_length, substeps, n_frames, u0, batch)
    if failure is not None:
        if batch:
            _raise_window_failure(*failure)
        raise failure[1]
    if batch:
        return ends
    tg = np.linspace(0.0, window_length, n_frames + 1)
    return SpacetimeField(grid, tg, hermitian_expand(grid, frames))


def _heun_march(
    prob: ProblemSpec,
    window_length: float,
    substeps: int,
    n_frames: int,
    u0: np.ndarray,
    batch: bool,
):
    """The marcher of ``etd_reference_solve`` on the (K, N) real states u0.

    Returns the frames of row 0 (None if ``batch``), the end states and the
    (row, error) of the lowest failing row, or None; the states mean nothing
    after a failure. Once a row fails, only the rows below it march on, to
    the end, since one of them may still fail. A substep count that fails
    the preconditions fails every row, so row 0.
    """
    if substeps < 4 * n_frames:
        return None, None, (0, ValueError(
            f"substeps = {substeps} must be at least 4x the frame count {n_frames}"
        ))
    if substeps % n_frames != 0:
        return None, None, (0, ValueError(
            "substeps must be an integer multiple of the frame count"
        ))
    grid = prob.grid
    half = slice(0, grid.n_half)
    sym = build_symbol(grid, prob.a, prob.b)
    g = SQRT_2PI * prob.kernel.spectrum_on(grid)[half]
    h = window_length / substeps
    e_h = sym.propagator(h)[half]

    def reaction(u_hat: np.ndarray) -> np.ndarray:
        phys = inverse_real(grid, u_hat)
        return g * forward_real(grid, apply_nonlinearity(phys, prob.nonlinearity, grid))

    def heun_step(u_hat: np.ndarray) -> np.ndarray:
        nn = reaction(u_hat)
        pred = e_h * (u_hat + h * nn)
        return e_h * u_hat + 0.5 * h * (e_h * nn + reaction(pred))

    def l2(u_hat: np.ndarray) -> np.ndarray:
        return np.sqrt(half_sq_norms(grid, u_hat))

    u_hat = forward_real(grid, u0)
    stride = substeps // n_frames
    frames = None
    if not batch:
        frames = np.empty((n_frames + 1, grid.n_half), dtype=np.complex128)
        frames[0] = u_hat[0]
    scale0 = l2(u_hat)
    blowup_ref = None
    failure = None
    for n in range(substeps):
        try:
            u_next = heun_step(u_hat)
        except ModelEvaluationError as exc:
            # step the rows one at a time, each as one (N,) state so that its
            # error names no frame, up to the lowest failing one
            done = []
            for r, row in enumerate(u_hat):
                try:
                    done.append(heun_step(row))
                except ModelEvaluationError as row_exc:
                    failure = (r, row_exc)
                    break
            else:
                raise exc  # no row fails alone: F is not pointwise
            if not done:
                break
            u_next = np.stack(done)
        norm_now = l2(u_next)
        if blowup_ref is None:
            blowup_ref = np.fmax(np.fmax(scale0[: len(u_next)], norm_now), 1e-12)
        ref = blowup_ref[: len(u_next)]
        bad = ~(np.isfinite(norm_now) & (norm_now <= 1e8 * ref))
        if np.any(bad):
            r = int(np.argmax(bad))
            failure = (r, ReferenceInstabilityError(
                f"reference marcher unstable at step {n + 1}: "
                f"norm {norm_now[r]:.3e} vs initial {ref[r]:.3e}"
            ))
            if r == 0:
                break
            u_next = u_next[:r]
        u_hat = u_next
        if frames is not None and (n + 1) % stride == 0:
            frames[(n + 1) // stride] = u_hat[0]
    return frames, u_hat, failure


def _raise_window_failure(k: int, exc: Exception):
    """Raise window k's failure the way ``global_march`` reports it: a solver
    or value error wrapped in ``MarchWindowError(k)``, anything else (a
    ``ModelEvaluationError``) as it is."""
    if isinstance(exc, (SolverError, ValueError)):
        raise MarchWindowError(k, exc) from exc
    raise exc


def march_schedule(
    t_total: float,
    q: float,
    ell: float,
    a: float,
    b: float,
    safety: float = 0.9,
    max_window_length: float | None = None,
    override_certificate: bool = False,
) -> WindowSchedule:
    """The window schedule ``global_march`` runs: the certified one of
    ``window_schedule``, or, when no certified window exists, uniform windows
    of ``max_window_length`` if the caller overrides the certificate and
    gives that length; otherwise ``NoAdmissibleWindow`` is raised."""
    try:
        return window_schedule(
            t_total, q, ell, a, b, safety=safety, max_window_length=max_window_length
        )
    except NoAdmissibleWindow:
        if not (override_certificate and max_window_length):
            raise
        # experimental path: no certified window exists, but the caller
        # insists and supplies a window length of their own
        return WindowSchedule(
            t_total=float(t_total),
            t_w=float(max_window_length),
            count=max(1, math.ceil(t_total / max_window_length)),
            safety=safety,
        )


def global_march(
    prob: ProblemSpec,
    t_total: float,
    safety: float = 0.9,
    n_frames: int = DEFAULT_FRAMES,
    tol_fix: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    max_window_length: float | None = None,
    override_certificate: bool = False,
    run_oracle: bool = False,
    oracle_substeps_factor: int = 4,
) -> list[SolveReport]:
    """Chain certified windows across the whole horizon.

    The contraction constant does not depend on the initial state, so one
    certificate (at the uniform marching window length) covers every window;
    what is re-checked per window is the part the analysis cannot see, the
    box-truncation tail mass. The final report carries the support-overlap
    measure for the nontriviality criterion.

    Order of work: the Picard chain runs until every window is solved or
    one fails, keeping each window's start state; with ``run_oracle`` one
    batched ``etd_reference_solve`` then marches the windows that were
    solved, and each window's ``oracle_rel_deviation`` compares its Picard
    end state with its oracle end state. The first failure in the
    sequential order (Picard 0, oracle 0, Picard 1, ...) is raised: an
    oracle failure at window k < j beats a Picard failure at window j, and
    the lowest failing oracle window wins, whatever substep it failed at. A
    solver or value error is raised as ``MarchWindowError(k)``, a
    ``ModelEvaluationError`` as it is.
    """
    validate_kernel(prob.kernel, prob.grid)
    q = kernel_strength(prob.kernel)
    ell = prob.nonlinearity.lipschitz_l
    schedule = march_schedule(
        t_total, q, ell, prob.a, prob.b, safety, max_window_length, override_certificate
    )
    t_win = schedule.window_length
    cert = Certificate.for_window(q, ell, prob.a, prob.b, t_win)
    reports: list[SolveReport] = []
    starts: list[np.ndarray] = []
    failed = None
    current = prob
    for k in range(schedule.count):
        try:
            rep = picard_solve(
                current,
                t_win,
                cert,
                tol_fix=tol_fix,
                max_iter=max_iter,
                n_frames=n_frames,
                override_certificate=override_certificate,
                t_offset=k * t_win,
            )
            reports.append(rep)
            starts.append(current.u0.values.real)
            end_state = inverse_real(prob.grid, rep.u_half[-1])
            current = dc_replace(current, u0=Field(prob.grid, end_state))
        except Exception as exc:
            failed = (k, exc)
            break
    if run_oracle and reports:
        # raises the failure of the first failing window, which comes before
        # the Picard failure in march order
        ends = etd_reference_solve(
            prob, t_win, oracle_substeps_factor * n_frames, n_frames, starts=np.stack(starts)
        )
        for rep, end in zip(reports, ends):
            diff = hermitian_expand(prob.grid, rep.u_half[-1] - end)
            num = l2_norm(Field(prob.grid, diff, "spectral"))
            den = l2_norm(rep.final_state)
            rep.oracle_rel_deviation = num / den if den > 0 else num
    if failed is not None:
        _raise_window_failure(*failed)
    reports[-1].overlap = nontriviality_overlap(
        prob.kernel, prob.nonlinearity, prob.grid
    )
    return reports
