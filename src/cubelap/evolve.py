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
batched real transform pair (``inverse_real`` / ``forward_real``) around one
``apply_nonlinearity`` call on the real (M+1, N) samples, and norms weight
each stored mode by its multiplicity in the full spectrum. The Picard loop
calls ``duhamel_map`` and ``time_derivative`` in their array form, with the
window's half-spectrum weights computed once (``_window``). Given
``SpacetimeField`` arguments instead, the same two functions read modes
0..N/2, compute the weights themselves and return full-spectrum
``SpacetimeField``s. ``Field`` and ``SpacetimeField`` (full spectrum, as in
the ``SXD1`` dump) appear only at the API edge and in the ``SolveReport``.
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
    forward_real,
    hermitian_expand,
    inverse_real,
    l2_norm,
    sobolev_norm_array,
    tail_mass_fraction,
)
from .model import (
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
    """Per-mode linear symbol lam(p) = -p^6 + i*b*p + a with propagator cache."""

    grid: SpectralGrid
    a: float
    b: float
    lam: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=np.complex128)
        lam.flags.writeable = False
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "_exp_cache", {})

    def propagator(self, t: float) -> np.ndarray:
        """e^{t*lam(p_j)}; cached per t since windows reuse one substep."""
        key = float(t)
        cached = self._exp_cache.get(key)
        if cached is None:
            cached = np.exp(key * self.lam)
            cached.flags.writeable = False
            self._exp_cache[key] = cached
        return cached


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

    the initial coefficients u0_hat, the recursion's per-mode factors
    e_dt = e^{dt lam}, w_prev = dt (phi1 - phi2)(dt lam), w_next = dt phi2(dt lam),
    the convolution factor g = sqrt(2 pi) Ghat and the symbol lam itself.
    """

    u0_hat: np.ndarray
    e_dt: np.ndarray
    w_prev: np.ndarray
    w_next: np.ndarray
    g: np.ndarray
    lam: np.ndarray


def _window(grid: SpectralGrid, prob: ProblemSpec, sym: SymbolTable, dt: float) -> _Window:
    half = slice(0, grid.n_half)
    lam = sym.lam[half]
    z = dt * lam
    return _Window(
        u0_hat=forward_real(grid, prob.u0.values.real),
        e_dt=sym.propagator(dt)[half],
        w_prev=dt * (phi1(z) - phi2(z)),
        w_next=dt * phi2(z),
        g=SQRT_2PI * prob.kernel.spectrum_on(grid)[half],
        lam=lam,
    )


def _forcing_history(grid: SpectralGrid, frames: np.ndarray, prob: ProblemSpec) -> np.ndarray:
    """Transforms of F(v(., t_j), .) for every frame, on modes 0..N/2:
    (M+1, N/2+1) half-spectrum frames in, the same shape out."""
    phys = inverse_real(grid, frames)
    fh = forward_real(grid, apply_nonlinearity(phys, prob.nonlinearity, grid))
    if not np.all(np.isfinite(fh)):
        raise SolverError("forcing history contains non-finite values")
    return fh


def _recursion(fh: np.ndarray, w: _Window) -> np.ndarray:
    """u_{j+1} = e^{dt lam} u_j + g [w_prev f_j + w_next f_{j+1}], u_0 = u0_hat."""
    u = np.empty_like(fh)
    u[0] = w.u0_hat
    for j in range(fh.shape[0] - 1):
        u[j + 1] = w.e_dt * u[j] + w.g * (w.w_prev * fh[j] + w.w_next * fh[j + 1])
    return u


def duhamel_map(
    v,
    prob: ProblemSpec,
    sym: SymbolTable,
    return_history: bool = False,
    window: _Window | None = None,
):
    """One application of the mild-solution map to the trajectory v.

    Walks the frames with the semigroup recursion

        u_{j+1} = e^{dt lam} u_j
                + sqrt(2 pi) Ghat * dt * [(phi1 - phi2) f_j + phi2 f_{j+1}],

    which is the windowed integral with fhat_v interpolated linearly on each
    substep and the exponential integrated exactly. With return_history the
    forcing transforms are handed back so the time derivative of the result
    can be formed algebraically.

    v is a ``SpacetimeField`` of a real trajectory, of which modes 0..N/2
    are read, and the result is a full-spectrum ``SpacetimeField`` with a
    full-spectrum forcing history. Given ``window``, v is instead the plain
    (M+1, N/2+1) array of half-spectrum frames on ``prob.grid`` with the
    window's precomputed data, and the result and history are half-spectrum
    arrays too (the form ``picard_solve`` iterates).
    """
    if window is None:
        grid = v.grid
        fh = _forcing_history(grid, v.frames[:, : grid.n_half], prob)
        u = _recursion(fh, _window(grid, prob, sym, v.dt))
        out = SpacetimeField(grid, v.time_grid, hermitian_expand(grid, u))
        fh = hermitian_expand(grid, fh)
    else:
        fh = _forcing_history(prob.grid, v, prob)
        out = _recursion(fh, window)
    if return_history:
        return out, fh
    return out


def time_derivative(
    u,
    prob: ProblemSpec,
    sym: SymbolTable,
    f_hat_history: np.ndarray,
    window: _Window | None = None,
):
    """Exact algebraic du_hat/dt = lam*u_hat + sqrt(2 pi)*Ghat*fhat.

    Requires the forcing history saved from the map application that produced
    u; no finite differencing is ever involved. As in ``duhamel_map``, u is a
    ``SpacetimeField`` (modes 0..N/2 of u and of the full-spectrum history are
    read, and the result is expanded to the full spectrum) unless ``window``
    is given, and then u and the history are half-spectrum arrays.
    """
    if f_hat_history is None:
        raise ValueError("forcing history is required; rerun the map with return_history")
    frames = u.frames if window is None else u
    fh = np.asarray(f_hat_history)
    if fh.shape != frames.shape:
        raise ValueError(
            f"forcing history shape {fh.shape} does not match frames {frames.shape}"
        )
    if window is None:
        grid = u.grid
        half = slice(0, grid.n_half)
        g = SQRT_2PI * prob.kernel.spectrum_on(grid)[half]
        dudt = sym.lam[None, half] * frames[:, half] + g[None, :] * fh[:, half]
        return SpacetimeField(grid, u.time_grid, hermitian_expand(grid, dudt))
    return window.lam[None, :] * frames + window.g[None, :] * fh


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
    """Everything a window solve produced, plus diagnostics."""

    field: SpacetimeField
    dudt: SpacetimeField
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
    def final_state(self) -> Field:
        return self.field.frame(self.field.n_frames - 1)


def _frame_norms(grid: SpectralGrid, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame ||u|| and ||d^6 u/dx^6|| of half-spectrum frames."""
    energy = grid._half_weights * np.abs(frames) ** 2
    l2 = np.sqrt(np.sum(energy, axis=1) * grid.dp)
    d6 = np.sqrt(np.sum(grid._p12[: grid.n_half] * energy, axis=1) * grid.dp)
    return l2, d6


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

    The iteration runs on plain (M+1, N/2+1) half-spectrum arrays: per
    iterate one call each of ``duhamel_map`` (one batched real transform pair
    around one reaction call) and ``time_derivative`` in their array form,
    with the window's weights computed once. The report's full-spectrum
    fields are expanded once, from the last iterate.
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
    sym = build_symbol(grid, prob.a, prob.b)
    tg = np.linspace(0.0, window_length, n_frames + 1)
    w = _window(grid, prob, sym, float(tg[1] - tg[0]))

    u_prev = np.exp(np.outer(tg, w.lam)) * w.u0_hat[None, :]
    dudt_prev = w.lam[None, :] * u_prev

    distances: list[float] = []
    tol = tol_fix
    converged = False
    for _ in range(max_iter):
        u_new, fh = duhamel_map(u_prev, prob, sym, return_history=True, window=w)
        dudt_new = time_derivative(u_new, prob, sym, fh, window=w)
        d = sobolev_norm_array(grid, tg, u_new - u_prev, dudt_new - dudt_prev)
        distances.append(d)
        if tol is None:
            first_norm = sobolev_norm_array(grid, tg, u_new, dudt_new)
            tol = 1e-10 * max(1.0, first_norm)
        if d < tol:
            converged = True
            break
        u_prev, dudt_prev = u_new, dudt_new

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

    l2, d6 = _frame_norms(grid, u_new)
    dudt_l2, _ = _frame_norms(grid, dudt_new)
    return SolveReport(
        field=SpacetimeField(grid, tg, hermitian_expand(grid, u_new)),
        dudt=SpacetimeField(grid, tg, hermitian_expand(grid, dudt_new)),
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
) -> SpacetimeField:
    """Independent cross-validation marcher: integrating-factor Heun.

    Advances u_hat with the two-stage scheme

        pred   = e^{h lam} (u_n + h N_n)
        u_next = e^{h lam} u_n + (h/2) (e^{h lam} N_n + N(pred)),

    N(u) = sqrt(2 pi) Ghat fhat_u. Genuinely second order (including against
    constant forcing, where the mild-solution quadrature is exact), and free
    of phi-weights by design so the two solvers share no quadrature path.
    Each substep works on the raw (N/2+1,) half-spectrum coefficients through
    the real transforms and the array form of ``apply_nonlinearity``, and
    checks the L2 norm for blowup.
    """
    if substeps < 4 * n_frames:
        raise ValueError(
            f"substeps = {substeps} must be at least 4x the frame count {n_frames}"
        )
    if substeps % n_frames != 0:
        raise ValueError("substeps must be an integer multiple of the frame count")
    grid = prob.grid
    half = slice(0, grid.n_half)
    sym = build_symbol(grid, prob.a, prob.b)
    g = SQRT_2PI * prob.kernel.spectrum_on(grid)[half]
    h = window_length / substeps
    e_h = sym.propagator(h)[half]

    def reaction(u_hat: np.ndarray) -> np.ndarray:
        phys = inverse_real(grid, u_hat)
        return g * forward_real(grid, apply_nonlinearity(phys, prob.nonlinearity, grid))

    def l2(u_hat: np.ndarray) -> float:
        return float(np.sqrt(np.sum(grid._half_weights * np.abs(u_hat) ** 2) * grid.dp))

    u_hat = forward_real(grid, prob.u0.values.real)
    stride = substeps // n_frames
    frames = np.empty((n_frames + 1, grid.n_half), dtype=np.complex128)
    frames[0] = u_hat
    scale0 = l2(u_hat)
    blowup_ref = None
    for n in range(substeps):
        nn = reaction(u_hat)
        pred = e_h * (u_hat + h * nn)
        u_hat = e_h * u_hat + 0.5 * h * (e_h * nn + reaction(pred))
        norm_now = l2(u_hat)
        if blowup_ref is None:
            blowup_ref = max(scale0, norm_now, 1e-12)
        if not np.isfinite(norm_now) or norm_now > 1e8 * blowup_ref:
            raise ReferenceInstabilityError(
                f"reference marcher unstable at step {n + 1}: "
                f"norm {norm_now:.3e} vs initial {blowup_ref:.3e}"
            )
        if (n + 1) % stride == 0:
            frames[(n + 1) // stride] = u_hat
    tg = np.linspace(0.0, window_length, n_frames + 1)
    return SpacetimeField(grid, tg, hermitian_expand(grid, frames))


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
    """
    validate_kernel(prob.kernel, prob.grid)
    q = kernel_strength(prob.kernel)
    ell = prob.nonlinearity.lipschitz_l
    try:
        schedule: WindowSchedule = window_schedule(
            t_total, q, ell, prob.a, prob.b, safety=safety,
            max_window_length=max_window_length,
        )
    except NoAdmissibleWindow:
        if not (override_certificate and max_window_length):
            raise
        # experimental path: no certified window exists, but the caller
        # insists and supplies a window length of their own
        count = max(1, math.ceil(t_total / max_window_length))
        schedule = WindowSchedule(
            t_total=float(t_total),
            t_w=float(max_window_length),
            count=count,
            safety=safety,
        )
    t_win = schedule.window_length
    cert = Certificate.for_window(q, ell, prob.a, prob.b, t_win)
    reports: list[SolveReport] = []
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
            if run_oracle:
                ref = etd_reference_solve(
                    current, t_win, oracle_substeps_factor * n_frames, n_frames
                )
                num = l2_norm(
                    Field(prob.grid, rep.field.frames[-1] - ref.frames[-1], "spectral")
                )
                den = l2_norm(rep.final_state)
                rep.oracle_rel_deviation = num / den if den > 0 else num
        except (SolverError, ValueError) as exc:
            raise MarchWindowError(k, exc) from exc
        reports.append(rep)
        end_state = inverse_real(prob.grid, rep.field.frames[-1, : prob.grid.n_half])
        current = dc_replace(current, u0=Field(prob.grid, end_state))
    reports[-1].overlap = nontriviality_overlap(
        prob.kernel, prob.nonlinearity, prob.grid
    )
    return reports
