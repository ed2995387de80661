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
(M+1, N/2+1) complex array of those modes, and norms weight each stored
mode by its multiplicity in the full spectrum. Every solver array is in raw
``rfft`` units (``grid.rfft_raw`` / ``grid.irfft_raw``), in which the
transform pair needs no factor: the Picard iterate, whose ``duhamel_map``
and ``time_derivative`` take and return such arrays only, with the
window's half-spectrum weights computed once (``_window``); the
``SolveReport``, which keeps the last iterate; the start state of the next
window, which is the previous report's last frame as it is; and the Heun
oracle. Unitary coefficients, ``Field`` and ``SpacetimeField`` (full
spectrum, as in the ``SXD1`` dump) appear only at the API edge: the
report's ``u_half``, ``dudt_half``, ``field`` and ``dudt`` convert (and
expand) on every access.

The new Picard iterate at frame j needs only the old iterate at frames up
to j and the new one at frame j - 1, so a window solve holds a single
trajectory pair (u, du/dt) and each iterate overwrites its predecessor in
one forward walk over blocks of frames (``grid.block_bounds``): per block,
one batched real transform pair around one ``apply_nonlinearity`` call,
the recursion carried on from the frame before the block, the time
derivative and the block's share of the contraction-norm distance.

The march first runs the certified Picard chain, window after window, since
each window starts from the previous one's end state. The oracle of window k
starts from that same state and reads no other oracle, so once the chain has
run, one Heun march checks every window at once on a (K, N/2+1) block: the
Picard chain is the sequential propagator and the oracle the fine solver of
the parareal split (Lions, Maday & Turinici, 2001). Failures are reported in
the sequential order Picard 0, oracle 0, Picard 1, ...: the first one wins.
The block march stops at its first failure; only then are its windows
marched again one at a time, in order, so that the lowest failing window
is raised with the message of its own march.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

import math

from .certify import Certificate, NoAdmissibleWindow, WindowSchedule, window_schedule
from .grid import (
    Field,
    RepresentationError,
    SpacetimeField,
    SpectralGrid,
    TAIL_TOL,
    block_bounds,
    contraction_sq,
    frame_norms,
    half_sq_norms,
    irfft_raw,
    l2_norm,
    raw_to_unitary,
    rfft_raw,
    tail_mass_fraction,
    trapezoid_weights,
    unitary_spectrum,
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


def _window(prob: ProblemSpec, dt: float, start: np.ndarray | None = None) -> _Window:
    """The window data for frame spacing dt, starting from ``start`` (modes
    0..N/2 in ``rfft_raw`` units) or, by default, from ``prob.u0``."""
    grid = prob.grid
    sym = build_symbol(grid, prob.a, prob.b)
    half = slice(0, grid.n_half)
    lam = sym.lam[half]
    z = dt * lam
    g = SQRT_2PI * prob.kernel.spectrum_on(grid)[half]
    return _Window(
        u0=rfft_raw(prob.u0.values.real) if start is None else start,
        e_dt=sym.propagator(dt)[half],
        w_prev=g * (dt * (phi1(z) - phi2(z))),
        w_next=g * (dt * phi2(z)),
        g=g,
        lam=lam,
    )


def _forcing_history(frames: np.ndarray, prob: ProblemSpec, first_frame: int = 0) -> np.ndarray:
    """Transforms of F(v(., t_j), .) for every frame, on modes 0..N/2:
    (M+1, N/2+1) half-spectrum frames in, the same shape out, both in
    ``rfft_raw`` units. A model error names frame ``first_frame`` + row."""
    grid = prob.grid
    phys = irfft_raw(grid, frames)
    fh = rfft_raw(apply_nonlinearity(phys, prob.nonlinearity, grid, first_frame))
    if not np.all(np.isfinite(fh)):
        raise SolverError("forcing history contains non-finite values")
    return fh


def _recursion(
    fh: np.ndarray,
    w: _Window,
    out: np.ndarray | None = None,
    carry: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """u_{j+1} = e^{dt lam} u_j + w_prev f_j + w_next f_{j+1} into ``out``:
    from u_0 = u0, or, with ``carry = (u, f)`` the state and forcing of the
    frame before fh's first, from that frame on (then every row of fh is a
    step).

    The forcing terms of all steps in one pass into the output, then only
    u_{j+1} += e^{dt lam} u_j frame by frame, in place.
    """
    u = np.empty_like(fh) if out is None else out
    scratch = np.empty_like(fh)
    if carry is None:
        u[0] = w.u0
    else:
        u_c, f_c = carry
        np.multiply(w.w_prev, f_c, out=u[0])
        u[0] += np.multiply(w.w_next, fh[0], out=scratch[0])
        u[0] += np.multiply(w.e_dt, u_c, out=scratch[0])
    nxt = u[1:]
    np.multiply(w.w_prev, fh[:-1], out=nxt)
    nxt += np.multiply(w.w_next, fh[1:], out=scratch[1:])
    for j in range(len(nxt)):
        u[j + 1] += np.multiply(w.e_dt, u[j], out=scratch[0])
    return u


def duhamel_map(
    v: np.ndarray,
    prob: ProblemSpec,
    window: _Window,
    out: np.ndarray | None = None,
    carry: tuple[int, np.ndarray, np.ndarray] | None = None,
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

    With ``carry = (j, u_j, f_j)``, v is instead the block of frames j+1,
    j+2, ... of a trajectory whose frame j has the image u_j and the forcing
    transform f_j: the recursion continues from frame j, and a model error
    names the frame of the trajectory, not of the block.
    """
    first = 0 if carry is None else carry[0] + 1
    fh = _forcing_history(v, prob, first)
    return _recursion(fh, window, out, None if carry is None else carry[1:]), fh


def time_derivative(
    u: np.ndarray, fh: np.ndarray, window: _Window, out: np.ndarray | None = None
) -> np.ndarray:
    """Exact algebraic du_hat/dt = lam*u_hat + sqrt(2 pi)*Ghat*fhat.

    u and fh are the half-spectrum image and forcing history ``duhamel_map``
    returned, in one unit (the map is diagonal, so either unit); no finite
    differencing is ever involved. Written into ``out`` if given.
    """
    fh = np.asarray(fh)
    if fh.shape != u.shape:
        raise ValueError(f"forcing history shape {fh.shape} does not match frames {u.shape}")
    du = np.multiply(window.lam, u, out=out)
    du += np.multiply(window.g, fh)
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

    The solution and its time derivative are kept as the read-only
    (M+1, N/2+1) half spectra ``u_raw`` and ``dudt_raw`` on ``time_grid``, in
    ``rfft_raw`` units. ``u_half`` and ``dudt_half`` convert them to unitary
    coefficients, and ``field`` and ``dudt`` to full-spectrum
    ``SpacetimeField``s (one allocation each, adopted by the field), on
    every access (uncached, so a caller holding many reports holds neither
    unitary nor full spectra).
    """

    grid: SpectralGrid
    time_grid: np.ndarray
    u_raw: np.ndarray
    dudt_raw: np.ndarray
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
    def u_half(self) -> np.ndarray:
        return raw_to_unitary(self.grid, self.u_raw)

    @property
    def dudt_half(self) -> np.ndarray:
        return raw_to_unitary(self.grid, self.dudt_raw)

    @property
    def field(self) -> SpacetimeField:
        return _spacetime_field(self.grid, self.time_grid, self.u_raw)

    @property
    def dudt(self) -> SpacetimeField:
        return _spacetime_field(self.grid, self.time_grid, self.dudt_raw)

    @property
    def final_state(self) -> Field:
        return Field(self.grid, unitary_spectrum(self.grid, self.u_raw[-1]), "spectral")


def _spacetime_field(grid: SpectralGrid, time_grid: np.ndarray, raw: np.ndarray) -> SpacetimeField:
    """The ``SpacetimeField`` of half-spectrum frames in ``rfft_raw`` units,
    around their full spectrum with no copy."""
    full = unitary_spectrum(grid, raw)
    full.flags.writeable = False
    return SpacetimeField(grid, time_grid, full)


def _tail_check(grid: SpectralGrid, frames: np.ndarray, t_offset: float) -> tuple[str, ...]:
    warnings_out = []
    fractions = [
        tail_mass_fraction(Field(grid, irfft_raw(grid, frames[j]))) for j in (0, -1)
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
    start: np.ndarray | None = None,
) -> SolveReport:
    """Iterate the mild-solution map to its fixed point on one window.

    Starts from the pure propagation of the initial state (the exact solution
    of the reaction-free problem) and stops when the contraction-norm distance
    between consecutive iterates falls below tol_fix (default
    1e-10 * max(1, norm of the first iterate)). With a valid certificate every
    measured ratio must stay below C * 1.05; a violation is raised as a
    defect, not smoothed over. The initial state is ``prob.u0``, or
    ``start``: modes 0..N/2 in ``rfft_raw`` units, as a previous window's
    ``u_raw[-1]``, used as they are.

    The iteration holds one trajectory pair, the (M+1, N/2+1) half-spectrum
    arrays u and du/dt in ``rfft_raw`` units, and each iterate overwrites
    its predecessor in one forward walk over blocks of frames
    (``_picard_iterate``), with the window's weights computed once. The
    report keeps the last iterate's arrays as they are.
    """
    if window_length <= 0:
        raise ValueError(f"window length must be positive, got {window_length}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if start is not None and (
        start.shape != (prob.grid.n_half,) or not np.all(np.isfinite(start))
    ):
        raise ValueError(
            f"start must be {prob.grid.n_half} finite modes, got shape {start.shape}"
        )
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
    w = _window(prob, float(tg[1] - tg[0]), start)

    # the first iterate e^{t_j lam} u0 and its derivative, built in place
    u = np.multiply.outer(tg, w.lam)
    np.exp(u, out=u)
    u *= w.u0
    dudt = np.multiply(w.lam, u)

    distances: list[float] = []
    tol = tol_fix
    converged = False
    for _ in range(max_iter):
        dist_sq, norm_sq = _picard_iterate(u, dudt, prob, w, with_norm=tol is None)
        d = float(np.sqrt(tw @ dist_sq))
        distances.append(d)
        if tol is None:
            tol = 1e-10 * max(1.0, float(np.sqrt(tw @ norm_sq)))
        if d < tol:
            converged = True
            break

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

    for arr in (tg, u, dudt):
        arr.flags.writeable = False
    return SolveReport(
        grid=grid,
        time_grid=tg,
        u_raw=u,
        dudt_raw=dudt,
        trace=trace,
        certificate=cert,
        t_offset=t_offset,
        l2_per_frame=frame_norms(grid, u, "l2"),
        d6_l2_per_frame=frame_norms(grid, u, "d6"),
        dudt_l2_per_frame=frame_norms(grid, dudt, "l2"),
        tail_warnings=_tail_check(grid, u, t_offset),
    )


def _picard_iterate(
    u: np.ndarray, dudt: np.ndarray, prob: ProblemSpec, w: _Window, with_norm: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Overwrite the iterate (u, dudt) with its image under the mild-solution
    map, in one forward walk over blocks of frames (``block_bounds``).

    The image's frame j needs the old iterate's frames up to j and the
    image's frame j - 1 only, so each block, in turn: ``duhamel_map`` of the
    block (one batched transform pair around one reaction call, and the
    recursion carried on from the frame before the block), its
    ``time_derivative``, the block's share of the squared contraction-norm
    distance to the old iterate (and, if ``with_norm``, of the image's own
    squared norm), then the image's rows over the old ones. The old rows of
    u are the scratch of the norms, since nothing reads them afterwards.
    Returns the per-frame squares of the distance and of the norm (None
    without ``with_norm``); the time integral is the caller's.
    """
    grid = prob.grid
    blocks = block_bounds(u)
    size = max(e - s for s, e in blocks)
    new_u, new_du = (np.empty((size,) + u.shape[1:], np.complex128) for _ in range(2))
    dist_sq = np.empty(len(u))
    norm_sq = np.empty(len(u)) if with_norm else None
    carry = None
    for s, e in blocks:
        bu, fh = duhamel_map(u[s:e], prob, w, out=new_u[: e - s], carry=carry)
        bd = time_derivative(bu, fh, w, out=new_du[: e - s])
        old = u[s:e]
        dist_sq[s:e] = contraction_sq(grid, bu, bd, old, minus=(old, dudt[s:e]))
        if with_norm:
            norm_sq[s:e] = contraction_sq(grid, bu, bd, old)
        u[s:e] = bu
        dudt[s:e] = bd
        carry = (e - 1, u[e - 1], fh[-1])
    return dist_sq, norm_sq


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

    Without ``starts`` the march advances the single state ``prob.u0`` and
    returns its ``SpacetimeField`` of n_frames + 1 frames. ``starts`` is a
    (K, N) array of real initial states, row k the start of window k of a
    march, advanced as one (K, N/2+1) block (per substep two reaction calls
    on all K rows); the result is then the (K, N/2+1) array of end states in
    ``rfft_raw`` units. If the block fails, its windows are marched again one
    at a time, in order, and the first failure is raised as ``global_march``
    raises window k's, with the message of the window's own march; if no
    window fails alone (a reaction that couples rows), the block's error is.
    """
    grid = prob.grid
    march = (prob, window_length, substeps, n_frames)
    if starts is None:
        frames = _heun_march(*march, rfft_raw(prob.u0.values.real))
        return _spacetime_field(grid, np.linspace(0.0, window_length, n_frames + 1), frames)
    u0 = np.asarray(starts, dtype=np.float64)
    if u0.ndim != 2 or u0.shape[0] < 1 or u0.shape[1] != grid.n_points:
        raise ValueError(
            f"starts must be a (K, {grid.n_points}) array with K >= 1, got shape {u0.shape}"
        )
    failures = (ValueError, ModelEvaluationError, ReferenceInstabilityError)
    try:
        return _heun_march(*march, rfft_raw(u0))
    except failures:
        for k, row in enumerate(u0):
            try:
                _heun_march(*march, rfft_raw(row))
            except failures as exc:
                _raise_window_failure(k, exc)
        raise


def _heun_march(
    prob: ProblemSpec, window_length: float, substeps: int, n_frames: int, u_hat: np.ndarray
) -> np.ndarray:
    """The marcher of ``etd_reference_solve`` from the state ``u_hat`` in
    ``rfft_raw`` units: a (N/2+1,) state gives its n_frames + 1 frames, a
    (K, N/2+1) block its end states. Raises the first failure: a substep
    count that fails the preconditions, a model error, or a row whose norm
    leaves 1e8 times the larger of its norms before and after substep 1.
    """
    if substeps < 4 * n_frames:
        raise ValueError(
            f"substeps = {substeps} must be at least 4x the frame count {n_frames}"
        )
    if substeps % n_frames != 0:
        raise ValueError("substeps must be an integer multiple of the frame count")
    grid = prob.grid
    h = window_length / substeps
    w = _window(prob, h)

    def reaction(u: np.ndarray) -> np.ndarray:
        return w.g * rfft_raw(apply_nonlinearity(irfft_raw(grid, u), prob.nonlinearity, grid))

    def l2(u: np.ndarray) -> np.ndarray:
        return np.sqrt(np.atleast_1d(half_sq_norms(grid, u, "l2")))

    stride = substeps // n_frames
    frames = None
    if u_hat.ndim == 1:
        frames = np.empty((n_frames + 1, grid.n_half), dtype=np.complex128)
        frames[0] = u_hat
    scale0 = l2(u_hat)
    ref = None
    for n in range(substeps):
        nn = reaction(u_hat)
        pred = w.e_dt * (u_hat + h * nn)
        u_hat = w.e_dt * u_hat + 0.5 * h * (w.e_dt * nn + reaction(pred))
        norm_now = l2(u_hat)
        if ref is None:
            ref = np.fmax(np.fmax(scale0, norm_now), 1e-12)
        bad = ~(np.isfinite(norm_now) & (norm_now <= 1e8 * ref))
        if np.any(bad):
            r = int(np.argmax(bad))
            raise ReferenceInstabilityError(
                f"reference marcher unstable at step {n + 1}: "
                f"norm {norm_now[r]:.3e} vs initial {ref[r]:.3e}"
            )
        if frames is not None and (n + 1) % stride == 0:
            frames[(n + 1) // stride] = u_hat
    return u_hat if frames is None else frames


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
    one fails, each window starting from the previous report's last frame in
    ``rfft_raw`` units as it is; with ``run_oracle`` one
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
    failed = None
    for k in range(schedule.count):
        try:
            reports.append(picard_solve(
                prob,
                t_win,
                cert,
                tol_fix=tol_fix,
                max_iter=max_iter,
                n_frames=n_frames,
                override_certificate=override_certificate,
                t_offset=k * t_win,
                start=reports[-1].u_raw[-1] if reports else None,
            ))
        except Exception as exc:
            failed = (k, exc)
            break
    if run_oracle and reports:
        # the oracle starts from physical states: window 0's own, then the
        # Picard end states
        starts = np.stack(
            [prob.u0.values.real] + [irfft_raw(prob.grid, rep.u_raw[-1]) for rep in reports[:-1]]
        )
        # raises the failure of the first failing window, which comes before
        # the Picard failure in march order
        ends = etd_reference_solve(
            prob, t_win, oracle_substeps_factor * n_frames, n_frames, starts=starts
        )
        for rep, end in zip(reports, ends):
            mine = rep.final_state
            diff = mine.values - unitary_spectrum(prob.grid, end)
            num = l2_norm(Field(prob.grid, diff, "spectral"))
            den = l2_norm(mine)
            rep.oracle_rel_deviation = num / den if den > 0 else num
    if failed is not None:
        _raise_window_failure(*failed)
    reports[-1].overlap = nontriviality_overlap(
        prob.kernel, prob.nonlinearity, prob.grid
    )
    return reports
