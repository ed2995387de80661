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
oracle; it shares the reaction evaluation and its finiteness guard
(``_forcing_history``) with the Picard iteration, but no quadrature.

The unknown is a real field, the kernel and the reaction are real and
lam(-p) = conj(lam(p)), so every spectrum in the solvers is Hermitian and is
determined by its modes 0..N/2. Of those, a window's map moves only its live
band, modes 0..K-1: above it e^{dt lam} and the kernel factor sqrt(2 pi) Ghat
underflow to exactly 0 (the -p^6 of the sixth-order operator), so every frame
after the first is exactly 0 there, and only frame 0, the start state, may
have modes above K. Inside the solvers a trajectory is the plain (M+1, K)
complex array of the band, and norms weight each stored mode by its
multiplicity in the full spectrum. Every solver array is in raw ``rfft``
units (``grid.rfft_raw`` / ``grid.irfft_raw``), in which the transform pair
needs no factor: the Picard iterate, whose ``duhamel_map`` and
``time_derivative`` take and return such arrays only, with the window's band
and weights computed once (``_window``); the ``SolveReport``, which keeps the
last iterate's trajectory (not its time derivative, of which it keeps the
per-frame norms) and frame 0's modes above the band; the start state of the
next window, which is the previous report's last frame, zero-padded to
N/2+1 modes; and the Heun oracle, which keeps all N/2+1 modes. Unitary
coefficients, ``Field`` and ``SpacetimeField`` (full spectrum, as in the
``SXD1`` dump) appear only at the API edge: the report's ``field``,
``final_raw`` and ``final_state`` expand (and convert) on every access.

The new Picard iterate at frame j needs only the old iterate at frames up
to j and the new one at frame j - 1, and frame 0 with its forcing is the
same in every iterate, so a window solve holds a single band pair
(u, du/dt), computes frame 0's forcing once, and each iterate overwrites its
predecessor in one forward walk over blocks of frames 1..M
(``grid.block_bounds``): per block,
one batched real transform pair around one ``apply_nonlinearity`` call,
the recursion carried on from the frame before the block, the time
derivative and the block's share of the contraction-norm distance. The
default tolerance is set once, from the contraction norm of the first
iterate's image, after its walk.

The march first runs the certified Picard chain, window after window, since
each window starts from the previous one's end state. The oracle of window k
starts from that same state and reads no other oracle, so once the chain has
run, one Heun march checks every window at once on a (windows, N/2+1)
block: the Picard chain is the sequential propagator and the oracle the fine
solver of the parareal split (Lions, Maday & Turinici, 2001). The Heun march
yields its state at every frame, whatever the start's shape: the
single-state oracle keeps every frame, the block march only the last.
Failures are reported in the sequential order Picard 0, oracle 0, Picard 1,
...: the first one wins. The block march stops at its first failure; only
then are its windows marched again one at a time, in order, so that the
lowest failing window is raised with the message of its own march.
"""

from __future__ import annotations

import warnings
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

import math

from .certify import DEFAULT_SAFETY, Certificate, window_schedule
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
    validate_kernel,
)

SQRT_2PI = np.sqrt(2.0 * np.pi)

#: Measured Picard ratios may exceed the certified constant by at most this
#: factor before the solve is treated as defective (quadrature slack).
RATIO_SLACK = 1.05

DEFAULT_FRAMES = 64
DEFAULT_MAX_ITER = 200

#: The fewest Heun substeps per frame the oracle takes, and the march's default.
MIN_ORACLE_SUBSTEPS_FACTOR = 4


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


def build_symbol(grid: SpectralGrid, a: float, b: float) -> np.ndarray:
    """The read-only per-mode linear symbol lam(p) = -p^6 + i*b*p + a."""
    if a < 0:
        raise ValueError(f"a must be nonnegative, got {a}")
    p = grid.wavenumbers
    lam = -(p**6) + 1j * b * p + a
    lam.flags.writeable = False
    return lam


def propagate(f: Field, lam: np.ndarray, t: float) -> Field:
    """Multiply a spectral field by e^{t*lam}; identity at t = 0."""
    if f.rep != "spectral":
        raise RepresentationError("propagate expects a spectral field")
    if t < 0:
        raise ValueError(f"propagation time must be nonnegative, got {t}")
    if t == 0:
        return f
    return Field(f.grid, np.exp(t * lam) * f.values, "spectral")


@dataclass(frozen=True, eq=False)
class _Window:
    """What the mild-solution map needs on one window, computed once per window:

    the initial coefficients u0 of modes 0..N/2 in ``rfft_raw`` units; on the
    live band, modes 0..K-1, the recursion's per-mode factors
    e_dt = e^{dt lam}, w_prev = g dt (phi1 - phi2)(dt lam) and
    w_next = g dt phi2(dt lam), the convolution factor g = sqrt(2 pi) Ghat and
    the symbol lam itself; and u0's modes K, K+1, ... up to its last nonzero
    one, ``u0_tail``, with lam times them, ``dudt0_tail``: frame 0's modes
    above the band, which no iterate changes.
    """

    u0: np.ndarray
    e_dt: np.ndarray
    w_prev: np.ndarray
    w_next: np.ndarray
    g: np.ndarray
    lam: np.ndarray
    u0_tail: np.ndarray
    dudt0_tail: np.ndarray

    @property
    def band(self) -> int:
        """K, the number of live modes."""
        return self.e_dt.size


def _live_band(*factors: np.ndarray) -> int:
    """1 + the highest mode at which any of the per-mode ``factors`` is
    nonzero: above it the mild-solution map sends every mode to exactly 0."""
    return 1 + int(np.flatnonzero(np.any(np.stack(factors) != 0, axis=0))[-1])


def _half_symbols(prob: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """The symbol lam and the kernel factor g = sqrt(2 pi) Ghat on modes
    0..N/2, the per-mode data both solvers share."""
    grid = prob.grid
    half = slice(0, grid.n_half)
    lam = build_symbol(grid, prob.a, prob.b)[half]
    return lam, SQRT_2PI * prob.kernel.spectrum_on(grid)[half]


def _window(prob: ProblemSpec, dt: float, start: np.ndarray | None = None) -> _Window:
    """The window data for frame spacing dt, starting from ``start`` (modes
    0..N/2 in ``rfft_raw`` units) or, by default, from ``prob.u0``, on the
    live band of e_dt, g, w_prev and w_next."""
    lam, g = _half_symbols(prob)
    z = dt * lam
    e_dt = np.exp(z)
    w_prev = g * (dt * (phi1(z) - phi2(z)))
    w_next = g * (dt * phi2(z))
    k = _live_band(e_dt, g, w_prev, w_next)
    u0 = rfft_raw(prob.u0.values.real) if start is None else np.asarray(start, np.complex128)
    tail = np.trim_zeros(u0[k:], "b").copy()
    return _Window(
        u0=u0,
        e_dt=e_dt[:k],
        w_prev=w_prev[:k],
        w_next=w_next[:k],
        g=g[:k],
        lam=lam[:k],
        u0_tail=tail,
        dudt0_tail=lam[k : k + tail.size] * tail,
    )


def _forcing_history(
    frames: np.ndarray, prob: ProblemSpec, first_frame: int = 0, band: int | None = None
) -> np.ndarray:
    """Transforms of F(v(., t_j), .) for every frame: half-spectrum frames
    (..., K') in ``rfft_raw`` units (modes above K' zero) in, their modes
    0..N/2, or 0..``band``-1, out. The finiteness check sees all N/2+1
    modes. A model error names frame ``first_frame`` + row."""
    grid = prob.grid
    phys = irfft_raw(grid, frames)
    fh = rfft_raw(apply_nonlinearity(phys, prob.nonlinearity, grid, first_frame))
    if not np.all(np.isfinite(fh)):
        raise SolverError("forcing history contains non-finite values")
    return fh[..., :band]


def _recursion(
    fh: np.ndarray,
    w: _Window,
    carry: tuple[np.ndarray, np.ndarray],
    out: np.ndarray,
) -> None:
    """u_{j+1} = e^{dt lam} u_j + w_prev f_j + w_next f_{j+1} into ``out``,
    every row of fh a step, from ``carry = (u, f)``, the state and forcing
    of the frame before fh's first.

    The forcing terms of all steps in one pass into the output, then only
    u_{j+1} += e^{dt lam} u_j frame by frame, in place.
    """
    u_prev, f_prev = carry
    scratch = np.empty_like(fh)
    np.multiply(w.w_prev, f_prev, out=out[:1])
    np.multiply(w.w_prev, fh[:-1], out=out[1:])
    out += np.multiply(w.w_next, fh, out=scratch)
    for row in out:
        row += np.multiply(w.e_dt, u_prev, out=scratch[0])
        u_prev = row


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

    v is the (M+1, K') array of half-spectrum frames of a real trajectory on
    ``prob.grid``, in ``rfft_raw`` units (K' <= N/2+1, the modes above K'
    zero), and ``window`` the data ``_window`` computes for its frame
    spacing, with its band K. Returns the image u on the band, (M+1, K) in
    the same units (written into ``out`` if given), and the forcing
    transforms fh it was built from, on the band too, with which
    ``time_derivative`` forms du/dt algebraically. The image's frame 0 is
    the window's u0; the recursion steps on from it and fh[0].

    With ``carry = (j, u_j, f_j)``, v is instead the block of frames j+1,
    j+2, ... of a trajectory whose frame j has the image u_j and the forcing
    transform f_j: the same recursion continues from frame j, and a model
    error names the frame of the trajectory, not of the block.
    """
    fh = _forcing_history(v, prob, 0 if carry is None else carry[0] + 1, window.band)
    u = np.empty_like(fh) if out is None else out
    if carry is None:
        u[0] = window.u0[: window.band]
        _recursion(fh[1:], window, (u[0], fh[0]), u[1:])
    else:
        _recursion(fh, window, carry[1:], u)
    return u, fh


def time_derivative(
    u: np.ndarray, fh: np.ndarray, window: _Window, out: np.ndarray | None = None
) -> np.ndarray:
    """Exact algebraic du_hat/dt = lam*u_hat + sqrt(2 pi)*Ghat*fhat.

    u and fh are the band image and forcing history ``duhamel_map``
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

    The solution is kept on the window's live band: the read-only (M+1, K)
    array ``u_band`` on ``time_grid``, in ``rfft_raw`` units, whose modes
    above K are exactly 0 in every frame but frame 0; frame 0's modes K,
    K+1, ... up to its last nonzero one are ``u0_tail`` (empty when the
    window starts from a previous window's end state). Of the time
    derivative only its per-frame norms are kept; ``time_derivative`` forms
    it from ``u_band`` and the forcing. ``field`` expands the trajectory to
    a full-spectrum ``SpacetimeField`` (one allocation, adopted by the
    field), ``final_raw`` the last frame to modes 0..N/2 and
    ``final_state`` to a unitary ``Field``, on every access (uncached, so a
    caller holding many reports holds neither half nor full spectra).
    """

    grid: SpectralGrid
    time_grid: np.ndarray
    u_band: np.ndarray
    u0_tail: np.ndarray
    trace: PicardTrace
    certificate: Certificate
    t_offset: float
    l2_per_frame: np.ndarray
    d6_l2_per_frame: np.ndarray
    dudt_l2_per_frame: np.ndarray
    tail_warnings: tuple[str, ...]
    oracle_rel_deviation: float | None = None

    @property
    def field(self) -> SpacetimeField:
        return _spacetime_field(self.grid, self.time_grid, self.u_band, self.u0_tail)

    @property
    def final_raw(self) -> np.ndarray:
        """The last frame's modes 0..N/2, in ``rfft_raw`` units."""
        last = np.zeros(self.grid.n_half, dtype=np.complex128)
        last[: self.u_band.shape[1]] = self.u_band[-1]
        return last

    @property
    def final_state(self) -> Field:
        return Field(self.grid, unitary_spectrum(self.grid, self.u_band[-1]), "spectral")


def _spacetime_field(
    grid: SpectralGrid, time_grid: np.ndarray, raw: np.ndarray, tail: np.ndarray | None = None
) -> SpacetimeField:
    """The ``SpacetimeField`` of half-spectrum frames in ``rfft_raw`` units,
    with frame 0's further modes ``tail``, around their full spectrum with
    no copy."""
    full = unitary_spectrum(grid, raw)
    if tail is not None and tail.size:
        full[0] = unitary_spectrum(grid, np.concatenate([raw[0], tail]))
    full.flags.writeable = False
    return SpacetimeField(grid, time_grid, full)


def _tail_check(
    grid: SpectralGrid, frames: tuple[np.ndarray, ...], t_offset: float
) -> tuple[str, ...]:
    """The box-truncation warning of a window from its first and last
    frames' half spectra."""
    warnings_out = []
    fractions = [tail_mass_fraction(Field(grid, irfft_raw(grid, f))) for f in frames]
    worst = max(fractions)
    if worst > TAIL_TOL:
        warnings_out.append(
            f"tail mass fraction {worst:.3e} exceeds {TAIL_TOL:g} on the window "
            f"starting at t = {t_offset:g}; the box truncation is suspect"
        )
    return tuple(warnings_out)


def _check_window(window_length: float, n_frames: int) -> None:
    """The window preconditions both solvers share."""
    if not 0 < window_length < math.inf:
        raise ValueError(f"window length must be positive and finite, got {window_length}")
    if n_frames < 1:
        raise ValueError(f"n_frames must be at least 1, got {n_frames}")


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
    1e-10 * max(1, contraction norm of the first image), the image being the
    iterate after one application of the map; a SolverError if that norm is
    not finite). A distance that is not finite ends the iteration at once
    with a ``PicardConvergenceError`` that names it. With a valid
    certificate every measured ratio must stay below C * 1.05; a violation
    is raised as a defect, not smoothed over.
    The initial state is ``prob.u0``, or ``start``: modes 0..N/2 in
    ``rfft_raw`` units, as a previous window's ``final_raw``, used as they
    are.

    The iteration holds one trajectory pair, the (M+1, K) arrays u and du/dt
    of the window's live band in ``rfft_raw`` units, and each iterate
    overwrites its predecessor in one forward walk over blocks of frames
    1..M (``_picard_iterate``), with the window's band, weights and frame
    0's forcing computed once, and the default tolerance after the first
    walk. The report keeps the last iterate's u as it is, with frame 0's
    modes above the band, and of du/dt only its per-frame norms; every norm
    of frame 0 counts those modes too.
    """
    _check_window(window_length, n_frames)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if tol_fix is not None and not tol_fix > 0:
        raise ValueError(f"tol_fix must be None or positive, got {tol_fix}")
    if start is not None:
        start = np.asarray(start)
        if start.shape != (prob.grid.n_half,) or not np.all(np.isfinite(start)):
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
    # frame 0 and its forcing are the same in every iterate
    f0 = _forcing_history(w.u0[None], prob, band=w.band)[0]

    # the first iterate e^{t_j lam} u0, as u_{j+1} = e^{dt lam} u_j, and its derivative
    u = np.empty((n_frames + 1, w.band), np.complex128)
    u[0] = w.u0[: w.band]
    for j in range(n_frames):
        np.multiply(w.e_dt, u[j], out=u[j + 1])
    dudt = np.multiply(w.lam, u)

    distances: list[float] = []
    tol = tol_fix
    for _ in range(max_iter):
        d = float(np.sqrt(tw @ _picard_iterate(u, dudt, prob, w, f0)))
        distances.append(d)
        if tol is None:
            # the contraction norm of the first image, frame 0's with its modes above the band
            sq = np.concatenate([contraction_sq(grid, u[s:e], dudt[s:e], np.empty_like(u[s:e]))
                                 for s, e in block_bounds(grid, n_frames + 1)])
            sq[0] += half_sq_norms(grid, w.u0_tail, "h6", first=w.band)
            sq[0] += half_sq_norms(grid, w.dudt0_tail, "l2", first=w.band)
            norm = float(np.sqrt(tw @ sq))
            if not math.isfinite(norm):
                raise SolverError(f"the first Picard image has a non-finite norm ({norm}); "
                                  "no default tolerance can be set from it")
            tol = 1e-10 * max(1.0, norm)
        converged = d < tol
        if converged or not math.isfinite(d):
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
        why = (f"no fixed point within {max_iter} iterations" if np.isfinite(dists[-1])
               else f"the Picard distance of iteration {dists.size} is not finite")
        raise PicardConvergenceError(
            f"{why} (last distance {dists[-1]:.3e}, tol {tol:.3e})", trace
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

    for arr in (tg, u, w.u0_tail):
        arr.flags.writeable = False
    return SolveReport(
        grid=grid,
        time_grid=tg,
        u_band=u,
        u0_tail=w.u0_tail,
        trace=trace,
        certificate=cert,
        t_offset=t_offset,
        l2_per_frame=frame_norms(grid, u, "l2", w.u0_tail),
        d6_l2_per_frame=frame_norms(grid, u, "d6", w.u0_tail),
        dudt_l2_per_frame=frame_norms(grid, dudt, "l2", w.dudt0_tail),
        tail_warnings=_tail_check(grid, (w.u0, u[-1]), t_offset),
    )


def _picard_iterate(
    u: np.ndarray, dudt: np.ndarray, prob: ProblemSpec, w: _Window, f0: np.ndarray
) -> np.ndarray:
    """Overwrite the iterate (u, dudt) on the live band with its image under
    the mild-solution map, given frame 0's forcing f0: frame 0, whose image
    is u0 with the derivative lam u0 + g f0, then one forward walk over
    blocks of frames 1..M (``block_bounds``).

    The image's frame j needs the old iterate's frames up to j and the
    image's frame j - 1 only, so each block, in turn: ``duhamel_map`` of the
    block (one batched transform pair around one reaction call, and the
    recursion carried on from the frame before the block), its
    ``time_derivative``, the block's share of the squared contraction-norm
    distance to the old iterate, then the image's rows over the old ones.
    The old rows of u are the scratch of the norms, since nothing reads
    them afterwards. Returns the per-frame squares of the distance; the
    time integral is the caller's.
    """
    grid = prob.grid
    blocks = [(s + 1, e + 1) for s, e in block_bounds(grid, len(u) - 1)]
    size = max(e - s for s, e in blocks)
    new_u, new_du = (np.empty((size,) + u.shape[1:], np.complex128) for _ in range(2))
    dist_sq = np.empty(len(u))
    du0 = np.multiply(w.lam, u[0], out=new_du[0])
    du0 += np.multiply(w.g, f0)
    row0 = u[:1]
    dist_sq[0] = contraction_sq(grid, row0, du0[None], new_u[:1], minus=(row0, dudt[:1]))[0]
    dudt[0] = du0
    carry = (0, u[0], f0)
    for s, e in blocks:
        bu, fh = duhamel_map(u[s:e], prob, w, out=new_u[: e - s], carry=carry)
        bd = time_derivative(bu, fh, w, out=new_du[: e - s])
        old = u[s:e]
        dist_sq[s:e] = contraction_sq(grid, bu, bd, old, minus=(old, dudt[s:e]))
        u[s:e] = bu
        dudt[s:e] = bd
        carry = (e - 1, u[e - 1], fh[-1])
    return dist_sq


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
    returns its ``SpacetimeField`` of n_frames + 1 frames, the start and the
    n_frames states the march yields. ``starts`` is a
    (K, N/2+1) block of finite start states in ``rfft_raw`` units, the unit
    of ``picard_solve(start=)`` (a non-finite row is refused by its index),
    row k the start of window k of a march,
    advanced as it is (per substep two reaction calls on all K rows); the
    result is then the (K, N/2+1) array of end states in the same units, the
    last block the march yields. If
    the block fails, its windows are marched again one at a time, in order,
    and the first failure is raised as ``global_march`` raises window k's,
    with the message of the window's own march; if no window fails alone (a
    reaction that couples rows), the block's error is.
    """
    grid = prob.grid
    march = (prob, window_length, substeps, n_frames)
    if starts is None:
        u0 = rfft_raw(prob.u0.values.real)
        frames = np.stack([u0, *_heun_march(*march, u0)])
        return _spacetime_field(grid, np.linspace(0.0, window_length, n_frames + 1), frames)
    u0 = np.asarray(starts, dtype=np.complex128)
    if u0.ndim != 2 or u0.shape[0] < 1 or u0.shape[1] != grid.n_half:
        raise ValueError(
            f"starts must be a (K, {grid.n_half}) array with K >= 1, got shape {u0.shape}"
        )
    bad = np.flatnonzero(~np.all(np.isfinite(u0), axis=1))
    if bad.size:
        raise ValueError(f"starts must be a (K, {grid.n_half}) array of finite modes; "
                         f"rows {bad.tolist()} are not finite")
    failures = (ValueError, SolverError, ModelEvaluationError)
    try:
        return deque(_heun_march(*march, u0), maxlen=1)[0]
    except failures:
        for k, row in enumerate(u0):
            try:
                deque(_heun_march(*march, row), maxlen=0)
            except failures as exc:
                _raise_window_failure(k, exc)
        raise


def _heun_march(
    prob: ProblemSpec, window_length: float, substeps: int, n_frames: int, u_hat: np.ndarray
) -> Iterator[np.ndarray]:
    """The marcher of ``etd_reference_solve`` from the state ``u_hat`` in
    ``rfft_raw`` units, a (N/2+1,) state or a (K, N/2+1) block of them:
    yields the state, of u_hat's shape, at frames 1..n_frames, with the
    symbol and the kernel factor of ``_half_symbols`` and no phi-weight.
    Raises the first failure: a window length or substep count that fails
    the preconditions, a model error or a non-finite forcing, or a row whose
    norm leaves 1e8 times the larger of its norms before and after substep 1.
    """
    _check_window(window_length, n_frames)
    if substeps < MIN_ORACLE_SUBSTEPS_FACTOR * n_frames:
        raise ValueError(
            f"substeps = {substeps} must be at least {MIN_ORACLE_SUBSTEPS_FACTOR}x "
            f"the frame count {n_frames}"
        )
    if substeps % n_frames != 0:
        raise ValueError("substeps must be an integer multiple of the frame count")
    grid = prob.grid
    h = window_length / substeps
    lam, g = _half_symbols(prob)
    e_h = np.exp(h * lam)

    def l2(u: np.ndarray) -> np.ndarray:
        return np.sqrt(np.atleast_1d(half_sq_norms(grid, u, "l2")))

    stride = substeps // n_frames
    scale0 = l2(u_hat)
    ref = None
    for n in range(substeps):
        nn = g * _forcing_history(u_hat, prob)
        pred = e_h * (u_hat + h * nn)
        u_hat = e_h * u_hat + 0.5 * h * (e_h * nn + g * _forcing_history(pred, prob))
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
        if (n + 1) % stride == 0:
            yield u_hat


def _raise_window_failure(k: int, exc: Exception):
    """Raise window k's failure the way ``global_march`` reports it: a solver
    or value error wrapped in ``MarchWindowError(k)``, anything else (a
    ``ModelEvaluationError``) as it is."""
    if isinstance(exc, (SolverError, ValueError)):
        raise MarchWindowError(k, exc) from exc
    raise exc


def global_march(
    prob: ProblemSpec,
    t_total: float,
    safety: float = DEFAULT_SAFETY,
    n_frames: int = DEFAULT_FRAMES,
    tol_fix: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    max_window_length: float | None = None,
    override_certificate: bool = False,
    run_oracle: bool = False,
    oracle_substeps_factor: int = MIN_ORACLE_SUBSTEPS_FACTOR,
) -> list[SolveReport]:
    """Chain certified windows across the whole horizon.

    The contraction constant does not depend on the initial state, so one
    certificate covers every window: the march runs the ``count`` windows
    of ``window_schedule``'s plan under its ``certificate``. What is
    re-checked per window is the part the analysis cannot see, the
    box-truncation tail mass (the support overlap is not the march's).

    Order of work: the Picard chain runs until every window is solved or
    one fails. The march keeps one list of start states in ``rfft_raw``
    units, modes 0..N/2: ``prob.u0``'s, then each solved report's
    ``final_raw``, expanded once; window k starts from row k. With
    ``run_oracle`` one batched ``etd_reference_solve`` then marches the
    solved windows from the same rows, and window k's
    ``oracle_rel_deviation`` compares row k+1, its Picard end state, with
    its oracle end state. The first failure in the sequential order (Picard
    0, oracle 0, Picard 1, ...) is raised: an oracle failure at window
    k < j beats a Picard failure at window j, and the lowest failing oracle
    window wins, whatever substep it failed at. A solver or value error is
    raised as ``MarchWindowError(k)``, a ``ModelEvaluationError`` as it is.
    """
    validate_kernel(prob.kernel, prob.grid)
    q = kernel_strength(prob.kernel)
    ell = prob.nonlinearity.lipschitz_l
    schedule = window_schedule(
        t_total, q, ell, prob.a, prob.b, safety, max_window_length, override_certificate
    )
    t_win = schedule.window_length
    starts = [rfft_raw(prob.u0.values.real)]
    reports: list[SolveReport] = []
    failed = None
    for k in range(schedule.count):
        try:
            reports.append(picard_solve(
                prob,
                t_win,
                schedule.certificate,
                tol_fix=tol_fix,
                max_iter=max_iter,
                n_frames=n_frames,
                override_certificate=override_certificate,
                t_offset=k * t_win,
                start=starts[k],
            ))
        except Exception as exc:
            failed = (k, exc)
            break
        starts.append(reports[-1].final_raw)
    if run_oracle and reports:
        # raises the failure of the first failing window, which comes before
        # the Picard failure in march order
        ends = etd_reference_solve(
            prob, t_win, oracle_substeps_factor * n_frames, n_frames,
            starts=np.stack(starts[: len(reports)]),
        )
        for rep, mine, end in zip(reports, starts[1:], ends):
            num = math.sqrt(half_sq_norms(prob.grid, mine - end, "l2"))
            den = math.sqrt(half_sq_norms(prob.grid, mine, "l2"))
            rep.oracle_rel_deviation = num / den if den > 0 else num
    if failed is not None:
        _raise_window_failure(*failed)
    return reports
