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
determined by its modes 0..N/2. Of those, a window's map keeps only its live
band, modes 0..K-1: above it e^{dt lam}, the kernel factor sqrt(2 pi) Ghat
and the phi-weights are each at most ``BAND_TOL`` (1e-32) of their largest
magnitude (the -p^6 of the sixth-order operator, and the kernel's decay), so
the map leaves every frame after the first below the rounding of the band's
modes there, and the solvers keep 0; only frame 0, the start state, may
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
(``grid.block_bounds``, sized by the forcing grid and the band): per block,
one batched real transform pair around one ``apply_nonlinearity`` call,
the recursion carried on from the frame before the block, the time
derivative and the block's share of the contraction-norm distance. The
default tolerance is set once, from the contraction norm of the first
iterate's image, after its walk.

Where the forcing is evaluated. Frames 1..M are trigonometric polynomials
of the band's K modes, and the recursion reads F's transform on modes
0..K-1 only, so a window samples its band frames on a grid of n <= N
points of the same box, applies the reaction there, and keeps modes
0..K-1 of the result (``grid.band_samples`` / ``grid.resampled_rfft``,
which at n = N are the N-point pair bit for bit): the padding and
truncation of pseudo-spectral codes (Orszag, J. Atmos. Sci. 28, 1971;
Boyd, Chebyshev and Fourier Spectral Methods, 2001, ch. 11). Its forcing
grid is a rung of the ladder n, 2n, 4n, ..., N (``_rungs``). The first
rung is the smallest even 5-smooth n >= 2K, on which the band is sampled
exactly (``grid.smooth_points``), stepped to the next even 5-smooth length
while the forcing of the first iterate's frame 1, a band frame evaluated on
N points, has more than ``ALIAS_TOL`` of its energy in the modes from 3n/8
up (what folds onto the band shows there, whatever the spectrum's shape;
below n = 8K/3 that window takes in the band's top modes too, which only
makes it stricter).
No padding is exact for every reaction (the 3/2 rule is exact for
quadratic products only), so the indicator, not the start, decides. What F's
spectrum later has beyond n/2 folds onto lower modes; below N each block
therefore reads the alias indicator of its spectrum, and one past
``ALIAS_TOL`` ends the attempt: the window is solved again on the next
rung. On N points nothing folds, so the top rung ends the ladder. Frame
0's forcing, which has modes above K, and the oracle are forced on N.

The march first runs the certified Picard chain, window after window, since
each window starts from the previous one's end state. The oracle of window k
starts from that same state and reads no other oracle, so once the chain has
run, one Heun march checks every window at once on a (windows, N/2+1)
block: the Picard chain is the sequential propagator and the oracle the fine
solver of the parareal split (Lions, Maday & Turinici, 2001). The Heun march
yields its state at every frame, whatever the start's shape: the
single-state oracle keeps every frame, the block march only the last.
A bad argument is a ``ValueError`` before any work (``_check_window``).
Failures inside a window are reported in the sequential order Picard 0,
oracle 0, Picard 1, ...: the first one wins, as ``MarchWindowError(k, phase,
cause)``; an exception outside ``_WINDOW_FAILURES`` leaves at once. The block
march stops at its first failure; only then are its windows marched again
one at a time, in order, so that the lowest failing window is raised with
the message of its own march.
"""

from __future__ import annotations

import warnings
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

import math

from .certify import DEFAULT_SAFETY, Certificate, window_schedule
from .grid import (
    Field,
    RepresentationError,
    SpacetimeField,
    SpectralGrid,
    TAIL_TOL,
    band_samples,
    block_bounds,
    contraction_sq,
    frame_norms,
    half_sq_norms,
    irfft_raw,
    resampled_rfft,
    rfft_raw,
    smooth_points,
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

#: Memory a run may plan for (README, "Limits"). A window solve peaks at
#: about one array of (frames + 1) x N complex values of 16 bytes: the
#: iterate and its time derivative, two (frames + 1) x K arrays on the
#: window's live band K <= N/2 + 1, of which the report keeps the first, and
#: a few blocks. So two such arrays per window at K = N/2 + 1 bound a march's
#: windows - 1 reports and its last solve's pair (``global_march``).
MEMORY_BUDGET_BYTES = 2 * 2**30

#: The alias indicator a window's forcing grid of n < N points may read, in
#: any row of any block: the energy of its forcing spectrum's modes from
#: 3n/8 up over the whole (``_alias_indicator``). Past it the reaction's
#: spectrum reaches the modes that fold onto the band, and the window is
#: solved again on the next rung, up to N (``picard_solve``), or starts on
#: a higher one (the probe of ``_first_rung``). Rounding alone reads
#: about eps^2, 1e-32 to 1e-31. A spectrum with a floor above that (a
#: source cut off by the box edge, a clipped reaction) folds onto the band
#: about the square root of its indicator: on drawn problems an indicator
#: of 1e-20 moved the Picard distances by up to 1.5e-11 d_1, and one of at
#: most 1e-28 by no more than 2.1e-15 d_1.
ALIAS_TOL = 1e-28

#: The relative floor of a window's live band (``_live_band``): above mode
#: K - 1 each of the map's per-mode factors e^{dt lam}, sqrt(2 pi) Ghat and
#: the phi-weights is at most this times its own largest magnitude, below
#: eps^2 (about 4.9e-32), and the band solution keeps 0 there: a spectral
#: cut at a relative floor (Boyd, Chebyshev and Fourier Spectral Methods,
#: 2001, ch. 11). On the catalog's kernels a full-width march read at most
#: 4.2e-40 of its largest mode there. A tabulated kernel's factor has a
#: floor far above it and keeps every mode.
BAND_TOL = 1e-32


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
    """Window ``window_index`` of a march failed in its ``phase``, ``"picard"``
    or ``"oracle"``; ``__cause__`` is the failure."""

    def __init__(self, window_index: int, phase: str, cause: Exception):
        super().__init__(f"window {window_index} failed ({phase}): {cause}")
        self.window_index = window_index
        self.phase = phase
        self.__cause__ = cause


#: A window's own failures, which a march raises as ``MarchWindowError``; a
#: bad argument is refused before window 0 (``_check_window``).
_WINDOW_FAILURES = (SolverError, ValueError, ModelEvaluationError)


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
    live band, modes 0..K-1 (``_live_band``: above it each factor is at most
    ``BAND_TOL`` of its own largest magnitude), the recursion's per-mode factors
    e_dt = e^{dt lam}, w_prev = g dt (phi1 - phi2)(dt lam) and
    w_next = g dt phi2(dt lam), the convolution factor g = sqrt(2 pi) Ghat and
    the symbol lam itself; u0's modes K, K+1, ... up to its last nonzero
    one, ``u0_tail``, with lam times them, ``dudt0_tail``: frame 0's modes
    above the band, which no iterate changes; and the grid its band frames
    are forced on, N by default (``picard_solve`` may choose a rung below).
    """

    u0: np.ndarray
    e_dt: np.ndarray
    w_prev: np.ndarray
    w_next: np.ndarray
    g: np.ndarray
    lam: np.ndarray
    u0_tail: np.ndarray
    dudt0_tail: np.ndarray
    forcing: "_ForcingGrid"

    @property
    def band(self) -> int:
        """K, the number of live modes."""
        return self.e_dt.size


class _AliasedForcing(Exception):
    """A forcing block below N read an alias indicator past ``ALIAS_TOL``."""


class _ForcingGrid:
    """The grid of n <= N points of ``grid``'s box that frames are forced on:
    ``grid`` itself at n = N, where nothing folds and ``alias`` is None, and
    below N one whose blocks' largest alias indicator is ``alias``."""

    def __init__(self, grid: SpectralGrid, n: int):
        self.grid = grid.resampled(n)
        self.alias = 0.0 if n < grid.n_points else None

    def read(self, fh: np.ndarray) -> None:
        """Take the alias indicator of each row of a forcing block, its
        modes 0..n/2, below N. Raises ``_AliasedForcing`` past ``ALIAS_TOL``."""
        if self.alias is not None:
            ratio = float(np.max(_alias_indicator(fh, self.grid.n_points)))
            if not ratio <= ALIAS_TOL:
                raise _AliasedForcing(ratio)
            self.alias = max(self.alias, ratio)


def _alias_indicator(fh: np.ndarray, n: int) -> np.ndarray:
    """The alias indicator of each row of the half spectra ``fh`` for a grid
    of n points: the energy of its modes from 3n/8 up (the top eighth of
    that grid's modes, and all above) over the whole; 0 for a zero row."""
    sq = np.square(fh.view(np.float64))
    total = sq.sum(axis=-1)
    top = sq[..., 2 * (3 * n // 8):].sum(axis=-1)
    return np.divide(top, total, out=np.zeros_like(top), where=total > 0)


def _first_rung(prob: ProblemSpec, w: _Window) -> int:
    """The first rung of the window's forcing grid: the smallest even
    5-smooth n >= 2K (at least 8) below N at which the forcing of the first
    iterate's frame 1, a band frame, forced on N points, where nothing
    folds, reads an alias indicator for n points of at most ``ALIAS_TOL``
    (a source above n/2 reads more), or N. The probe steps through every
    such length; the fallback of ``_rungs`` doubles from the rung."""
    # a band of K modes is sampled exactly; whether the reaction's spectrum
    # folds onto it is the indicator's to say, not a padding rule's
    n = max(8, smooth_points(w.band))
    if n < prob.grid.n_points:
        probe = _forcing_history((w.e_dt * w.u0[: w.band])[None], prob, w.forcing, 1)[0]
        while n < prob.grid.n_points and not _alias_indicator(probe, n) <= ALIAS_TOL:
            n = smooth_points(n // 2 + 1)
    return min(n, prob.grid.n_points)


def _rungs(n: int, top: int) -> Iterator[int]:
    """n, 2n, 4n, ... below top, then top: the ladder ends at N."""
    while n < top:
        yield n
        n *= 2
    yield top


def _live_band(*factors: np.ndarray) -> int:
    """1 + the highest mode at which any of the per-mode ``factors`` exceeds
    ``BAND_TOL`` times its own largest magnitude: above it the mild-solution
    map sends every mode below that floor, and the band solution keeps 0."""
    mags = np.abs(np.stack(factors))
    live = mags > BAND_TOL * mags.max(axis=1, keepdims=True)
    return 1 + int(np.flatnonzero(np.any(live, axis=0))[-1])


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
        forcing=_ForcingGrid(prob.grid, prob.grid.n_points),
    )


def _forcing_history(
    frames: np.ndarray,
    prob: ProblemSpec,
    forcing: _ForcingGrid,
    first_frame: int = 0,
    band: int | None = None,
    rows: str = "frame",
) -> np.ndarray:
    """Transforms of F(v(., t_j), .) for every frame: half-spectrum frames
    (..., K') in ``rfft_raw`` units (modes above K' zero; K' <= n/2 below N)
    in, sampled and forced on the n points of ``forcing``, their modes
    0..n/2, or 0..``band``-1, out. The finiteness check sees all n/2+1
    modes, and ``forcing.read`` then checks them for aliasing. A model error
    names the row (frame ``first_frame`` + row, or what ``rows`` says the
    rows are) and x[j] of the grid it was forced on."""
    on = forcing.grid
    phys = band_samples(prob.grid, frames, on.n_points)
    vals = apply_nonlinearity(phys, prob.nonlinearity, on, first_frame, rows)
    fh = resampled_rfft(prob.grid, vals)
    if not np.isfinite(fh).all():
        raise SolverError("forcing history contains non-finite values")
    forcing.read(fh)
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
    error names the frame of the trajectory, not of the block. The frames
    are forced on the window's forcing grid.
    """
    fh = _forcing_history(v, prob, window.forcing, 0 if carry is None else carry[0] + 1,
                          window.band)
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
    array ``u_band`` on ``time_grid``, in ``rfft_raw`` units; above K, where
    the map's factors are below ``BAND_TOL`` of their peaks (``_live_band``),
    every frame but frame 0 is kept as 0; frame 0's modes K,
    K+1, ... up to its last nonzero one are ``u0_tail`` (empty when the
    window starts from a previous window's end state). Of the time
    derivative only its per-frame norms are kept; ``time_derivative`` forms
    it from ``u_band`` and the forcing. ``field`` expands the trajectory to
    a full-spectrum ``SpacetimeField`` (one allocation, adopted by the
    field), ``final_raw`` the last frame to modes 0..N/2 and
    ``final_state`` to a unitary ``Field``, on every access (uncached, so a
    caller holding many reports holds neither half nor full spectra).
    ``forcing_points`` is the number of points n <= N its band frames were
    forced on, and ``alias_indicator`` the largest alias indicator of their
    blocks below N, or None at n = N, where nothing folds.
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
    forcing_points: int
    alias_indicator: float | None
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


def _check_window(window_length: float, n_frames: int, max_iter: int = 1,
                  tol_fix: float | None = None, substeps: int | None = None) -> None:
    """Every precondition of a window solve, an oracle march and a march.
    Each entry point calls it once, on entry, before any work, so a bad
    argument is a plain ``ValueError``, never a window's failure."""
    if not 0 < window_length < math.inf:
        raise ValueError(f"window length must be positive and finite, got {window_length}")
    for name, count in (("n_frames", n_frames), ("max_iter", max_iter)):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {count!r}")
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    if tol_fix is not None and not tol_fix > 0:
        raise ValueError(f"tol_fix must be None or positive, got {tol_fix}")
    if substeps is not None and (not isinstance(substeps, (int, np.integer)) or substeps % n_frames
                                 or substeps < MIN_ORACLE_SUBSTEPS_FACTOR * n_frames):
        raise ValueError(f"substeps = {substeps} must be an integer multiple of the frame "
                         f"count {n_frames}, at least {MIN_ORACLE_SUBSTEPS_FACTOR}x it")


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
    of frame 0 counts those modes too. The band frames are forced on the
    first rung the forcing of the first iterate's frame 1, evaluated on N
    points, allows (``_first_rung``); an attempt whose forcing aliases is
    dropped, and the window is solved again from the start on the next
    rung, up to N, so that no number depends on the attempts before the
    last. The report names the grid (``forcing_points``) and its largest
    alias indicator.
    """
    _check_window(window_length, n_frames, max_iter, tol_fix)
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
    # frame 0 and its forcing, on N points, are the same in every iterate
    f0 = _forcing_history(w.u0[None], prob, w.forcing, band=w.band)[0]
    for n in _rungs(_first_rung(prob, w), grid.n_points):
        w = replace(w, forcing=_ForcingGrid(grid, n))
        try:
            u, dudt, distances, tol = _fixed_point(prob, w, f0, tw, tol_fix, max_iter)
            break
        except _AliasedForcing:
            # the reaction's spectrum has reached the modes that fold onto
            # the band: the window again on the next rung, which N ends
            pass
    converged = distances[-1] < tol

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
        forcing_points=w.forcing.grid.n_points,
        alias_indicator=w.forcing.alias,
    )


def _fixed_point(
    prob: ProblemSpec,
    w: _Window,
    f0: np.ndarray,
    tw: np.ndarray,
    tol_fix: float | None,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray, list[float], float]:
    """The iteration of ``picard_solve`` on the window ``w``, frame 0's
    forcing ``f0`` and the trapezoid weights ``tw``: from the first iterate
    e^{t_j lam} u0, at most ``max_iter`` walks (``_picard_iterate``) until a
    distance is below the tolerance or not finite. Returns the last iterate's
    (u, du/dt) on the band, the distances and the tolerance, set after the
    first walk unless ``tol_fix`` gives it: 1e-10 * max(1, the contraction
    norm of the first image, squared row by row by ``half_sq_norms``)."""
    grid = prob.grid
    # the first iterate e^{t_j lam} u0, as u_{j+1} = e^{dt lam} u_j, and its derivative
    u = np.empty((len(tw), w.band), np.complex128)
    u[0] = w.u0[: w.band]
    for j in range(len(tw) - 1):
        np.multiply(w.e_dt, u[j], out=u[j + 1])
    dudt = np.multiply(w.lam, u)

    distances: list[float] = []
    tol = tol_fix
    for _ in range(max_iter):
        d = float(np.sqrt(tw @ _picard_iterate(u, dudt, prob, w, f0)))
        distances.append(d)
        if tol is None:
            # the contraction norm of the first image, frame 0's with its modes above the band
            sq = half_sq_norms(grid, u, "h6")
            sq += half_sq_norms(grid, dudt, "l2")
            sq[0] += half_sq_norms(grid, w.u0_tail, "h6", first=w.band)
            sq[0] += half_sq_norms(grid, w.dudt0_tail, "l2", first=w.band)
            norm = float(np.sqrt(tw @ sq))
            if not math.isfinite(norm):
                raise SolverError(f"the first Picard image has a non-finite norm ({norm}); "
                                  "no default tolerance can be set from it")
            tol = 1e-10 * max(1.0, norm)
        if d < tol or not math.isfinite(d):
            break
    return u, dudt, distances, tol


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
    blocks = [(s + 1, e + 1) for s, e in block_bounds(w.forcing.grid, len(u) - 1, w.band)]
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
    The march forms both stages from e^{h lam} u_n, taken once per substep,
    and three per-march factors of the forcing f = fhat: pred = e^{h lam} u_n
    + (h e^{h lam} g) f_n and u_next = e^{h lam} u_n + (h/2 e^{h lam} g) f_n
    + (h/2 g) f(pred), g = sqrt(2 pi) Ghat.

    Without ``starts`` the march advances the single state ``prob.u0`` and
    returns its ``SpacetimeField`` of n_frames + 1 frames, the start and the
    n_frames states the march yields. ``starts`` is a (K, N/2+1) block of
    finite start states in ``rfft_raw`` units, the unit of
    ``picard_solve(start=)`` (a non-finite row is refused by its index), row
    k the start of window k of a march, advanced as it is (per substep two
    reaction calls on all K rows); the result is then the (K, N/2+1) array
    of end states in the same units, the last block the march yields. A bad
    argument is a ``ValueError`` in both forms, before any substep
    (``_check_window``). If the block fails, its windows are marched again
    one at a time, in order, and the first failure is raised as
    ``MarchWindowError(k, "oracle", cause)``, the cause being the window's
    own march's error; if no window fails alone (a reaction that couples
    rows), the block's error is.
    """
    _check_window(window_length, n_frames, substeps=substeps)
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
    try:
        return deque(_heun_march(*march, u0), maxlen=1)[0]
    except _WINDOW_FAILURES:
        for k, row in enumerate(u0):
            try:
                deque(_heun_march(*march, row), maxlen=0)
            except _WINDOW_FAILURES as exc:
                raise MarchWindowError(k, "oracle", exc)
        raise


def _heun_march(
    prob: ProblemSpec, window_length: float, substeps: int, n_frames: int, u_hat: np.ndarray
) -> Iterator[np.ndarray]:
    """The marcher of ``etd_reference_solve`` from the state ``u_hat`` in
    ``rfft_raw`` units, a (N/2+1,) state or a (K, N/2+1) block of them (a
    model error names its row as a window): yields the state, of u_hat's
    shape, at frames 1..n_frames, with the symbol and the kernel factor g of
    ``_half_symbols`` and no phi-weight, on all N points. The factors
    h e^{h lam} g, h/2 e^{h lam} g and h/2 g are formed once per march; each
    substep takes e^{h lam} u once and adds the forcing terms to it in
    place, two reaction calls in all. Raises the first failure: a model
    error or a non-finite forcing, or a row whose norm leaves 1e8 times the
    larger of its norms before and after substep 1.
    """
    grid = prob.grid
    h = window_length / substeps
    lam, g = _half_symbols(prob)
    e_h = np.exp(h * lam)
    pred_f = h * e_h * g
    next_f = 0.5 * pred_f
    next_fp = 0.5 * h * g
    on = _ForcingGrid(grid, grid.n_points)

    def l2(u: np.ndarray) -> np.ndarray:
        return np.sqrt(half_sq_norms(grid, u, "l2"))

    stride = substeps // n_frames
    scale0 = l2(u_hat)
    ref = None
    for n in range(substeps):
        f = _forcing_history(u_hat, prob, on, rows="window")
        u_hat = e_h * u_hat
        pred = np.multiply(pred_f, f)
        pred += u_hat
        f_pred = _forcing_history(pred, prob, on, rows="window")
        u_hat += np.multiply(next_f, f, out=f)
        u_hat += np.multiply(next_fp, f_pred, out=f_pred)
        norm_now = l2(u_hat)
        if ref is None:
            ref = np.fmax(np.fmax(scale0, norm_now), 1e-12)
        bad = ~(np.isfinite(norm_now) & (norm_now <= 1e8 * ref))
        if bad.any():
            # a single state's norms are scalars; index them as rows
            norm_now, ref, bad = np.atleast_1d(norm_now, ref, bad)
            r = int(bad.argmax())
            raise ReferenceInstabilityError(
                f"reference marcher unstable at step {n + 1}: "
                f"norm {norm_now[r]:.3e} vs initial {ref[r]:.3e}"
            )
        if (n + 1) % stride == 0:
            yield u_hat


def _fmt_count(n: int) -> str:
    """An integer in full up to 15 digits, beyond that as format ``.4g``
    would give it, rounded on the integer: a count may pass the float range."""
    if n < 10**15:
        return str(n)
    digits = str(round(n, 4 - len(str(n))))
    return f"{digits[0]}.{digits[1:4]}e+{len(digits) - 1}"


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
    certificate covers every window: the march makes the one plan,
    ``window_schedule``'s, refuses it before window 0 (a ``ValueError``) if
    its arguments, the oracle's substeps among them, fail ``_check_window``
    or its reports could pass ``MEMORY_BUDGET_BYTES``, and runs its ``count``
    windows under its ``certificate``. What is re-checked per window is the
    part the analysis cannot see, the box-truncation tail mass (the support
    overlap is not the march's).

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
    window wins, whatever substep it failed at, as ``MarchWindowError(k,
    phase, cause)``; any other exception (out of memory, say) leaves the
    march at once, as it is, without an oracle.
    """
    validate_kernel(prob.kernel, prob.grid)
    q = kernel_strength(prob.kernel)
    ell = prob.nonlinearity.lipschitz_l
    schedule = window_schedule(
        t_total, q, ell, prob.a, prob.b, safety, max_window_length, override_certificate
    )
    t_win = schedule.window_length
    _check_window(t_win, n_frames, max_iter, tol_fix,
                  oracle_substeps_factor * n_frames if run_oracle else None)
    report_bytes = 2 * schedule.count * (n_frames + 1) * prob.grid.n_half * 16
    if report_bytes > MEMORY_BUDGET_BYTES:
        raise ValueError(f"the schedule's {_fmt_count(schedule.count)} windows would keep "
                         f"{_fmt_count(report_bytes)} bytes of reports, more than the "
                         f"{MEMORY_BUDGET_BYTES // 2**30} GiB memory budget")
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
        except _WINDOW_FAILURES as exc:
            failed = exc
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
        raise MarchWindowError(k, "picard", failed)
    return reports
