"""Periodic spectral discretization of the real line.

The line is truncated to the box [-L, L) with N uniform samples, paired with
the dual wavenumber set {k*pi/L : k = -N/2+1, ..., N/2}. The forward
transform is scaled so that it converges, for smooth rapidly decaying
functions, to the unitary continuum transform

    fhat(p) = (1/sqrt(2*pi)) * int f(x) exp(-i*p*x) dx

as L and N grow. That convention is fixed here once; every downstream
constant (Sobolev norms, the sqrt(2*pi) convolution factor, the contraction
certificate) depends on it, so no other module touches raw FFTs.

The solvers hold every trajectory in raw ``np.fft.rfft`` units instead
(``rfft_raw`` / ``irfft_raw``), where a transform pair needs no factor at
all. The convention then enters in two places, both of them here: the norm
weights of half spectra (times (dx/sqrt(2*pi))^2, in ``half_sq_norms``,
which every norm of a half spectrum goes through), and the way to unitary
coefficients at the API edge (``raw_to_unitary`` for half spectra,
``unitary_spectrum`` for all N modes).

Truncation to a periodic box is policed rather than assumed: fields are
expected to keep essentially all of their mass away from the box edges, and
``tail_mass_fraction`` quantifies the violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Fraction of total L2 mass allowed in the outer region of the box before a
#: solve reports a truncation warning.
TAIL_TOL = 1e-8

#: Default core fraction: the outer 10% of the box counts as tail.
CORE_FRACTION = 0.9

PHYSICAL = "physical"
SPECTRAL = "spectral"

_MAX_DERIVATIVE_ORDER = 8

#: Every frame walk (the Picard iterate, with its transforms, reaction,
#: recursion, time derivative and contraction norm) takes a trajectory in
#: blocks of rows whose N real samples, the rows the transforms touch, are
#: about this many bytes, so the operands of each step stay in a core's cache
#: instead of streaming through memory once per operation, and the
#: temporaries of a step are one block, not one trajectory, however narrow
#: the live band of the stored rows; at small N one block holds the whole
#: trajectory. See ``block_bounds``. It changes speed and memory only: every
#: step, norms included, works row by row.
BLOCK_BYTES = 2**18


class RepresentationError(ValueError):
    """Raised when a field arrives in the wrong representation."""


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform sampling of [-L, L) with its FFT-ordered wavenumber set.

    Attributes:
        half_length: L > 0, the box is [-L, L).
        n_points: N, even, at least 8.
    """

    half_length: float
    n_points: int
    x: np.ndarray = field(init=False, repr=False, compare=False)
    wavenumbers: np.ndarray = field(init=False, repr=False, compare=False)

    # a box whose norm weights leave the float range is refused by name below
    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        L, N = self.half_length, self.n_points
        if not L > 0:
            raise ValueError(f"half_length must be positive, got {L}")
        if N % 2 != 0 or N < 8:
            raise ValueError(f"n_points must be even and >= 8, got {N}")
        x = -L + self.dx * np.arange(N)
        # FFT ordering with the Nyquist slot labelled +N/2 so the wavenumber
        # set is exactly {k*pi/L : -N/2 < k <= N/2}.
        k = np.empty(N, dtype=np.int64)
        k[: N // 2] = np.arange(N // 2)
        k[N // 2] = N // 2
        k[N // 2 + 1 :] = np.arange(-N // 2 + 1, 0)
        p = k * (np.pi / L)
        x.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "wavenumbers", p)
        object.__setattr__(self, "_phase", np.where(k % 2 == 0, 1.0, -1.0))
        p12 = p**12
        p12.flags.writeable = False
        object.__setattr__(self, "_p12", p12)
        # multiplicity of each half-spectrum mode 0..N/2 in a sum over all N
        # modes of a real field: DC and Nyquist appear once, the rest twice
        half_weights = np.full(N // 2 + 1, 2.0)
        half_weights[[0, -1]] = 1.0
        half_weights.flags.writeable = False
        object.__setattr__(self, "_half_weights", half_weights)
        # rfft_raw output times this is forward_transform's modes 0..N/2: the
        # unitary scaling and the box-origin phase
        raw_scale = self.dx / np.sqrt(2.0 * np.pi) * self._phase[: N // 2 + 1]
        raw_scale.flags.writeable = False
        object.__setattr__(self, "_raw_scale", raw_scale)
        # norm weights of the float64 view of rfft_raw half-spectrum frames,
        # where the real and imaginary parts of mode k sit in entries 2k and
        # 2k+1: raw_scale^2 = (dx/sqrt(2*pi))^2 times the unitary weights,
        # the multiplicity times dp, times p^12 for the sixth derivative
        l2 = np.repeat(half_weights * self.dp, 2)
        d6 = l2 * np.repeat(p12[: N // 2 + 1], 2)
        raw = (self.dx / np.sqrt(2.0 * np.pi)) ** 2
        views = {"l2": raw * l2, "d6": raw * d6, "h6": raw * (l2 + d6)}
        if not np.all(np.isfinite(views["h6"])):
            raise ValueError(
                f"the box L = {L!r} with N = {N} has norm weights "
                "(dx/sqrt(2 pi))^2 (1 + p^12) dp outside the float range"
            )
        for w in views.values():
            w.flags.writeable = False
        object.__setattr__(self, "_view_weights", views)

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.n_points

    @property
    def dp(self) -> float:
        """Wavenumber spacing pi/L."""
        return np.pi / self.half_length

    @property
    def n_half(self) -> int:
        """N/2 + 1, the modes 0..N/2 that determine the spectrum of a real field."""
        return self.n_points // 2 + 1


def make_grid(half_length: float, n_points: int) -> SpectralGrid:
    """Build the periodic grid; rejects odd N, N < 8, nonpositive L and a box
    whose norm weights are not finite floats."""
    return SpectralGrid(float(half_length), int(n_points))


@dataclass(frozen=True, eq=False)
class Field:
    """A single-time field, either physical samples or spectral coefficients.

    Values are immutable after construction; operations return new fields.
    """

    grid: SpectralGrid
    values: np.ndarray
    rep: str = PHYSICAL

    def __post_init__(self):
        if self.rep not in (PHYSICAL, SPECTRAL):
            raise ValueError(f"unknown representation {self.rep!r}")
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.n_points,):
            raise ValueError(
                f"values shape {v.shape} does not match grid N={self.grid.n_points}"
            )
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def field_from_function(grid: SpectralGrid, fn) -> Field:
    """Sample a callable f(x) on the grid as a physical field."""
    return Field(grid, np.asarray(fn(grid.x)), PHYSICAL)


def forward_transform(f: Field) -> Field:
    """Physical samples -> spectral coefficients under the unitary scaling.

    The DFT output is multiplied by dx/sqrt(2*pi) together with the phase
    accounting for the box origin at -L, so the result approximates the
    continuum transform evaluated at the grid wavenumbers.
    """
    if f.rep != PHYSICAL:
        raise RepresentationError("forward_transform expects a physical field")
    coeff = f.grid.dx / np.sqrt(2.0 * np.pi)
    return Field(f.grid, coeff * f.grid._phase * np.fft.fft(f.values), SPECTRAL)


def inverse_transform(f: Field) -> Field:
    """Spectral coefficients -> physical samples; exact inverse of forward."""
    if f.rep != SPECTRAL:
        raise RepresentationError("inverse_transform expects a spectral field")
    coeff = f.grid.dp * f.grid.n_points / np.sqrt(2.0 * np.pi)
    return Field(f.grid, coeff * np.fft.ifft(f.grid._phase * f.values), PHYSICAL)


def rfft_raw(values: np.ndarray) -> np.ndarray:
    """Real samples -> modes 0..N/2 in raw ``np.fft.rfft`` units, along the last axis.

    No scale and no phase: the unitary forward and inverse scales multiply to
    (dx/sqrt(2*pi)) * (dp*N/sqrt(2*pi)) = 1 and the phase squares to 1, so
    ``irfft_raw`` returns the samples with no factor, and a diagonal map of
    the modes reads the same in either unit. ``raw_to_unitary`` converts to
    ``forward_transform``'s coefficients; ``half_sq_norms`` takes norms.
    """
    return np.fft.rfft(values, axis=-1)


def irfft_raw(grid: SpectralGrid, raw: np.ndarray) -> np.ndarray:
    """Modes 0..K-1 in ``rfft_raw`` units (K <= N/2+1, the modes above K
    zero) -> the real samples along the last axis."""
    return np.fft.irfft(raw, n=grid.n_points, axis=-1)


def raw_to_unitary(grid: SpectralGrid, raw: np.ndarray) -> np.ndarray:
    """Half spectra in ``rfft_raw`` units -> ``forward_transform``'s unitary
    coefficients of modes 0..N/2; ``unitary_spectrum`` gives all N modes."""
    return np.multiply(grid._raw_scale, raw)


def unitary_spectrum(grid: SpectralGrid, raw: np.ndarray) -> np.ndarray:
    """Half spectra in ``rfft_raw`` units, modes 0..K-1 (K <= N/2+1, the
    modes above K zero) -> ``forward_transform``'s full spectra of the real
    fields, in one (..., N) allocation and no temporary: the unitary
    coefficients of modes 0..K-1, full[N-k] = conj(full[k]) for their
    mirrors, scaled from ``raw`` and conjugated in place, and zeros between."""
    n, k = grid.n_points, raw.shape[-1]
    m = min(k, grid.n_half - 1)  # modes 1..m-1 have mirrors; N/2 is its own
    full = np.empty(raw.shape[:-1] + (n,), dtype=np.complex128)
    np.multiply(grid._raw_scale[:k], raw, out=full[..., :k])
    full[..., k : n - m + 1] = 0.0
    mirror = full[..., n - m + 1 :]
    np.multiply(grid._raw_scale[m - 1 : 0 : -1], raw[..., m - 1 : 0 : -1], out=mirror)
    np.conjugate(mirror, out=mirror)
    return full


def to_spectral(f: Field) -> Field:
    return f if f.rep == SPECTRAL else forward_transform(f)


def to_physical(f: Field) -> Field:
    return f if f.rep == PHYSICAL else inverse_transform(f)


def spectral_derivative(f: Field, order: int) -> Field:
    """Differentiate by multiplying the spectrum with (i*p)**order.

    Orders above 8 are rejected: nothing in the model needs them, and the
    roundoff amplification p_max**order would be unchecked.
    """
    if not 0 <= order <= _MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order must be in [0, 8], got {order}")
    fh = to_spectral(f)
    if order == 0:
        return fh
    mult = (1j * f.grid.wavenumbers) ** order
    return Field(f.grid, mult * fh.values, SPECTRAL)


def l2_norm(f: Field) -> float:
    """Discrete L2 norm; identical (Parseval) in either representation."""
    w = f.grid.dx if f.rep == PHYSICAL else f.grid.dp
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2) * w))


def l1_norm(f: Field) -> float:
    """Discrete L1 norm of the physical samples (rectangle rule)."""
    fp = to_physical(f)
    return float(np.sum(np.abs(fp.values)) * f.grid.dx)


def h6_norm(f: Field) -> float:
    """Sobolev norm sqrt(||f||^2 + ||d^6 f/dx^6||^2).

    Evaluated on the spectral side as sum (1 + p^12) |fhat|^2 dp, which is
    the same thing and avoids a transform pair.
    """
    fh = to_spectral(f)
    total = np.sum((1.0 + f.grid._p12) * np.abs(fh.values) ** 2) * f.grid.dp
    return float(np.sqrt(total))


def transform_linf_bound(f: Field) -> tuple[float, float]:
    """Diagnostic pair (max |fhat|, ||f||_L1 / sqrt(2*pi)).

    For every field the first entry must not exceed the second (up to
    roundoff); equality is attained at p=0 for nonnegative f.
    """
    lhs = float(np.max(np.abs(to_spectral(f).values)))
    rhs = l1_norm(f) / np.sqrt(2.0 * np.pi)
    return lhs, rhs


def tail_mass_fraction(f: Field, core_fraction: float = CORE_FRACTION) -> float:
    """Fraction of L2 mass outside the central core of the box.

    Returns 0 for an identically zero field.
    """
    fp = to_physical(f)
    dens = np.abs(fp.values) ** 2
    total = float(np.sum(dens))
    if total == 0.0:
        return 0.0
    cut = core_fraction * f.grid.half_length
    outer = float(np.sum(dens[np.abs(f.grid.x) >= cut]))
    return outer / total


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself if it is read-only and owns its data, so that nothing can
    write to it, else a read-only copy."""
    if a.flags.writeable or not a.flags.owndata:
        a = a.copy()
        a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class SpacetimeField:
    """Spectral frames u_hat(p, t_j) on a uniform time grid t_0=0 < ... < t_M.

    frames has shape (M+1, N); all frames share one grid. A read-only
    complex128 array that owns its data is adopted as it is; anything else
    is copied.
    """

    grid: SpectralGrid
    time_grid: np.ndarray
    frames: np.ndarray

    def __post_init__(self):
        tg = np.asarray(self.time_grid, dtype=float)
        fr = np.asarray(self.frames, dtype=np.complex128)
        if tg.ndim != 1 or tg.size < 2:
            raise ValueError("time_grid needs at least two points")
        if tg[0] != 0.0 or np.any(np.diff(tg) <= 0):
            raise ValueError("time_grid must start at 0 and strictly increase")
        dts = np.diff(tg)
        if not np.allclose(dts, dts[0], rtol=1e-12, atol=0.0):
            raise ValueError("time_grid must be uniform")
        if fr.shape != (tg.size, self.grid.n_points):
            raise ValueError(
                f"frames shape {fr.shape} != ({tg.size}, {self.grid.n_points})"
            )
        object.__setattr__(self, "time_grid", _frozen(tg))
        object.__setattr__(self, "frames", _frozen(fr))

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def horizon(self) -> float:
        return float(self.time_grid[-1])

    @property
    def dt(self) -> float:
        return float(self.time_grid[1] - self.time_grid[0])

    def frame(self, j: int) -> Field:
        return Field(self.grid, self.frames[j], SPECTRAL)


def _check_same_layout(u: SpacetimeField, v: SpacetimeField):
    if u.grid is not v.grid and (
        u.grid.half_length != v.grid.half_length or u.grid.n_points != v.grid.n_points
    ):
        raise ValueError("spacetime fields live on different grids")
    if u.time_grid.shape != v.time_grid.shape or not np.array_equal(
        u.time_grid, v.time_grid
    ):
        raise ValueError("spacetime fields live on different time grids")


def trapezoid_weights(time_grid: np.ndarray) -> np.ndarray:
    """Weights w with w @ f = the composite trapezoid rule of f over time_grid."""
    dt = np.diff(time_grid)
    w = np.zeros(len(time_grid))
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    return w


def half_sq_norms(
    grid: SpectralGrid,
    half: np.ndarray,
    kind: str,
    out: np.ndarray | None = None,
    first: int = 0,
) -> np.ndarray:
    """Squared norms of half-spectrum frames in ``rfft_raw`` units, one per
    row of ``half`` (..., K), contiguous complex128: modes first..first+K-1
    of frames whose other modes 0..N/2 are not counted (zero, or summed in
    another call).

    Each stored mode counts with its multiplicity in the full spectrum of a
    real field. ``kind`` picks the norm:

        "l2"  ||u||^2
        "d6"  ||d^6 u/dx^6||^2
        "h6"  ||u||^2 + ||d^6 u/dx^6||^2

    The float64 view is squared and weighted, with no complex modulus, into
    ``out`` if given (``half``'s shape and dtype, or ``half`` itself). Each
    row is then summed on its own, not by a matrix product, whose result for
    one row depends on the rows beside it, so a row reads the same bits in
    any block or batch. Every half-spectrum norm in the package is summed
    here.
    """
    k = half.shape[-1]
    sq = np.square(half.view(np.float64), out=None if out is None else out.view(np.float64))
    sq *= grid._view_weights[kind][2 * first : 2 * (first + k)]
    return np.add.reduce(sq, axis=-1)


def block_bounds(grid: SpectralGrid, n: int) -> list[tuple[int, int]]:
    """The (start, end) bounds of n rows of a trajectory on ``grid``, in
    order, in blocks whose N real samples are about BLOCK_BYTES each: the
    transforms touch N samples a row, whatever the stored band. When fewer
    than two blocks' worth of rows remain, the last block takes them all, so
    no block is a short tail and none is more than twice the size."""
    step = max(1, BLOCK_BYTES // (8 * grid.n_points))
    count = max(1, n // step)
    return [(i * step, n if i == count - 1 else (i + 1) * step) for i in range(count)]


def contraction_sq(
    grid: SpectralGrid,
    u: np.ndarray,
    du_dt: np.ndarray,
    scratch: np.ndarray,
    minus: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Per-frame squares of the solve's contraction norm

        ||du/dt||^2 + ||d^6 u/dx^6||^2 + ||u||^2

    of half-spectrum frames in ``rfft_raw`` units (a block of rows of a
    trajectory, modes 0..K-1), or of their differences from the pair
    ``minus`` (then u - minus[0] and du_dt - minus[1]). The sixth derivative
    is spectral and the time derivative is supplied, never
    finite-differenced here. ``scratch``, a complex array of u's shape
    (``minus[0]`` itself, if that is not needed afterwards), takes the
    differences and the squares. Over the window the norm is
    sqrt(w @ (these squares of every frame)) with w the
    ``trapezoid_weights`` of the time grid.
    """
    if minus is not None:
        u = np.subtract(u, minus[0], out=scratch)
    sq = half_sq_norms(grid, u, "h6", out=scratch)
    if minus is not None:
        du_dt = np.subtract(du_dt, minus[1], out=scratch)
    sq += half_sq_norms(grid, du_dt, "l2", out=scratch)
    return sq


def frame_norms(
    grid: SpectralGrid, half: np.ndarray, kind: str, tail: np.ndarray | None = None
) -> np.ndarray:
    """The norms sqrt(``half_sq_norms``) of (M+1, K) half-spectrum frames,
    block by block of rows (``block_bounds``) through one block of scratch,
    so that no trajectory-sized temporary is allocated. ``tail`` holds row
    0's modes K, K+1, ... if it has any: its sum is added to row 0's."""
    blocks = block_bounds(grid, len(half))
    scratch = np.empty_like(half[: max(e - s for s, e in blocks)])
    out = np.empty(len(half))
    for s, e in blocks:
        out[s:e] = half_sq_norms(grid, half[s:e], kind, out=scratch[: e - s])
    if tail is not None:
        out[0] += half_sq_norms(grid, tail, kind, first=half.shape[-1])
    return np.sqrt(out)


def spacetime_sobolev_norm(u: SpacetimeField, du_dt: SpacetimeField) -> float:
    """The contraction norm of ``contraction_sq`` for full-spectrum
    fields of one layout, with ``forward_transform``'s coefficients."""
    _check_same_layout(u, du_dt)
    grid = u.grid
    per_frame = (
        np.sum((1.0 + grid._p12) * np.abs(u.frames) ** 2, axis=1)
        + np.sum(np.abs(du_dt.frames) ** 2, axis=1)
    ) * grid.dp
    return float(np.sqrt(np.trapezoid(per_frame, u.time_grid)))
