"""Binary dump of spacetime fields.

Layout (little-endian throughout):

    magic   4 bytes  b"SXD1"
    N       u32      grid points
    L       f64      box half length
    M       u32      time intervals (M+1 frames follow)
    T       f64      window horizon
    data    (M+1)*N pairs of f64 (re, im), spectral ordering, frame-major
"""

from __future__ import annotations

import struct

import numpy as np

from .grid import SpacetimeField, SpectralGrid, make_grid

MAGIC = b"SXD1"
_HEADER = struct.Struct("<4sIdId")


def dump_spacetime_field(path, field: SpacetimeField) -> None:
    header = _HEADER.pack(
        MAGIC,
        field.grid.n_points,
        field.grid.half_length,
        field.n_frames - 1,
        field.horizon,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        # the array's own buffer: no copy of the payload when it is <c16 already
        fh.write(np.ascontiguousarray(field.frames, dtype="<c16").data)


def load_spacetime_field(path, grid: SpectralGrid | None = None) -> SpacetimeField:
    """Read a dump back; pass the grid to share it, else one is rebuilt."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, n, half_length, m, horizon = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        payload = fh.read()
    expected = (m + 1) * n * 16
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    frames = np.frombuffer(payload, dtype="<c16").reshape(m + 1, n).astype(
        np.complex128
    )
    if grid is None:
        grid = make_grid(half_length, n)
    elif grid.n_points != n or grid.half_length != half_length:
        raise ValueError("provided grid does not match the dumped header")
    time_grid = np.linspace(0.0, horizon, m + 1)
    return SpacetimeField(grid, time_grid, frames)
