import struct

import numpy as np
import pytest

import cubelap as cl


def _sample_field():
    g = cl.make_grid(7.5, 32)
    tg = np.linspace(0.0, 1.25, 6)
    rng = np.random.default_rng(17)
    frames = rng.normal(size=(6, 32)) + 1j * rng.normal(size=(6, 32))
    return cl.SpacetimeField(g, tg, frames)


def test_dump_load_round_trip(tmp_path):
    u = _sample_field()
    path = tmp_path / "field.sxd"
    cl.dump_spacetime_field(path, u)
    back = cl.load_spacetime_field(path)
    assert back.grid.n_points == 32
    assert back.grid.half_length == 7.5
    assert np.array_equal(back.frames, u.frames)
    assert np.allclose(back.time_grid, u.time_grid, rtol=0, atol=1e-15)
    shared = cl.load_spacetime_field(path, grid=u.grid)
    assert shared.grid is u.grid


def test_dump_header_layout(tmp_path):
    u = _sample_field()
    path = tmp_path / "field.sxd"
    cl.dump_spacetime_field(path, u)
    raw = path.read_bytes()
    magic, n, L, m, T = struct.unpack_from("<4sIdId", raw)
    assert magic == b"SXD1"
    assert (n, m) == (32, 5)
    assert (L, T) == (7.5, 1.25)
    assert len(raw) == struct.calcsize("<4sIdId") + 6 * 32 * 16
    assert raw[struct.calcsize("<4sIdId"):] == u.frames.astype("<c16").tobytes()


@pytest.mark.parametrize("size", [0, 1, struct.calcsize("<4sIdId") - 1])
def test_load_refuses_a_truncated_header(tmp_path, size):
    full = tmp_path / "field.sxd"
    cl.dump_spacetime_field(full, _sample_field())
    path = tmp_path / "short.sxd"
    path.write_bytes(full.read_bytes()[:size])
    with pytest.raises(ValueError) as exc:
        cl.load_spacetime_field(path)
    assert type(exc.value) is ValueError and str(exc.value) == f"{path}: truncated header"


def test_load_rejects_corruption(tmp_path):
    u = _sample_field()
    path = tmp_path / "field.sxd"
    cl.dump_spacetime_field(path, u)
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.sxd"
    bad.write_bytes(b"NOPE" + bytes(raw[4:]))
    with pytest.raises(ValueError, match="magic"):
        cl.load_spacetime_field(bad)
    trunc = tmp_path / "trunc.sxd"
    trunc.write_bytes(bytes(raw[: len(raw) - 8]))
    with pytest.raises(ValueError, match="payload"):
        cl.load_spacetime_field(trunc)
    wrong_grid = cl.make_grid(7.5, 64)
    with pytest.raises(ValueError, match="grid"):
        cl.load_spacetime_field(path, grid=wrong_grid)
