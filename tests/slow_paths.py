"""The slow paths the solvers are checked against, one per solver.

Each works on the complex full spectrum of all N modes, in
``forward_transform``'s unitary coefficients, and goes frame by frame
through ``Field``s: one ``inverse_transform`` / ``forward_transform`` pair
and one ``apply_nonlinearity`` call per frame. None reads a half-spectrum
weight or a raw ``rfft`` unit, so they share with the solvers only the
symbol, the kernel spectrum, the phi-weights and the reaction.

- ``_per_frame_forcing``: the transform of F(v) of each frame.
- ``_per_frame_picard``: the Picard loop of ``picard_solve``, with its
  default tolerance, the norm of ``spacetime_sobolev_norm``.
- ``_full_spectrum_heun``: the integrating-factor Heun oracle of
  ``etd_reference_solve``.
"""

import numpy as np

import cubelap as cl


def _per_frame_forcing(frames, prob):
    """F(v) transformed frame by frame on all N modes, through ``Field``s."""
    grid = prob.grid
    out = np.empty_like(frames)
    for j in range(frames.shape[0]):
        phys = cl.inverse_transform(cl.Field(grid, frames[j], "spectral")).values.real
        vals = cl.apply_nonlinearity(phys, prob.nonlinearity, grid)
        out[j] = cl.forward_transform(cl.Field(grid, vals)).values
    return out


def _per_frame_picard(prob, T, n_frames):
    """The Field-by-Field Picard loop: per-frame transforms and reaction calls,
    phi-weights rebuilt on every iteration, wrappers around every iterate;
    the last iterate's final frame and the distances."""
    grid = prob.grid
    lam = cl.build_symbol(grid, prob.a, prob.b)
    tg = np.linspace(0.0, T, n_frames + 1)
    u0h = cl.to_spectral(prob.u0).values
    g_hat = prob.kernel.spectrum_on(grid)
    free = np.exp(np.outer(tg, lam)) * u0h[None, :]
    u_prev = cl.SpacetimeField(grid, tg, free)
    du_prev = cl.SpacetimeField(grid, tg, lam[None, :] * free)
    distances, tol = [], None
    while tol is None or distances[-1] >= tol:
        fh = _per_frame_forcing(u_prev.frames, prob)
        dt = u_prev.dt
        z = dt * lam
        w_prev, w_next = dt * (cl.phi1(z) - cl.phi2(z)), dt * cl.phi2(z)
        u = np.empty_like(fh)
        u[0] = u0h
        for j in range(n_frames):
            u[j + 1] = np.exp(dt * lam) * u[j] + np.sqrt(2.0 * np.pi) * g_hat * (
                w_prev * fh[j] + w_next * fh[j + 1]
            )
        u_new = cl.SpacetimeField(grid, tg, u)
        du_new = cl.SpacetimeField(
            grid, tg, lam[None, :] * u + np.sqrt(2.0 * np.pi) * g_hat[None, :] * fh
        )
        distances.append(cl.spacetime_sobolev_norm(
            cl.SpacetimeField(grid, tg, u_new.frames - u_prev.frames),
            cl.SpacetimeField(grid, tg, du_new.frames - du_prev.frames),
        ))
        if tol is None:
            tol = 1e-10 * max(1.0, cl.spacetime_sobolev_norm(u_new, du_new))
        u_prev, du_prev = u_new, du_new
    return u_prev.frames[-1], np.array(distances)


def _full_spectrum_heun(prob, T, substeps, n_frames, start=None):
    """The integrating-factor Heun oracle on all N modes, with the full
    complex transforms, from the real samples ``start`` ((N,), or (R, N)
    for R states marched side by side; ``prob.u0`` by default); its frames,
    (n_frames + 1,) + ``start``'s shape."""
    grid = prob.grid
    lam = cl.build_symbol(grid, prob.a, prob.b)
    g = np.sqrt(2.0 * np.pi) * prob.kernel.spectrum_on(grid)
    h = T / substeps
    e_h = np.exp(h * lam)
    start = prob.u0.values.real if start is None else np.asarray(start, float)
    rows = start.reshape(-1, grid.n_points)

    def reaction(u_hat):
        return g * _per_frame_forcing(u_hat, prob)

    u_hat = np.stack([cl.forward_transform(cl.Field(grid, row)).values for row in rows])
    frames = [u_hat]
    for n in range(substeps):
        nn = reaction(u_hat)
        pred = e_h * (u_hat + h * nn)
        u_hat = e_h * u_hat + 0.5 * h * (e_h * nn + reaction(pred))
        if (n + 1) % (substeps // n_frames) == 0:
            frames.append(u_hat)
    return np.stack(frames).reshape((n_frames + 1,) + start.shape)
