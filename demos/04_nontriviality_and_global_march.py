"""Support overlap decides whether a zero start can stay at zero.

If the spectra of the kernel and of the reaction-at-zero F(0, .) share no
support, the reaction never feeds any mode and the zero-start solution stays
identically zero. With overlapping spectra (any pair of gaussians) the same
zero start is forced away from zero. A long horizon is covered by the
window-chained global march.

Run:  python demos/04_nontriviality_and_global_march.py
"""

import numpy as np

import cubelap as cl

grid = cl.make_grid(20.0, 256)
zero_start = cl.Field(grid, np.zeros(grid.n_points), "physical")

# --- disjoint bands: kernel lives in |p| <= 1, the source in 2 <= |p| <= 3
kernel_band = cl.bandlimited_kernel(grid, amplitude=1.0, cutoff=1.0)
source_band = cl.source_bandlimited(grid, 1.0, 2.0, 3.0)
reaction_band = cl.linear_plus_source(0.0, source_band)
overlap = cl.nontriviality_overlap(kernel_band, reaction_band, grid)
print(f"disjoint bands: overlap measure = {overlap}")

prob = cl.ProblemSpec(a=0.0, b=0.0, kernel=kernel_band, nonlinearity=reaction_band,
                      u0=zero_start, grid=grid)
reports = cl.global_march(prob, 0.5, n_frames=16)
print(f"zero-start solve: max |u_hat| over the run = "
      f"{max(np.max(np.abs(r.field.frames)) for r in reports):.3e}  (stays at zero)")

# --- overlapping gaussians: the same zero start is forced to move
kernel_g = cl.gaussian_kernel(amplitude=0.01, width=2.0)
q = cl.kernel_strength(kernel_g)
reaction_g = cl.saturating(0.3 / (q * np.sqrt(2.0)), cl.source_gaussian(0.1, 1.0))
overlap_g = cl.nontriviality_overlap(kernel_g, reaction_g, grid)
print(f"\ngaussian kernel and source: overlap measure = {overlap_g:.4f}")

prob_g = cl.ProblemSpec(a=0.0, b=0.0, kernel=kernel_g, nonlinearity=reaction_g,
                        u0=zero_start, grid=grid)
reports_g = cl.global_march(prob_g, 3.0, n_frames=32)
print(f"march over horizon 3.0 used {len(reports_g)} certified windows "
      f"of length {reports_g[0].field.horizon:.4f}")
for rep in reports_g:
    print(f"  window at t = {rep.t_offset:4.2f}: {rep.trace.iterations} iterations, "
          f"end L2 = {rep.l2_per_frame[-1]:.6f}")
print(f"final overlap record: {overlap_g:.4f}; "
      "the zero start did not stay at zero")
