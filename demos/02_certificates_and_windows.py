"""The contraction certificate: when a solve window is provably safe.

The fixed-point map contracts whenever

    C = q * l * sqrt(T^2 e^{2aT} (1 + 2(a + |b| + 1)^2) + 2) < 1,

with q the kernel strength (L1 size of the kernel and its sixth derivative)
and l the reaction's Lipschitz constant. C grows with the window length T,
so there is a supremal admissible window; a long horizon is covered by
chaining safety-scaled windows.

Run:  python demos/02_certificates_and_windows.py
"""

import numpy as np

import cubelap as cl

# Kernel strength for a gentle gaussian interaction kernel.
kernel = cl.gaussian_kernel(amplitude=0.01, width=2.0)
q = cl.kernel_strength(kernel)
print(f"kernel strength q = {q:.6f}  (L1 sizes {kernel.l1:.4f} and {kernel.l1_d6:.4f})")

# How the constant grows with the window for a saturating reaction.
ell = 2.0
print(f"\nLipschitz constant l = {ell}, a = 0, b = 1:")
for T in (0.05, 0.2, 0.5, 1.0, 2.0):
    c = cl.contraction_constant(q, ell, T, 0.0, 1.0)
    print(f"  T = {T:4.2f}  ->  C = {c:.4f}  {'valid' if c < 1 else 'too long'}")

t_max = cl.max_window(q, ell, 0.0, 1.0)
print(f"supremal admissible window T_max = {t_max:.6f} "
      f"(C there = {cl.contraction_constant(q, ell, t_max, 0.0, 1.0):.12f})")

# A 10-time-unit horizon is split into certified windows.
sched = cl.window_schedule(10.0, q, ell, 0.0, 1.0, safety=0.9)
print(f"\nhorizon 10.0: {sched.count} windows of length {sched.window_length:.4f} "
      f"(certified cap {sched.t_w:.4f})")
print("per-window certificate:")
print(cl.certificate_report(sched.certificate))

# If the reaction is too stiff for the kernel, no window works: the T -> 0
# limit of C is q*l*sqrt(2), and the scheduler refuses.
try:
    cl.max_window(q, 15.0, 0.0, 1.0)
except cl.NoAdmissibleWindow as exc:
    print(f"l = 15 is refused outright: {exc}")
