"""Finding the limit support first, then scaling fast.

When the limit couplings have more zeros than the reference, the plain
scaling iteration slows down badly (its potentials diverge while the doomed
entries creep to zero).  Both support detectors in the package sidestep
that: the exact one removes isolated scalable blocks, the minimal sets of
maximal mass ratio, found by max-flow at any size, and the approximate one
finds the same blocks by scaling with row dropping.  Masking the reference to the detected support restores
a clean linear rate without changing the limits.
"""

import time

import numpy as np

import degensink as dg
from degensink.instances import block_ratio_schedule, staircase_instance

np.set_printoptions(precision=3, suppress=True)

# a 100x100 upper-triangular reference whose limit support is 6 diagonal blocks
n, blocks = 100, 6
sizes = [n // blocks + (1 if i < n % blocks else 0) for i in range(blocks)]
R, mu, nu, expected_support, bounds = staircase_instance(n, sizes, block_ratio_schedule(blocks))
print(f"instance: {n}x{n} upper-triangular, {blocks} limit blocks {bounds}")

# exact procedure: removes blocks bottom-right first
t0 = time.perf_counter()
trace = dg.exact_support_procedure(R, mu, nu)
t_exact = time.perf_counter() - t0
print(f"\nexact procedure ({t_exact:.3f}s) removes blocks bottom-right first:")
for step in trace.steps:
    print(f"  rows {step.sisp_rows[0]}..{step.sisp_rows[-1]} x cols {step.sisp_cols[0]}..{step.sisp_cols[-1]}"
          f"   theta = {step.theta:.4f}")
print("exact support matches the construction:", np.array_equal(trace.final_mask, expected_support))

# approximate detector at full scale
t0 = time.perf_counter()
approx = dg.approx_support_algorithm1(R, mu, nu)
t_detect = time.perf_counter() - t0
print(f"\napproximate detector: {approx.inner_iterations} inner iterations, "
      f"{len(approx.steps)} reduction steps, {t_detect:.2f}s")
print("detected support matches the construction:", np.array_equal(approx.mask, expected_support))

# plain vs masked solve
cfg = dg.StopConfig(epsilon_tol=1e-9)
plain = dg.run_sinkhorn(R, mu, nu, cfg)
masked = dg.masked_solve(R, mu, nu, approx.mask, cfg)
print(f"\nplain solve:  {plain.iterations} iterations")
print(f"masked solve: {masked.iterations} iterations "
      f"(+{approx.inner_iterations} for detection)")
print(f"limits agree to {np.abs(plain.p_star - masked.p_star).max():.2e}")
print(f"masked log10-TV decay: slope {masked.rate_slope:.3f} per iteration, "
      f"R^2 = {masked.rate_r_squared:.4f}  (clean linear rate)")
