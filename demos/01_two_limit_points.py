"""The worked 3x3 example, end to end.

An upper-triangular reference with targets mu = (2,2,2), nu = (2,3,1) admits
no coupling with those marginals (the last row must carry mass 2 into a
column that only wants 1).  The scaling iteration still behaves perfectly
well: it alternates toward two limit points, one matching mu exactly, the
other matching nu exactly, and everything about the pair is computable.
"""

import numpy as np

import degensink as dg
from degensink.experiments import run_appendix_a

np.set_printoptions(precision=4, suppress=True)

R, mu, nu = dg.appendix_a_instance()
print("reference R:\n", R)
print("targets     mu =", mu, "  nu =", nu)

print("\nclassification:", dg.classify_exact(R, mu, nu))
print("(the witness row set {x3} has mu-mass 2 but its image carries only nu-mass 1)")

cfg = dg.StopConfig(epsilon_tol=1e-13 * 6, max_iter=5000, mode="iterate-delta")
report = dg.run_sinkhorn(R, mu, nu, cfg)

print("\nP* (first marginal = mu exactly):\n", report.p_star)
print("Q* (second marginal = nu exactly):\n", report.q_star)
print("R* = componentwise geometric mean:\n", report.r_star)
print("total mass of R*:", round(report.z_norm, 6), " (= 2*sqrt(5) + sqrt(2))")

print("\nmodified marginals:")
print("  mu* =", report.mu_star, "  nu* =", report.nu_star)
print("  geometric means: mu_g =", report.mu_g, "  nu_g =", report.nu_g)

phi, psi = dg.potentials_phi_psi(report, mu, nu)
print("\nlog-ratio potentials phi =", phi, " psi =", psi)
print("phi_i + psi_j vanishes on the common support and is positive elsewhere on supp R:")
print(phi[:, None] + psi[None, :])

diag = dg.check_optimality(report, R, mu, nu)
print("\noptimality diagnostics pass at 1e-6:", diag.passed())

print("\nfull iterate transcript (as printed in the worked example):\n")
print(run_appendix_a())
