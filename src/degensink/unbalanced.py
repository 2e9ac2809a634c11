"""Penalized (unbalanced) variants: marginal constraints replaced by
KL penalties with weight lam.

Two solvers are provided.  ``solve_schu_lambda`` keeps the first marginal
as a hard constraint and penalizes the second (the one-sided scaling
iteration, exponent lam/(1+lam) on the b-update).  ``solve_two_sided``
penalizes both marginals with the symmetric exponent on both updates; as
lam grows its solution converges to the componentwise geometric mean of
the two limit couplings of the constrained problem.

Both solvers run on the absorption-stabilized kernel of
:mod:`degensink.sinkhorn` with per-side exponents: the true scaling
vectors of the penalized problems grow like exp(lam |log(mu*/mu)| / 2) on
degenerate instances, far beyond float64 for lam in the thousands, so the
kernel keeps the scaled potentials in a fixed window and absorbs the rest
into its log-potentials.
"""

from dataclasses import dataclass

import numpy as np

from .errors import Assumption1Violated, NotConverged
from .measures import (
    as_triple,
    marginal_col,
    marginal_row,
    rel_entropy,
    rel_entropy_coupling,
    total_mass,
    tv_distance,
)
from .scalability import check_assumption1
from .sinkhorn import StopConfig, _LogIteration, _gap_unbalanced_from_logs, run_sinkhorn

__all__ = [
    "PenaltyConfig",
    "solve_schu_lambda",
    "solve_two_sided",
    "penalized_objective",
    "stationarity_residual",
    "epsilon_fill",
    "sweep_lambda",
    "sweep_epsilon",
]

SIDE_SECOND = "second-marginal-only"
SIDE_BOTH = "both-marginals"


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalization setup: weight ``lam`` and which marginals are relaxed.

    ``epsilon_tol=None`` selects the per-solver default: a 1e-3 duality-gap
    threshold for the one-sided solver, a 1e-10 successive-iterate TV
    threshold for the two-sided solver.
    """

    lam: float
    sides: str = SIDE_BOTH
    epsilon_tol: float | None = None
    max_iter: int = 500_000

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.sides not in (SIDE_SECOND, SIDE_BOTH):
            raise ValueError(f"unknown sides {self.sides!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def solve_schu_lambda(r, mu, nu, cfg):
    """Solve the one-sided penalized problem

        min  H(P | R) + lam H(nu^P | nu)   over P with first marginal mu.

    Scaling iteration: exact a-projection, damped b-update with exponent
    lam/(1+lam).  Stops when the penalized duality gap falls below the
    threshold (measured against its known fixed-point offset
    M(R) - M(mu), which is what the gap converges to instead of 0 when the
    reference mass differs from the target's), or when the iterates are
    numerically stationary.  The returned coupling has first marginal
    exactly mu.
    """
    if cfg.sides != SIDE_SECOND:
        raise ValueError("solve_schu_lambda requires a second-marginal-only config")
    r, mu, nu = as_triple(r, mu, nu)
    if not check_assumption1(r, mu, nu):
        raise Assumption1Violated("the scaling iteration is undefined for this triple")
    lam = float(cfg.lam)
    eps = 1e-3 if cfg.epsilon_tol is None else cfg.epsilon_tol
    kernel = _LogIteration(r, mu, nu, (1.0, lam / (1.0 + lam)))
    stat_tol = 1e-13 * max(total_mass(mu), 1.0)
    offset = total_mass(r) - total_mass(mu)
    p_old = None
    for _ in range(cfg.max_iter):
        kernel.step()
        p, _ = kernel.couplings()
        gap = _gap_unbalanced_from_logs(kernel.log_a(), kernel.log_b_prev(), p, r, mu, nu, lam)
        if abs(gap - offset) <= eps:
            return p
        if p_old is not None and tv_distance(p, p_old) <= stat_tol:
            return p
        p_old = p
    raise NotConverged(f"one-sided penalized solve did not converge in {cfg.max_iter} iterations",
                       result=p)


def solve_two_sided(r, mu, nu, cfg):
    """Solve the doubly penalized problem

        min  H(P | R) + lam ( H(mu^P | mu) + H(nu^P | nu) )

    by alternating damped scaling updates with exponent lam/(1+lam) on
    both potentials.  Stops once successive iterates move by less than the
    threshold in total variation AND the first-order stationarity residual
    of the penalized objective is below 1e-8 (scaled by the target mass);
    the fixed point of the iteration satisfies it exactly, so when the
    residual is still too large at iterate stationarity the threshold is
    tightened and the iteration continues.
    """
    if cfg.sides != SIDE_BOTH:
        raise ValueError("solve_two_sided requires a both-marginals config")
    r, mu, nu = as_triple(r, mu, nu)
    if not check_assumption1(r, mu, nu):
        raise Assumption1Violated("the scaling iteration is undefined for this triple")
    lam = float(cfg.lam)
    eps = 1e-10 if cfg.epsilon_tol is None else cfg.epsilon_tol
    q_exp = lam / (1.0 + lam)
    kernel = _LogIteration(r, mu, nu, (q_exp, q_exp))
    p_old = r
    res_tol = 1e-8 * max(total_mass(mu), total_mass(nu), 1.0)
    for _ in range(cfg.max_iter):
        kernel.step()
        _, p = kernel.couplings()
        if tv_distance(p, p_old) <= eps:
            if stationarity_residual(p, r, mu, nu, lam) <= res_tol:
                return p
            eps *= 1e-2
        p_old = p
    raise NotConverged(f"two-sided penalized solve did not converge in {cfg.max_iter} iterations",
                       result=p)


def penalized_objective(p, r, mu, nu, lam):
    """(1/lam) H(P|R) + H(mu^P|mu) + H(nu^P|nu): the rescaled two-sided objective."""
    return (rel_entropy_coupling(p, r) / lam
            + rel_entropy(marginal_row(p), mu)
            + rel_entropy(marginal_col(p), nu))


def stationarity_residual(p, r, mu, nu, lam):
    """Worst first-order residual of the two-sided objective along the
    row and column scaling directions at ``p``.

    The directional derivative along scaling row i is
    sum_j P_ij g_ij with g = (1/lam) log(P/R) + log(mu^P/mu) (+) log(nu^P/nu);
    the fixed point of the damped iteration zeroes it identically.
    """
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    row = marginal_row(p)
    col = marginal_col(p)
    sup = p > 0
    g = np.zeros_like(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        g[sup] = np.log(p[sup] / r[sup]) / lam
        lrow = np.where(row > 0, np.log(np.where(row > 0, row, 1.0) / np.where(mu > 0, mu, 1.0)), 0.0)
        lcol = np.where(col > 0, np.log(np.where(col > 0, col, 1.0) / np.where(nu > 0, nu, 1.0)), 0.0)
    g = np.where(sup, g + lrow[:, None] + lcol[None, :], 0.0)
    row_res = np.abs((p * g).sum(axis=1))
    col_res = np.abs((p * g).sum(axis=0))
    return float(max(row_res.max(initial=0.0), col_res.max(initial=0.0)))


def epsilon_fill(r, eps):
    """Replace every zero entry of ``r`` by ``eps`` (positive entries kept)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    r = np.asarray(r, dtype=float)
    return np.where(r > 0, r, eps)


def sweep_lambda(r, mu, nu, lambdas, r_star=None, max_iter=500_000):
    """Distance of the two-sided solution to the geometric-mean limit, per lam.

    Returns a list of ``(lam, tv)`` rows, sorted by lam.  ``r_star`` is the
    reference limit coupling; when omitted it is computed by a tight
    constrained run.
    """
    if r_star is None:
        r_star = _tight_limit(r, mu, nu).r_star
    rows = []
    for lam in sorted(float(x) for x in lambdas):
        sol = solve_two_sided(r, mu, nu, PenaltyConfig(lam=lam, max_iter=max_iter))
        rows.append((lam, tv_distance(sol, r_star)))
    return rows


def sweep_epsilon(r, mu, nu, epsilons, r_star=None, cfg=None):
    """Distance of the filled-reference solution to the limit, per fill value.

    For each eps, solves the problem with reference ``epsilon_fill(r, eps)``
    (strictly positive, hence scalable for balanced full-support targets)
    and records the total-variation distance of its limit to ``r_star``
    along with the iteration count.  Returns ``(eps, tv, iterations)`` rows
    sorted by decreasing eps.
    """
    if r_star is None:
        r_star = _tight_limit(r, mu, nu).r_star
    cfg = cfg or StopConfig(epsilon_tol=1e-10, max_iter=200_000, mode="iterate-delta")
    rows = []
    for eps in sorted((float(x) for x in epsilons), reverse=True):
        report = run_sinkhorn(epsilon_fill(r, eps), mu, nu, cfg)
        rows.append((eps, tv_distance(report.r_star, r_star), report.iterations))
    return rows


def _tight_limit(r, mu, nu):
    return run_sinkhorn(r, mu, nu,
                        StopConfig(epsilon_tol=1e-13 * max(total_mass(mu), 1.0),
                                   max_iter=200_000, mode="iterate-delta"),
                        stall_exit=True)
