"""Penalized (unbalanced) variants: marginal constraints replaced by
KL penalties with weight lam.  ``solve_schu_lambda`` keeps the first
marginal as a hard constraint and penalizes the second; ``solve_two_sided``
penalizes both, and as lam grows its solution converges to the
componentwise geometric mean of the two limit couplings of the constrained
problem.  Both maximize the smooth, strictly concave dual

    D(u, v) = -<R, exp(u (+) v)> + F(u) + lam <nu, 1 - exp(-v/lam)>,   P = R . exp(u (+) v),

on the positive-mass rows and columns, with F(u) = lam <mu, 1 - exp(-u/lam)>
(two-sided) or its lam -> inf limit F(u) = <mu, u> (one-sided).  A fixed
number of closed-form block ascent sweeps of D, the unbalanced scaling
iteration (Chizat-Peyre-Schmitzer-Vialard, Math. Comp. 2018), gives the
start of Newton's method with Armijo backtracking (Brauer-Clason-Lorenz-
Wirth, arXiv 1710.06635).  Newton then takes 0 to 5 m x m linear solves
on the 100 x 100 fig6 instance at lam from 1 to 1e4, and at most 16 on
the test instances at lam up to 1e8 (20 from x = 0), m the number of
positive-mass columns.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotConverged
from .measures import (
    as_coupling,
    as_triple,
    marginal_col,
    marginal_row,
    rel_entropy,
    rel_entropy_coupling,
    total_mass,
    tv_distance,
)
from .scalability import _require_assumption1
from .sinkhorn import StopConfig, _check_lam, run_sinkhorn
from .support import _exact_limit

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

_ARMIJO, _HALVINGS = 1e-4, 60
# block ascent sweeps before the first Newton step, each two
# matrix-vector products.  The seven fig6 solves of the bench (lam = 1 to
# 1e3) take 109 Newton steps and 39 ms from x = 0; after 10 / 20 / 30 /
# 50 / 80 sweeps 29 / 24 / 21 / 21 / 18 steps and 17 / 13.2 / 13.1 /
# 14.5 / 15.6 ms (2 shared vCPUs, one BLAS thread, best of 15)
_SWEEPS = 30
# a trial step is rejected only when D falls by more than its float
# roundoff: this share of the total size of D's terms, of either sign
_ROUNDOFF = 1e-14
# shares of max(M(mu), M(nu), M(P)), P the iterate, for the dual gradient
# and the stationarity residual, both sums weighted by P: P need not carry
# the mass of mu or nu (at lam = 1e-3 it keeps about that of R)
_GRAD_TOL = 1e-12
_STATIONARITY_TOL = 1e-8
_MAX_STEPS = 100


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalization setup: weight ``lam`` and which marginals are relaxed.
    A ``lam`` that is not > 0 (NaN, 0, negative) and an unknown ``sides``
    are rejected.  The solvers work out their stop rule from the masses
    (:func:`_newton_dual`, :func:`solve_two_sided`)."""

    lam: float
    sides: str = SIDE_BOTH

    def __post_init__(self):
        _check_lam(self.lam)
        if self.sides not in (SIDE_SECOND, SIDE_BOTH):
            raise ValueError(f"unknown sides {self.sides!r}")


def _newton_dual(r, mu, nu, cfg, sides):
    """Maximize the dual of the module docstring over x = (u, v): from
    x = 0, ``_SWEEPS`` block ascent sweeps (:func:`_scaling_sweeps`), then
    Newton steps with Armijo backtracking, each one m x m linear solve
    (:func:`_newton_direction`).  On the fig6 instance of the bench the
    seven solves at lam = 1 to 1e3 take 0, 2, 3, 3 (two-sided) and 3, 5, 5
    (one-sided) Newton steps, 109 in all from x = 0.  Returns P, the
    number of Newton steps and the final l1 norm of the gradient, once it
    is at most ``_GRAD_TOL`` max(M(mu), M(nu), M(P)) or its own float
    roundoff, eps_mach (<row P, |u|> + <col P, |v|>), as from lam of about
    1e5 on (|u|, |v| grow like lam).  Raises NotConverged, carrying the
    last P, the steps and that norm, after ``_MAX_STEPS`` steps, when no
    ascent step is left or when the Newton system is singular."""
    if cfg.sides != sides:
        raise ValueError(f"this solver requires a {sides} config")
    r, mu, nu = _require_assumption1(r, mu, nu)  # else the dual is unbounded
    lam, block, k = float(cfg.lam), np.ix_(mu > 0, nu > 0), int((mu > 0).sum())
    weights = np.concatenate([mu[mu > 0], nu[nu > 0]])
    hard = (np.arange(weights.size) < k) & (sides == SIDE_SECOND)  # F(u) = <mu, u>
    with np.errstate(divide="ignore"):
        log_r = np.log(r[block])
    mass = max(total_mass(mu), total_mass(nu))

    def dual(x):
        """P, D and the total size of D's terms; inf or NaN on overflow."""
        with np.errstate(over="ignore", invalid="ignore"):
            p = np.exp(log_r + x[:k, None] + x[None, k:])
            pen = weights * np.where(hard, x, -lam * np.expm1(-np.where(hard, 0.0, x) / lam))
            return p, pen.sum() - p.sum(), np.abs(pen).sum() + p.sum()

    damp = lam / (lam + 1.0)
    x = _scaling_sweeps(r[block], weights[:k], weights[k:], 1.0 if sides == SIDE_SECOND else damp, damp)
    p, d, size = dual(x)
    out = np.zeros(r.shape)
    reason = "step cap reached"
    for step in range(_MAX_STEPS + 1):
        marg = np.concatenate([p.sum(axis=1), p.sum(axis=0)])
        # derivatives of the penalty terms: mu exp(-u/lam) (mu if hard), nu exp(-v/lam)
        w = weights * np.exp(-np.where(hard, 0.0, x) / lam)
        grad = w - marg
        grad_norm = float(np.abs(grad).sum())
        if grad_norm <= max(_GRAD_TOL * max(mass, marg[:k].sum()), np.finfo(float).eps * (marg @ np.abs(x))):
            if sides == SIDE_SECOND:  # the exact maximization over u: row P = mu
                p *= (weights[:k] / marg[:k])[:, None]
            out[block] = p
            return out, step, grad_norm
        if step == _MAX_STEPS:
            break
        try:
            direction = _newton_direction(p, marg + np.where(hard, 0.0, w / lam), grad)
        except np.linalg.LinAlgError:
            reason = "singular Newton system"
            break
        t = 1.0
        for _ in range(_HALVINGS):
            p_t, d_t, size_t = dual(x + t * direction)
            if d_t >= d + _ARMIJO * t * (grad @ direction) - _ROUNDOFF * size:
                break
            t /= 2
        else:
            reason = "no ascent step above float roundoff"
            break
        x, p, d, size = x + t * direction, p_t, d_t, size_t
    out[block] = p
    raise NotConverged(f"penalized dual: gradient l1 norm {grad_norm:.3g} above the stop rule "
                       f"after {step} Newton steps ({reason})",
                       result=out, steps=step, grad_norm=grad_norm)


def _scaling_sweeps(r, mu, nu, damp_u, damp_v):
    """Block ascent on the dual from x = 0: ``_SWEEPS`` times, the exact
    maximizer u = damp_u log(mu / R e^v), then v = damp_v log(nu / R^T e^u),
    with damp = lam / (lam + 1), and damp_u = 1 where u is a hard
    constraint.  Runs on the scalings e^u and e^v, so that each half-sweep
    is one matrix-vector product and one power; stops early, keeping the
    last x, should a scaling leave float range."""
    x, scale_v = np.zeros(mu.size + nu.size), np.ones(nu.size)
    with np.errstate(all="ignore"):
        for _ in range(_SWEEPS):
            scale_u = (mu / (r @ scale_v)) ** damp_u
            scale_v = (nu / (r.T @ scale_u)) ** damp_v
            x_next = np.log(np.concatenate([scale_u, scale_v]))
            if not np.isfinite(x_next).all():
                break
            x = x_next
    return x


def _newton_direction(p, diag, grad):
    """Solve [[diag(d_u), P], [P^T, diag(d_v)]] (du, dv) = grad, the Newton
    system of the negated Hessian, with d = (d_u, d_v) = ``diag``.  One
    m x m solve with the Schur complement S = diag(d_v) - P^T diag(1/d_u) P
    of the diagonal row block gives dv; du = (g_u - P dv) / d_u."""
    k = p.shape[0]
    d_u, g_u = diag[:k], grad[:k]
    scaled = p / d_u[:, None]
    dv = np.linalg.solve(np.diag(diag[k:]) - p.T @ scaled, grad[k:] - scaled.T @ g_u)
    return np.concatenate([(g_u - p @ dv) / d_u, dv])


def solve_schu_lambda(r, mu, nu, cfg):
    """Solve the one-sided penalized problem

        min  H(P | R) + lam H(nu^P | nu)   over P with first marginal mu

    by Newton's method on its dual (module docstring, F(u) = <mu, u>).
    The returned coupling has first marginal mu to float roundoff.
    """
    return _newton_dual(r, mu, nu, cfg, SIDE_SECOND)[0]


def solve_two_sided(r, mu, nu, cfg):
    """Solve the doubly penalized problem

        min  H(P | R) + lam ( H(mu^P | mu) + H(nu^P | nu) )

    by Newton's method on its dual (module docstring).  The solution must
    also have first-order stationarity residual at most
    ``_STATIONARITY_TOL`` max(M(mu), M(nu), M(P)), or at most the
    residual's own float roundoff when that is larger
    (:func:`_stationarity_roundoff`), as at lam below about 1e-7, where g
    carries log(P/R)/lam.  A solve that stops short of it raises
    NotConverged with the solution attached.
    """
    p, steps, grad_norm = _newton_dual(r, mu, nu, cfg, SIDE_BOTH)
    residual = stationarity_residual(p, r, mu, nu, cfg.lam)
    res_tol = _STATIONARITY_TOL * max(total_mass(mu), total_mass(nu), float(p.sum()))
    if not residual <= res_tol:  # the roundoff bound is needed only now
        res_tol = max(res_tol, _stationarity_roundoff(p, r, mu, nu, cfg.lam))
    if not residual <= res_tol:
        raise NotConverged(f"two-sided penalized solve: stationarity residual {residual:.3g} "
                           f"above {res_tol:.3g}", result=p, steps=steps, grad_norm=grad_norm)
    return p


def penalized_objective(p, r, mu, nu, lam):
    """(1/lam) H(P|R) + H(mu^P|mu) + H(nu^P|nu): the rescaled two-sided
    objective.  Raises ValueError on NaN, infinite or negative input and
    on a ``lam`` that is not > 0."""
    p, (r, mu, nu) = as_coupling(p), as_triple(r, mu, nu)
    _check_lam(lam)
    return (rel_entropy_coupling(p, r) / lam
            + rel_entropy(marginal_row(p), mu)
            + rel_entropy(marginal_col(p), nu))


def stationarity_residual(p, r, mu, nu, lam):
    """Worst first-order residual of the two-sided objective along the
    row and column scaling directions at ``p``.

    The directional derivative along scaling row i is
    sum_j P_ij g_ij with g = (1/lam) log(P/R) + log(mu^P/mu) (+) log(nu^P/nu);
    the maximizer of the penalized dual zeroes it identically.
    Raises ValueError on NaN, infinite or negative input, on a ``lam``
    that is not > 0, and when ``p`` and ``r`` differ in shape.
    """
    p, r, g = _stationarity_terms(p, r, mu, nu, lam)
    return _largest_sum(p * g)


def _stationarity_roundoff(p, r, mu, nu, lam):
    """The largest row or column sum of eps_mach P (|g| + (1 + |log R|)/lam),
    which bounds the float roundoff of :func:`stationarity_residual`: P
    carries a relative error of a few eps_mach, which log(P/R)/lam
    multiplies by 1/lam."""
    p, r, g = _stationarity_terms(p, r, mu, nu, lam)
    log_r = np.abs(np.log(np.where(p > 0, r, 1.0)))
    return _largest_sum(np.finfo(float).eps * p * (np.abs(g) + (1.0 + log_r) / lam))


def _stationarity_terms(p, r, mu, nu, lam):
    """The validated P and R and the g of :func:`stationarity_residual`,
    0 off supp(P)."""
    p, (r, mu, nu) = as_coupling(p), as_triple(r, mu, nu)
    _check_lam(lam)
    if p.shape != r.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {r.shape}")
    row = marginal_row(p)
    col = marginal_col(p)
    sup = p > 0
    g = np.zeros_like(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        g[sup] = np.log(p[sup] / r[sup]) / lam
        lrow = np.where(row > 0, np.log(np.where(row > 0, row, 1.0) / np.where(mu > 0, mu, 1.0)), 0.0)
        lcol = np.where(col > 0, np.log(np.where(col > 0, col, 1.0) / np.where(nu > 0, nu, 1.0)), 0.0)
    return p, r, np.where(sup, g + lrow[:, None] + lcol[None, :], 0.0)


def _largest_sum(terms):
    """The largest absolute row or column sum of ``terms``."""
    return float(max(np.abs(terms.sum(axis=1)).max(initial=0.0),
                     np.abs(terms.sum(axis=0)).max(initial=0.0)))


def epsilon_fill(r, eps):
    """Replace every zero entry of ``r`` by ``eps`` (positive entries kept).
    Raises ValueError unless ``eps`` is positive and finite and ``r`` a
    finite nonnegative coupling."""
    if not 0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    r = as_coupling(r)
    return np.where(r > 0, r, eps)


def sweep_lambda(r, mu, nu, lambdas, r_star=None):
    """Distance of the two-sided solution to the geometric-mean limit, per lam.

    Returns a list of ``(lam, tv)`` rows, sorted by lam.  ``r_star`` is the
    reference limit coupling; when omitted, that of the masked run on the
    exact limit support (``support._exact_limit``).
    """
    if r_star is None:
        r_star = _exact_limit(r, mu, nu).r_star
    rows = []
    for lam in sorted(float(x) for x in lambdas):
        sol = solve_two_sided(r, mu, nu, PenaltyConfig(lam=lam))
        rows.append((lam, tv_distance(sol, r_star)))
    return rows


def sweep_epsilon(r, mu, nu, epsilons, r_star=None):
    """Distance of the filled-reference solution to the limit, per fill value.

    For each eps, solves the problem with reference ``epsilon_fill(r, eps)``
    (strictly positive, hence scalable for balanced full-support targets)
    and records the total-variation distance of its limit to ``r_star``
    along with the iteration count (iterate-delta criterion at 1e-10, at
    most 200,000 iterations).  Returns ``(eps, tv, iterations)`` rows
    sorted by decreasing eps.  ``r_star`` defaults as in :func:`sweep_lambda`.
    """
    if r_star is None:
        r_star = _exact_limit(r, mu, nu).r_star
    cfg = StopConfig(epsilon_tol=1e-10, max_iter=200_000)
    rows = []
    for eps in sorted((float(x) for x in epsilons), reverse=True):
        report = run_sinkhorn(epsilon_fill(r, eps), mu, nu, cfg)
        rows.append((eps, tv_distance(report.r_star, r_star), report.iterations))
    return rows
