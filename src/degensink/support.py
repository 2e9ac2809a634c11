"""Support of the limit couplings: exact construction by iterated
removal of isolated scalable blocks, and the approximate scaling-based
detector usable at scale.

The key quantity is the maximal ratio theta_m = max over nonempty row
subsets A of mu(A) / nu(F(A)), with F(A) the column image of A in the
support graph.  The inclusion-minimal maximizers are exactly the sources
of isolated scalable problems: the limit coupling vanishes on
(complement of A) x F(A) and keeps the full reference support on the rows
of A, with nu* = theta_m nu on F(A) and mu* = mu / theta_m on A.  Removing
the block and recursing reconstructs the whole limit support without ever
running the scaling iteration.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import Assumption2Violated, DimensionTooLarge, NotConverged
from .measures import marginal_col, marginal_row, total_mass
from .scalability import (
    SUBSET_ENUMERATION_CAP,
    connected_components,
    reduce_to_full_support,
    support_graph,
)
from .sinkhorn import StopConfig, _lse_rows, run_sinkhorn

__all__ = [
    "ThetaSetResult",
    "ProcedureStep",
    "ProcedureTrace",
    "maximal_theta",
    "exact_support_procedure",
    "is_sisp",
    "default_thresholds",
    "Algorithm1Result",
    "approx_support_algorithm1",
    "masked_solve",
]

_REL_TOL = 1e-12


def _require_full_support(r, mu, nu):
    r = np.asarray(r, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if r.shape != (mu.size, nu.size):
        raise ValueError("inconsistent shapes")
    if mu.size == 0 or nu.size == 0:
        raise Assumption2Violated("empty ground set")
    if (mu <= 0).any() or (nu <= 0).any() or (marginal_row(r) <= 0).any() or (marginal_col(r) <= 0).any():
        raise Assumption2Violated("mu, nu and both marginals of R must have full support")
    return r, mu, nu


@dataclass(frozen=True)
class ThetaSetResult:
    """Maximal ratio theta_m with all maximizing row subsets and the
    inclusion-minimal ones (0-based index tuples, each sorted)."""

    theta_m: float
    maximizers: list
    smallest: list


def maximal_theta(r, mu, nu, cap=SUBSET_ENUMERATION_CAP):
    """Exhaustive computation of theta_m = max_A mu(A)/nu(F(A)).

    Enumerates all nonempty row subsets (requires full supports and at
    most ``cap`` rows).  Ratio ties are resolved by cross-multiplication
    within 1e-12 relative tolerance.
    """
    r, mu, nu = _require_full_support(r, mu, nu)
    n, m = r.shape
    if n > cap:
        raise DimensionTooLarge(f"{n} rows exceed the enumeration cap ({cap})")
    if m > 62:
        raise DimensionTooLarge(f"{m} columns exceed the bitmask width")
    row_img = [int(sum(1 << j for j in np.nonzero(r[i] > 0)[0])) for i in range(n)]

    images = [0] * (1 << n)
    mu_sum = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        bit = low.bit_length() - 1
        rest = mask ^ low
        images[mask] = images[rest] | row_img[bit]
        mu_sum[mask] = mu_sum[rest] + mu[bit]
    nu_cache = {}

    def nu_of(img):
        val = nu_cache.get(img)
        if val is None:
            val = float(sum(nu[j] for j in range(m) if img >> j & 1))
            nu_cache[img] = val
        return val

    best_num, best_den = -1.0, 1.0
    for mask in range(1, 1 << n):
        num, den = mu_sum[mask], nu_of(images[mask])
        if num * best_den > best_num * den * (1.0 + _REL_TOL):
            best_num, best_den = num, den
    theta = best_num / best_den

    maximizers = []
    for mask in range(1, 1 << n):
        num, den = mu_sum[mask], nu_of(images[mask])
        if abs(num * best_den - best_num * den) <= _REL_TOL * max(num * best_den, best_num * den):
            maximizers.append(mask)
    maximizers.sort(key=lambda msk: msk.bit_count())
    minimal_masks = []
    for msk in maximizers:
        if not any((other & msk) == other for other in minimal_masks):
            minimal_masks.append(msk)

    def members(msk):
        return tuple(i for i in range(n) if msk >> i & 1)

    return ThetaSetResult(
        theta_m=theta,
        maximizers=sorted(members(msk) for msk in maximizers),
        smallest=sorted(members(msk) for msk in minimal_masks),
    )


@dataclass(frozen=True)
class ProcedureStep:
    """One reduction step: the active rows/columns on entry, the removed
    block (the union of smallest maximal theta-sets and its image), and
    the theta value attained there."""

    rows: tuple
    cols: tuple
    sisp_rows: tuple
    sisp_cols: tuple
    theta: float


@dataclass
class ProcedureTrace:
    """Full run of the exact reduction.  ``final_mask`` is the limit
    support; ``mu_star_pred``/``nu_star_pred`` are the modified marginals
    reconstructed from the per-block theta values (mu/theta on removed
    rows, theta nu on removed columns)."""

    steps: list
    final_mask: np.ndarray
    stationary_at: int
    mu_star_pred: np.ndarray
    nu_star_pred: np.ndarray


def exact_support_procedure(r, mu, nu, cap=SUBSET_ENUMERATION_CAP):
    """Compute the limit support exactly, without the scaling iteration.

    Repeatedly finds the union M of the smallest maximal theta-sets of the
    active triple, zeroes the block (active rows minus M) x F(M), and
    removes M and F(M) from the active sets; the active row and column
    sets strictly decrease until empty, and what survives is exactly the
    support of the limit couplings.
    """
    r, mu, nu = _require_full_support(r, mu, nu)
    current = r.copy()
    rows = list(range(r.shape[0]))
    cols = list(range(r.shape[1]))
    steps = []
    mu_star = np.zeros_like(mu)
    nu_star = np.zeros_like(nu)
    while rows:
        sub = current[np.ix_(rows, cols)]
        sub_mu = mu[rows]
        sub_nu = nu[cols]
        if (marginal_row(sub) <= 0).any() or (marginal_col(sub) <= 0).any():
            raise Assumption2Violated("restricted triple lost full support")
        theta = maximal_theta(sub, sub_mu, sub_nu, cap=cap)
        local = sorted({i for subset in theta.smallest for i in subset})
        removed_rows = [rows[i] for i in local]
        img_local = np.nonzero(sub[local].any(axis=0))[0]
        removed_cols = [cols[j] for j in img_local]
        remaining_rows = [i for i in rows if i not in set(removed_rows)]
        current[np.ix_(remaining_rows, removed_cols)] = 0.0
        steps.append(ProcedureStep(
            rows=tuple(rows), cols=tuple(cols),
            sisp_rows=tuple(removed_rows), sisp_cols=tuple(removed_cols),
            theta=theta.theta_m,
        ))
        mu_star[removed_rows] = mu[removed_rows] / theta.theta_m
        nu_star[removed_cols] = theta.theta_m * nu[removed_cols]
        rows = remaining_rows
        cols = [j for j in cols if j not in set(removed_cols)]
    if cols:
        raise Assumption2Violated("columns left over after the rows were exhausted")
    return ProcedureTrace(
        steps=steps,
        final_mask=current > 0,
        stationary_at=len(steps),
        mu_star_pred=mu_star,
        nu_star_pred=nu_star,
    )


def is_sisp(subset, r, mu, nu, r_star_reference, z_tol=None):
    """Whether ``subset`` of rows is the source of an isolated scalable
    problem, judged against a reference limit coupling.

    Requires (i) the reference limit to vanish on (complement x image of
    the subset) and (ii) the limit's row supports to coincide with those
    of R on the subset, both at the structural-zero threshold."""
    r = np.asarray(r, dtype=float)
    mu = np.asarray(mu, dtype=float)
    ref = np.asarray(r_star_reference, dtype=float)
    rows = sorted(set(int(i) for i in subset))
    if not rows:
        raise ValueError("subset must be nonempty")
    if z_tol is None:
        z_tol = 1e-12 * total_mass(mu)
    adj = support_graph(r)
    image = sorted(int(j) for j in np.nonzero(adj[rows].any(axis=0))[0])
    others = [i for i in range(r.shape[0]) if i not in set(rows)]
    if others and image and (ref[np.ix_(others, image)] >= z_tol).any():
        return False
    for i in rows:
        if not np.array_equal(ref[i] >= z_tol, adj[i]):
            return False
    return True


def default_thresholds(r, mu):
    """Minimal factors m_i = (1/N) mu_i / mu^R_i for the approximate
    support detector (N = number of rows)."""
    r = np.asarray(r, dtype=float)
    mu = np.asarray(mu, dtype=float)
    row = marginal_row(r)
    if (mu <= 0).any() or (row <= 0).any():
        raise Assumption2Violated("thresholds need positive mu and positive row marginals")
    return mu / (row * r.shape[0])


@dataclass
class Algorithm1Result:
    """Outcome of the approximate support detector: the support mask, the
    total inner scaling iterations (summed over reduction steps), the
    per-step bookkeeping and whether every inner loop met its criterion."""

    mask: np.ndarray
    inner_iterations: int
    steps: list
    converged: bool


def approx_support_algorithm1(r, mu, nu, thresholds=None, stop_cfg=None):
    """Approximate the limit support by scaling with row dropping.

    Works on the indicator of R (the limit support only depends on the
    support of R).  Each reduction step runs the plain scaling iteration
    on the active block and drops a row as soon as its smallest support
    entry of the current coupling falls below the row's minimal factor
    m_i (by default (1/N) mu_i / mu^R, computed once on the full indicator
    instance); columns disconnected from the surviving rows are dropped
    along.  When the surviving block is marginally consistent
    (normalized column-marginal TV below the threshold), its connected
    components with maximal mu(U_c)/nu(V_c) are removed as a detected
    isolated scalable block, recording zeros for the remaining rows on the
    removed columns, and the procedure recurses on the rest.
    """
    r = np.asarray(r, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    stop_cfg = stop_cfg or StopConfig()
    eps = stop_cfg.epsilon_tol
    inner_cap = 10 * stop_cfg.max_iter

    reduced, mu_r, nu_r, row_map, col_map = reduce_to_full_support(r, mu, nu)
    indicator = (reduced > 0).astype(float)
    n, m = indicator.shape
    m_full = np.asarray(thresholds, dtype=float)[row_map] if thresholds is not None \
        else default_thresholds(indicator, mu_r)

    active_rows = np.arange(n)
    active_cols = np.arange(m)
    mask_r = indicator > 0
    steps = []
    total_inner = 0
    converged = True

    while active_rows.size:
        # log-potential scaling on the active indicator block: immune to the
        # potential drift of mass-unbalanced subproblems at any run length
        rbar = indicator[np.ix_(active_rows, active_cols)].copy()
        rows_u = active_rows.copy()
        cols_v = active_cols.copy()
        mubar = mu_r[rows_u].copy()
        nubar = nu_r[cols_v].copy()
        log_mloc = np.log(m_full[rows_u])
        with np.errstate(divide="ignore"):
            log_rbar = np.log(rbar)
        u = np.zeros(rows_u.size)
        v = np.zeros(cols_v.size)
        it = 0
        while True:
            v_prev = v.copy()
            lse = _lse_rows(log_rbar + v[None, :])
            keep = np.isfinite(lse)
            u = np.where(keep, np.log(mubar) - np.where(keep, lse, 0.0), -np.inf)
            with np.errstate(over="ignore"):
                p = np.exp(u[:, None] + v_prev[None, :] + log_rbar)
            err = float(np.abs(p.sum(axis=0) / mubar.sum() - nubar / nubar.sum()).sum())
            if err <= eps:
                break
            if it >= inner_cap:
                converged = False
                break
            it += 1
            log_prod = np.where(rbar > 0, u[:, None] + v[None, :], np.inf)
            keep &= ~(log_prod.min(axis=1) < log_mloc)
            if not keep.any():
                raise NotConverged("approximate support detection dropped every row "
                                   "(thresholds too large for this instance)")
            if not keep.all():
                rows_u = rows_u[keep]
                rbar = rbar[keep]
                log_rbar = log_rbar[keep]
                mubar = mubar[keep]
                log_mloc = log_mloc[keep]
                u = u[keep]
            lse_c = _lse_rows((log_rbar + u[:, None]).T)
            keep_c = np.isfinite(lse_c)
            v = np.where(keep_c, np.log(nubar) - np.where(keep_c, lse_c, 0.0), -np.inf)
            if not keep_c.all():
                cols_v = cols_v[keep_c]
                rbar = rbar[:, keep_c]
                log_rbar = log_rbar[:, keep_c]
                nubar = nubar[keep_c]
                v = v[keep_c]
        total_inner += it

        comps = connected_components(rbar > 0)
        ratios = []
        for comp_rows, comp_cols in comps:
            num = float(mu_r[rows_u[list(comp_rows)]].sum()) if comp_rows else 0.0
            den = float(nu_r[cols_v[list(comp_cols)]].sum()) if comp_cols else math.inf
            ratios.append(num / den if den > 0 else 0.0)
        top = max(ratios)
        sel_rows = sorted({int(rows_u[i]) for (cr, cc), ratio in zip(comps, ratios)
                           if ratio >= top * (1.0 - _REL_TOL) for i in cr})
        sel_cols = sorted({int(cols_v[j]) for (cr, cc), ratio in zip(comps, ratios)
                           if ratio >= top * (1.0 - _REL_TOL) for j in cc})
        active_rows = np.array([i for i in active_rows if i not in set(sel_rows)], dtype=int)
        active_cols = np.array([j for j in active_cols if j not in set(sel_cols)], dtype=int)
        mask_r[np.ix_(active_rows, np.array(sel_cols, dtype=int))] = False
        steps.append({"removed_rows": tuple(int(row_map[i]) for i in sel_rows),
                      "removed_cols": tuple(int(col_map[j]) for j in sel_cols),
                      "inner_iterations": it})
        if not converged:
            break

    mask = np.zeros(r.shape, dtype=bool)
    mask[np.ix_(row_map, col_map)] = mask_r
    return Algorithm1Result(mask=mask, inner_iterations=total_inner, steps=steps,
                            converged=converged)


def _fit_rate(tvs):
    """Least-squares slope and R^2 of log10 TV against iteration index over
    the last max(20, half) usable points."""
    tvs = np.asarray(tvs, dtype=float)
    idx = np.arange(1, tvs.size + 1)
    usable = (tvs > 1e-250) & np.isfinite(tvs)
    idx, tvs = idx[usable], tvs[usable]
    if tvs.size < 3:
        return None, None
    window = max(20, tvs.size // 2)
    idx, tvs = idx[-window:], tvs[-window:]
    x = idx.astype(float)
    y = np.log10(tvs)
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    sxy = float(((x - xm) * (y - ym)).sum())
    syy = float(((y - ym) ** 2).sum())
    if sxx == 0 or syy == 0:
        return None, None
    slope = sxy / sxx
    r2 = (sxy * sxy) / (sxx * syy)
    return slope, r2


def masked_solve(r, mu, nu, mask, cfg=None, estimate_rate=True):
    """Scaling run on R restricted to ``mask`` (which must be contained in
    the support of R), with a convergence-rate estimate.

    Masking R to the limit support does not change the limits but restores
    a linear rate; the report carries the least-squares slope of
    log10 TV(P^n, p_star) against n and the R^2 of that fit.
    """
    r = np.asarray(r, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != r.shape:
        raise ValueError("mask shape mismatch")
    if (mask & ~(r > 0)).any():
        raise ValueError("mask is not contained in the support of R")
    masked = r * mask
    cfg = cfg or StopConfig(epsilon_tol=1e-12 * max(total_mass(mu), 1.0),
                            max_iter=100_000, mode="iterate-delta")
    report = run_sinkhorn(masked, mu, nu, cfg)
    if estimate_rate:
        tvs = []
        run_sinkhorn(masked, mu, nu,
                     StopConfig(epsilon_tol=0.0, max_iter=report.iterations,
                                mode="iterate-delta"),
                     tv_reference=report.p_star, tv_out=tvs)
        report.rate_slope, report.rate_r_squared = _fit_rate(tvs)
    return report
