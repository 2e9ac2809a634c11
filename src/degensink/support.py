"""Support of the limit couplings: exact construction by iterated
removal of isolated scalable blocks, found by max-flow, and the
approximate scaling-based detector.

The key quantity is the maximal ratio theta_m = max over nonempty row
subsets A of mu(A) / nu(F(A)), with F(A) the column image of A in the
support graph.  The inclusion-minimal maximizers are exactly the sources
of isolated scalable problems: the limit coupling vanishes on
(complement of A) x F(A) and keeps the full reference support on the rows
of A, with nu* = theta_m nu on F(A) and mu* = mu / theta_m on A.  Removing
the block and recursing reconstructs the whole limit support without ever
running the scaling iteration.  theta_m and its minimal maximizers come
from a few maximum flows (:func:`maximal_theta`); the whole sequence of
removed blocks is the decomposition by decreasing ratio mu(A)/nu(F(A))
(Fujishige's lexicographically optimal base), which
:func:`exact_support_procedure` builds by divide and conquer on theta with
one maximum flow per depth.  Neither has a size limit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import Assumption2Violated, NotConverged
from .measures import as_coupling, as_measure, as_triple, marginal_row, total_mass
from .scalability import (
    _RESIDUAL_TOL,
    _closure,
    _max_flow,
    _r0_support,
    _require_assumption1,
    connected_components,
)
from .sinkhorn import StopConfig, _LogIteration, run_sinkhorn

__all__ = [
    "ThetaSetResult",
    "ProcedureStep",
    "ProcedureTrace",
    "maximal_theta",
    "exact_support_procedure",
    "default_thresholds",
    "Algorithm1Result",
    "approx_support_algorithm1",
    "masked_solve",
]

_REL_TOL = 1e-12
# Algorithm 1 tests its components once |err change| <= _STALL err
_STALL = 1e-12


@dataclass(frozen=True)
class ThetaSetResult:
    """Maximal ratio theta_m with its inclusion-minimal maximizing row
    subsets (0-based index tuples, each sorted)."""

    theta_m: float
    smallest: list


def maximal_theta(r, mu, nu):
    """theta_m = max_A mu(A)/nu(F(A)) and its inclusion-minimal maximizers.

    Takes any triple that satisfies Assumption 1 and answers on R0, R with
    its zero-mass rows and columns zeroed, in the caller's indices: F(A)
    is the image of A in R0, and no maximizer holds a row of mu = 0.
    Raises Assumption2Violated on zero mu and nu, where no ratio is
    defined.  Rows and columns are not limited in number.

    Dinkelbach iterations: from theta = M(mu)/M(nu), the ratio of all
    rows, a maximum flow with capacities (mu, theta nu) finds the
    inclusion-minimal maximizer A of mu(A) - theta nu(F(A)), the rows
    reached from the source in its residual graph, and theta moves up to
    the ratio of A until none is reached.  At theta_m the inclusion-minimal
    maximizers are the row sets of the sink strongly connected components
    of that residual graph among the nodes that cannot reach the sink
    (Picard-Queyranne).  A residual at or below 1e-12 M(mu) counts as
    saturated.
    """
    r, mu, nu = _require_assumption1(r, mu, nu)
    if total_mass(mu) == 0:
        raise Assumption2Violated("theta_m needs mu and nu with positive mass")
    adj = _r0_support(r, mu, nu)
    n, m = adj.shape
    theta = total_mass(mu) / total_mass(nu)
    flow = None
    while True:
        flow, reached = _max_flow(adj, mu, theta * nu, start=flow)
        if not reached.any():
            break
        ratio = mu[reached].sum() / nu[adj[reached].any(axis=0)].sum()
        if not ratio > theta:
            break
        theta = float(ratio)
    tol = _RESIDUAL_TOL * total_mass(mu)
    spare = theta * nu - flow.sum(axis=0) > tol
    return ThetaSetResult(theta_m=theta, smallest=sorted(_sink_rows(adj, flow > tol, spare, mu == 0)))


def _sink_rows(adj, carry, spare, skip):
    """Row sets (sorted tuples) of the sink strongly connected components
    of the residual graph of a flow on ``adj`` whose entries ``carry``
    flow, among the nodes that cannot reach the sink through a column of
    ``spare`` capacity, leaving out the rows of ``skip`` and every node
    that reaches them: at a flow that saturates the rows of the maximal
    ratio, the inclusion-minimal maximizers (Picard-Queyranne).  One
    forward and one backward closure per candidate row."""
    n, m = adj.shape
    no_cols = np.zeros(m, dtype=bool)
    done, _ = _closure(skip, spare, carry, adj)
    found = []
    for i in range(n):
        if done[i]:
            continue
        start = np.arange(n) == i
        ahead, _ = _closure(start, no_cols, adj, carry)
        behind, _ = _closure(start, no_cols, carry, adj)
        if (behind | ~ahead).all():  # row i lies in a sink component
            found.append(tuple(np.flatnonzero(ahead).tolist()))
            done |= ahead
        else:  # neither row i nor any row that reaches it does
            done |= behind
    return found


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
    support; each step's theta gives the modified marginals on the block
    it removes, mu* = mu/theta on its rows and nu* = theta nu on its
    columns."""

    steps: list
    final_mask: np.ndarray


def exact_support_procedure(r, mu, nu):
    """Compute the limit support exactly, without the scaling iteration.

    Starts from the support of R0, R with its zero-mass rows and columns
    zeroed, with the rows of mu > 0 and the columns of nu > 0 active, and
    gives the steps of the one-step reduction: remove the union M of the
    smallest maximal theta-sets of the active triple (:func:`maximal_theta`)
    and F(M), after clearing (active rows minus M) x F(M).  What survives
    is the support of the limit couplings.  Takes any triple that satisfies
    Assumption 1 and answers in its indices.

    The levels come by divide and conquer on theta, one maximum flow per
    depth for all pending sub-problems (X, Y): they are disjoint with their
    cross entries cleared, and each gets capacities mu on X and theta nu on
    Y, theta = mu(X)/nu(Y).  The rows A of X that the source reaches hold
    the levels above theta: (X - A) x F(A) is cleared, and (A, F(A)) and
    (X - A, Y - F(A)) go on.  With none reached X is one level.  It goes
    whole when one forward and one backward closure from a root row span it
    and no column has spare capacity, else as the sink components of
    :func:`_sink_rows`; rows left over (a tie) go on at the same theta,
    their entries into F(M) cleared.  Steps follow the tree, upper before
    lower and a level before its tie continuation.  A step's theta is the
    one-step reduction's, bit for bit: M(mu)/M(nu) (math.fsum) of the
    active rows and columns when its level is all that is active, else
    mu(X).sum() / nu(Y).sum() over its level.
    """
    r, mu, nu = _require_assumption1(r, mu, nu)
    live = _r0_support(r, mu, nu)
    rows, cols = mu > 0, nu > 0
    # sub-problems (place in the tree, rows, columns), and the levels found
    # as (place, rows, columns, removed rows, removed columns)
    pending = [((), rows, cols)] if rows.any() else []
    levels = []
    no_cols = np.zeros_like(cols)
    while pending:
        theta_nu = np.zeros_like(nu)
        for _, x, y in pending:
            theta_nu[y] = mu[x].sum() / nu[y].sum() * nu[y]
        mu_active = np.where(rows, mu, 0.0)
        adj = live & rows[:, None]
        flow, reached = _max_flow(adj, mu_active, theta_nu)
        tasks, pending, leaves = pending, [], []
        for key, x, y in tasks:
            above = reached & x
            if above.any() and (x & ~above).any():  # the levels above theta, and the rest
                image = live[above].any(axis=0)
                live[np.ix_(x & ~above, image)] = False
                pending += [(key + (0,), above, image), (key + (1,), x & ~above, y & ~image)]
            else:
                leaves.append((key, x, y))
        tol = _RESIDUAL_TOL * total_mass(mu_active)
        carry = flow > tol
        spare = theta_nu - flow.sum(axis=0) > tol
        # a level that its root row spans both ways in the residual graph,
        # without a spare column, is one strongly connected piece: its own
        # smallest maximizer
        roots = np.zeros_like(rows)
        roots[[np.argmax(x) for _, x, _ in leaves]] = True
        ahead, _ = _closure(roots, no_cols, adj, carry)
        behind, _ = _closure(roots, no_cols, carry, adj)
        for key, x, y in leaves:
            removed = x
            if (x & ~(ahead & behind)).any() or spare[y].any():
                removed = np.zeros_like(rows)
                removed[[i for subset in _sink_rows(adj, carry, spare, ~x) for i in subset]] = True
            image = live[removed].any(axis=0)
            levels.append((key + (0,), x, y, removed, image))
            rows, cols = rows & ~removed, cols & ~image
            if (x & ~removed).any():  # the rest of the level shares its theta
                live[np.ix_(x & ~removed, image)] = False
                pending.append((key + (1,), x & ~removed, y & ~image))
    if cols.any():
        raise Assumption2Violated("columns left over after the rows were exhausted")
    levels.sort(key=lambda level: level[0])
    steps = []
    rows, cols = np.zeros_like(rows), np.zeros_like(cols)
    for _, x, y, removed, image in reversed(levels):
        rows, cols = rows | removed, cols | image
        if np.array_equal(rows, x):
            theta = total_mass(mu[rows]) / total_mass(nu[cols])
        else:
            theta = mu[x].sum() / nu[y].sum()
        steps.append(ProcedureStep(*(tuple(np.flatnonzero(mask).tolist())
                                     for mask in (rows, cols, removed, image)),
                                   theta=float(theta)))
    return ProcedureTrace(steps=steps[::-1], final_mask=live)


def default_thresholds(r, mu):
    """Minimal factors m_i = (1/N) mu_i / mu^R_i for the approximate
    support detector (N = number of rows).  Raises ValueError on NaN,
    infinite or negative input."""
    r, mu = as_coupling(r), as_measure(mu)
    if mu.shape != r.shape[:1]:
        raise ValueError("mu must have one entry per row of R")
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


def approx_support_algorithm1(r, mu, nu, stop_cfg=None):
    """Approximate the limit support by scaling with row dropping.

    Works on the indicator of R0 (the limit support only depends on its
    support), like :func:`exact_support_procedure`: any triple that
    satisfies Assumption 1, in its indices, from the rows of mu > 0 and
    the columns of nu > 0.  Each reduction step runs the plain scaling
    iteration on the active block and drops a row as soon as its smallest
    support entry of the current coupling falls below the row's minimal
    factor m_i = (1/N) mu_i / mu^R_i of :func:`default_thresholds`,
    computed once on the first active block; columns disconnected from
    the surviving rows are dropped along.  When the surviving block is
    marginally consistent (normalized column-marginal TV below the
    threshold), its connected components with maximal mu(U_c)/nu(V_c) are
    removed as a detected isolated scalable block, recording zeros for the
    remaining rows on the removed columns, and the procedure recurses on
    the rest.  Once the global error stops moving (a change of at most
    1e-12 of it) the same test runs on each connected component of the
    surviving block, and the step ends when every one passes: a block split
    into components with different mass ratios is at its fixed point while
    its global error stays put.  Each inner iteration costs two
    matrix-vector products and one masked row minimum: the column marginal
    is b_prev (K^T a), the b-update reuses K^T a unless a row was dropped,
    and min_j (u_i + v_j) over row i's support is u_i + min_j v_j, one
    ``np.minimum.reduceat`` over the support columns listed row by row.
    ``stop_cfg`` gives ``epsilon_tol``, the column-error threshold, and
    ``max_iter``, ten times which caps each inner loop.
    """
    r, mu, nu = _require_assumption1(r, mu, nu)
    stop_cfg = stop_cfg or StopConfig()
    eps = stop_cfg.epsilon_tol
    inner_cap = 10 * stop_cfg.max_iter

    mask = _r0_support(r, mu, nu)
    indicator = mask.astype(float)
    active_rows, active_cols = np.flatnonzero(mu > 0), np.flatnonzero(nu > 0)
    log_m = np.zeros(r.shape[0])
    log_m[active_rows] = np.log(default_thresholds(indicator[np.ix_(active_rows, active_cols)],
                                                   mu[active_rows]))
    steps = []
    total_inner = 0
    converged = True

    while active_rows.size:
        # the absorbing kernel on the active indicator block, immune to the
        # potential drift of mass-unbalanced subproblems at any run length;
        # rows and columns left without an entry get no mass
        block = indicator[np.ix_(active_rows, active_cols)]
        kernel = _LogIteration(block, np.where(block.any(axis=1), mu[active_rows], 0.0),
                               np.where(block.any(axis=0), nu[active_cols], 0.0))
        # row i's support columns, row by row on the entry list; a drop
        # removes whole rows, so the rows left keep theirs
        starts = np.flatnonzero(np.diff(kernel.entry_rows, prepend=-1))
        sup_rows = kernel.entry_rows[starts]
        log_m_sup = log_m[active_rows][sup_rows]
        mu_mass, nu_share = kernel.mu.sum(), kernel.nu / kernel.nu.sum()
        it, prev_err, comps = 0, math.inf, None
        while True:
            kernel.update_a()
            # column marginal of P = a (x) b_prev . K by one matrix-vector product
            kta = kernel.k.T @ kernel.a
            col = kernel.b_prev * kta
            err = float(np.abs(col / mu_mass - nu_share).sum())  # _column_error of the block
            if err <= eps:
                break
            if abs(err - prev_err) <= _STALL * err:
                # the global error has stopped moving: a block split into
                # components with different mass ratios is at its fixed point
                # once each component is consistent on its own
                comps = comps if comps is not None else _live_components(kernel, block)
                if all(_column_error(col, kernel, *comp) <= eps for comp in comps):
                    break
            prev_err = err
            if it >= inner_cap:
                converged = False
                break
            it += 1
            # min_j (u_i + v_j) over row i's support is u_i + min_j v_j, float
            # addition being monotone.  The pads turn the zero scalings of
            # dropped rows and massless columns into log 1 = 0: no log 0, and
            # those rows are masked out (a live row's columns are all live)
            u = kernel.u_abs + np.log(kernel.a + kernel.pad_row)
            v = kernel.v_abs + np.log(kernel.b_prev + kernel.pad_col)
            low = np.zeros(u.size, dtype=bool)
            low[sup_rows] = u[sup_rows] + np.minimum.reduceat(v[kernel.entry_cols], starts) < log_m_sup
            low &= kernel.rows  # the live rows
            if not (kernel.rows & ~low).any():
                raise NotConverged("approximate support detection dropped every row "
                                   "(thresholds too large for this instance)")
            if low.any():
                kernel.drop(low[kernel.entry_rows])
                mu_mass, nu_share = kernel.mu.sum(), kernel.nu / kernel.nu.sum()
                comps = None
                kernel.update_b()
            else:
                kernel.update_b(kta)
        total_inner += it

        comps = comps if comps is not None else _live_components(kernel, block)
        ratios = [kernel.mu[rows].sum() / kernel.nu[cols].sum() for rows, cols in comps]
        top = max(ratios)
        drop_rows = np.zeros(active_rows.size, dtype=bool)
        drop_cols = np.zeros(active_cols.size, dtype=bool)
        for (rows, cols), ratio in zip(comps, ratios):
            if ratio >= top * (1.0 - _REL_TOL):
                drop_rows[rows] = drop_cols[cols] = True
        sel_rows, sel_cols = active_rows[drop_rows], active_cols[drop_cols]
        active_rows, active_cols = active_rows[~drop_rows], active_cols[~drop_cols]
        mask[np.ix_(active_rows, sel_cols)] = False
        steps.append({"removed_rows": tuple(sel_rows.tolist()),
                      "removed_cols": tuple(sel_cols.tolist()),
                      "inner_iterations": it})
        if not converged:
            break

    return Algorithm1Result(mask=mask, inner_iterations=total_inner, steps=steps,
                            converged=converged)


def _live_components(kernel, block):
    """Connected components of the live block of ``kernel``, built on the
    indicator ``block`` and shrunk by dropping whole rows, so that the live
    rows keep all their entries: (rows, cols) index arrays, both nonempty
    (a live row or column has support)."""
    rows, cols = np.flatnonzero(kernel.mu > 0), np.flatnonzero(kernel.nu > 0)
    return [(rows[list(comp_rows)], cols[list(comp_cols)])
            for comp_rows, comp_cols in connected_components(block[np.ix_(rows, cols)])]


def _column_error(col, kernel, rows, cols):
    """Normalized column-marginal error sum_j |col_j / mu(rows) - nu_j / nu(cols)|
    over ``cols``."""
    return float(np.abs(col[cols] / kernel.mu[rows].sum() - kernel.nu[cols] / kernel.nu[cols].sum()).sum())


def _fit_rate(tvs):
    """Least-squares slope and R^2 of log10 tvs[n-1] against the iteration
    index n over the last max(20, half) usable points."""
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


def masked_solve(r, mu, nu, mask, cfg=None):
    """Scaling run on R restricted to ``mask`` (which must be contained in
    the support of R), with a convergence-rate estimate.

    Masking R to the limit support does not change the limits but restores
    a linear rate.  The run stops on the iterate-delta criterion, at
    1e-12 M(mu) by default, and the report carries the least-squares
    slope of log10 of the successive moves max(TV(P^n, P^{n-1}),
    TV(Q^n, Q^{n-1})) against n, and the R^2 of that fit; these moves
    decay at the same geometric rate as TV(P^n, P*).  Raises ValueError
    on NaN, infinite or negative input before it reads the masses.
    """
    r, mu, nu = as_triple(r, mu, nu)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != r.shape:
        raise ValueError("mask shape mismatch")
    if (mask & ~(r > 0)).any():
        raise ValueError("mask is not contained in the support of R")
    cfg = cfg or StopConfig(epsilon_tol=1e-12 * total_mass(mu))
    report = run_sinkhorn(r * mask, mu, nu, cfg)
    report.rate_slope, report.rate_r_squared = _fit_rate([gap for _, gap in report.gap_trace])
    return report


def _exact_limit(r, mu, nu):
    """P*, Q* and R* at a linear rate whatever the degeneracy: the report of
    :func:`masked_solve` on the mask of :func:`exact_support_procedure`,
    iterate-delta at 1e-13 M(mu).  Takes any triple that satisfies
    Assumption 1."""
    mask = exact_support_procedure(r, mu, nu).final_mask
    return masked_solve(r, mu, nu, mask, StopConfig(epsilon_tol=1e-13 * total_mass(mu)))
