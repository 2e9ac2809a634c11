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
running the scaling iteration.  The whole sequence of removed blocks is
the decomposition by decreasing ratio mu(A)/nu(F(A)) (Fujishige's
lexicographically optimal base), which one private reduction builds by
divide and conquer on theta, one maximum flow per depth:
:func:`exact_support_procedure` gives all its levels, and
:func:`maximal_theta` the top one, theta_m and its minimal maximizers.
Neither has a size limit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import Assumption2Violated, NotConverged
from .measures import as_coupling, as_measure, as_triple, marginal_row, total_mass
from .scalability import (_bitset, _bitsets, _closure, _image, _max_flow, _ones, _r0_support, _require_assumption1,
                          _unpack, connected_components)
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

    The answer is the top level of :func:`_reduction`, the first step of
    :func:`exact_support_procedure`: its theta and its sink components.
    """
    r, mu, nu = _require_assumption1(r, mu, nu)
    levels, _ = _reduction(r, mu, nu)
    if not levels:
        raise Assumption2Violated("theta_m needs mu and nu with positive mass")
    theta, sinks, _, _ = levels[0]
    return ThetaSetResult(theta_m=theta, smallest=sorted(tuple(_ones(rows)) for rows in sinks))


def _sink_rows(adj, carry, spare, rows):
    """Row bitsets of the sink strongly connected components, among the
    bitset ``rows`` (which no other node reaches), of the residual graph of
    a flow on ``adj`` whose entries ``carry`` flow (both graphs of
    bitsets), leaving out every node that reaches the sink through a column
    of ``spare`` capacity: at a flow that saturates the rows of the maximal
    ratio, the inclusion-minimal maximizers (Picard-Queyranne).  One
    forward and one backward closure per candidate row."""
    done, _ = _closure(0, spare, carry, adj)
    todo = rows & ~done
    found = []
    while todo:
        start = todo & -todo
        ahead, _ = _closure(start, 0, adj, carry)
        behind, _ = _closure(start, 0, carry, adj)
        if ahead & ~behind:  # neither the row nor any row that reaches it lies in a sink component
            todo &= ~behind
        else:
            found.append(ahead)
            todo &= ~ahead
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
    gives the steps of the one-step reduction, the levels of
    :func:`_reduction`: remove the union M of the smallest maximal
    theta-sets of the active triple and F(M), after clearing (active rows
    minus M) x F(M).  What survives is the support of the limit couplings.
    Takes any triple that satisfies Assumption 1 and answers in its indices.
    """
    r, mu, nu = _require_assumption1(r, mu, nu)
    levels, live = _reduction(r, mu, nu)
    steps = []
    rows = cols = 0
    for theta, _, removed, image in reversed(levels):
        rows, cols = rows | removed, cols | image
        steps.append(ProcedureStep(*(tuple(_ones(bits)) for bits in (rows, cols, removed, image)), theta=theta))
    return ProcedureTrace(steps=steps[::-1], final_mask=_unpack(live[0], len(nu)))


def _reduction(r, mu, nu):
    """``(levels, live)`` for a validated triple: its levels in step order
    (upper before lower, a level before its tie continuation) and the
    graph of bitsets of the limit support.  A level (X, Y) is ``(theta,
    sinks, removed, image)``: theta = M(mu[X]) / M(nu[Y]), both masses a
    math.fsum, which does not depend on the order of the terms (so theta
    is the one-step reduction's, bit for bit), and the bitsets of its sink
    components, of the rows M it removes and of their image F(M).

    Divide and conquer on theta, one maximum flow per depth for all
    pending sub-problems (X, Y): they are disjoint with their cross entries
    cleared, and each gets capacities mu on X and theta nu on Y.  The rows
    A of X that the source reaches hold the levels above theta:
    (X - A) x F(A) is cleared, and (A, F(A)) and (X - A, Y - F(A)) go on.
    With none reached X is one level, and one :func:`_sink_rows` call
    gives the sink components of every level of a depth; M is their union.
    Rows left over (a tie) go on at the same theta, their entries into
    F(M) cleared.  A row whose entries all lie in F(A) (or F(M)) goes with
    A (or M), as it does in exact arithmetic, where it raises the ratio;
    the flow's saturation rule (:func:`_max_flow`) hides that for a row
    lighter than 1e-12 M(mu).  A level without a sink component, where
    that rule lets every row reach a spare column, goes whole.  So every
    depth shrinks every sub-problem, and every row ends in a block that
    keeps its entries.  Under Assumption 1 each column with nu > 0 keeps an
    entry to a row of its sub-problem, so the images cover those columns.
    """
    live = _bitsets(_r0_support(r, mu, nu))

    def clear(xs, ys):  # the entries xs x ys of live
        for i in _ones(xs):
            live[0][i] &= ~ys
        for j in _ones(ys):
            live[1][j] &= ~xs

    def within(xs, ys):  # the rows of xs whose entries all lie in ys
        return sum(1 << i for i in _ones(xs) if not live[0][i] & ~ys)

    # sub-problems (place in the tree, rows, columns) and levels (place, level)
    pending = [((), _bitset(mu > 0), _bitset(nu > 0))] if (mu > 0).any() else []
    levels = []
    while pending:
        rows = sum(x for _, x, _ in pending)  # disjoint: the active rows
        theta_nu, mu_active, thetas = np.zeros_like(nu), np.zeros_like(mu), []
        for _, x, y in pending:
            x, y = _ones(x), _ones(y)
            mu_active[x] = mu[x]
            thetas.append(total_mass(mu[x]) / total_mass(nu[y]))
            theta_nu[y] = thetas[-1] * nu[y]
        adj = [b if rows >> i & 1 else 0 for i, b in enumerate(live[0])], [b & rows for b in live[1]]
        _, reached, carry, spare = _max_flow(adj, mu_active, theta_nu)
        tasks, pending, leaves = pending, [], []
        for (key, x, y), theta in zip(tasks, thetas):
            image = _image(reached & x, live[0])
            above = within(x, image)
            if above and x & ~above:  # the levels above theta, and the rest
                clear(x & ~above, image)
                pending += [(key + (0,), above, image), (key + (1,), x & ~above, y & ~image)]
            else:
                leaves.append((key, x, y, theta))
        sinks = _sink_rows(adj, carry, spare, sum(leaf[1] for leaf in leaves))  # the leaves are disjoint
        for key, x, y, theta in leaves:
            found = [part for part in sinks if part & x] or [x]
            image = _image(sum(found), live[0])
            removed = within(x, image)
            levels.append((key + (0,), (theta, found, removed, image)))
            if x & ~removed:  # the rest of the level shares its theta
                clear(x & ~removed, image)
                pending.append((key + (1,), x & ~removed, y & ~image))
    levels.sort(key=lambda level: level[0])
    return [level for _, level in levels], live


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
