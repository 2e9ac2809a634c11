import json
import math
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from degensink import Assumption2Violated, appendix_a_instance
from degensink.measures import as_coupling, as_triple, total_mass, tv_distance
from degensink.scalability import (
    _UNBALANCED_TAG,
    ScalabilityClass,
    _bitset,
    _bitsets,
    _image,
    _max_flow,
    _ones,
    _r0_support,
    _require_assumption1,
    check_assumption1,
    connected_components,
    support_graph,
)
from degensink import sinkhorn
from degensink.support import ProcedureStep, ProcedureTrace, ThetaSetResult, _sink_rows
from degensink.sinkhorn import _ZERO_STREAK, StopConfig, _LogIteration, run_sinkhorn
from degensink.instances import (
    InstanceSpec,
    KIND_RANDOM,
    block_ratio_schedule,
    gen_instance,
    staircase_instance,
)

SQ2 = math.sqrt(2.0)
SQ5 = math.sqrt(5.0)

P_STAR = np.array([[1.6, 0.4, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
Q_STAR = np.array([[2.0, 0.5, 0.0], [0.0, 2.5, 0.0], [0.0, 0.0, 1.0]])
R_STAR = np.array([[4 / SQ5, 1 / SQ5, 0.0], [0.0, SQ5, 0.0], [0.0, 0.0, SQ2]])
MU_STAR = np.array([2.5, 2.5, 1.0])
NU_STAR = np.array([1.6, 2.4, 2.0])
MU_G = np.array([SQ5, SQ5, SQ2])
NU_G = np.array([4 / SQ5, 6 / SQ5, SQ2])
Z_NORM = 2 * SQ5 + SQ2
S_MASK = np.array([[True, True, False], [False, True, False], [False, False, True]])


@pytest.fixture
def appendix():
    return appendix_a_instance()


@pytest.fixture
def max_flow_calls(monkeypatch):
    """Records the arguments of each call of ``scalability._max_flow``,
    the one flow routine of the package, where ``scalability`` and
    ``support`` call it; networkx is made unreachable from it."""
    from degensink import scalability, support

    calls = []
    max_flow = scalability._max_flow

    def counting(*args):
        calls.append(args)
        return max_flow(*args)

    monkeypatch.setattr(scalability, "_max_flow", counting)
    monkeypatch.setattr(support, "_max_flow", counting)
    monkeypatch.setattr(scalability, "nx", None)
    return calls


@pytest.fixture
def blocking_flow_calls(monkeypatch):
    """Records the arguments of each call of ``scalability._blocking_flow``,
    one per Dinic phase of ``scalability._max_flow``."""
    from degensink import scalability

    calls = []
    blocking_flow = scalability._blocking_flow

    def counting(*args):
        calls.append(args)
        return blocking_flow(*args)

    monkeypatch.setattr(scalability, "_blocking_flow", counting)
    return calls


# Iterate values as printed in the worked example, keyed by half-step.
# The b-vector printed at half-step 81 repeats the one of half-step 80;
# near-zero coupling entries appear as 0 here and are asserted to be
# negligible rather than digit-matched (the printed figures there are
# inconsistent with the printed potentials they derive from).
PRINTED_CHECKPOINTS = {
    1: dict(a=[2 / 3, 1.0, 2.0], b=[1.0, 1.0, 1.0],
            P=[[2 / 3, 2 / 3, 2 / 3], [0, 1, 1], [0, 0, 2]]),
    2: dict(a=[2 / 3, 1.0, 2.0], b=[3.0, 9 / 5, 3 / 11],
            Q=[[2, 6 / 5, 2 / 11], [0, 9 / 5, 3 / 11], [0, 0, 6 / 11]]),
    5: dict(a=[2.7e-1, 8.6e-1, 1.7e1], b=[5.0, 2.2, 1.2e-1],
            P=[[1.4, 0.59, 3.2e-2], [0, 1.9, 1.0e-1], [0, 0, 2.0]]),
    11: dict(a=[1.2e-1, 5.1e-1, 1.5e2], b=[1.3e1, 3.9, 1.3e-2],
             P=[[1.55, 0.45, 1.5e-3], [0, 2.0, 6.6e-3], [0, 0, 2.0]]),
    80: dict(a=[5.5e-5, 2.8e-4, 2.7e12], b=[3.6e4, 9.1e3, 3.8e-13],
             Q=[[2.0, 0.50, 0], [0, 2.5, 0], [0, 0, 1.0]]),
    81: dict(a=[4.4e-5, 2.2e-4, 5.3e12], b=[3.6e4, 9.1e3, 3.8e-13],
             P=[[1.6, 0.40, 0], [0, 2.0, 0], [0, 0, 2.0]]),
}


def log_arrays(r, mu, nu):
    """log R, log mu and log nu, with -inf at the zeros: the inputs of the
    plain log-domain reference recursions."""
    with np.errstate(divide="ignore"):
        return np.log(r), np.log(mu), np.log(nu)


def _lse_rows(mat):
    """Row-wise log-sum-exp; a row of -inf gives -inf."""
    mx = mat.max(axis=1)
    out = np.full(mat.shape[0], -np.inf)
    fin = np.isfinite(mx)
    if fin.any():
        out[fin] = mx[fin] + np.log(np.exp(mat[fin] - mx[fin][:, None]).sum(axis=1))
    return out


def write_instance(r, mu, nu, path):
    """Write a triple to ``path`` in the JSON format of ``load_instance``."""
    payload = {"R": np.asarray(r, dtype=float).tolist(), "mu": list(map(float, mu)), "nu": list(map(float, nu))}
    Path(path).write_text(json.dumps(payload))


def detect_limit_support(r, mu, nu, max_iter=50_000):
    """``(structural_support, report)`` of a long scaling run: the
    iterate-delta criterion at threshold 0 never fires, so the run ends on
    the stall exit of ``run_sinkhorn`` or at ``max_iter``."""
    report = run_sinkhorn(r, mu, nu, StopConfig(epsilon_tol=0.0, max_iter=max_iter))
    return report.structural_support, report


def is_sisp(subset, r, mu, nu, r_star_reference):
    """Whether ``subset`` of rows is the source of an isolated scalable
    problem, judged against a reference limit coupling: the reference
    vanishes on (complement x image of the subset), and its row supports
    on the subset are those of R, both at the structural-zero threshold
    ``Z_TOL_FACTOR * M(mu)`` of ``run_sinkhorn``.  Raises ValueError on
    NaN, infinite or negative input, on an empty subset or a row index
    outside [0, n), and on a reference whose shape is not R's."""
    r, mu, nu = as_triple(r, mu, nu)
    ref = as_coupling(r_star_reference)
    if ref.shape != r.shape:
        raise ValueError(f"reference limit has shape {ref.shape}, R has {r.shape}")
    subset = [int(i) for i in subset]
    if not subset or min(subset) < 0 or max(subset) >= r.shape[0]:
        raise ValueError(f"subset must be a nonempty list of rows in [0, {r.shape[0]})")
    rows = np.zeros(r.shape[0], dtype=bool)
    rows[subset] = True
    above = ref >= sinkhorn.Z_TOL_FACTOR * total_mass(mu)
    adj = support_graph(r)
    if above[np.ix_(~rows, adj[rows].any(axis=0))].any():
        return False
    return np.array_equal(above[rows], adj[rows])


def printed_close(value, printed):
    """Match a computed value against a printed figure: within one unit in
    the second significant digit (the source mixes rounding and
    truncation, so half-ulp comparisons are too strict)."""
    if printed == 0:
        return abs(value) < 1e-12
    ulp = 10.0 ** (math.floor(math.log10(abs(printed))) - 1)
    return abs(value - printed) <= 1.0000001 * ulp


def assert_printed(arr, printed_arr, tiny=None):
    arr = np.asarray(arr, dtype=float)
    printed_arr = np.asarray(printed_arr, dtype=float)
    assert arr.shape == printed_arr.shape
    for got, want in zip(arr.ravel(), printed_arr.ravel()):
        if tiny is not None and abs(want) < tiny:
            assert abs(got) < tiny, f"{got} not ~0"
        else:
            assert printed_close(got, want), f"{got} vs printed {want}"


def random_instance(rng, max_n=8, balanced=True, full_support=False):
    """A random sparse instance from the generator, optionally rescaled to
    unbalanced targets; full_support additionally requires both marginals
    of R positive (it already has no empty rows or columns)."""
    while True:
        spec = InstanceSpec(
            KIND_RANDOM,
            int(rng.integers(2, max_n + 1)),
            int(rng.integers(2, max_n + 1)),
            density=float(rng.uniform(0.35, 0.9)),
            seed=int(rng.integers(1 << 30)),
        )
        r, mu, nu = gen_instance(spec)
        if not full_support or ((r.sum(0) > 0).all() and (r.sum(1) > 0).all()):
            break
    if not balanced:
        nu = nu * float(rng.uniform(0.5, 2.0))
    return r, mu, nu


# ---------------------------------------------------------------------------
# Pure-Python subset enumeration: the reference the max-flow answers of
# ``classify_exact`` and ``maximal_theta`` are checked against.  One
# frozenset union and one sum per subset, so keep it to n <= 12 rows;
# the integer bitmasks of ``oracle_maximal_theta`` reach 16 rows (about
# 0.15 s there).

ORACLE_MAX_ROWS = 12
THETA_ORACLE_MAX_ROWS = 16


def _oracle_subsets(row_idx, adjacency_rows):
    """Yield ``(indices, image_cols)`` for every nonempty subset of row_idx,
    by an incremental DP over bitmasks."""
    n = len(row_idx)
    assert n <= ORACLE_MAX_ROWS
    images = [frozenset()] * (1 << n)
    members = [()] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        bit = low.bit_length() - 1
        rest = mask ^ low
        images[mask] = images[rest] | adjacency_rows[row_idx[bit]]
        members[mask] = (row_idx[bit],) + members[rest]
    for mask in range(1, 1 << n):
        yield tuple(sorted(members[mask])), images[mask]


def oracle_classify(r, mu, nu):
    """``classify_exact`` by explicit enumeration, under its rules.

    NonScalable when the largest deficiency mu(A) - nu(F(A)) exceeds
    1e-9 M(mu); the witness is the smallest subset whose deficiency is
    within 1e-12 M(mu) of it.  Otherwise a subset is tight when its
    deficiency is at least -1e-12 M(mu), and the first component (by
    smallest row rho) with a proper tight subset is loose.  Its witness is
    the smallest tight set containing rho when that is proper, else the
    smallest tight set containing the smallest row that lies in a tight
    set without rho."""
    r, mu, nu = (np.asarray(x, dtype=float) for x in (r, mu, nu))
    assert check_assumption1(r, mu, nu)
    m_mu, m_nu = total_mass(mu), total_mass(nu)
    unbalanced = abs(m_mu - m_nu) > 1e-12 * max(m_mu, m_nu)
    if unbalanced:
        mu, nu = mu / m_mu, nu / m_nu

    def finish(tag, witness=None):
        return ScalabilityClass(tag=_UNBALANCED_TAG[tag] if unbalanced else tag, witness=witness)

    if m_mu == 0 and m_nu == 0:
        return finish("Scalable" if not support_graph(r).any() else "ApproximatelyScalable")
    row_map, col_map = np.flatnonzero(mu > 0), np.flatnonzero(nu > 0)
    rr, mur, nur = r[np.ix_(row_map, col_map)], mu[row_map], nu[col_map]
    support_shrunk = bool(support_graph(r).sum() > support_graph(rr).sum())
    adj = support_graph(rr)
    adj_rows = {i: frozenset(int(j) for j in np.nonzero(adj[i])[0]) for i in range(adj.shape[0])}
    tol = 1e-12 * total_mass(mur)

    def deficiencies(rows):
        return {subset: float(mur[list(subset)].sum()) - (float(nur[list(image)].sum()) if image else 0.0)
                for subset, image in _oracle_subsets(list(rows), adj_rows)}

    def smallest(subsets):
        return tuple(int(row_map[i]) for i in min(subsets, key=lambda s: (len(s), s)))

    deficiency = deficiencies(range(rr.shape[0]))
    worst = max(deficiency.values())
    if worst > 1e-9 * total_mass(mur):
        return finish("NonScalable", smallest(s for s, d in deficiency.items() if d >= worst - tol))
    for comp_rows, _ in connected_components(adj):
        tight = [s for s, d in deficiencies(comp_rows).items() if d >= -tol]
        if all(len(s) == len(comp_rows) for s in tight):
            continue
        rho = comp_rows[0]
        around = [s for s in tight if rho in s]
        if min(len(s) for s in around) == len(comp_rows):
            sigma = min(i for s in tight if rho not in s for i in s)
            around = [s for s in tight if sigma in s]
        return finish("ApproximatelyScalable", smallest(around))
    return finish("ApproximatelyScalable" if support_shrunk else "Scalable")


def oracle_maximal_theta(r, mu, nu):
    """``maximal_theta`` by explicit enumeration: (theta_m, maximizers,
    smallest), with the same record scan and 1e-12 relative ties."""
    rel = 1e-12
    r, mu, nu = (np.asarray(x, dtype=float) for x in (r, mu, nu))
    n, m = r.shape
    assert n <= THETA_ORACLE_MAX_ROWS
    row_img = [sum(1 << j for j in range(m) if r[i, j] > 0) for i in range(n)]
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
        if img not in nu_cache:
            nu_cache[img] = float(sum(nu[j] for j in range(m) if img >> j & 1))
        return nu_cache[img]

    best_num, best_den = -1.0, 1.0
    for mask in range(1, 1 << n):
        num, den = mu_sum[mask], nu_of(images[mask])
        if num * best_den > best_num * den * (1.0 + rel):
            best_num, best_den = num, den
    maximizers = []
    for mask in range(1, 1 << n):
        num, den = mu_sum[mask], nu_of(images[mask])
        if abs(num * best_den - best_num * den) <= rel * max(num * best_den, best_num * den):
            maximizers.append(mask)
    maximizers.sort(key=lambda msk: msk.bit_count())
    minimal = []
    for msk in maximizers:
        if not any((other & msk) == other for other in minimal):
            minimal.append(msk)

    def members(msk):
        return tuple(i for i in range(n) if msk >> i & 1)

    return (best_num / best_den, sorted(members(msk) for msk in maximizers),
            sorted(members(msk) for msk in minimal))


def oracle_peel(r, mu, nu):
    """``oracle_maximal_theta`` as a ``ThetaSetResult``: the enumeration
    takes full supports, so it runs on supp(mu) x supp(nu) and its
    maximizers are mapped back."""
    rows, cols = np.flatnonzero(mu > 0), np.flatnonzero(nu > 0)
    theta_m, _, smallest = oracle_maximal_theta(r[np.ix_(rows, cols)], mu[rows], nu[cols])
    return ThetaSetResult(theta_m, [tuple(rows[list(s)].tolist()) for s in smallest])


def dinkelbach_peel(r, mu, nu):
    """``maximal_theta`` by Dinkelbach iterations (Dinkelbach, Management
    Sci. 1967), the reference peel of :func:`one_step_reduction`, with the
    same inputs, answers and errors.  From theta = M(mu)/M(nu), the ratio
    of all rows, a maximum flow with capacities (mu, theta nu) finds the
    inclusion-minimal maximizer A of mu(A) - theta nu(F(A)), the rows
    reached from the source in its residual graph, and theta moves up to
    the ratio M(mu[A]) / M(nu[F(A)]) of A until none is reached.  At
    theta_m the inclusion-minimal maximizers are the row sets of the sink
    strongly connected components of that residual graph among the nodes
    that cannot reach the sink (Picard-Queyranne)."""
    r, mu, nu = _require_assumption1(r, mu, nu)
    if total_mass(mu) == 0:
        raise Assumption2Violated("theta_m needs mu and nu with positive mass")
    adj = _bitsets(_r0_support(r, mu, nu))
    theta = total_mass(mu) / total_mass(nu)
    while True:
        _, reached, carry, spare = _max_flow(adj, mu, theta * nu)
        if not reached:
            break
        ratio = total_mass(mu[_ones(reached)]) / total_mass(nu[_ones(_image(reached, adj[0]))])
        if not ratio > theta:
            break
        theta = ratio
    found = _sink_rows(adj, carry, spare, _bitset(mu > 0))
    return ThetaSetResult(theta_m=theta, smallest=sorted(tuple(_ones(rows)) for rows in found))


def one_step_reduction(r, mu, nu, peel):
    """The exact reduction one step at a time, the reference of
    ``exact_support_procedure``: from the support of R0 with the rows of
    mu > 0 and the columns of nu > 0 active, ``peel`` (:func:`dinkelbach_peel`
    or :func:`oracle_peel`) on the active triple gives theta and the smallest
    maximizers, whose union M the step removes with F(M), after clearing
    (active rows minus M) x F(M).  A ``ProcedureTrace``."""
    r, mu, nu = (np.asarray(x, dtype=float) for x in (r, mu, nu))
    live = (r > 0) & (mu > 0)[:, None] & (nu > 0)[None, :]
    rows, cols = mu > 0, nu > 0
    steps = []
    while rows.any():
        theta = peel(live, np.where(rows, mu, 0.0), np.where(cols, nu, 0.0))
        removed_rows = np.zeros_like(rows)
        removed_rows[[i for subset in theta.smallest for i in subset]] = True
        removed_cols = live[removed_rows].any(axis=0)
        steps.append(ProcedureStep(*(tuple(np.flatnonzero(mask).tolist())
                                     for mask in (rows, cols, removed_rows, removed_cols)),
                                   theta=theta.theta_m))
        rows, cols = rows & ~removed_rows, cols & ~removed_cols
        live[np.ix_(rows, removed_cols)] = False
    assert not cols.any()
    return ProcedureTrace(steps=steps, final_mask=live)


# ---------------------------------------------------------------------------
# The reduction of an increasing reference in closed form, in exact
# rational arithmetic: the reference of the structure layer at any size.


def increasing_reduction(mu, nu):
    """The exact reduction of the n x n increasing reference (R_ij > 0 iff
    i <= j) with positive masses ``mu`` and ``nu``: ``(steps, mask)``, the
    steps as ``(k, e, theta)``, each removing the rows and columns [k, e)
    at the ratio theta, a ``Fraction``, and the limit support.

    From the rows and columns [0, e) still active, a row set A whose
    smallest row is k has the image F(A) = [k, e), so mu(A)/nu(F(A)) is at
    most mu([k, e))/nu([k, e)), with equality only for A = [k, e): the
    maximizers are the suffixes of largest ratio.  They are nested, so the
    union of the inclusion-minimal ones is the shortest, [k, e).  The step
    removes it, rows < k x columns >= k are cleared, and [0, k) stays
    active.  The limit support is the upper triangle of each block [k, e).
    Each ratio is compared exactly, every mass converted by ``Fraction``."""
    n = len(mu)
    mu_tail, nu_tail = [Fraction(0)] * (n + 1), [Fraction(0)] * (n + 1)
    for i in range(n - 1, -1, -1):
        mu_tail[i], nu_tail[i] = mu_tail[i + 1] + Fraction(float(mu[i])), nu_tail[i + 1] + Fraction(float(nu[i]))
    steps, mask, e = [], np.zeros((n, n), dtype=bool), n
    while e:
        k = max(range(e - 1, -1, -1), key=lambda i: (mu_tail[i] - mu_tail[e]) / (nu_tail[i] - nu_tail[e]))
        steps.append((k, e, (mu_tail[k] - mu_tail[e]) / (nu_tail[k] - nu_tail[e])))
        mask[k:e, k:e] = np.triu(np.ones((e - k, e - k), dtype=bool))
        e = k
    return steps, mask


def increasing_tag(mu, nu):
    """``classify_exact``'s tag of an increasing reference with positive
    masses, from :func:`increasing_reduction`: Scalable with one block,
    ApproximatelyScalable with several at one ratio (M(mu)/M(nu)),
    NonScalable otherwise; Unbalanced* when M(mu) != M(nu), both masses
    summed exactly."""
    steps, _ = increasing_reduction(mu, nu)
    tag = ("Scalable" if len(steps) == 1 else
           "ApproximatelyScalable" if len({theta for _, _, theta in steps}) == 1 else "NonScalable")
    balanced = sum(map(Fraction, map(float, mu))) == sum(map(Fraction, map(float, nu)))
    return tag if balanced else _UNBALANCED_TAG[tag]


def increasing_draw(rng, n):
    """Positive integer masses (mu, nu) for the n x n increasing reference,
    with ties built in: blocks of random sizes, each with mu = c nu for a c
    drawn from {1, 2, 3} (so neighbouring blocks often share a ratio), or
    c = 1 throughout in a quarter of the draws, one unit of mu moved from
    a block's last row to its first where that leaves it positive; a
    third of the draws then balanced by adding |M(mu) - M(nu)| to one
    mass of the lighter side."""
    nu = rng.integers(1, 5, n)
    mu = np.empty(n, dtype=np.int64)
    top = 1 if rng.random() < 1 / 4 else 3
    start = 0
    while start < n:
        end = min(n, start + int(rng.integers(1, max(2, n // 3) + 1)))
        mu[start:end] = int(rng.integers(1, top + 1)) * nu[start:end]
        if mu[end - 1] > 1 and end - start > 1:
            mu[start] += 1
            mu[end - 1] -= 1
        start = end
    gap = int(mu.sum() - nu.sum())
    if rng.random() < 1 / 3:
        light = nu if gap > 0 else mu
        light[int(rng.integers(n))] += abs(gap)
    return mu.astype(float), nu.astype(float)


# ---------------------------------------------------------------------------
# The greedy start of ``scalability._max_flow`` in its vector form: the
# reference its per-row scan is checked against, bit for bit.


def reference_greedy_fill(adj, mu, nu, order="degree"):
    """Each row with mass, smallest support first with ties by index (or,
    with ``order="index"``, in index order), fills its support columns in
    index order up to their spare capacity, written as
    diff(min(cumsum(spare_col adj_i), mu_i)); a spare capacity that
    rounding leaves negative is clamped to 0."""
    n, m = adj.shape
    flow = np.zeros((n, m))
    spare_col = np.array(nu, dtype=float)
    filled = np.empty(m)
    rows = np.flatnonzero(mu)
    if order == "degree":
        rows = rows[np.argsort(adj[rows].sum(axis=1), kind="stable")]
    for i in rows.tolist():
        np.minimum(np.add.accumulate(spare_col * adj[i]), mu[i], out=filled)
        row = flow[i]
        row[:1] = filled[:1]
        np.subtract(filled[1:], filled[:-1], out=row[1:])
        spare_col -= row
        np.maximum(spare_col, 0.0, out=spare_col)
    return flow


# ---------------------------------------------------------------------------
# ``scalability._max_flow`` on the dense boolean support, with numpy masks
# for its residual graph: the reference its bitset form is checked
# against, bit for bit.


def reference_closure(rows, cols, down, up):
    """Rows and columns reachable from the boolean masks ``rows`` and
    ``cols`` along the edges row i -> column j where ``down[i, j]`` and
    column j -> row i where ``up[i, j]``: one boolean frontier step per
    layer.  Returns the two masks."""
    rows, cols = rows.copy(), cols.copy()
    new_r, new_c = rows, cols
    while new_r.any() or new_c.any():
        new_r, new_c = up[:, new_c].any(axis=1) & ~rows, down[new_r].any(axis=0) & ~cols
        rows |= new_r
        cols |= new_c
    return rows, cols


def reference_max_flow(adj, mu, nu, order="degree"):
    """``(flow, reached, carry, spare)`` of ``scalability._max_flow`` on
    the dense support ``adj``, the last three as boolean masks: the greedy
    fill (:func:`reference_greedy_fill`, its rows in ``order``), then Dinic
    phases whose layers are index arrays, each a breadth-first search by
    boolean frontier steps and a blocking flow
    (:func:`reference_blocking_flow`)."""
    m = adj.shape[1]
    tol = 1e-12 * total_mass(mu)
    flow = reference_greedy_fill(adj, mu, nu, order)
    spare_row = mu - flow.sum(axis=1)
    spare_col = nu - flow.sum(axis=0)
    while True:
        reached = spare_row > tol
        layers = [reached.nonzero()[0]]  # rows, columns, rows, ..., columns
        seen_col = np.zeros(m, dtype=bool)
        while True:
            cols = (adj[layers[-1]].any(axis=0) & ~seen_col).nonzero()[0]
            seen_col[cols] = True
            layers.append(cols)
            if not cols.size or (spare_col[cols] > tol).any():
                break
            rows = ((flow[:, cols] > tol).any(axis=1) & ~reached).nonzero()[0]
            reached[rows] = True
            layers.append(rows)
            if not rows.size:
                break
        if not layers[-1].size:  # no augmenting path is left
            return flow, reached, flow > tol, nu - flow.sum(axis=0) > tol
        reference_blocking_flow(adj, flow, spare_row, spare_col, layers, tol)


def reference_blocking_flow(adj, flow, spare_row, spare_col, layers, tol):
    """Augment ``flow`` in place along shortest paths of the layered graph
    ``layers`` until none is left: depth first from each source row, each
    node keeps the list of its untried successors, the last one being its
    current arc."""
    last = len(layers) - 1
    members = []  # each layer as a boolean mask over the rows or the columns
    for k, nodes in enumerate(layers):
        mask = np.zeros(adj.shape[k % 2], dtype=bool)
        mask[nodes] = True
        members.append(mask)
    arcs = [{} for _ in layers]
    for s in layers[0].tolist():
        path = [s]
        while path:
            k = len(path) - 1
            if k == last:  # forward edges path[2h] -> path[2h + 1], backward path[2h + 1] -> path[2h + 2]
                back = list(zip(path[2::2], path[1::2]))
                delta = min(spare_row[s], spare_col[path[-1]], *(flow[e] for e in back))
                for e in zip(path[0::2], path[1::2]):
                    flow[e] += delta
                for e in back:
                    flow[e] -= delta
                spare_row[s] -= delta
                spare_col[path[-1]] -= delta
                if spare_row[s] <= tol:
                    break
                # go on from the tail of the first edge that went saturated
                del path[next((2 * h + 2 for h, e in enumerate(back) if flow[e] <= tol), last):]
                continue
            v = path[-1]
            todo = arcs[k].get(v)
            if todo is None:  # columns v reaches, or rows sending flow into column v
                link = flow[:, v] > tol if k % 2 else adj[v]
                todo = arcs[k][v] = (link & members[k + 1]).nonzero()[0].tolist()
            while todo:
                w = todo[-1]
                saturated = flow[w, v] <= tol if k % 2 else k + 1 == last and spare_col[w] <= tol
                if not saturated and arcs[k + 1].get(w) != []:
                    break
                todo.pop()
            if todo:
                path.append(todo[-1])
            else:  # v is a dead end
                path.pop()
                if path:
                    arcs[k - 1][path[-1]].pop()


# ---------------------------------------------------------------------------
# networkx maximum flow and strongly connected components: the reference
# ``scalability._max_flow`` and ``classify_exact`` are checked against at
# any size.  The package itself builds no graph.


def _nx_residual(r, mu, nu):
    """A networkx maximum flow on the source -> rows -> columns -> sink
    network (capacities mu_i and nu_j, support edges uncapacitated):
    ``(value, residual)``, its value and its residual graph, counting a
    residual at or below 1e-12 M(mu) as saturated.  Rows are nodes
    ("r", i), columns ("c", j)."""
    g = nx.DiGraph()
    g.add_nodes_from(("s", "t"))
    g.add_edges_from(("s", ("r", i), {"capacity": w}) for i, w in enumerate(mu.tolist()) if w > 0)
    g.add_edges_from((("c", j), "t", {"capacity": w}) for j, w in enumerate(nu.tolist()) if w > 0)
    g.add_edges_from((("r", int(i)), ("c", int(j))) for i, j in zip(*np.nonzero(r > 0)))
    value, flow = nx.maximum_flow(g, "s", "t")
    tol = 1e-12 * total_mass(mu)
    residual = nx.DiGraph()
    residual.add_nodes_from(g)
    for x, y, cap in g.edges(data="capacity", default=math.inf):
        if cap - flow[x][y] > tol:
            residual.add_edge(x, y)
        if flow[x][y] > tol:
            residual.add_edge(y, x)
    return value, residual


def _rows_of(nodes):
    return tuple(sorted(v[1] for v in nodes if v[0] == "r"))


def oracle_max_flow(r, mu, nu):
    """``(value, witness)`` of the networkx maximum flow of
    :func:`_nx_residual`: the flow value, and the sorted rows reachable
    from the source in its residual graph."""
    value, residual = _nx_residual(r, mu, nu)
    return value, _rows_of(nx.descendants(residual, "s"))


def oracle_flow_classify(r, mu, nu):
    """``classify_exact`` from the networkx maximum flow of
    :func:`_nx_residual`, at any size.  NonScalable when the flow falls
    short of M(mu) by more than 1e-9 of it, witnessed by the rows reachable
    from the source.  Otherwise the first connected component of the
    support (by smallest row rho) whose rows do not lie in one strongly
    connected component of the residual graph is loose; its witness is
    the rows rho reaches when they are a proper subset of it, else the rows
    reached from the smallest row that cannot reach rho."""
    r, mu, nu = (np.asarray(x, dtype=float) for x in (r, mu, nu))
    m_mu, m_nu = total_mass(mu), total_mass(nu)
    unbalanced = abs(m_mu - m_nu) > 1e-12 * max(m_mu, m_nu)
    if unbalanced:
        mu, nu = mu / m_mu, nu / m_nu

    def finish(tag, rows=None):
        witness = None if rows is None else tuple(int(row_map[i]) for i in rows)
        return ScalabilityClass(tag=_UNBALANCED_TAG[tag] if unbalanced else tag, witness=witness)

    row_map, col_map = np.flatnonzero(mu > 0), np.flatnonzero(nu > 0)
    rr, mur, nur = r[np.ix_(row_map, col_map)], mu[row_map], nu[col_map]
    value, residual = _nx_residual(rr, mur, nur)
    if value < (1 - 1e-9) * total_mass(mur):
        return finish("NonScalable", _rows_of(nx.descendants(residual, "s")))
    inner = residual.subgraph(v for v in residual if v not in ("s", "t"))
    scc = {v: k for k, part in enumerate(nx.strongly_connected_components(inner)) for v in part}
    # the support, since every support edge is residual row -> column
    for rows in sorted(_rows_of(part) for part in nx.connected_components(inner.to_undirected())):
        rho = ("r", rows[0])
        if len({scc[("r", i)] for i in rows}) == 1:
            continue
        ahead = _rows_of(nx.descendants(inner, rho) | {rho})
        if len(ahead) == len(rows):
            sigma = min(i for i in rows if ("r", i) not in nx.ancestors(inner, rho) | {rho})
            ahead = _rows_of(nx.descendants(inner, ("r", sigma)) | {("r", sigma)})
        return finish("ApproximatelyScalable", ahead)
    shrunk = bool(support_graph(r).sum() > support_graph(rr).sum())
    return finish("ApproximatelyScalable" if shrunk else "Scalable")


def relabelled(rng, r, mu, nu):
    pr, pc = rng.permutation(r.shape[0]), rng.permutation(r.shape[1])
    return r[np.ix_(pr, pc)], mu[pr], nu[pc]


def saturated_staircase(rng, sizes):
    """Upper-triangular ones over ratio-1 single-block staircases laid
    along the diagonal, rows and columns relabelled.  Every union A of
    trailing blocks is exactly saturated, mu(A) = nu(F(A)), while the
    reference puts more mass on F(A) than on A."""
    parts = [staircase_instance(k, [k], [1.0]) for k in sizes]
    n = sum(sizes)
    mu = np.concatenate([p[1] for p in parts])
    nu = np.concatenate([p[2] for p in parts])
    return relabelled(rng, np.triu(np.ones((n, n))), mu, nu)


def oracle_cases(seed):
    """Instances of at most ORACLE_MAX_ROWS rows for the oracle agreement
    tests: balanced and unbalanced random sparse ones, exactly-saturated
    staircases and relabelled NonScalable staircases (all with full
    supports)."""
    rng = np.random.default_rng(seed)
    cases = [random_instance(rng, max_n=10, balanced=balanced, full_support=True)
             for balanced in (True, False) for _ in range(60)]
    for i in range(20):
        sizes = [int(k) for k in rng.integers(1, 5, size=int(rng.integers(1, 4)))]
        r, mu, nu = saturated_staircase(rng, sizes)
        cases.append((r, mu, nu * float(rng.uniform(0.5, 2.0)) if i % 2 else nu))
    for n_blocks in (2, 3, 4, 5):
        for n in (n_blocks * 2, ORACLE_MAX_ROWS):
            sizes = [n // n_blocks + (i < n % n_blocks) for i in range(n_blocks)]
            r, mu, nu, _, _ = staircase_instance(n, sizes, block_ratio_schedule(n_blocks))
            cases.append(relabelled(rng, r, mu, nu))
    return cases


# ---------------------------------------------------------------------------
# The scaling loop of ``run_sinkhorn`` with the structural-zero record
# kept as an int64 streak counter per entry: the reference its bit-packed
# ring of the last _ZERO_STREAK masks is checked against.


def reference_zero_loop(r, mu, nu, cfg):
    """``(iterations, gap_trace, structural_support)`` of ``run_sinkhorn``,
    with an int64 counter of the consecutive iterations each entry of P^n
    has stayed below z_tol."""
    z_tol = sinkhorn.Z_TOL_FACTOR * total_mass(mu)
    stall_tol = 1e-15 * total_mass(mu)
    below = np.zeros(r.shape, dtype=np.int64)
    trace = []
    kernel = _LogIteration(r, mu, nu)
    prev_p = prev_q = None
    stall_run = 0
    for n in range(1, cfg.max_iter + 1):
        kernel.step()
        p_on, q_on = kernel.couplings()  # on the kernel's entry list
        p = kernel.scatter(p_on)
        isbelow = p < z_tol
        below += isbelow
        below *= isbelow
        gap = math.inf if prev_p is None else max(tv_distance(p_on, prev_p), tv_distance(q_on, prev_q))
        trace.append((n, gap))
        if gap <= cfg.epsilon_tol:
            break
        stall_run = stall_run + 1 if gap <= stall_tol else 0
        if stall_run >= _ZERO_STREAK and n >= 2 * _ZERO_STREAK and \
                bool((below[isbelow] >= _ZERO_STREAK).all()):
            break
        prev_p, prev_q = p_on, q_on
    return n, trace, (r > 0) & ~(isbelow & (below >= min(_ZERO_STREAK, n)))
