"""Support graphs, feasibility and the scalable / approximately-scalable /
non-scalable classification.

The support of a reference coupling R induces a bipartite graph on
rows and columns: row i and column j are adjacent iff ``R[i, j] > 0``.
Whether a coupling with marginals (mu, nu) dominated by R exists is a
Hall-type condition on that graph: the problem is at least approximately
scalable iff masses match and ``mu(A) <= nu(F(A))`` for every row subset A,
where F(A) is the set of columns adjacent to A.  It is scalable (solution
with the full support of R, linear-rate scaling) iff in addition the
inequality is strict on every subset, within each connected component,
whose reference marginals are not themselves saturated.
"""

import math
from dataclasses import dataclass

# Not called here: the benchmark's tracer (bench/spans.py) wraps the
# max-flow calls of ``degensink.scalability.nx`` when it installs.
import networkx as nx  # noqa: F401
import numpy as np

from .errors import Assumption1Violated, DimensionTooLarge
from .measures import as_triple, marginal_col, marginal_row, total_mass

__all__ = [
    "support_graph",
    "forward_image",
    "backward_image",
    "restrict_to_E",
    "check_assumption1",
    "reduce_to_full_support",
    "connected_components",
    "ScalabilityClass",
    "classify_exact",
    "feasibility_flow",
    "SUBSET_ENUMERATION_CAP",
]

SUBSET_ENUMERATION_CAP = 20
_FLOW_TOL = 1e-9
_RESIDUAL_TOL = 1e-12

SCALABLE = "Scalable"
APPROXIMATELY_SCALABLE = "ApproximatelyScalable"
NON_SCALABLE = "NonScalable"

_UNBALANCED_TAG = {
    SCALABLE: "UnbalancedScalable",
    APPROXIMATELY_SCALABLE: "UnbalancedApproximatelyScalable",
    NON_SCALABLE: "UnbalancedNonScalable",
}


def support_graph(r):
    """Boolean adjacency of the bipartite support graph: ``r > 0``."""
    return np.asarray(r, dtype=float) > 0


def forward_image(adj, rows):
    """Columns adjacent to at least one row of ``rows``."""
    adj = np.asarray(adj, dtype=bool)
    idx = sorted(set(int(i) for i in rows))
    if not idx:
        return set()
    return set(int(j) for j in np.nonzero(adj[idx].any(axis=0))[0])


def backward_image(adj, cols):
    """Rows adjacent to at least one column of ``cols``."""
    adj = np.asarray(adj, dtype=bool)
    idx = sorted(set(int(j) for j in cols))
    if not idx:
        return set()
    return set(int(i) for i in np.nonzero(adj[:, idx].any(axis=1))[0])


def restrict_to_E(r, mu, nu):
    """Zero every entry of ``r`` outside supp(mu) x supp(nu).  Raises
    ValueError on inconsistent shapes and on NaN, infinite or negative
    input."""
    r, mu, nu = as_triple(r, mu, nu)
    return r * (mu > 0)[:, None] * (nu > 0)[None, :]


def check_assumption1(r, mu, nu):
    """True iff the scaling iteration for (r, mu, nu) is well defined.

    Requires mu << mu^{R0} and nu << nu^{R0}, where R0 is ``r`` restricted
    to supp(mu) x supp(nu).  Raises ValueError on inconsistent shapes and
    on NaN, infinite or negative input.
    """
    r, mu, nu = as_triple(r, mu, nu)
    live = (r > 0) & (mu > 0)[:, None] & (nu > 0)[None, :]  # the support of R0
    return bool(live.any(axis=1)[mu > 0].all() and live.any(axis=0)[nu > 0].all())


def reduce_to_full_support(r, mu, nu):
    """Restrict the triple to supp(mu) x supp(nu).

    Returns ``(r_r, mu_r, nu_r, row_map, col_map)`` where the maps are
    integer arrays of original indices.  The output triple has full
    supports (mu_r, nu_r and both marginals of r_r all positive) whenever
    the input satisfies the well-definedness assumption; otherwise
    Assumption1Violated is raised.  Raises ValueError on inconsistent
    shapes and on NaN, infinite or negative input.
    """
    r, mu, nu = as_triple(r, mu, nu)
    if not check_assumption1(r, mu, nu):
        raise Assumption1Violated("mu or nu puts mass where the restricted reference marginal vanishes")
    row_map = np.nonzero(mu > 0)[0]
    col_map = np.nonzero(nu > 0)[0]
    return r[np.ix_(row_map, col_map)], mu[row_map], nu[col_map], row_map, col_map


def connected_components(adj):
    """Connected components of the bipartite support graph ``adj``.

    Returns a list of ``(row_tuple, col_tuple)`` pairs; isolated vertices
    appear as singletons with an empty partner.  Traversal is breadth-first
    in ascending index order, and the component list is sorted by its
    smallest vertex, so the output is deterministic.
    """
    adj = np.asarray(adj, dtype=bool)
    n_rows, n_cols = adj.shape
    seen_r = [False] * n_rows
    seen_c = [False] * n_cols
    comps = []

    def bfs(start_kind, start):
        rr, cc = [], []
        queue = [(start_kind, start)]
        (seen_r if start_kind == "r" else seen_c)[start] = True
        while queue:
            kind, k = queue.pop(0)
            if kind == "r":
                rr.append(k)
                for j in np.nonzero(adj[k])[0]:
                    if not seen_c[j]:
                        seen_c[j] = True
                        queue.append(("c", int(j)))
            else:
                cc.append(k)
                for i in np.nonzero(adj[:, k])[0]:
                    if not seen_r[i]:
                        seen_r[i] = True
                        queue.append(("r", int(i)))
        return tuple(sorted(rr)), tuple(sorted(cc))

    for i in range(n_rows):
        if not seen_r[i]:
            comps.append(bfs("r", i))
    for j in range(n_cols):
        if not seen_c[j]:
            comps.append(bfs("c", j))
    comps.sort(key=lambda rc: (rc[0][0] if rc[0] else math.inf, rc[1][0] if rc[1] else math.inf))
    return comps


@dataclass(frozen=True)
class ScalabilityClass:
    """Classification outcome.

    ``tag`` is one of Scalable, ApproximatelyScalable, NonScalable or their
    Unbalanced* variants.  ``witness``, when present, is a tuple of original
    row indices A with ``mu(A) > nu(F(A))`` (NonScalable) or with
    ``mu(A) = nu(F(A))`` while ``mu^R(A) < nu^R(F(A))`` (ApproximatelyScalable).
    Up to the enumeration cap it is the lexicographically smallest such
    subset; above it the NonScalable witness is read off a minimum cut.
    """

    tag: str
    witness: tuple | None = None

    @property
    def is_unbalanced(self):
        return self.tag.startswith("Unbalanced")

    @property
    def base_tag(self):
        return self.tag.removeprefix("Unbalanced")


def _subset_table(adj, row_weights, col_weights):
    """Weight sums over every row subset A, indexed by the bitmask of A
    (bit i set iff row i is in A; entry 0 is the empty set).

    Returns ``(masks, row_sums, image_sums)``: ``row_sums[k][A]`` sums
    ``row_weights[k]`` over the rows of A and ``image_sums[k][A]`` sums
    ``col_weights[k]`` over the column image F(A) in the bipartite graph
    ``adj``.  Row sums are built by doubling: the subsets containing row k
    extend the ones below it by one addition.  Columns are grouped by
    their row neighbourhood B, and each group's total is added once to
    every subset that meets B, so memory stays O(2^n) per weight whatever
    the number of columns.
    """
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[0]
    masks = np.arange(1 << n, dtype=np.int64)
    row_weights = np.asarray(row_weights, dtype=float)
    row_sums = np.zeros((len(row_weights), 1 << n))
    for k in range(n):
        row_sums[:, 1 << k:2 << k] = row_sums[:, :1 << k] + row_weights[:, k:k + 1]
    neighbourhoods = (adj.astype(np.int64) << np.arange(n, dtype=np.int64)[:, None]).sum(axis=0)
    groups, group_of = np.unique(neighbourhoods, return_inverse=True)
    group_weights = np.array([np.bincount(group_of, weights=w, minlength=groups.size)
                              for w in col_weights])
    image_sums = np.zeros((len(col_weights), 1 << n))
    for b, w in zip(groups.tolist(), group_weights.T):
        if b:
            np.add(image_sums, w[:, None], out=image_sums, where=(masks & b) != 0)
    return masks, row_sums, image_sums


def _smallest_subset(masks):
    """The lexicographically smallest of the sorted index tuples encoded by
    the nonzero bitmasks ``masks``: fix the smallest first member, keep the
    masks that start with it, and walk on until one of them is exhausted."""
    members = []
    while True:
        low = masks & -masks
        first = low.min()
        members.append(int(first).bit_length() - 1)
        masks = masks[low == first] ^ first
        if not masks.all():
            return tuple(members)


def _is_unbalanced(mu, nu):
    """Total masses differ by more than 1e-12 times the larger one."""
    m_mu, m_nu = total_mass(mu), total_mass(nu)
    return abs(m_mu - m_nu) > 1e-12 * max(m_mu, m_nu)


def classify_exact(r, mu, nu):
    """Classify (r, mu, nu) as scalable, approximately scalable or
    non-scalable by exhaustive subset enumeration.

    Unbalanced inputs (total masses differ) are normalized to probability
    vectors first and tagged Unbalanced*.  The triple is then reduced to
    supp(mu) x supp(nu); if that reduction discards positive entries of r,
    any solution has strictly smaller support than r, so a feasible
    instance cannot be better than approximately scalable.

    Up to ``SUBSET_ENUMERATION_CAP`` rows every nonempty row subset is
    tested at once on a vectorized table of its sums: mu(A) against
    nu(F(A)) within 1e-12 of the mass for Hall's condition, then, per
    connected component, the saturated subsets against the reference
    marginals.  The number of columns is not limited.  Beyond the cap
    one max-flow decides feasibility: an infeasible instance is
    NonScalable with a min-cut witness from that same flow, and a feasible
    one raises DimensionTooLarge, since distinguishing Scalable from
    ApproximatelyScalable needs the enumeration.  DimensionTooLarge thus
    means "feasible, above the cap".
    """
    r, mu, nu = as_triple(r, mu, nu)
    if not check_assumption1(r, mu, nu):
        raise Assumption1Violated("classification undefined: assumption check failed")
    m_mu, m_nu = total_mass(mu), total_mass(nu)
    tol = 1e-12 * max(m_mu, m_nu)
    unbalanced = _is_unbalanced(mu, nu)
    if unbalanced:
        if m_mu == 0 or m_nu == 0:
            raise Assumption1Violated("one marginal is the zero measure but the other is not")
        mu = mu / m_mu
        nu = nu / m_nu
        tol = 1e-12

    def finish(tag, witness=None):
        if unbalanced:
            tag = _UNBALANCED_TAG[tag]
        return ScalabilityClass(tag=tag, witness=witness)

    if m_mu == 0 and m_nu == 0:
        return finish(SCALABLE if not support_graph(r).any() else APPROXIMATELY_SCALABLE)

    rr, mur, nur, row_map, col_map = reduce_to_full_support(r, mu, nu)
    support_shrunk = bool(support_graph(r).sum() > support_graph(rr).sum())

    n = rr.shape[0]
    if n > SUBSET_ENUMERATION_CAP:
        witness = _hall_violator(rr, mur, nur)
        if witness is None:
            raise DimensionTooLarge(
                f"{n} rows exceed the enumeration cap ({SUBSET_ENUMERATION_CAP}) and the instance "
                "is feasible; the Scalable/ApproximatelyScalable distinction needs enumeration"
            )
        return finish(NON_SCALABLE, tuple(int(row_map[i]) for i in witness))

    adj = support_graph(rr)
    masks, (mu_a, row_a), (nu_fa, col_fa) = _subset_table(
        adj, [mur, marginal_row(rr)], [nur, marginal_col(rr)])
    violators = np.flatnonzero(mu_a > nu_fa + tol)
    if violators.size:
        return finish(NON_SCALABLE, tuple(int(row_map[i]) for i in _smallest_subset(violators)))

    # Feasible: test strictness per connected component (scalable iff every
    # saturated subset also saturates the reference marginals).
    tol_ref = 1e-12 * total_mass(rr)
    in_component = np.zeros(masks.size, dtype=bool)
    for comp_rows, _ in connected_components(adj):
        in_component |= (masks & ~sum(1 << i for i in comp_rows)) == 0
    nonstrict = np.flatnonzero(in_component & (np.abs(nu_fa - mu_a) <= tol) & (col_fa - row_a > tol_ref))
    if nonstrict.size:
        return finish(APPROXIMATELY_SCALABLE,
                      tuple(int(row_map[i]) for i in _smallest_subset(nonstrict)))
    if support_shrunk:
        return finish(APPROXIMATELY_SCALABLE)
    return finish(SCALABLE)


def _max_flow(adj, mu, nu):
    """Maximum flow from a source through the rows (capacities ``mu``) and
    the support ``adj`` (uncapacitated) into the columns (capacities ``nu``)
    and on to a sink.  Returns ``(flow, reached)``: the (n, m) flow on the
    support, and the boolean mask of the rows reachable from the source in
    its residual graph, the source side of a minimum cut.

    A greedy fill comes first: each row in index order fills its support
    columns up to their remaining capacity.  Then each phase searches
    breadth first from every row with spare supply, rows to columns
    through the support and columns back to rows through entries that
    carry flow, and stops at the first layer that reaches a column with
    spare capacity.  Flow is pushed along every tree path to such a
    column whose bottleneck is still above the tolerance.  The paths are
    shortest, so the Edmonds-Karp bound on the number of augmentations
    holds whatever the capacities.  A residual at or below 1e-12 M(mu)
    counts as saturated: an edge saturated one ulp short is not an edge.
    """
    n, m = adj.shape
    tol = _RESIDUAL_TOL * total_mass(mu)
    flow = np.zeros((n, m))
    spare_col = np.array(nu, dtype=float)
    for i in range(n):
        cap = np.where(adj[i], spare_col, 0.0)
        flow[i] = np.clip(mu[i] - (np.cumsum(cap) - cap), 0.0, cap)
        spare_col -= flow[i]
    spare_row = mu - flow.sum(axis=1)
    row_via = np.empty(n, dtype=np.int64)  # column each reached row was reached from, -1: source
    col_via = np.empty(m, dtype=np.int64)  # row each reached column was reached from
    while True:
        reached = spare_row > tol
        row_via[reached] = -1
        seen_col = np.zeros(m, dtype=bool)
        frontier = np.flatnonzero(reached)
        sinks = frontier[:0]
        while frontier.size:
            step = adj[frontier] & ~seen_col
            cols = np.flatnonzero(step.any(axis=0))
            if not cols.size:
                break
            col_via[cols] = frontier[step[:, cols].argmax(axis=0)]
            seen_col[cols] = True
            sinks = cols[spare_col[cols] > tol]
            if sinks.size:
                break
            back = (flow[:, cols] > tol) & ~reached[:, None]
            frontier = np.flatnonzero(back.any(axis=1))
            row_via[frontier] = cols[back[frontier].argmax(axis=1)]
            reached[frontier] = True
        if not sinks.size:
            return flow, reached
        for j in sinks.tolist():
            rows, cols = [], [j]
            while True:
                rows.append(int(col_via[cols[-1]]))
                if row_via[rows[-1]] < 0:
                    break
                cols.append(int(row_via[rows[-1]]))
            # forward edges rows[k] -> cols[k]; backward edges cols[k+1] -> rows[k]
            delta = min(spare_col[j], spare_row[rows[-1]], flow[rows[:-1], cols[1:]].min(initial=np.inf))
            if delta > tol:
                flow[rows, cols] += delta
                flow[rows[:-1], cols[1:]] -= delta
                spare_col[j] -= delta
                spare_row[rows[-1]] -= delta


def _carries_mass(value, m_mu):
    """Whether a max-flow ``value`` carries the whole mass ``m_mu`` of mu,
    up to 1e-9 of it: the feasibility test of every flow here."""
    return value >= m_mu - _FLOW_TOL * m_mu


def feasibility_flow(r, mu, nu):
    """True iff some coupling dominated by ``r`` has marginals (mu, nu).

    Decided by maximum flow (:func:`_max_flow`) on the source -> rows ->
    columns -> sink network with capacities mu_i and nu_j (support edges
    uncapacitated): feasible iff the max flow carries the whole mass of
    mu.  Requires masses balanced to 1e-9 of the larger one.
    """
    r, mu, nu = as_triple(r, mu, nu)
    m_mu, m_nu = total_mass(mu), total_mass(nu)
    if abs(m_mu - m_nu) > _FLOW_TOL * max(m_mu, m_nu):
        raise ValueError("feasibility_flow requires balanced masses")
    if m_mu == 0:
        return True
    return _hall_violator(r, mu, nu) is None


def _hall_violator(r, mu, nu):
    """None when the maximum flow of :func:`_max_flow` carries the whole
    mass of mu (:func:`_carries_mass`); otherwise a row subset A with
    mu(A) > nu(F(A)), read off the same flow: the rows reachable from the
    source in its residual graph."""
    flow, reached = _max_flow(support_graph(r), mu, nu)
    if _carries_mass(float(flow.sum()), total_mass(mu)):
        return None
    return tuple(np.flatnonzero(reached).tolist())


def feasible_coupling(r, mu, nu):
    """A coupling dominated by ``r`` with marginals (mu, nu), the maximum
    flow of :func:`_max_flow`, or None when the instance is infeasible.
    Raises ValueError on inconsistent shapes and on NaN, infinite or
    negative input."""
    r, mu, nu = as_triple(r, mu, nu)
    m_mu = total_mass(mu)
    if m_mu == 0:
        return np.zeros_like(r)
    flow, _ = _max_flow(support_graph(r), mu, nu)
    if not _carries_mass(float(flow.sum()), m_mu):
        return None
    return flow
