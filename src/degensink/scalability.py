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

import networkx as nx
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
    """Zero every entry of ``r`` outside supp(mu) x supp(nu)."""
    r = np.asarray(r, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if r.shape != (mu.size, nu.size):
        raise ValueError("inconsistent shapes")
    return r * (mu > 0)[:, None] * (nu > 0)[None, :]


def check_assumption1(r, mu, nu):
    """True iff the scaling iteration for (r, mu, nu) is well defined.

    Requires mu << mu^{R0} and nu << nu^{R0}, where R0 is ``r`` restricted
    to supp(mu) x supp(nu).
    """
    r0 = restrict_to_E(r, mu, nu)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    row0 = marginal_row(r0)
    col0 = marginal_col(r0)
    return not (np.any((mu > 0) & (row0 == 0.0)) or np.any((nu > 0) & (col0 == 0.0)))


def reduce_to_full_support(r, mu, nu):
    """Restrict the triple to supp(mu) x supp(nu).

    Returns ``(r_r, mu_r, nu_r, row_map, col_map)`` where the maps are
    integer arrays of original indices.  The output triple has full
    supports (mu_r, nu_r and both marginals of r_r all positive) whenever
    the input satisfies the well-definedness assumption; otherwise
    Assumption1Violated is raised.
    """
    if not check_assumption1(r, mu, nu):
        raise Assumption1Violated("mu or nu puts mass where the restricted reference marginal vanishes")
    r = np.asarray(r, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    row_map = np.nonzero(mu > 0)[0]
    col_map = np.nonzero(nu > 0)[0]
    return r[np.ix_(row_map, col_map)], mu[row_map], nu[col_map], row_map, col_map


def connected_components(adj, rows=None, cols=None):
    """Connected components of the bipartite support graph restricted to
    ``rows`` x ``cols``.

    Returns a list of ``(row_tuple, col_tuple)`` pairs; isolated vertices
    appear as singletons with an empty partner.  Traversal is breadth-first
    in ascending index order, and the component list is sorted by its
    smallest vertex, so the output is deterministic.
    """
    adj = np.asarray(adj, dtype=bool)
    rows = list(range(adj.shape[0])) if rows is None else sorted(set(int(i) for i in rows))
    cols = list(range(adj.shape[1])) if cols is None else sorted(set(int(j) for j in cols))
    sub = adj[np.ix_(rows, cols)] if rows and cols else np.zeros((len(rows), len(cols)), dtype=bool)
    seen_r = [False] * len(rows)
    seen_c = [False] * len(cols)
    comps = []

    def bfs(start_kind, start):
        rr, cc = [], []
        queue = [(start_kind, start)]
        (seen_r if start_kind == "r" else seen_c)[start] = True
        while queue:
            kind, k = queue.pop(0)
            if kind == "r":
                rr.append(k)
                for j in np.nonzero(sub[k])[0]:
                    if not seen_c[j]:
                        seen_c[j] = True
                        queue.append(("c", int(j)))
            else:
                cc.append(k)
                for i in np.nonzero(sub[:, k])[0]:
                    if not seen_r[i]:
                        seen_r[i] = True
                        queue.append(("r", int(i)))
        return tuple(rows[i] for i in sorted(rr)), tuple(cols[j] for j in sorted(cc))

    for i in range(len(rows)):
        if not seen_r[i]:
            comps.append(bfs("r", i))
    for j in range(len(cols)):
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
    """Total masses differ by more than 1e-12 times the larger one (or 1)."""
    m_mu, m_nu = total_mass(mu), total_mass(nu)
    return abs(m_mu - m_nu) > 1e-12 * max(m_mu, m_nu, 1.0)


def classify_exact(r, mu, nu, cap=SUBSET_ENUMERATION_CAP):
    """Classify (r, mu, nu) as scalable, approximately scalable or
    non-scalable by exhaustive subset enumeration.

    Unbalanced inputs (total masses differ) are normalized to probability
    vectors first and tagged Unbalanced*.  The triple is then reduced to
    supp(mu) x supp(nu); if that reduction discards positive entries of r,
    any solution has strictly smaller support than r, so a feasible
    instance cannot be better than approximately scalable.

    Up to ``cap`` rows every nonempty row subset is tested at once on a
    vectorized table of its sums: mu(A) against nu(F(A)) within 1e-12 of
    the mass for Hall's condition, then, per connected component, the
    saturated subsets against the reference marginals.  The number of
    columns is not limited.  Beyond ``cap`` rows one max-flow decides
    feasibility: an infeasible instance is NonScalable with a min-cut
    witness from that same flow, and a feasible one raises
    DimensionTooLarge, since distinguishing Scalable from
    ApproximatelyScalable needs the enumeration.  DimensionTooLarge thus
    means "feasible, above the cap".
    """
    r, mu, nu = as_triple(r, mu, nu)
    if not check_assumption1(r, mu, nu):
        raise Assumption1Violated("classification undefined: assumption check failed")
    m_mu, m_nu = total_mass(mu), total_mass(nu)
    tol = 1e-12 * max(m_mu, m_nu, 1.0)
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
    if n > cap:
        witness = _hall_violator(rr, mur, nur)
        if witness is None:
            raise DimensionTooLarge(
                f"{n} rows exceed the enumeration cap ({cap}) and the instance is feasible; "
                "the Scalable/ApproximatelyScalable distinction needs enumeration"
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
    tol_ref = 1e-12 * max(total_mass(rr), 1.0)
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


def _flow_network(r, mu, nu):
    g = nx.DiGraph()
    g.add_edges_from(("s", ("r", i), {"capacity": w}) for i, w in enumerate(mu.tolist()) if w > 0)
    g.add_edges_from((("c", j), "t", {"capacity": w}) for j, w in enumerate(nu.tolist()) if w > 0)
    rows, cols = np.nonzero(r > 0)
    g.add_edges_from((("r", i), ("c", j)) for i, j in zip(rows.tolist(), cols.tolist()))  # uncapacitated
    g.add_node("s")
    g.add_node("t")
    return g


def feasibility_flow(r, mu, nu):
    """True iff some coupling dominated by ``r`` has marginals (mu, nu).

    Decided by maximum flow on the source -> rows -> columns -> sink
    network with capacities mu_i and nu_j (support edges uncapacitated):
    feasible iff the max flow carries the whole mass of mu.  Requires
    balanced masses.
    """
    r, mu, nu = as_triple(r, mu, nu)
    m_mu, m_nu = total_mass(mu), total_mass(nu)
    tol = 1e-9 * max(m_mu, 1.0)
    if abs(m_mu - m_nu) > tol:
        raise ValueError("feasibility_flow requires balanced masses")
    if m_mu == 0:
        return True
    g = _flow_network(r, mu, nu)
    value = nx.maximum_flow_value(g, "s", "t")
    return value >= m_mu - tol


def _hall_violator(r, mu, nu):
    """None when the instance is feasible (the max flow carries the mass
    of mu up to 1e-9, as in :func:`feasibility_flow`); otherwise a row
    subset A with mu(A) > nu(F(A)), read off the same maximum flow: the
    rows reachable from the source in its residual graph.

    A residual capacity below 1e-12 M(mu) counts as saturated; an exact
    ``flow == capacity`` test can miss a float edge saturated one ulp short.
    """
    g = _flow_network(r, mu, nu)
    value, flow = nx.maximum_flow(g, "s", "t")
    m_mu = total_mass(mu)
    if value >= m_mu - 1e-9 * max(m_mu, 1.0):
        return None
    tol = 1e-12 * max(m_mu, 1.0)
    residual = nx.DiGraph()
    residual.add_node("s")
    for x, y, cap in g.edges(data="capacity", default=math.inf):
        if cap - flow[x][y] > tol:
            residual.add_edge(x, y)
        if flow[x][y] > tol:
            residual.add_edge(y, x)
    return tuple(sorted(node[1] for node in nx.descendants(residual, "s") if node[0] == "r"))


def feasible_coupling(r, mu, nu):
    """A coupling dominated by ``r`` with marginals (mu, nu), built from a
    maximum-flow decomposition, or None when the instance is infeasible."""
    r = np.asarray(r, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    m_mu = total_mass(mu)
    if m_mu == 0:
        return np.zeros_like(r)
    g = _flow_network(r, mu, nu)
    value, flow = nx.maximum_flow(g, "s", "t")
    if value < m_mu - 1e-9 * max(m_mu, 1.0):
        return None
    out = np.zeros_like(r)
    for u, targets in flow.items():
        if isinstance(u, tuple) and u[0] == "r":
            for v, f in targets.items():
                if isinstance(v, tuple) and v[0] == "c" and f > 0:
                    out[u[1], v[1]] = f
    return out
