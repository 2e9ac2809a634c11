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
from .measures import marginal_col, marginal_row, total_mass

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
    ``mu(A) = nu(F(A))`` while ``mu^R(A) < nu^R(F(A))`` (ApproximatelyScalable),
    always the lexicographically smallest such subset.
    """

    tag: str
    witness: tuple | None = None

    @property
    def is_unbalanced(self):
        return self.tag.startswith("Unbalanced")

    @property
    def base_tag(self):
        return self.tag.removeprefix("Unbalanced")


def _iter_subsets(row_idx, adjacency_rows):
    """Yield ``(indices, image_cols)`` for every nonempty subset of row_idx.

    ``adjacency_rows`` maps row index -> frozenset of adjacent columns.
    Uses an incremental DP over bitmasks; caller enforces the size cap.
    """
    n = len(row_idx)
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


def _row_adjacency(r):
    adj = support_graph(r)
    return {i: frozenset(int(j) for j in np.nonzero(adj[i])[0]) for i in range(adj.shape[0])}


def classify_exact(r, mu, nu, cap=SUBSET_ENUMERATION_CAP):
    """Classify (r, mu, nu) as scalable, approximately scalable or
    non-scalable by exhaustive subset enumeration.

    Unbalanced inputs (total masses differ) are normalized to probability
    vectors first and tagged Unbalanced*.  The triple is then reduced to
    supp(mu) x supp(nu); if that reduction discards positive entries of r,
    any solution has strictly smaller support than r, so a feasible
    instance cannot be better than approximately scalable.

    For row counts beyond ``cap`` the max-flow feasibility test still
    decides NonScalable (with a min-cut witness); distinguishing Scalable
    from ApproximatelyScalable genuinely needs enumeration, so that case
    raises DimensionTooLarge.
    """
    r = np.asarray(r, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if not check_assumption1(r, mu, nu):
        raise Assumption1Violated("classification undefined: assumption check failed")
    m_mu, m_nu = total_mass(mu), total_mass(nu)
    tol = 1e-12 * max(m_mu, m_nu, 1.0)
    unbalanced = abs(m_mu - m_nu) > tol
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
        if feasibility_flow(rr, mur, nur):
            raise DimensionTooLarge(
                f"{n} rows exceed the enumeration cap ({cap}) and the instance is feasible; "
                "the Scalable/ApproximatelyScalable distinction needs enumeration"
            )
        witness = _min_cut_witness(rr, mur, nur)
        return finish(NON_SCALABLE, tuple(int(row_map[i]) for i in witness))

    adj_rows = _row_adjacency(rr)
    nu_of = np.asarray(nur, dtype=float)

    def nu_sum(cols):
        return float(nu_of[list(cols)].sum()) if cols else 0.0

    violators = []
    for subset, image in _iter_subsets(list(range(n)), adj_rows):
        if float(mur[list(subset)].sum()) > nu_sum(image) + tol:
            violators.append(subset)
    if violators:
        best = min(violators)
        return finish(NON_SCALABLE, tuple(int(row_map[i]) for i in best))

    # Feasible: test strictness per connected component (scalable iff every
    # saturated subset also saturates the reference marginals).
    row_r = marginal_row(rr)
    col_r = marginal_col(rr)
    tol_ref = 1e-12 * max(total_mass(rr), 1.0)
    nonstrict = []
    for comp_rows, comp_cols in connected_components(support_graph(rr)):
        if not comp_rows:
            continue
        for subset, image in _iter_subsets(list(comp_rows), adj_rows):
            gap = nu_sum(image) - float(mur[list(subset)].sum())
            ref_gap = float(col_r[list(image)].sum()) - float(row_r[list(subset)].sum()) if image else 0.0
            if abs(gap) <= tol and ref_gap > tol_ref:
                nonstrict.append(subset)
    if nonstrict:
        best = min(nonstrict)
        return finish(APPROXIMATELY_SCALABLE, tuple(int(row_map[i]) for i in best))
    if support_shrunk:
        return finish(APPROXIMATELY_SCALABLE)
    return finish(SCALABLE)


def _flow_network(r, mu, nu):
    g = nx.DiGraph()
    n, m = r.shape
    for i in range(n):
        if mu[i] > 0:
            g.add_edge("s", ("r", i), capacity=float(mu[i]))
    for j in range(m):
        if nu[j] > 0:
            g.add_edge(("c", j), "t", capacity=float(nu[j]))
    rows, cols = np.nonzero(np.asarray(r) > 0)
    for i, j in zip(rows, cols):
        g.add_edge(("r", int(i)), ("c", int(j)))  # uncapacitated
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
    r = np.asarray(r, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    m_mu, m_nu = total_mass(mu), total_mass(nu)
    tol = 1e-9 * max(m_mu, 1.0)
    if abs(m_mu - m_nu) > tol:
        raise ValueError("feasibility_flow requires balanced masses")
    if m_mu == 0:
        return True
    g = _flow_network(r, mu, nu)
    value = nx.maximum_flow_value(g, "s", "t")
    return value >= m_mu - tol


def _min_cut_witness(r, mu, nu):
    """Row subset A with mu(A) > nu(F(A)): the rows reachable from the
    source in the residual graph of a maximum flow.

    A residual capacity below 1e-12 M(mu) counts as saturated; an exact
    ``flow == capacity`` test can miss a float edge saturated one ulp short.
    """
    g = _flow_network(r, mu, nu)
    _, flow = nx.maximum_flow(g, "s", "t")
    tol = 1e-12 * max(total_mass(mu), 1.0)
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
