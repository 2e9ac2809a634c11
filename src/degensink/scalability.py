"""Support graphs, feasibility and the scalable / approximately-scalable /
non-scalable classification.

The support of a reference coupling R induces a bipartite graph on
rows and columns: row i and column j are adjacent iff ``R[i, j] > 0``.
Whether a coupling with marginals (mu, nu) dominated by R exists is a
Hall-type condition on that graph: the problem is at least approximately
scalable iff masses match and ``mu(A) <= nu(F(A))`` for every row subset A,
where F(A) is the set of columns adjacent to A.  It is scalable (solution
with the full support of R, linear-rate scaling) iff in addition the
inequality is strict on every proper subset of each connected component.
Both are read off one maximum flow (:func:`_max_flow`) and closures in its
residual graph, at any size.
"""

from dataclasses import dataclass

import numpy as np

from .errors import Assumption1Violated
from .measures import as_triple, total_mass

__all__ = [
    "support_graph",
    "check_assumption1",
    "connected_components",
    "ScalabilityClass",
    "classify_exact",
    "feasibility_flow",
]


def __getattr__(name):
    # ``degensink.scalability.nx`` is networkx, imported on first read and
    # never with the package, which calls none of it: the benchmark's
    # tracer (bench/spans.py) reads the name to wrap max-flow calls when it
    # installs. Delete this together with that proxy once the tracer spans
    # ``_max_flow`` (ROADMAP item 1).
    if name == "nx":
        import networkx

        return networkx
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _r0_support(r, mu, nu):
    """The support of R0, R with its zero-mass rows and columns zeroed."""
    return (r > 0) & (mu > 0)[:, None] & (nu > 0)[None, :]


def check_assumption1(r, mu, nu):
    """True iff the scaling iteration for (r, mu, nu) is well defined.

    Requires mu << mu^{R0} and nu << nu^{R0}, where R0 is ``r`` with its
    zero-mass rows and columns zeroed.  Raises ValueError on inconsistent
    shapes and on NaN, infinite or negative input.
    """
    try:
        _require_assumption1(r, mu, nu)
    except Assumption1Violated:
        return False
    return True


def _require_assumption1(r, mu, nu):
    """The triple, validated once; Assumption1Violated unless
    :func:`check_assumption1` holds."""
    r, mu, nu = as_triple(r, mu, nu)
    live = _r0_support(r, mu, nu)
    if not (live.any(axis=1)[mu > 0].all() and live.any(axis=0)[nu > 0].all()):
        raise Assumption1Violated("mu or nu puts mass on a row or column without an entry of R0")
    return r, mu, nu


def _closure(rows, cols, down, up):
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


def connected_components(adj):
    """Connected components of the bipartite support graph ``adj``.

    Returns a list of ``(row_tuple, col_tuple)`` pairs, each sorted;
    isolated vertices appear as singletons with an empty partner.  The
    list is sorted by smallest row, and the components without rows (the
    isolated columns) come last, by column.
    """
    adj = np.asarray(adj, dtype=bool)
    if adj.ndim != 2:
        raise ValueError(f"adjacency must be 2-d, got shape {adj.shape}")
    n, m = adj.shape
    free_r, free_c = np.ones(n, dtype=bool), np.ones(m, dtype=bool)
    comps = []
    for i in range(n):
        if free_r[i]:
            rows, cols = _closure(np.arange(n) == i, np.zeros(m, dtype=bool), adj, adj)
            free_r &= ~rows
            free_c &= ~cols
            comps.append((tuple(np.flatnonzero(rows).tolist()), tuple(np.flatnonzero(cols).tolist())))
    return comps + [((), (j,)) for j in np.flatnonzero(free_c).tolist()]


@dataclass(frozen=True)
class ScalabilityClass:
    """Classification outcome.

    ``tag`` is one of Scalable, ApproximatelyScalable, NonScalable or their
    Unbalanced* variants.  ``witness``, when present, is a tuple of original
    row indices A with ``mu(A) > nu(F(A))`` (NonScalable) or with
    ``mu(A) = nu(F(A))`` while ``mu^R(A) < nu^R(F(A))`` (ApproximatelyScalable),
    chosen by the rules of :func:`classify_exact`.  Neither depends on
    which maximum flow was found, and the NonScalable one follows a
    relabelling of the rows.
    """

    tag: str
    witness: tuple | None = None

    @property
    def base_tag(self):
        return self.tag.removeprefix("Unbalanced")


def classify_exact(r, mu, nu):
    """Classify (r, mu, nu) as scalable, approximately scalable or
    non-scalable with one maximum flow.

    Unbalanced inputs (total masses differ) are normalized to probability
    vectors first and tagged Unbalanced*.  The flow runs on the support of
    R0 (:func:`_r0_support`); if that lacks positive entries of r, any
    solution has strictly smaller support than r, so a feasible instance
    cannot be better than approximately scalable.

    The instance is NonScalable when the flow of :func:`_max_flow` falls
    short of the mass of mu by more than 1e-9 of it (:func:`_carries_mass`).
    The witness is then the set of rows reached from the source in its
    residual graph: the inclusion-minimal maximizer of mu(A) - nu(F(A)).
    A feasible instance is Scalable when every connected component of the
    support is strongly connected in that residual graph (rows to columns
    through the support, columns back to rows through the entries that
    carry flow); see :func:`_loose_rows` for the ApproximatelyScalable
    witness.  Rows and columns are not limited in number.
    """
    r, mu, nu = _require_assumption1(r, mu, nu)
    m_mu, m_nu = total_mass(mu), total_mass(nu)
    unbalanced = abs(m_mu - m_nu) > 1e-12 * max(m_mu, m_nu)
    if unbalanced:  # both masses are positive: Assumption 1 ties a zero one to the other
        mu = mu / m_mu
        nu = nu / m_nu

    def finish(tag, rows=None):
        if unbalanced:
            tag = _UNBALANCED_TAG[tag]
        return ScalabilityClass(tag=tag, witness=None if rows is None else tuple(rows.tolist()))

    if m_mu == 0 and m_nu == 0:
        return finish(SCALABLE if not support_graph(r).any() else APPROXIMATELY_SCALABLE)

    adj = _r0_support(r, mu, nu)
    flow, reached, carry, _ = _max_flow(adj, mu, nu)
    if not _carries_mass(float(flow.sum()), total_mass(mu)):
        return finish(NON_SCALABLE, np.flatnonzero(reached))
    loose = _loose_rows(adj, carry)
    if loose is not None:
        return finish(APPROXIMATELY_SCALABLE, loose)
    if support_graph(r).sum() > adj.sum():
        return finish(APPROXIMATELY_SCALABLE)
    return finish(SCALABLE)


def _loose_rows(adj, carry):
    """None when every connected component of the support ``adj`` is
    strongly connected in the residual graph of a feasible flow whose
    entries ``carry`` flow; otherwise the witness rows of
    ApproximatelyScalable, a proper tight subset A of a component
    (mu(A) = nu(F(A)) while R puts mass on (rows outside A) x F(A)).

    A forward and a backward closure from the smallest row of every
    component decide it.  The witness comes from the first component, by
    smallest row rho, that fails: the smallest tight set containing rho
    (its forward closure) if that is a proper subset of the component,
    otherwise the smallest tight set containing the smallest row that
    cannot reach rho.
    """
    n, m = adj.shape
    comps = connected_components(adj)
    roots = np.zeros(n, dtype=bool)
    roots[[rows[0] for rows, _ in comps if rows]] = True
    no_cols = np.zeros(m, dtype=bool)
    forward, _ = _closure(roots, no_cols, adj, carry)
    backward, _ = _closure(roots, no_cols, carry, adj)
    for rows, _ in comps:
        rows = np.array(rows, dtype=np.int64)
        if not forward[rows].all():
            return rows[forward[rows]]
        if not backward[rows].all():
            start = np.arange(n) == rows[np.argmin(backward[rows])]
            return np.flatnonzero(_closure(start, no_cols, adj, carry)[0])
    return None


def _greedy_fill(adj, mu, nu):
    """A feasible flow on the support ``adj`` with row capacities ``mu``
    and column capacities ``nu``: each row with mass, in index order, fills
    its support columns in index order up to their spare capacity.

    One scan per row over its support columns that still have spare
    capacity: a running sum ``total`` of their spares, each column taking
    ``min(total, mu_i)`` less what the row had sent before it, until
    ``total`` reaches ``mu_i``.  A column whose spare capacity falls to 0,
    or below by rounding, drops out.  These are the IEEE operations, in
    the same order, of the vector form diff(min(cumsum(spare_col adj_i),
    mu_i)) with spare capacities clamped at 0: a column without spare
    capacity or off the support adds exactly 0 to the running sum, and
    past mu_i every difference is 0.  So the flow is that form's bit for
    bit, except that an entry it writes as -0.0 (a capacity given as
    -0.0) is +0.0 here."""
    flow = np.zeros(adj.shape)
    live = np.asarray(nu) > 0
    spare, need_of = np.asarray(nu, dtype=float).tolist(), np.asarray(mu, dtype=float).tolist()
    for i in np.flatnonzero(mu).tolist():  # a massless row sends nothing
        need, row = need_of[i], flow[i]
        total = filled = 0.0
        for j in (adj[i] & live).nonzero()[0].tolist():
            total += spare[j]
            f = min(total, need)
            row[j] = sent = f - filled
            spare[j] -= sent
            filled = f
            if spare[j] <= 0.0:
                live[j] = False
            if total >= need:
                break
    return flow


def _max_flow(adj, mu, nu):
    """Maximum flow from a source through the rows (capacities ``mu``) and
    the support ``adj`` (uncapacitated) into the columns (capacities ``nu``)
    and on to a sink.  Returns ``(flow, reached, carry, spare)``: the (n, m)
    flow on the support; the boolean mask of the rows reachable from the
    source in its residual graph, the source side of a minimum cut; and
    that residual graph's other edges, the entries that carry flow (columns
    back to rows) and the columns with spare capacity (columns to the
    sink).  A residual at or below 1e-12 M(mu) counts as saturated: an edge
    saturated one ulp short is not an edge.

    It starts from :func:`_greedy_fill`.  Then each phase (Dinic) searches
    breadth first from every row with spare supply, rows to columns
    through the support and columns back to rows through entries that
    carry flow, and stops at the first layer that reaches a column with
    spare capacity; :func:`_blocking_flow` then saturates every shortest
    augmenting path of that layered graph, so the next phase's paths are
    longer.
    """
    m = adj.shape[1]
    tol = _RESIDUAL_TOL * total_mass(mu)
    flow = _greedy_fill(adj, mu, nu)
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
        _blocking_flow(adj, flow, spare_row, spare_col, layers, tol)


def _blocking_flow(adj, flow, spare_row, spare_col, layers, tol):
    """Augment ``flow`` in place along shortest paths of the layered graph
    ``layers`` (rows with spare supply, then alternately columns and rows,
    ending at the columns with spare capacity) until none is left.  Depth
    first from each source row, each node keeps the list of its untried
    successors, the last one being its current arc (Dinic): an arc leaves
    the list once it is saturated or leads to a dead end.  Each
    augmentation empties its bottleneck exactly."""
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


def _carries_mass(value, m_mu):
    """Whether a max-flow ``value`` carries the whole mass ``m_mu`` of mu,
    up to 1e-9 of it: the feasibility test of every flow here."""
    return value >= m_mu - _FLOW_TOL * m_mu


def feasibility_flow(r, mu, nu):
    """True iff some coupling dominated by ``r`` has marginals (mu, nu).

    Decided by maximum flow (:func:`_max_flow`) on the source -> rows ->
    columns -> sink network with capacities mu_i and nu_j (support edges
    uncapacitated): feasible iff the max flow carries the whole mass of
    mu, and that flow is then such a coupling.  Requires masses balanced
    to 1e-9 of the larger one.  Raises ValueError on inconsistent shapes
    and on NaN, infinite or negative input.
    """
    r, mu, nu = as_triple(r, mu, nu)
    m_mu, m_nu = total_mass(mu), total_mass(nu)
    if abs(m_mu - m_nu) > _FLOW_TOL * max(m_mu, m_nu):
        raise ValueError("feasibility_flow requires balanced masses")
    flow, *_ = _max_flow(support_graph(r), mu, nu)
    return _carries_mass(float(flow.sum()), m_mu)
