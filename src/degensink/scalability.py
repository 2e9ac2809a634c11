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
residual graph, at any size, on bitsets: one Python int per row and one
per column (:func:`_bitsets`).
"""

from dataclasses import dataclass
from itertools import repeat

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
_BITS_OF_BYTE = [tuple(j for j in range(8) if byte >> j & 1) for byte in range(256)]

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


def _bitsets(mask):
    """The boolean matrix ``mask`` as a graph of Python-int bitsets
    ``(rows, cols)``: bit j of ``rows[i]`` and bit i of ``cols[j]`` are ``mask[i, j]``."""

    def pack(a):  # each row's bytes as one void item, read as an int
        packed = np.packbits(a, axis=1, bitorder="little")
        if not packed.shape[1]:  # a void item needs a byte
            return [0] * len(packed)
        return list(map(int.from_bytes, packed.view(f"V{packed.shape[1]}").ravel().tolist(), repeat("little")))

    return pack(mask), pack(np.ascontiguousarray(mask.T))


def _bitset(mask):
    """The boolean vector ``mask`` as an int: bit i is ``mask[i]``."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _unpack(bits, count):
    """The boolean (len(bits), count) matrix whose row i has the bits of ``bits[i]``."""
    width = -(-count // 8)
    data = np.frombuffer(b"".join(b.to_bytes(width, "little") for b in bits), dtype=np.uint8)
    return np.unpackbits(data.reshape(len(bits), width), axis=1, count=count, bitorder="little").view(bool)


def _ones(bits):
    """The set bits of the int ``bits`` in increasing order, a byte at a time."""
    data = bits.to_bytes(-(-bits.bit_length() // 8), "little")
    return [8 * k + j for k, byte in enumerate(data) if byte for j in _BITS_OF_BYTE[byte]]


def _image(bits, sets):
    """The union of ``sets[i]`` over the set bits i of the int ``bits``."""
    out = 0
    while bits:
        i = bits.bit_length() - 1
        bits ^= 1 << i
        out |= sets[i]
    return out


def _closure(rows, cols, down, up):
    """Rows and columns reachable from the bitsets ``rows`` and ``cols``
    along the edges row i -> column j of the graph ``down`` and column
    j -> row i of the graph ``up`` (:func:`_bitsets`): two bitsets."""
    new_r, new_c = rows, cols
    while new_r or new_c:
        new_r, new_c = _image(new_c, up[1]) & ~rows, _image(new_r, down[0]) & ~cols
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
    graph = _bitsets(adj)
    free_r, free_c = (1 << adj.shape[0]) - 1, (1 << adj.shape[1]) - 1
    comps = []
    while free_r:
        rows, cols = _closure(free_r & -free_r, 0, graph, graph)
        free_r &= ~rows
        free_c &= ~cols
        comps.append((tuple(_ones(rows)), tuple(_ones(cols))))
    return comps + [((), (j,)) for j in _ones(free_c)]


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
        return ScalabilityClass(tag=tag, witness=None if rows is None else tuple(rows))

    if m_mu == 0 and m_nu == 0:
        return finish(SCALABLE if not support_graph(r).any() else APPROXIMATELY_SCALABLE)

    adj = _r0_support(r, mu, nu)
    graph = _bitsets(adj)
    flow, reached, carry, _ = _max_flow(graph, mu, nu)
    if not _carries_mass(float(flow.sum()), total_mass(mu)):
        return finish(NON_SCALABLE, _ones(reached))
    loose = _loose_rows(graph, carry)
    if loose is not None:
        return finish(APPROXIMATELY_SCALABLE, loose)
    if support_graph(r).sum() > adj.sum():
        return finish(APPROXIMATELY_SCALABLE)
    return finish(SCALABLE)


def _loose_rows(adj, carry):
    """None when every connected component of the support ``adj`` is
    strongly connected in the residual graph of a feasible flow whose
    entries ``carry`` flow (both graphs of bitsets); otherwise the witness
    rows of ApproximatelyScalable, a proper tight subset A of a component
    (mu(A) = nu(F(A)) while R puts mass on (rows outside A) x F(A)).

    Components come by smallest row rho.  Equal forward and backward
    closures from rho are its whole component, strongly connected; else an
    undirected closure gives the component, which fails unless all its
    rows lie in both.  The first that fails gives the witness: the
    smallest tight set containing rho (its forward closure) if that is a
    proper subset of the component, otherwise the smallest tight set
    containing the smallest row that cannot reach rho.
    """
    free = (1 << len(adj[0])) - 1
    while free:
        start = free & -free
        ahead, behind = _closure(start, 0, adj, carry), _closure(start, 0, carry, adj)
        rows = ahead[0] if ahead == behind else _closure(start, 0, adj, adj)[0]
        free &= ~rows
        lost = rows & ~behind[0]  # the rows that cannot reach rho
        if rows & ~ahead[0] or lost:
            return _ones(ahead[0] if rows & ~ahead[0] else _closure(lost & -lost, 0, adj, carry)[0])
    return None


def _greedy_fill(adj, mu, nu):
    """A feasible flow on the support ``adj`` (a graph of bitsets) with
    row capacities ``mu`` and column capacities ``nu``: each row with
    mass, smallest support first and ties by index, scans its support
    columns that still have spare capacity in index order, keeping a
    running sum ``total`` of their spares; each takes ``min(total, mu_i)``
    less what the row sent before it, until ``total`` reaches ``mu_i``, and
    drops out once its spare falls to 0 or below.  These are the IEEE
    operations, in the same order, of diff(min(cumsum(spare_col adj_i),
    mu_i)) with spares clamped at 0 (a column skipped adds exactly 0 to the
    sum, and past mu_i every difference is 0), so the flow is that form's
    bit for bit, but for its -0.0 entries next to a capacity of -0.0,
    which are +0.0 here.  On nested supports (of any two rows, one support
    holds the other) it is a maximum flow: a row left short found its
    columns full, filled only by it and by earlier rows, whose supports it holds.
    Returns ``(flow, carry)``, each bit of ``carry`` set as its entry is written."""
    tol = _RESIDUAL_TOL * total_mass(mu)
    flow = np.zeros((len(adj[0]), len(adj[1])))
    carry = [0] * len(adj[0]), [0] * len(adj[1])
    live = _bitset(np.asarray(nu) > 0)
    spare, need_of = np.asarray(nu, dtype=float).tolist(), np.asarray(mu, dtype=float).tolist()
    degree = list(map(int.bit_count, adj[0]))
    for i in sorted(np.flatnonzero(mu).tolist(), key=degree.__getitem__):  # a massless row sends nothing
        need, row, todo = need_of[i], flow[i], adj[0][i] & live
        total = filled = 0.0
        while todo:
            j = (todo & -todo).bit_length() - 1
            todo ^= 1 << j
            total += spare[j]
            f = min(total, need)
            row[j] = sent = f - filled
            if sent > tol:
                carry[0][i] |= 1 << j
                carry[1][j] |= 1 << i
            spare[j] -= sent
            filled = f
            if spare[j] <= 0.0:
                live ^= 1 << j
            if total >= need:
                break
    return flow, carry


def _max_flow(adj, mu, nu):
    """Maximum flow from a source through the rows (capacities ``mu``) and
    the support ``adj`` (uncapacitated; a graph of bitsets, see
    :func:`_bitsets`) into the columns (capacities ``nu``) and on to a
    sink.  Returns ``(flow, reached, carry, spare)``: the dense (n, m)
    flow on the support; the bitset of the rows reachable from the source
    in its residual graph, the source side of a minimum cut; and that
    residual graph's other edges, the graph of bitsets of the entries that
    carry flow (columns back to rows) and the bitset of the columns with
    spare capacity (columns to the sink).  A residual at or below 1e-12
    M(mu) counts as saturated: an edge saturated one ulp short is not an
    edge.  ``carry`` follows every write of the flow that crosses it.

    It starts from :func:`_greedy_fill`, a maximum flow when the row
    supports are nested.  Then each phase (Dinic) searches breadth first
    from every row with spare supply, rows to columns through the support
    and columns back to rows through entries that carry flow, one OR of
    bitsets per layer, and stops at the first layer that reaches a column
    with spare capacity; :func:`_blocking_flow` then saturates every
    shortest augmenting path of that layered graph, so the next phase's
    paths are longer.
    """
    tol = _RESIDUAL_TOL * total_mass(mu)
    flow, carry = _greedy_fill(adj, mu, nu)
    spare_row, spare_col = (mu - flow.sum(axis=1)).tolist(), (nu - flow.sum(axis=0)).tolist()
    while True:
        reached = sum(1 << i for i, x in enumerate(spare_row) if x > tol)
        spare = sum(1 << j for j, x in enumerate(spare_col) if x > tol)
        layers, seen_col = [reached], 0  # layers: rows, columns, rows, ..., columns
        while True:
            cols = _image(layers[-1], adj[0]) & ~seen_col
            seen_col |= cols
            layers.append(cols)
            if not cols or cols & spare:
                break
            rows = _image(cols, carry[1]) & ~reached
            reached |= rows
            layers.append(rows)
            if not rows:
                break
        if not layers[-1]:  # no augmenting path is left
            return flow, reached, carry, _bitset(nu - flow.sum(axis=0) > tol)
        _blocking_flow(adj, flow, carry, spare_row, spare_col, layers, tol)


def _blocking_flow(adj, flow, carry, spare_row, spare_col, layers, tol):
    """Augment ``flow`` and its graph ``carry`` in place along shortest
    paths of the layered graph ``layers`` (bitsets) until none is left.
    Depth first from each source row, each node keeps the bitset of its
    untried successors, the highest being its current arc (Dinic): an arc
    leaves it once it is saturated or leads to a dead end.  Each
    augmentation empties its bottleneck exactly."""
    last = len(layers) - 1
    arcs = [{} for _ in layers]
    for s in _ones(layers[0]):
        path = [s]
        while path:
            k = len(path) - 1
            if k == last:  # forward edges path[2h] -> path[2h + 1], backward path[2h + 1] -> path[2h + 2]
                back = list(zip(path[2::2], path[1::2]))
                delta = min(spare_row[s], spare_col[path[-1]], *(flow[e] for e in back))
                for i, j in zip(path[0::2], path[1::2]):
                    flow[i, j] = f = flow[i, j] + delta
                    if f > tol:
                        carry[0][i] |= 1 << j
                        carry[1][j] |= 1 << i
                for i, j in back:
                    flow[i, j] = f = flow[i, j] - delta
                    if f <= tol:
                        carry[0][i] &= ~(1 << j)
                        carry[1][j] &= ~(1 << i)
                spare_row[s] -= delta
                spare_col[path[-1]] -= delta
                if spare_row[s] <= tol:
                    break
                # go on from the tail of the first edge that went saturated
                del path[next((2 * h + 2 for h, (i, j) in enumerate(back) if not carry[0][i] >> j & 1), last):]
                continue
            v = path[-1]
            todo = arcs[k].get(v)
            if todo is None:  # columns v reaches, or rows sending flow into column v
                todo = (carry[1] if k % 2 else adj[0])[v] & layers[k + 1]
            while todo:
                w = todo.bit_length() - 1
                saturated = not carry[1][v] >> w & 1 if k % 2 else k + 1 == last and spare_col[w] <= tol
                if not saturated and arcs[k + 1].get(w) != 0:
                    break
                todo ^= 1 << w
            arcs[k][v] = todo
            if todo:
                path.append(w)
            else:  # v is a dead end
                path.pop()
                if path:
                    arcs[k - 1][path[-1]] ^= 1 << v


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
    flow, *_ = _max_flow(_bitsets(support_graph(r)), mu, nu)
    return _carries_mass(float(flow.sum()), m_mu)
