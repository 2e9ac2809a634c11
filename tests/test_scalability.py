import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degensink import (
    ScalabilityClass,
    check_assumption1,
    classify_exact,
    connected_components,
    exact_support_procedure,
    feasibility_flow,
    support_graph,
)
from degensink import scalability
from degensink.instances import (
    KIND_RANDOM,
    InstanceSpec,
    appendix_a_instance,
    block_ratio_schedule,
    gen_instance,
    staircase_instance,
)
from degensink.measures import total_mass
from conftest import (
    detect_limit_support,
    oracle_cases,
    oracle_classify,
    oracle_flow_classify,
    oracle_max_flow,
    random_instance,
    reference_closure,
    reference_greedy_fill,
    reference_max_flow,
    relabelled,
    saturated_staircase,
)


# Bitsets written and read one bit at a time, apart from the package's
# packing: what the bitset graphs of ``scalability`` are checked against.


def _bits(mask):
    return sum(1 << int(i) for i in np.flatnonzero(mask))


def _bits_to_mask(bits, count):
    return np.array([[b >> j & 1 for j in range(count)] for b in bits], dtype=bool).reshape(len(bits), count)


def _masks(flow, reached, carry, spare):
    """The outputs of ``_max_flow`` with its bitsets as boolean masks;
    the two halves of ``carry`` must agree."""
    n, m = flow.shape
    carry_rows = _bits_to_mask(carry[0], m)
    assert np.array_equal(carry_rows, _bits_to_mask(carry[1], n).T)
    return flow, _bits_to_mask([reached], n)[0], carry_rows, _bits_to_mask([spare], m)[0]


def test_support_graph(appendix):
    r, _, _ = appendix
    assert np.array_equal(support_graph(r), np.triu(np.ones((3, 3), dtype=bool)))
    assert not support_graph(np.zeros((2, 2))).any()
    assert np.array_equal(support_graph(np.diag([5.0, 5.0])), np.eye(2, dtype=bool))


def test_check_assumption1(appendix):
    r, mu, nu = appendix
    assert check_assumption1(r, mu, nu)
    assert not check_assumption1(np.diag([1.0, 0.0]), [1.0, 1.0], [1.0, 1.0])
    assert check_assumption1(np.diag([1.0, 0.0]), [0.0, 0.0], [0.0, 0.0])


def test_classify_appendix(appendix):
    r, mu, nu = appendix
    out = classify_exact(r, mu, nu)
    assert out.tag == "NonScalable"
    assert out.witness == (2,)


def test_classify_diag_scalable():
    out = classify_exact(np.eye(2), [1.0, 1.0], [1.0, 1.0])
    assert out.tag == "Scalable"


def test_classify_reduced_approximately_scalable():
    # nu has a zero; after reduction the solution loses support entries of R
    out = classify_exact(np.ones((2, 2)), [1.0, 1.0], [2.0, 0.0])
    assert out.tag == "ApproximatelyScalable"


def test_classify_saturated_subset_is_approximately_scalable():
    # mu({x2}) = nu(F({x2})) while the reference marginals there are not
    # saturated: feasible, but the solution loses the (0, 1) entry
    r = np.array([[1.0, 1.0], [0.0, 1.0]])
    out = classify_exact(r, [1.0, 1.0], [1.0, 1.0])
    assert out.tag == "ApproximatelyScalable"
    assert out.witness == (1,)


def test_classify_unbalanced_tags(appendix):
    r, mu, nu = appendix
    out = classify_exact(r, mu, 2 * nu)
    assert out.tag == "UnbalancedNonScalable"
    out = classify_exact(np.eye(2), [1.0, 1.0], [3.0, 3.0])
    assert out.tag == "UnbalancedScalable"


def test_feasibility_flow(appendix):
    r, mu, nu = appendix
    assert not feasibility_flow(r, mu, nu)
    assert feasibility_flow(np.eye(3), [1.0, 2, 3], [1.0, 2, 3])
    with pytest.raises(ValueError):
        feasibility_flow(np.eye(2), [1.0, 1.0], [3.0, 3.0])
    # balanced means within 1e-12 of the larger mass, as in classify_exact
    with pytest.raises(ValueError):
        feasibility_flow(np.eye(3), [1.0, 2, 3], np.array([1.0, 2, 3]) * (1 + 1e-10))


@pytest.mark.parametrize("delta", [1e-13, 5e-13, 2e-12, 1e-11, 1e-10, 5e-10])
def test_one_infeasibility_rule_on_a_near_tie(delta):
    # R = [[1, 0], [1, 1]], nu = (1/2, 1/2), mu = (1/2 + delta, 1/2 - delta):
    # row 0 is short by delta, so the instance is NonScalable with witness
    # (0,) once delta exceeds 1e-12 M(mu), and the reduction's first step
    # then has theta = 1 + 2 delta; below that it is a tie at theta = 1
    r = np.array([[1.0, 0.0], [1.0, 1.0]])
    mu, nu = np.array([0.5 + delta, 0.5 - delta]), np.array([0.5, 0.5])
    theta = exact_support_procedure(r, mu, nu).steps[0].theta
    if delta > 1e-12:
        assert classify_exact(r, mu, nu) == ScalabilityClass("NonScalable", (0,))
        assert not feasibility_flow(r, mu, nu)
        assert theta > 1
    else:
        assert classify_exact(r, mu, nu).tag != "NonScalable"
        assert feasibility_flow(r, mu, nu)
        assert theta == 1


def test_classify_agrees_with_flow_randomized():
    rng = np.random.default_rng(77)
    for _ in range(120):
        r, mu, nu = random_instance(rng, max_n=6)
        out = classify_exact(r, mu, nu)
        assert (out.base_tag == "NonScalable") == (not feasibility_flow(r, mu, nu))
        if out.base_tag != "NonScalable":
            assert check_assumption1(r, mu, nu)


def test_connected_components(appendix):
    block = np.zeros((4, 4), dtype=bool)
    block[:2, :2] = True
    block[2:, 2:] = True
    comps = connected_components(block)
    assert comps == [((0, 1), (0, 1)), ((2, 3), (2, 3))]

    r, _, _ = appendix
    assert connected_components(support_graph(r)) == [((0, 1, 2), (0, 1, 2))]

    r1 = np.array([[1.0, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert connected_components(support_graph(r1)) == [((0, 1), (0, 1)), ((2,), (2,))]


def test_connected_components_isolated_vertices():
    adj = np.array([[True, False], [False, False]])
    comps = connected_components(adj)
    assert ((0,), (0,)) in comps
    assert ((1,), ()) in comps
    assert ((), (1,)) in comps


@pytest.mark.parametrize("adj", [np.ones(3), np.ones((2, 2, 2)), np.True_],
                         ids=["1-d", "3-d", "0-d"])
def test_connected_components_rejects_an_adjacency_not_2d(adj):
    # a 1-d adjacency ended in a bare "not enough values to unpack"
    with pytest.raises(ValueError, match="adjacency must be 2-d"):
        connected_components(adj)


def test_feasible_support_contained_in_limit_support():
    # any feasible coupling dominated by R has support inside the limit's
    rng = np.random.default_rng(21)
    found = 0
    while found < 15:
        r, mu, nu = random_instance(rng, max_n=6, full_support=True)
        if not feasibility_flow(r, mu, nu):
            continue
        found += 1
        p, *_ = scalability._max_flow(scalability._bitsets(support_graph(r)), mu, nu)
        mask, _ = detect_limit_support(r, mu, nu, max_iter=20_000)
        assert not ((p > 1e-9) & ~mask).any()


def test_classify_beyond_cap():
    # beyond the reach of subset enumeration (2^25 subsets), infeasible
    # instances get a Hall-violating witness and feasible ones their exact
    # tag
    r, mu, nu, _, bounds = staircase_instance(30, [15, 15], block_ratio_schedule(2))
    out = classify_exact(r, mu, nu)
    assert out.tag == "NonScalable"
    assert set(out.witness) <= set(range(*bounds[1]))  # a violating subset of the heavy block
    sums = mu[list(out.witness)].sum()
    img = support_graph(r)[list(out.witness)].any(axis=0)
    assert sums > nu[img].sum()

    eye = np.eye(25)
    ones = np.ones(25)
    assert classify_exact(eye, ones, ones) == ScalabilityClass("Scalable")
    assert classify_exact(eye, ones, 3 * ones) == ScalabilityClass("UnbalancedScalable")


def test_min_cut_witness_violates_hall_on_relabelled_staircase():
    # the 4-block 200x200 staircase is NonScalable above the enumeration
    # cap; under these relabellings an exact flow == capacity reading of
    # the min cut gave empty or Hall-satisfying witnesses
    r0, mu0, nu0, _, _ = staircase_instance(200, [50] * 4, block_ratio_schedule(4))
    for seed in (2, 5, 6, 7):
        rng = np.random.default_rng(seed)
        pr, pc = rng.permutation(200), rng.permutation(200)
        r, mu, nu = r0[np.ix_(pr, pc)], mu0[pr], nu0[pc]
        out = classify_exact(r, mu, nu)
        assert out.tag == "NonScalable" and out.witness
        img = support_graph(r)[list(out.witness)].any(axis=0)
        assert mu[list(out.witness)].sum() > nu[img].sum()


def test_classify_agrees_with_enumeration_oracle():
    # tags and witnesses of the flow and its residual closures against the
    # pure-Python enumeration under the same rules, including exactly
    # saturated subsets, where the two sum in different orders
    tags = set()
    for r, mu, nu in oracle_cases(404):
        out = classify_exact(r, mu, nu)
        assert out == oracle_classify(r, mu, nu)
        tags.add((out.tag, out.witness is not None))
    assert tags == {("Scalable", False), ("UnbalancedScalable", False),
                    ("ApproximatelyScalable", True), ("UnbalancedApproximatelyScalable", True),
                    ("NonScalable", True), ("UnbalancedNonScalable", True)}


def test_classify_beyond_cap_runs_one_max_flow(max_flow_calls):
    # the flow that decides feasibility also yields the witness and the
    # Scalable / ApproximatelyScalable split, at any size
    r, mu, nu, _, _ = staircase_instance(30, [15, 15], block_ratio_schedule(2))
    instances = [((r, mu, nu), "NonScalable"),
                 ((np.eye(25), np.ones(25), np.ones(25)), "Scalable"),
                 (saturated_staircase(np.random.default_rng(3), [10, 12, 8]), "ApproximatelyScalable")]
    for count, (case, tag) in enumerate(instances, start=1):
        assert classify_exact(*case).tag == tag
        assert len(max_flow_calls) == count


def test_classify_witness_of_a_second_loose_component():
    # a Scalable block beside an ApproximatelyScalable one, in both orders,
    # with a massless row and a massless column that carry reference
    # entries: the components before the loose one pass, and its witness
    # is the oracle's, wherever relabelling puts it
    rng = np.random.default_rng(83)
    loose_second = set()
    for k in range(40):
        a, b = (int(x) for x in rng.integers(1, 6, size=2))
        mu_s = rng.exponential(size=a)
        scalable = rng.uniform(0.5, 2.0, size=(a, b)), mu_s, rng.dirichlet(np.ones(b)) * mu_s.sum()
        loose = saturated_staircase(rng, [int(x) for x in rng.integers(1, 5, size=int(rng.integers(2, 4)))])
        blocks = [scalable, loose] if k % 2 else [loose, scalable]
        (r0, mu0, nu0), (r1, mu1, nu1) = blocks
        r = np.ones((r0.shape[0] + r1.shape[0] + 1, r0.shape[1] + r1.shape[1] + 1))
        r[:-1, :-1] = 0.0
        r[:r0.shape[0], :r0.shape[1]] = r0
        r[r0.shape[0]:-1, r0.shape[1]:-1] = r1
        mu, nu = np.concatenate([mu0, mu1, [0.0]]), np.concatenate([nu0, nu1, [0.0]])
        block_of = np.repeat([0, 1, 2], [r0.shape[0], r1.shape[0], 1])
        pr, pc = rng.permutation(r.shape[0]), rng.permutation(r.shape[1])
        r, mu, nu, block_of = r[np.ix_(pr, pc)], mu[pr], nu[pc], block_of[pr]
        out = classify_exact(r, mu, nu)
        assert out == oracle_flow_classify(r, mu, nu)
        assert out.tag == "ApproximatelyScalable" and (block_of[list(out.witness)] == k % 2).all()
        first_row = [np.flatnonzero(block_of == block)[0] for block in (0, 1)]
        loose_second.add(bool(first_row[k % 2] > first_row[1 - k % 2]))
    assert loose_second == {True, False}


def test_a_column_too_light_to_carry_flow_leaves_its_component_whole():
    # a column with less mass than the 1e-12 M(mu) saturation rule carries
    # no flow, so it reaches no row in the residual graph and the two
    # closures from row 0 differ; every row still lies on one cycle
    for nu in ([2.0 - 1e-14, 1e-14], [1.5, 1.5 - 1e-14, 1e-14]):
        r, mu, nu = np.ones((len(nu), len(nu))), np.ones(len(nu)), np.array(nu)
        assert classify_exact(r, mu, nu) == oracle_flow_classify(r, mu, nu) == ScalabilityClass("Scalable")


def _flow_oracle_cases():
    """Non-square random instances from sparse to dense, relabelled
    NonScalable staircases of 2-6 blocks at 50-200 rows, random instances
    with massless rows and columns, and sparse random supports of 400 and
    1,000 rows, where the blocking flows trace hundreds of augmenting
    paths back past dead ends."""
    rng = np.random.default_rng(31)
    cases = []
    for density, shape in ((0.05, (150, 120)), (0.1, (40, 90)), (0.2, (90, 35)),
                           (0.4, (25, 60)), (0.6, (120, 80)), (0.9, (30, 45))):
        cases.append(gen_instance(InstanceSpec(KIND_RANDOM, *shape, density=density,
                                               seed=int(rng.integers(1 << 30)))))
    for n_blocks, n in ((2, 50), (3, 80), (4, 120), (5, 160), (6, 200)):
        sizes = [n // n_blocks + (i < n % n_blocks) for i in range(n_blocks)]
        r, mu, nu, _, _ = staircase_instance(n, sizes, block_ratio_schedule(n_blocks))
        cases.append(relabelled(rng, r, mu, nu))
    for density in (0.08, 0.5):
        r, mu, nu = gen_instance(InstanceSpec(KIND_RANDOM, 60, 45, density=density,
                                              seed=int(rng.integers(1 << 30))))
        mu[rng.random(mu.size) < 0.2] = 0.0
        nu[rng.random(nu.size) < 0.2] = 0.0
        cases.append((r, mu, nu * (mu.sum() / nu.sum())))
    cases += [gen_instance(InstanceSpec(KIND_RANDOM, n, n, density=density, seed=1))
              for n, density in ((400, 0.05), (1000, 0.01))]
    return cases


def test_max_flow_agrees_with_networkx():
    # value, feasibility bit, min-cut witness and feasible coupling of the
    # dense augmenting-path flow against networkx's preflow-push
    outcomes = set()
    for r, mu, nu in _flow_oracle_cases():
        tol = 1e-12 * total_mass(mu)
        value, witness = oracle_max_flow(r, mu, nu)
        flow, reached, carry, spare = _masks(*scalability._max_flow(
            scalability._bitsets(support_graph(r)), mu, nu))
        assert abs(flow.sum() - value) <= tol
        assert flow.min() >= 0 and not flow[r == 0].any()
        # the residual graph at the saturation rule: 1e-12 M(mu)
        assert np.array_equal(carry, flow > tol)
        assert np.array_equal(spare, nu - flow.sum(axis=0) > tol)
        # the rows reachable from the source in the residual graph
        hall = tuple(np.flatnonzero(reached).tolist())
        assert hall == witness
        feasible = feasibility_flow(r, mu, nu)
        assert feasible == (not hall)
        outcomes.add(feasible)
        if feasible:
            assert np.abs(flow.sum(axis=1) - mu).max() <= tol
            assert np.abs(flow.sum(axis=0) - nu).max() <= tol
            continue
        assert mu[list(hall)].sum() > nu[support_graph(r)[list(hall)].any(axis=0)].sum()
        if check_assumption1(r, mu, nu):
            assert classify_exact(r, mu, nu).witness == hall
    assert outcomes == {True, False}


def test_classify_agrees_with_networkx_residual():
    # beyond the enumeration oracle's 12 rows: tags and witnesses against
    # another maximum flow (networkx preflow-push) and the strongly
    # connected components of its residual graph
    rng = np.random.default_rng(47)
    cases = [case for case in _flow_oracle_cases() if check_assumption1(*case)]
    for i, n in enumerate((30, 36, 42, 48, 54, 60)):
        cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(1, 6)), replace=False))
        r, mu, nu = saturated_staircase(rng, np.diff([0, *cuts, n]).tolist())
        cases.append((r, mu, 1.5 * nu if i % 2 else nu))
    tags = set()
    for r, mu, nu in cases:
        out = classify_exact(r, mu, nu)
        assert out == oracle_flow_classify(r, mu, nu)
        tags.add(out.tag)
    assert tags == {"Scalable", "NonScalable", "ApproximatelyScalable", "UnbalancedApproximatelyScalable"}


def _fill_draws(count=2000):
    """``(adj, mu, nu)`` for the greedy fill: supports of up to 24 x 24 at
    densities from 0 to 1 (so with empty rows and columns), masses
    continuous with a fifth of them zero or small integers (exact ties),
    nu balanced to mu or not, both scaled by one of 10^-200 ... 10^200;
    then the bench's two 200x200 fallback instances (seed 1)."""
    rng = np.random.default_rng(61)
    draws = []
    for k in range(count):
        n, m = (int(x) for x in rng.integers(1, 25, size=2))
        adj = rng.random((n, m)) < rng.uniform(0.0, 1.0)
        if k % 2:
            mu, nu = (rng.integers(0, 4, size=size).astype(float) for size in (n, m))
        else:
            mu, nu = rng.exponential(size=n), rng.exponential(size=m)
            mu[rng.random(n) < 0.2] = 0.0
            nu[rng.random(m) < 0.2] = 0.0
        if k % 3 and nu.any():
            nu *= mu.sum() / nu.sum()
        elif k % 3 == 0:
            nu *= rng.uniform(0.5, 2.0)
        scale = 10.0 ** float(rng.choice([-200, -5, 0, 4, 200]))
        draws.append((adj, mu * scale, nu * scale))
    r, mu, nu, _, _ = staircase_instance(200, [200], block_ratio_schedule(1))
    big = [relabelled(np.random.default_rng(201), r, mu, nu),
           gen_instance(InstanceSpec(KIND_RANDOM, 200, 200, density=0.5, seed=810854937))]
    return draws + [(scalability._r0_support(r, mu, nu), mu, nu) for r, mu, nu in big]


FILL_DRAWS = _fill_draws()


def test_greedy_fill_is_the_cumsum_form():
    # the per-row scan against the vector form it replaced, bit for bit;
    # and a feasible flow on the support at the 1e-12 M(mu) rule, with
    # the graph of the entries it carries
    for adj, mu, nu in FILL_DRAWS:
        fill, carry = scalability._greedy_fill(scalability._bitsets(adj), mu, nu)
        assert fill.tobytes() == reference_greedy_fill(adj, mu, nu).tobytes()
        tol = 1e-12 * total_mass(mu)
        assert carry == scalability._bitsets(fill > tol)
        assert fill.min(initial=0.0) >= 0 and not fill[~adj].any()
        assert (fill.sum(axis=1) <= mu + tol).all() and (fill.sum(axis=0) <= nu + tol).all()


def test_greedy_fill_writes_no_negative_zero():
    # the one difference from the vector form: a capacity of -0.0 ahead
    # of the row's support made that form write -0.0 flows
    adj = np.array([[False, True], [True, True]])
    mu, nu = np.array([1.0, 2.0]), np.array([-0.0, 3.0])
    fill = scalability._greedy_fill(scalability._bitsets(adj), mu, nu)[0]
    want = reference_greedy_fill(adj, mu, nu)
    assert np.signbit(want).any() and not np.signbit(fill).any()
    assert np.array_equal(fill, want)


def _wide_draws(count=1500):
    """``(adj, mu, nu)`` for the bitset max-flow: non-square supports with
    1, 7, 8, 9 or 65 columns (widths at and off the byte boundaries) and
    up to 24 rows, at densities from 0 to 1 with a tenth of the rows and
    columns emptied, masses continuous with a fifth of them zero or small
    integers, nu balanced to mu or not, both scaled by one of 10^-200,
    1 or 10^200."""
    rng = np.random.default_rng(67)
    draws = []
    for k in range(count):
        m = (1, 7, 8, 9, 65)[k % 5]
        n = int(rng.integers(1, 25))
        n += n == m
        adj = rng.random((n, m)) < rng.uniform(0.0, 1.0)
        adj[rng.random(n) < 0.1] = False
        adj[:, rng.random(m) < 0.1] = False
        if k % 2:
            mu, nu = (rng.integers(0, 4, size=size).astype(float) for size in (n, m))
        else:
            mu, nu = rng.exponential(size=n), rng.exponential(size=m)
            mu[rng.random(n) < 0.2] = 0.0
            nu[rng.random(m) < 0.2] = 0.0
        if k % 3 and nu.any():
            nu *= mu.sum() / nu.sum()
        scale = 10.0 ** float(rng.choice([-200, 0, 200]))
        draws.append((adj, mu * scale, nu * scale))
    return draws


WIDE_DRAWS = _wide_draws()


# A 4 x 4 unbalanced triple whose two Dinic phases push one augmenting
# path each, across one back edge (a column to a row through an entry
# that carries flow) in the first phase and two in the second; the back
# trace meets two dead ends
BACK_EDGE_TRIPLE = (np.array([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [1, 1, 0, 1]], dtype=float),
                    np.array([4.0, 2.0, 4.0, 2.0]), np.array([2.0, 4.0, 1.0, 4.0]))


def test_max_flow_is_bit_identical_from_the_cumsum_fill():
    # flow, reached rows, carrying entries and spare columns, bytes and
    # all, against the dense reference that starts from the cumsum fill
    r, mu, nu = BACK_EDGE_TRIPLE
    for adj, mu, nu in FILL_DRAWS + WIDE_DRAWS + [(r > 0, mu, nu)]:
        got = _masks(*scalability._max_flow(scalability._bitsets(adj), mu, nu))
        want = reference_max_flow(adj, mu, nu)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def test_max_flow_cut_does_not_depend_on_the_fill_order():
    # from the fill in index order, Dinic's phases end on another maximum
    # flow, with the same minimum cut and the same value
    for adj, mu, nu in FILL_DRAWS + WIDE_DRAWS:
        flow, reached, _, _ = _masks(*scalability._max_flow(scalability._bitsets(adj), mu, nu))
        want_flow, want_reached, _, _ = reference_max_flow(adj, mu, nu, order="index")
        assert np.array_equal(reached, want_reached)
        assert abs(flow.sum() - want_flow.sum()) <= 1e-12 * total_mass(mu)


def test_blocking_flow_through_dead_ends_and_back_edges(blocking_flow_calls):
    r, mu, nu = BACK_EDGE_TRIPLE
    flow, reached, _, _ = scalability._max_flow(scalability._bitsets(r > 0), mu, nu)
    # two phases, whose layers (rows, columns, ..., columns) make paths
    # with one and two back edges
    assert [len(args[5]) for args in blocking_flow_calls] == [4, 6]
    value, witness = oracle_max_flow(r, mu, nu)
    assert flow.sum() == value == 11
    assert tuple(scalability._ones(reached)) == witness == (2,)


def _random_adjacencies(count=300):
    """Boolean adjacencies of up to 24 rows and 1, 7, 8, 9 or 65 columns,
    sparse to dense, with empty rows and columns; and the empty ones."""
    rng = np.random.default_rng(71)
    adjs = [np.zeros(shape, dtype=bool) for shape in ((3, 0), (0, 3), (0, 0))]
    for k in range(count):
        adj = rng.random((int(rng.integers(0, 25)), (1, 7, 8, 9, 65)[k % 5])) < rng.uniform(0.0, 0.3)
        adj[rng.random(adj.shape[0]) < 0.2] = False
        adj[:, rng.random(adj.shape[1]) < 0.2] = False
        adjs.append(adj)
    return adjs


def test_closure_is_the_boolean_frontier_form():
    rng = np.random.default_rng(73)
    for down in _random_adjacencies():
        n, m = down.shape
        up = down & (rng.random((n, m)) < 0.5)
        rows, cols = rng.random(n) < 0.2, rng.random(m) < 0.1
        got = scalability._closure(_bits(rows), _bits(cols), scalability._bitsets(down), scalability._bitsets(up))
        want = reference_closure(rows, cols, down, up)
        assert [_bits_to_mask([b], k)[0].tolist() for b, k in zip(got, (n, m))] == [x.tolist() for x in want]


def test_connected_components_agrees_with_networkx():
    # sorted tuples, components by smallest row, isolated columns last
    for adj in _random_adjacencies():
        n, m = adj.shape
        g = nx.Graph()
        g.add_nodes_from([("r", i) for i in range(n)] + [("c", j) for j in range(m)])
        g.add_edges_from((("r", int(i)), ("c", int(j))) for i, j in zip(*np.nonzero(adj)))
        parts = [(tuple(sorted(v[1] for v in part if v[0] == "r")), tuple(sorted(v[1] for v in part if v[0] == "c")))
                 for part in nx.connected_components(g)]
        want = sorted(p for p in parts if p[0]) + sorted(p for p in parts if not p[0])
        assert connected_components(adj) == want


# Symmetries of the classification: the worked example, the NonScalable
# 30-row two-block staircase and the oracle instances.
STAIRCASE30 = staircase_instance(30, [15, 15], block_ratio_schedule(2))[:3]
SYMMETRY_CASES = [appendix_a_instance(), STAIRCASE30] + oracle_cases(505)


def _invariants(r, mu, nu):
    """The feasibility bit ("unbalanced" where masses differ) and the tag."""
    try:
        feasible = feasibility_flow(r, mu, nu)
    except ValueError:
        feasible = "unbalanced"
    return feasible, classify_exact(r, mu, nu).tag


@settings(max_examples=150, deadline=None)
@given(case=st.integers(0, len(SYMMETRY_CASES) - 1), seed=st.integers(0, 2**32 - 1))
def test_classification_invariant_under_permutation(case, seed):
    r, mu, nu = SYMMETRY_CASES[case]
    assert _invariants(*relabelled(np.random.default_rng(seed), r, mu, nu)) == _invariants(r, mu, nu)


def test_classification_invariant_under_transposition():
    for r, mu, nu in SYMMETRY_CASES:
        assert _invariants(r.T, nu, mu) == _invariants(r, mu, nu)


@settings(max_examples=150, deadline=None)
@given(case=st.integers(0, len(SYMMETRY_CASES) - 1), k=st.integers(-200, 200))
def test_classification_invariant_under_mass_scaling(case, k):
    r, mu, nu = SYMMETRY_CASES[case]
    c = 10.0 ** k
    assert _invariants(r, c * mu, c * nu) == _invariants(r, mu, nu)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(-200, 200))
def test_witness_invariant_under_mass_scaling(k):
    c = 10.0 ** k
    for r, mu, nu in (appendix_a_instance(), STAIRCASE30):
        assert classify_exact(r, c * mu, c * nu).witness == classify_exact(r, mu, nu).witness


BALANCED_NONSCALABLE = [case for case in oracle_cases(404) + [STAIRCASE30]
                        if classify_exact(*case).tag == "NonScalable"]


@settings(max_examples=150, deadline=None)
@given(case=st.integers(0, len(BALANCED_NONSCALABLE) - 1), seed=st.integers(0, 2**32 - 1))
def test_nonscalable_witness_follows_relabelling(case, seed):
    # the inclusion-minimal maximizer of mu(A) - nu(F(A)) is unique, so it
    # does not depend on the labels
    r, mu, nu = BALANCED_NONSCALABLE[case]
    rng = np.random.default_rng(seed)
    pr, pc = rng.permutation(r.shape[0]), rng.permutation(r.shape[1])
    witness = classify_exact(r, mu, nu).witness
    relabelled_witness = classify_exact(r[np.ix_(pr, pc)], mu[pr], nu[pc]).witness
    assert relabelled_witness == tuple(np.flatnonzero(np.isin(pr, witness)).tolist())


@settings(max_examples=150, deadline=None)
@given(sizes=st.sampled_from([[10, 12, 8], [5, 20, 5, 10], [30, 30], [1, 2, 3]]),
       k=st.integers(-200, 200), seed=st.integers(0, 2**32 - 1))
def test_near_ties_classify_agrees_with_feasibility(sizes, k, seed):
    # every trailing union of blocks is exactly saturated; moving k 1e-11 of
    # the mass from a column of the last block to the first column leaves
    # the last block short by that much, above the 1e-12 rule for every
    # k > 0, and the reduction's top theta above 1 with it
    r, mu, nu = saturated_staircase(np.random.default_rng(seed), sizes)
    degree = (r > 0).sum(axis=0)
    delta = k * 1e-11 * nu.sum()
    nu[degree.argmax()] -= delta
    nu[degree.argmin()] += delta
    infeasible = classify_exact(r, mu, nu).tag == "NonScalable"
    assert infeasible == (not feasibility_flow(r, mu, nu)) == (k > 0)
    theta = exact_support_procedure(r, mu, nu).steps[0].theta
    assert theta > 1 if k > 0 else theta <= 1 + 1e-14
