import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degensink import (
    ScalabilityClass,
    check_assumption1,
    classify_exact,
    connected_components,
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
from degensink.scalability import feasible_coupling
from conftest import (
    detect_limit_support,
    oracle_cases,
    oracle_classify,
    oracle_flow_classify,
    oracle_max_flow,
    random_instance,
    relabelled,
    saturated_staircase,
)


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
        p = feasible_coupling(r, mu, nu)
        if p is None:
            continue
        found += 1
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


def _flow_oracle_cases():
    """Non-square random instances from sparse to dense, relabelled
    NonScalable staircases of 2-6 blocks at 50-200 rows, and random
    instances with massless rows and columns."""
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
    return cases


def test_max_flow_agrees_with_networkx():
    # value, feasibility bit, min-cut witness and feasible coupling of the
    # dense augmenting-path flow against networkx's preflow-push
    outcomes = set()
    for r, mu, nu in _flow_oracle_cases():
        m_mu = total_mass(mu)
        value, witness = oracle_max_flow(r, mu, nu)
        flow, reached = scalability._max_flow(support_graph(r), mu, nu)
        assert abs(flow.sum() - value) <= 1e-12 * m_mu
        assert flow.min() >= 0 and not flow[r == 0].any()
        feasible = feasibility_flow(r, mu, nu)
        assert feasible == scalability._carries_mass(value, m_mu)
        outcomes.add(feasible)
        p = feasible_coupling(r, mu, nu)
        if feasible:
            assert not p[r == 0].any()
            assert np.abs(p.sum(axis=1) - mu).max() <= 1e-12 * m_mu
            assert np.abs(p.sum(axis=0) - nu).max() <= 1e-12 * m_mu
            continue
        assert p is None
        # the rows reachable from the source in the residual graph
        hall = tuple(np.flatnonzero(reached).tolist())
        assert hall == witness
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
    # the last block short by that much, on both sides of the 1e-9 rule
    r, mu, nu = saturated_staircase(np.random.default_rng(seed), sizes)
    degree = (r > 0).sum(axis=0)
    delta = k * 1e-11 * nu.sum()
    nu[degree.argmax()] -= delta
    nu[degree.argmin()] += delta
    infeasible = classify_exact(r, mu, nu).tag == "NonScalable"
    assert infeasible == (not feasibility_flow(r, mu, nu))
    if abs(k - 100) > 1:
        assert infeasible == (k > 100)
