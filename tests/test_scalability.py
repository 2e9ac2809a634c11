import numpy as np
import pytest

from degensink import (
    Assumption1Violated,
    backward_image,
    check_assumption1,
    classify_exact,
    connected_components,
    detect_limit_support,
    feasibility_flow,
    forward_image,
    reduce_to_full_support,
    restrict_to_E,
    support_graph,
)
from degensink.scalability import feasible_coupling
from conftest import random_instance


def test_support_graph(appendix):
    r, _, _ = appendix
    assert np.array_equal(support_graph(r), np.triu(np.ones((3, 3), dtype=bool)))
    assert not support_graph(np.zeros((2, 2))).any()
    assert np.array_equal(support_graph(np.diag([5.0, 5.0])), np.eye(2, dtype=bool))


def test_images(appendix):
    r, _, _ = appendix
    adj = support_graph(r)
    assert forward_image(adj, {2}) == {2}
    assert forward_image(adj, set()) == set()
    assert forward_image(adj, {1}) == {1, 2}
    assert backward_image(adj, {0}) == {0}
    assert backward_image(adj, {2}) == {0, 1, 2}


def test_image_duality_and_monotonicity():
    rng = np.random.default_rng(8)
    for _ in range(30):
        adj = rng.random((4, 5)) < 0.5
        for i in range(4):
            for j in range(5):
                assert (j in forward_image(adj, {i})) == (i in backward_image(adj, {j}))
        a = set(int(k) for k in rng.integers(0, 4, 2))
        b = a | {int(rng.integers(0, 4))}
        assert forward_image(adj, a) <= forward_image(adj, b)


def test_restrict_to_E(appendix):
    r, mu, nu = appendix
    np.testing.assert_array_equal(restrict_to_E(r, mu, nu), r)
    zeroed = restrict_to_E(r, np.array([0.0, 2, 2]), nu)
    assert (zeroed[0] == 0).all() and (zeroed[1:] == r[1:]).all()


def test_check_assumption1(appendix):
    r, mu, nu = appendix
    assert check_assumption1(r, mu, nu)
    assert not check_assumption1(np.diag([1.0, 0.0]), [1.0, 1.0], [1.0, 1.0])
    assert check_assumption1(np.diag([1.0, 0.0]), [0.0, 0.0], [0.0, 0.0])


def test_reduce_to_full_support(appendix):
    r, mu, nu = appendix
    rr, mur, nur, rmap, cmap = reduce_to_full_support(r, mu, nu)
    np.testing.assert_array_equal(rr, r)
    np.testing.assert_array_equal(rmap, [0, 1, 2])
    rr, mur, nur, rmap, cmap = reduce_to_full_support(
        np.ones((3, 2)), np.array([2.0, 0.0, 2.0]), np.array([1.0, 3.0]))
    assert rr.shape == (2, 2)
    np.testing.assert_array_equal(rmap, [0, 2])
    with pytest.raises(Assumption1Violated):
        reduce_to_full_support(np.diag([1.0, 0.0]), [1.0, 1.0], [1.0, 1.0])


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
    # infeasible large instances still classify via the flow fallback with
    # a min-cut witness; feasible ones need enumeration and refuse
    from degensink import DimensionTooLarge
    from degensink.instances import block_ratio_schedule, staircase_instance

    r, mu, nu, _, bounds = staircase_instance(30, [15, 15], block_ratio_schedule(2))
    out = classify_exact(r, mu, nu, cap=20)
    assert out.tag == "NonScalable"
    assert set(out.witness) <= set(range(*bounds[1]))  # a violating subset of the heavy block
    sums = mu[list(out.witness)].sum()
    img = sorted(forward_image(support_graph(r), out.witness))
    assert sums > nu[img].sum()

    eye = np.eye(25)
    ones = np.ones(25)
    with pytest.raises(DimensionTooLarge):
        classify_exact(eye, ones, ones, cap=20)


def test_min_cut_witness_violates_hall_on_relabelled_staircase():
    # the 4-block 200x200 staircase is NonScalable above the enumeration
    # cap; under these relabellings an exact flow == capacity reading of
    # the min cut gave empty or Hall-satisfying witnesses
    from degensink.instances import block_ratio_schedule, staircase_instance

    r0, mu0, nu0, _, _ = staircase_instance(200, [50] * 4, block_ratio_schedule(4))
    for seed in (2, 5, 6, 7):
        rng = np.random.default_rng(seed)
        pr, pc = rng.permutation(200), rng.permutation(200)
        r, mu, nu = r0[np.ix_(pr, pc)], mu0[pr], nu0[pc]
        out = classify_exact(r, mu, nu)
        assert out.tag == "NonScalable" and out.witness
        img = sorted(forward_image(support_graph(r), out.witness))
        assert mu[list(out.witness)].sum() > nu[img].sum()
