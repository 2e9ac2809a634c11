import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degensink import (
    Assumption1Violated,
    Assumption2Violated,
    classify_exact,
    approx_support_algorithm1,
    default_thresholds,
    exact_support_procedure,
    masked_solve,
    maximal_theta,
    run_sinkhorn,
    total_mass,
    tv_distance,
)
from degensink import scalability, support
from degensink.instances import (
    KIND_RANDOM,
    KIND_STAIRCASE,
    InstanceSpec,
    block_ratio_schedule,
    appendix_a_instance,
    gen_instance,
    staircase_instance,
)
from degensink.sinkhorn import StopConfig
from degensink.support import ProcedureStep, ThetaSetResult
from conftest import (
    R_STAR,
    S_MASK,
    detect_limit_support,
    dinkelbach_peel,
    is_sisp,
    one_step_reduction,
    oracle_cases,
    oracle_maximal_theta,
    oracle_peel,
    random_instance,
    relabelled,
)


def test_maximal_theta_appendix(appendix):
    r, mu, nu = appendix
    out = maximal_theta(r, mu, nu)
    assert out.theta_m == pytest.approx(2.0)
    assert out.smallest == [(2,)]


def test_maximal_theta_reduced_appendix():
    r = np.array([[1.0, 1.0], [0.0, 1.0]])
    out = maximal_theta(r, np.array([2.0, 2.0]), np.array([2.0, 3.0]))
    assert out.theta_m == pytest.approx(4 / 5)
    assert out.smallest == [(0, 1)]


def test_maximal_theta_scalable_attains_only_full_set():
    r, mu, nu, _, _ = staircase_instance(6, [6], [1.0])
    out = maximal_theta(r, mu, nu)
    assert out.theta_m == pytest.approx(1.0)
    assert out.smallest == [(0, 1, 2, 3, 4, 5)]
    assert oracle_maximal_theta(r, mu, nu)[1] == [(0, 1, 2, 3, 4, 5)]


def test_maximal_theta_guards():
    # row 1 has mass but no reference entry
    with pytest.raises(Assumption1Violated):
        maximal_theta(np.diag([1.0, 0.0]), [1.0, 1.0], [1.0, 1.0])
    # no nonempty row set has a ratio; it used to be 0/0, a ZeroDivisionError
    with pytest.raises(Assumption2Violated, match="positive mass"):
        maximal_theta(np.ones((2, 3)), np.zeros(2), np.zeros(3))
    # 25 rows: 2^25 subsets, beyond the reach of enumeration
    out = maximal_theta(np.ones((25, 2)), np.ones(25), np.ones(2))
    assert out == ThetaSetResult(theta_m=12.5, smallest=[tuple(range(25))])


def _assert_theta_matches_oracle(r, mu, nu):
    out = maximal_theta(r, mu, nu)
    theta_m, _, smallest = oracle_maximal_theta(r, mu, nu)
    assert out.theta_m == pytest.approx(theta_m, rel=1e-12, abs=0)
    assert out.smallest == smallest


def test_maximal_theta_agrees_with_enumeration_oracle():
    # the staircase's reduction takes several flows, each from the greedy fill
    cases = oracle_cases(405) + [staircase_instance(16, [6, 5, 5], block_ratio_schedule(3))[:3]]
    for r, mu, nu in cases:
        _assert_theta_matches_oracle(r, mu, nu)


def test_maximal_theta_many_columns():
    # 90 columns, more than a 64-bit column bitmask holds; nested images
    # make the maximizer a proper subset
    rng = np.random.default_rng(62)
    r = (np.arange(90)[None, :] >= 12 * np.arange(7)[:, None]) * rng.uniform(0.5, 1.5, (7, 90))
    mu = np.linspace(0.5, 2.0, 7) * rng.uniform(0.8, 1.2, 7)
    nu = rng.uniform(0.5, 1.5, 90)
    nu *= mu.sum() / nu.sum()
    assert maximal_theta(r, mu, nu).smallest == [(4, 5, 6)]
    _assert_theta_matches_oracle(r, mu, nu)
    _assert_theta_matches_oracle(r, mu, 1.7 * nu)


def test_exact_procedure_agrees_with_enumeration_oracle():
    # the one-step reduction peeling by enumeration: the same steps, theta
    # up to rounding
    for r, mu, nu in oracle_cases(406):
        got = exact_support_procedure(r, mu, nu)
        want = one_step_reduction(r, mu, nu, oracle_peel)
        assert np.array_equal(got.final_mask, want.final_mask)
        assert [s.theta for s in got.steps] == pytest.approx([s.theta for s in want.steps],
                                                             rel=1e-12, abs=0)
        assert [dataclasses.replace(s, theta=0.0) for s in got.steps] == [
            dataclasses.replace(s, theta=0.0) for s in want.steps]


def _staircase(n, n_blocks):
    sizes = [n // n_blocks + (i < n % n_blocks) for i in range(n_blocks)]
    return staircase_instance(n, sizes, block_ratio_schedule(n_blocks))[:3]


@pytest.mark.parametrize("cases", [
    lambda: oracle_cases(404),
    lambda: oracle_cases(505),
    lambda: [relabelled(np.random.default_rng(b), *_staircase(16, b)) for b in (3, 4, 5)],
], ids=["oracle404", "oracle505", "staircase16"])
def test_exact_procedure_is_the_one_step_reduction(cases):
    # bit for bit the reduction that runs the Dinkelbach loop once per
    # step, theta included: on the oracle triples (29 of them tied, with
    # two steps at one theta) and on relabelled 16-row staircases
    for r, mu, nu in cases():
        got = exact_support_procedure(r, mu, nu)
        want = one_step_reduction(r, mu, nu, dinkelbach_peel)
        assert got.steps == want.steps
        assert np.array_equal(got.final_mask, want.final_mask)


def _doubled_triples(rng, count):
    """Random triples laid twice along the diagonal, relabelled: each
    maximizer of one copy has its twin, so theta_m has at least two
    inclusion-minimal maximizers."""
    cases = []
    for _ in range(count):
        r, mu, nu = random_instance(rng, max_n=6, balanced=False, full_support=True)
        n, m = r.shape
        double = np.zeros((2 * n, 2 * m))
        double[:n, :m] = double[n:, m:] = r
        cases.append(relabelled(rng, double, np.tile(mu, 2), np.tile(nu, 2)))
    return cases


def _outcome(peel, r, mu, nu):
    try:
        return peel(r, mu, nu)
    except Exception as exc:  # the type and the message
        return type(exc), str(exc)


@pytest.mark.parametrize("cases", [
    lambda: oracle_cases(404) + oracle_cases(505) + oracle_cases(406) + oracle_cases(507),
    lambda: [relabelled(np.random.default_rng(b), *_staircase(n, b)) for n in (16, 100) for b in (2, 3, 4, 5, 10)],
    lambda: _zero_mass_triples(np.random.default_rng(2023), 40) + [
        (np.diag([1.0, 0.0]), [1.0, 1.0], [1.0, 1.0]), (np.ones((2, 3)), np.zeros(2), np.zeros(3)),
        (np.ones((2, 2)), [0.0, 0.0], [1.0, 1.0])],
    lambda: _doubled_triples(np.random.default_rng(2024), 30),
], ids=["oracle", "staircase16+100", "zero_mass+raising", "doubled"])
def test_maximal_theta_is_the_dinkelbach_loop(cases):
    # the reduction's top level is what Dinkelbach iterations end on:
    # theta_m bit for bit, the same smallest maximizers, the same errors
    for r, mu, nu in cases():
        got, want = _outcome(maximal_theta, r, mu, nu), _outcome(dinkelbach_peel, r, mu, nu)
        assert got == want
        if isinstance(want, ThetaSetResult):
            assert got.theta_m.hex() == want.theta_m.hex()


@pytest.mark.parametrize("n_blocks, flows", [(4, 3), (6, 4), (10, 5)])
def test_exact_procedure_takes_one_flow_per_depth(max_flow_calls, n_blocks, flows):
    # the one-step reduction took 8, 15 and 33 flows here
    r, mu, nu = relabelled(np.random.default_rng(1), *_staircase(100, n_blocks))
    trace = exact_support_procedure(r, mu, nu)
    assert len(max_flow_calls) == flows
    assert len(trace.steps) == n_blocks


@pytest.mark.parametrize("n_blocks, phases", [(3, 0), (4, 0), (5, 0)])
def test_exact_procedure_dinic_phases(blocking_flow_calls, n_blocks, phases):
    # the blocking flows the greedy fill leaves to all of the reduction's
    # max-flows on the seed-1 relabelled 16-row staircases; a start that
    # leaves them more or less work moves these counts
    exact_support_procedure(*relabelled(np.random.default_rng(1), *_staircase(16, n_blocks)))
    assert len(blocking_flow_calls) == phases


@pytest.mark.parametrize("n, blocks", [(16, (3, 4, 5)), (40, (2, 3, 4, 5, 10)), (100, (2, 4, 6, 10))])
def test_exact_procedure_theta_is_the_block_ratio(n, blocks):
    # one rule for every step, wherever it sits in its level: M(mu)/M(nu)
    # of the removed block, both masses an fsum
    for n_blocks in blocks:
        r, mu, nu = _staircase(n, n_blocks)
        for case in ((r, mu, nu), relabelled(np.random.default_rng(n_blocks), r, mu, nu)):
            _, mu_c, nu_c = case
            steps = exact_support_procedure(*case).steps
            assert len(steps) == n_blocks
            assert [s.theta for s in steps] == [
                total_mass(mu_c[list(s.sisp_rows)]) / total_mass(nu_c[list(s.sisp_cols)]) for s in steps]


def test_exact_procedure_appendix(appendix):
    r, mu, nu = appendix
    trace = exact_support_procedure(r, mu, nu)
    assert len(trace.steps) == 2
    first, second = trace.steps
    assert first.sisp_rows == (2,) and first.sisp_cols == (2,)
    assert first.theta == pytest.approx(2.0)
    assert second.sisp_rows == (0, 1) and second.sisp_cols == (0, 1)
    assert second.theta == pytest.approx(4 / 5)
    assert np.array_equal(trace.final_mask, S_MASK)
    limit = support._exact_limit(r, mu, nu)
    np.testing.assert_allclose(limit.mu_star, [2.5, 2.5, 1.0])
    np.testing.assert_allclose(limit.nu_star, [1.6, 2.4, 2.0])


def test_exact_procedure_scalable_single_step():
    r, mu, nu, support, _ = staircase_instance(6, [6], [1.0])
    trace = exact_support_procedure(r, mu, nu)
    assert len(trace.steps) == 1
    assert np.array_equal(trace.final_mask, r > 0)
    assert np.array_equal(trace.final_mask, support)


def test_exact_procedure_staircase_block_order():
    ratios = block_ratio_schedule(3)
    r, mu, nu, support, bounds = staircase_instance(12, [4, 4, 4], ratios)
    trace = exact_support_procedure(r, mu, nu)
    assert len(trace.steps) == 3
    # blocks peel bottom-right first, with strictly decreasing theta
    assert [s.sisp_rows[0] for s in trace.steps] == [8, 4, 0]
    thetas = [s.theta for s in trace.steps]
    assert thetas == sorted(thetas, reverse=True)
    assert thetas == pytest.approx(ratios)
    assert np.array_equal(trace.final_mask, support)


def test_exact_procedure_keeps_a_row_too_light_for_the_flow():
    # row 1 is lighter than the flow's 1e-12 M(mu) saturation rule, and its
    # entry lies in the image of row 0: it goes with row 0, as in exact
    # arithmetic, and keeps its entry.  It used to be left over without a
    # column, and the procedure raised ZeroDivisionError
    r = np.array([[1.0, 1.0], [1.0, 0.0]])
    trace = exact_support_procedure(r, np.array([1.0, 1e-14]), np.array([0.5, 0.5 + 1e-14]))
    assert [(s.sisp_rows, s.sisp_cols, s.theta) for s in trace.steps] == [((0, 1), (0, 1), 1.0)]
    assert np.array_equal(trace.final_mask, r > 0)


def _wide_mass_triples(rng, count):
    """Random triples of up to 8 x 8 satisfying Assumption 1, masses
    10^U(-16, 0) with a tenth of them zero, every other one balanced."""
    cases = []
    while len(cases) < count:
        n, m = (int(k) for k in rng.integers(1, 9, 2))
        r = (rng.random((n, m)) < 0.6).astype(float)
        mu, nu = (10.0 ** rng.uniform(-16, 0, k) * (rng.random(k) < 0.9) for k in (n, m))
        if len(cases) % 2 and nu.sum() > 0:
            nu *= mu.sum() / nu.sum()
        if mu.sum() > 0 and scalability.check_assumption1(r, mu, nu):
            cases.append((r, mu, nu))
    return cases


def test_exact_procedure_on_masses_across_sixteen_decades():
    # every run ends, and every row and column with mass keeps an entry of
    # the limit support.  The procedure used to raise ZeroDivisionError on
    # 86 of these 400, to leave a row with mass but no entry on 19 more,
    # and never to end on the 8 x 5 triple, where the saturation rule let
    # every row of the level reach a spare column
    cases = _wide_mass_triples(np.random.default_rng(3), 400) + [(
        np.array([[1, 0, 0, 0, 1], [1, 1, 1, 1, 0], [1, 1, 1, 1, 0], [0, 1, 1, 1, 1],
                  [1, 1, 0, 0, 1], [1, 1, 0, 1, 0], [1, 0, 1, 0, 0], [1, 0, 0, 0, 1]], dtype=float),
        np.array([7.554073967932916e-13, 0.0673028853414541, 0.0019462092002760182, 0.0015677060231567375,
                  5.789125835252823e-06, 6.447550472867791e-14, 1.687901044258649e-14, 1.665632694833136e-13]),
        np.array([0.0, 2.5981722912972127e-05, 3.2983348233600754e-12, 7.03448444231808e-14,
                  3.914498342652114e-08]))]
    for r, mu, nu in cases:
        mask = exact_support_procedure(r, mu, nu).final_mask
        assert mask[mu > 0].any(axis=1).all() and mask[:, nu > 0].any(axis=0).all()


def _zero_mass_triples(rng, count):
    """Random triples, each with a row or a column without mass and
    satisfying Assumption 1: half with some rows and columns of a
    full-support draw zeroed, half padded with a massless row and column
    that carry reference entries, then relabelled."""
    cases = []
    while len(cases) < count:
        r, mu, nu = random_instance(rng, max_n=7, full_support=True)
        if len(cases) % 2:
            mu, nu = mu * (rng.random(mu.size) > 0.3), nu * (rng.random(nu.size) > 0.3)
            nu = nu * (mu.sum() / nu.sum()) if nu.sum() > 0 else nu
        else:
            n, m = r.shape
            padded = np.zeros((n + 1, m + 1))
            padded[:n, :m] = r
            padded[n, :] = padded[:, m] = 1.0
            pr, pc = rng.permutation(n + 1), rng.permutation(m + 1)
            r, mu, nu = padded[np.ix_(pr, pc)], np.append(mu, 0.0)[pr], np.append(nu, 0.0)[pc]
        massless = (mu == 0).any() or (nu == 0).any()
        if massless and mu.sum() > 0 and nu.sum() > 0 and scalability.check_assumption1(r, mu, nu):
            cases.append((r, mu, nu))
    return cases


def test_exact_procedure_answers_in_the_callers_indices():
    # zero-mass rows and columns: the same trace as the procedure on
    # supp(mu) x supp(nu), mapped back; the procedure used to raise
    # Assumption2Violated on them
    rng = np.random.default_rng(2021)
    for r, mu, nu in _zero_mass_triples(rng, 40) + [
            (np.triu(np.ones((3, 3))), np.array([2.0, 0.0, 2.0]), np.array([1.0, 1.0, 2.0]))]:
        rows, cols = np.flatnonzero(mu > 0), np.flatnonzero(nu > 0)
        want = exact_support_procedure(r[np.ix_(rows, cols)], mu[rows], nu[cols])
        got = exact_support_procedure(r, mu, nu)
        mask = np.zeros(r.shape, dtype=bool)
        mask[np.ix_(rows, cols)] = want.final_mask
        assert np.array_equal(got.final_mask, mask)
        assert got.steps == [ProcedureStep(rows=tuple(rows[list(s.rows)].tolist()),
                                           cols=tuple(cols[list(s.cols)].tolist()),
                                           sisp_rows=tuple(rows[list(s.sisp_rows)].tolist()),
                                           sisp_cols=tuple(cols[list(s.sisp_cols)].tolist()),
                                           theta=s.theta) for s in want.steps]


def test_maximal_theta_answers_in_the_callers_indices():
    # zero-mass rows and columns: the answer on supp(mu) x supp(nu), mapped
    # back; maximal_theta used to raise Assumption2Violated on them
    rng = np.random.default_rng(2022)
    for r, mu, nu in _zero_mass_triples(rng, 40):
        rows, cols = np.flatnonzero(mu > 0), np.flatnonzero(nu > 0)
        want = maximal_theta(r[np.ix_(rows, cols)], mu[rows], nu[cols])
        assert maximal_theta(r, mu, nu) == ThetaSetResult(
            want.theta_m, [tuple(rows[list(s)].tolist()) for s in want.smallest])


@pytest.mark.parametrize("detector", [exact_support_procedure, approx_support_algorithm1,
                                      classify_exact, maximal_theta])
def test_detectors_reject_assumption1_violations(detector):
    # row 1 has mass but no reference entry; then all the mass of one side
    # sits on rows (columns) that the massless other side leaves without
    # an entry of R0
    for r, mu, nu in [(np.diag([1.0, 0.0]), [1.0, 1.0], [1.0, 1.0]),
                      (np.ones((2, 2)), [0.0, 0.0], [1.0, 1.0]),
                      (np.ones((2, 2)), [1.0, 1.0], [0.0, 0.0])]:
        with pytest.raises(Assumption1Violated):
            detector(r, mu, nu)


def test_exact_classification_and_support_at_full_size():
    # 200 rows, 2^200 subsets: each under a second
    r, mu, nu, support, _ = staircase_instance(200, [50] * 4, block_ratio_schedule(4))
    start = time.perf_counter()
    assert classify_exact(r, mu, nu).tag == "NonScalable"
    classified = time.perf_counter()
    trace = exact_support_procedure(r, mu, nu)
    done = time.perf_counter()
    assert np.array_equal(trace.final_mask, support)
    assert classified - start < 1.0 and done - classified < 1.0


def test_procedure_matches_detected_support_randomized():
    rng = np.random.default_rng(31)
    for k in range(25):
        r, mu, nu = random_instance(rng, max_n=7, balanced=bool(k % 2), full_support=True)
        trace = exact_support_procedure(r, mu, nu)
        detected, rep = detect_limit_support(r, mu, nu, max_iter=30_000)
        assert np.array_equal(trace.final_mask, detected)
        # theta-consistency: mu/theta and theta nu on each removed block
        mu_star, nu_star = _marginals_from_steps(trace, mu, nu)
        np.testing.assert_allclose(nu_star, rep.nu_star, atol=1e-8)
        np.testing.assert_allclose(mu_star, rep.mu_star, atol=1e-8)


def _marginals_from_steps(trace, mu, nu):
    """The modified marginals that the reduction's steps give: mu/theta
    on the rows and theta nu on the columns of each removed block."""
    mu_star, nu_star = np.zeros_like(mu), np.zeros_like(nu)
    for step in trace.steps:
        rows, cols = list(step.sisp_rows), list(step.sisp_cols)
        mu_star[rows] = mu[rows] / step.theta
        nu_star[cols] = step.theta * nu[cols]
    return mu_star, nu_star


@pytest.mark.parametrize("n_blocks", [2, 3, 4, 5, 10])
def test_exact_procedure_closed_form_on_staircases(n_blocks):
    # the steps peel the blocks at the ratios of the schedule, and the
    # limit's modified marginals are mu/theta and theta nu on each block
    r, mu, nu = gen_instance(InstanceSpec(KIND_STAIRCASE, 40, 40, n_blocks=n_blocks))
    trace = exact_support_procedure(r, mu, nu)
    np.testing.assert_allclose([s.theta for s in trace.steps], block_ratio_schedule(n_blocks),
                               rtol=1e-12, atol=0)
    limit = support._exact_limit(r, mu, nu)
    mu_star, nu_star = _marginals_from_steps(trace, mu, nu)
    np.testing.assert_allclose(limit.mu_star, mu_star, rtol=1e-12, atol=0)
    np.testing.assert_allclose(limit.nu_star, nu_star, rtol=1e-12, atol=0)


def test_each_removed_block_is_sisp_for_its_restriction():
    rng = np.random.default_rng(17)
    for _ in range(10):
        r, mu, nu = random_instance(rng, max_n=6, full_support=True)
        trace = exact_support_procedure(r, mu, nu)
        _, rep = detect_limit_support(r, mu, nu, max_iter=30_000)
        for step in trace.steps:
            rows = list(step.rows)
            cols = list(step.cols)
            sub_ref = rep.r_star[np.ix_(rows, cols)]
            sub_r = r[np.ix_(rows, cols)]
            local = [rows.index(i) for i in step.sisp_rows]
            assert is_sisp(local, sub_r, mu[rows], nu[cols], sub_ref)


# Symmetries of the exact layer: the worked example, the 16-row staircases
# of 3, 4 and 5 blocks and the oracle instances.  The minimal maximizers,
# the removed blocks and the limit support follow a relabelling, and
# theta is a ratio of masses.
EXACT_CASES = [appendix_a_instance()] + [_staircase(16, b) for b in (3, 4, 5)] + oracle_cases(507)


def _relabelled_with_maps(seed, r, mu, nu):
    """A relabelled instance and the original labels of its rows and
    columns."""
    rng = np.random.default_rng(seed)
    pr, pc = rng.permutation(r.shape[0]), rng.permutation(r.shape[1])
    return (r[np.ix_(pr, pc)], mu[pr], nu[pc]), pr, pc


def _original_rows(pr, rows):
    return tuple(sorted(pr[list(rows)].tolist()))


@settings(max_examples=100, deadline=None)
@given(case=st.integers(0, len(EXACT_CASES) - 1), seed=st.integers(0, 2**32 - 1))
def test_maximal_theta_follows_relabelling(case, seed):
    r, mu, nu = EXACT_CASES[case]
    want = maximal_theta(r, mu, nu)
    moved, pr, _ = _relabelled_with_maps(seed, r, mu, nu)
    got = maximal_theta(*moved)
    assert got.theta_m == pytest.approx(want.theta_m, rel=1e-12, abs=0)
    assert sorted(_original_rows(pr, rows) for rows in got.smallest) == want.smallest


@settings(max_examples=100, deadline=None)
@given(case=st.integers(0, len(EXACT_CASES) - 1), k=st.integers(-100, 100))
def test_maximal_theta_invariant_under_mass_scaling(case, k):
    r, mu, nu = EXACT_CASES[case]
    want = maximal_theta(r, mu, nu)
    got = maximal_theta(r, 10.0 ** k * mu, 10.0 ** k * nu)
    assert got.theta_m == pytest.approx(want.theta_m, rel=1e-12, abs=0)
    assert got.smallest == want.smallest


@settings(max_examples=100, deadline=None)
@given(case=st.integers(0, len(EXACT_CASES) - 1), seed=st.integers(0, 2**32 - 1))
def test_exact_procedure_follows_relabelling(case, seed):
    r, mu, nu = EXACT_CASES[case]
    want = exact_support_procedure(r, mu, nu)
    moved, pr, pc = _relabelled_with_maps(seed, r, mu, nu)
    got = exact_support_procedure(*moved)
    assert np.array_equal(got.final_mask, want.final_mask[np.ix_(pr, pc)])
    assert len(got.steps) == len(want.steps)
    for step, ref in zip(got.steps, want.steps):
        assert step.theta == pytest.approx(ref.theta, rel=1e-12, abs=0)
        assert _original_rows(pr, step.sisp_rows) == ref.sisp_rows
        assert _original_rows(pc, step.sisp_cols) == ref.sisp_cols


@settings(max_examples=100, deadline=None)
@given(case=st.integers(0, len(EXACT_CASES) - 1), k=st.integers(-100, 100))
def test_exact_procedure_invariant_under_mass_scaling(case, k):
    r, mu, nu = EXACT_CASES[case]
    want = exact_support_procedure(r, mu, nu)
    got = exact_support_procedure(r, 10.0 ** k * mu, 10.0 ** k * nu)
    assert np.array_equal(got.final_mask, want.final_mask)
    assert [step.sisp_rows for step in got.steps] == [step.sisp_rows for step in want.steps]
    assert [step.theta for step in got.steps] == pytest.approx([step.theta for step in want.steps], rel=1e-12, abs=0)


@pytest.mark.parametrize("cases", [
    lambda: oracle_cases(404) + oracle_cases(505),
    lambda: [relabelled(np.random.default_rng(1), *_staircase(100, b)) for b in (2, 4, 6, 10)],
], ids=["oracle404+505", "staircase100"])
def test_exact_procedure_commutes_with_transposition(cases):
    # (R^T, nu, mu) has the transposed limits (P* <-> Q*^T), so the
    # transposed support, reached in as many steps
    for r, mu, nu in cases():
        want = exact_support_procedure(r, mu, nu)
        got = exact_support_procedure(r.T, nu, mu)
        assert np.array_equal(got.final_mask, want.final_mask.T)
        assert len(got.steps) == len(want.steps)


def test_is_sisp_appendix(appendix):
    r, mu, nu = appendix
    assert is_sisp([2], r, mu, nu, R_STAR)
    assert not is_sisp([0], r, mu, nu, R_STAR)
    d = np.diag([2.0, 5.0])
    assert is_sisp([0, 1], d, d.sum(1), d.sum(0), d)
    with pytest.raises(ValueError):
        is_sisp([], r, mu, nu, R_STAR)
    # numpy would read -1 as row 2 and answer True; 3 is past the last row
    for rows in ([-1], [3], [0, 3]):
        with pytest.raises(ValueError, match=r"in \[0, 3\)"):
            is_sisp(rows, r, mu, nu, R_STAR)
    # a 3 x 4 reference gave a silent False, a 2 x 3 one an IndexError
    for shape in ((3, 4), (2, 3)):
        with pytest.raises(ValueError, match="shape"):
            is_sisp([2], r, mu, nu, np.zeros(shape))


def test_default_thresholds(appendix):
    r, mu, nu = appendix
    np.testing.assert_allclose(default_thresholds(r, mu), [2 / 9, 1 / 3, 2 / 3])
    ds = np.full((4, 4), 0.25)
    np.testing.assert_allclose(default_thresholds(ds, np.ones(4)), 0.25)
    single = np.array([[0.5, 1.5]])
    np.testing.assert_allclose(default_thresholds(single, np.array([3.0])), [1.5])
    with pytest.raises(Assumption2Violated):
        default_thresholds(np.diag([1.0, 0.0]), np.ones(2))


def test_default_thresholds_rejects_mismatched_mu():
    # one mass for three rows used to broadcast into three thresholds
    with pytest.raises(ValueError, match="one entry per row"):
        default_thresholds(np.triu(np.ones((3, 3))), [2.0])


def test_algorithm1_appendix(appendix):
    r, mu, nu = appendix
    res = approx_support_algorithm1(r, mu, nu)
    assert res.converged
    assert np.array_equal(res.mask, S_MASK)


def test_algorithm1_scalable_no_reduction():
    r, mu, nu, support, _ = staircase_instance(10, [10], [1.0])
    res = approx_support_algorithm1(r, mu, nu)
    assert np.array_equal(res.mask, r > 0)
    assert len(res.steps) == 1


def test_algorithm1_staircase_small():
    for k in (2, 3, 4):
        ratios = block_ratio_schedule(k)
        sizes = [12 // k] * k
        r, mu, nu, support, _ = staircase_instance(12, sizes, ratios)
        exact = exact_support_procedure(r, mu, nu).final_mask
        res = approx_support_algorithm1(r, mu, nu)
        assert np.array_equal(res.mask, exact)
        assert np.array_equal(res.mask, support)


def test_algorithm1_coarse_stop_gives_superset(appendix):
    # a deliberately loose inner criterion stops before any row drops:
    # zeros are missed, never invented
    r, mu, nu = appendix
    res = approx_support_algorithm1(r, mu, nu, stop_cfg=StopConfig(epsilon_tol=50.0))
    assert (res.mask & ~S_MASK).any()
    assert not (S_MASK & ~res.mask).any()


def test_algorithm1_stops_at_its_inner_cap():
    # an unreachable tolerance and max_iter = 1: the first reduction step
    # runs its 10 inner iterations, removes what it has and reports the run
    # as not converged
    r, mu, nu, _, _ = staircase_instance(40, [10] * 4, block_ratio_schedule(4))
    res = approx_support_algorithm1(r, mu, nu, stop_cfg=StopConfig(epsilon_tol=1e-12, max_iter=1))
    assert not res.converged
    assert res.inner_iterations == 10
    assert [step["inner_iterations"] for step in res.steps] == [10]


def test_algorithm1_converges_on_sparse_random_instance():
    # the smallest of the four criterion-6 random instances that used to
    # run to the 10 * max_iter inner cap: after three row drops the live
    # block splits into two components with mass ratios 1.30 and 1.25, each
    # at its fixed point, while the global column error stays at 0.02
    r, mu, nu = gen_instance(InstanceSpec(KIND_RANDOM, 6, 6, density=0.3755570785429535,
                                          seed=786639257))
    res = approx_support_algorithm1(r, mu, nu, stop_cfg=StopConfig(epsilon_tol=1e-3, max_iter=3000))
    assert res.converged
    assert res.inner_iterations == 26
    assert res.steps[0]["removed_rows"] == (5,)
    assert np.array_equal(res.mask, exact_support_procedure(r, mu, nu).final_mask)


@pytest.mark.parametrize("n_blocks, inner", [
    (4, [21, 15, 11, 3]),
    (6, [24, 42, 24, 35, 12, 3]),
    (10, [27, 47, 67, 86, 42, 93, 73, 43, 13, 3]),
])
def test_algorithm1_steps_on_relabelled_staircases(n_blocks, inner):
    # the 100x100 staircases with rows and columns relabelled from seed
    # 1000 + n_blocks: each reduction step removes one diagonal block, the
    # last first, after a pinned number of inner iterations
    r, mu, nu = gen_instance(InstanceSpec(KIND_STAIRCASE, 100, 100, n_blocks=n_blocks))
    rng = np.random.default_rng(1000 + n_blocks)
    pr, pc = rng.permutation(100), rng.permutation(100)
    res = approx_support_algorithm1(r[np.ix_(pr, pc)], mu[pr], nu[pc])
    assert res.converged and res.inner_iterations == sum(inner)
    assert [step["inner_iterations"] for step in res.steps] == inner
    sizes = [100 // n_blocks + (i < 100 % n_blocks) for i in range(n_blocks)]
    ends = np.cumsum(sizes)
    for step, lo, hi in zip(res.steps, (ends - sizes)[::-1], ends[::-1]):
        assert step["removed_rows"] == tuple(np.flatnonzero((pr >= lo) & (pr < hi)).tolist())
        assert step["removed_cols"] == tuple(np.flatnonzero((pc >= lo) & (pc < hi)).tolist())


def test_algorithm1_equals_exact_where_thresholds_hold():
    # criterion 6's random instances (same seed and filter: limit densities
    # at least twice the default thresholds), under its bounded criterion:
    # each run converges to the exact mask, not merely a superset of it
    rng = np.random.default_rng(1066)
    bounded = StopConfig(epsilon_tol=1e-3, max_iter=3000)
    checked = 0
    while checked < 25:
        r, mu, nu = random_instance(rng, max_n=8, full_support=True)
        indicator = (r > 0).astype(float)
        exact = exact_support_procedure(r, mu, nu).final_mask
        tight = StopConfig(epsilon_tol=1e-13 * max(mu.sum(), 1.0), max_iter=20_000, mode="iterate-delta")
        dens = masked_solve(indicator, mu, nu, exact, tight).p_star
        thresholds = default_thresholds(indicator, mu)
        if any(exact[i].any() and dens[i][exact[i]].min() < 2 * thresholds[i] for i in range(r.shape[0])):
            continue
        checked += 1
        res = approx_support_algorithm1(r, mu, nu, stop_cfg=bounded)
        assert res.converged
        assert np.array_equal(res.mask, exact)


def test_masked_solve_appendix(appendix):
    r, mu, nu = appendix
    plain_mask, plain = detect_limit_support(r, mu, nu)
    rep = masked_solve(r, mu, nu, S_MASK)
    np.testing.assert_allclose(rep.p_star, plain.p_star, atol=1e-8)
    np.testing.assert_allclose(rep.q_star, plain.q_star, atol=1e-8)
    assert rep.iterations < plain.iterations
    assert rep.rate_r_squared is not None and rep.rate_r_squared > 0.99
    assert rep.rate_slope < 0


def test_masked_solve_full_mask_is_plain_solve():
    r = np.array([[1.0, 0.5], [0.25, 1.0]])
    mu, nu = r.sum(1), r.sum(0)
    cfg = StopConfig(epsilon_tol=1e-12, max_iter=1000, mode="iterate-delta")
    rep = masked_solve(r, mu, nu, r > 0, cfg)
    plain = run_sinkhorn(r, mu, nu, cfg)
    np.testing.assert_array_equal(rep.p_star, plain.p_star)
    assert rep.iterations == plain.iterations


def test_masked_solve_runs_once(appendix, monkeypatch):
    import degensink.support as support_module

    calls = []
    run = support_module.run_sinkhorn
    monkeypatch.setattr(support_module, "run_sinkhorn",
                        lambda *args, **kwargs: (calls.append(kwargs), run(*args, **kwargs))[1])
    r, mu, nu = appendix
    rep = masked_solve(r, mu, nu, S_MASK)
    assert len(calls) == 1
    assert rep.rate_r_squared > 0.99 and rep.rate_slope < 0


@pytest.mark.parametrize("k", [-100, -8, 8])
def test_masked_solve_default_stop_scales_with_mass(appendix, k):
    r, mu, nu = appendix
    want = masked_solve(r, mu, nu, S_MASK)
    got = masked_solve(r, 10.0 ** k * mu, 10.0 ** k * nu, S_MASK)
    assert got.iterations == want.iterations
    np.testing.assert_allclose(got.p_star / 10.0 ** k, want.p_star, rtol=0, atol=1e-14 * want.p_star.max())


def test_masked_solve_rejects_bad_mask(appendix):
    r, mu, nu = appendix
    bad = np.ones((3, 3), dtype=bool)
    with pytest.raises(ValueError, match="not contained"):
        masked_solve(r, mu, nu, bad)
    with pytest.raises(ValueError, match="shape"):
        masked_solve(r, mu, nu, S_MASK[:2])


def test_masked_solve_names_invalid_input(appendix):
    # a NaN mass used to reach the default stop first and raise
    # "epsilon_tol must be a nonnegative number"
    r, mu, nu = appendix
    with pytest.raises(ValueError, match="measure weights must be finite"):
        masked_solve(r, np.array([2.0, math.nan, 1.0]), nu, S_MASK)
    with pytest.raises(ValueError, match="coupling entries must be finite"):
        masked_solve(np.where(S_MASK, r, math.nan), mu, nu, S_MASK)


@pytest.mark.parametrize("blocks", [None, 2, 4, 10])
def test_exact_limit_agrees_with_long_run(blocks):
    # the support-first limits against the plain iteration run to stationarity
    if blocks is None:
        r, mu, nu = appendix_a_instance()
    else:
        r, mu, nu = gen_instance(InstanceSpec(KIND_STAIRCASE, 100, 100, n_blocks=blocks))
    got = support._exact_limit(r, mu, nu)
    _, want = detect_limit_support(r, mu, nu, max_iter=200_000)
    assert got.converged and got.iterations < want.iterations
    for name in ("p_star", "q_star", "r_star"):
        assert tv_distance(getattr(got, name), getattr(want, name)) <= 1e-12 * total_mass(mu)


def test_exact_limit_reduces_to_full_support(appendix):
    # a massless row and column, each with reference support, drop out
    r, mu, nu = appendix
    padded = np.ones((4, 4))
    padded[:3, :3] = r
    got = support._exact_limit(padded, np.append(mu, 0.0), np.append(nu, 0.0))
    np.testing.assert_allclose(got.r_star[:3, :3], R_STAR, rtol=0, atol=1e-12)
    assert (got.r_star[3] == 0).all() and (got.r_star[:, 3] == 0).all()


@pytest.mark.parametrize("k", [-100, -20, -3])
@pytest.mark.parametrize("blocks", [None, 10], ids=["appendix", "staircase10"])
def test_limit_support_and_exact_limit_scale_with_mass(blocks, k):
    # every threshold the package picks is a factor of M(mu): scaling mu and
    # nu by 10^k scales P* and R* and keeps the support and the iterations
    if blocks is None:
        r, mu, nu = appendix_a_instance()
    else:
        r, mu, nu = gen_instance(InstanceSpec(KIND_STAIRCASE, 100, 100, n_blocks=blocks))
    scale = 10.0 ** k
    want = support._exact_limit(r, mu, nu)
    got = support._exact_limit(r, scale * mu, scale * nu)
    assert got.iterations == want.iterations
    np.testing.assert_allclose(got.r_star / scale, want.r_star, rtol=0, atol=1e-14 * want.r_star.max())
    mask, long_run = detect_limit_support(r, mu, nu)
    mask_s, long_run_s = detect_limit_support(r, scale * mu, scale * nu)
    assert long_run_s.stop_reason == long_run.stop_reason == "stall"
    assert np.array_equal(mask_s, mask)
    np.testing.assert_allclose(long_run_s.p_star / scale, long_run.p_star,
                               rtol=0, atol=1e-12 * long_run.p_star.max())
