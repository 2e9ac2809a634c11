import numpy as np
import pytest

from degensink import StopConfig, approx_support_algorithm1, masked_solve, run_sinkhorn
from degensink.experiments import (
    ITERATIONS_CSV_HEADER,
    _naive_threshold_solve,
    appendix_a_checkpoints,
    classify_with_fallback,
    experiment_fig6,
    experiment_iterations_vs_zeros,
    run_appendix_a,
)
from degensink.instances import KIND_STAIRCASE, InstanceSpec, appendix_a_instance, gen_instance
from degensink.sinkhorn import current_P, current_Q, init_state, sinkhorn_step
from conftest import PRINTED_CHECKPOINTS, assert_printed


def test_checkpoints_match_printed_values():
    snaps = appendix_a_checkpoints()
    assert sorted(snaps) == sorted(PRINTED_CHECKPOINTS)
    for step, want in PRINTED_CHECKPOINTS.items():
        got = snaps[step]
        assert_printed(got["a"], want["a"])
        assert_printed(got["b"], want["b"])
        key = "P" if "P" in want else "Q"
        assert_printed(got[key], want[key], tiny=1e-14)


def test_checkpoints_are_the_literal_recursion():
    # the kernel does not absorb within the 41 steps, so its potentials and
    # couplings are the literal recursion's, bit for bit
    r, mu, nu = appendix_a_instance()
    snaps = appendix_a_checkpoints()
    state, checked = init_state(3, 3), set()
    for m in range(1, (max(snaps) + 1) // 2 + 1):
        state = sinkhorn_step(state, r, mu, nu)
        want = {2 * m - 1: {"a": state.a, "b": state.b_prev, "P": current_P(state, r)},
                2 * m: {"a": state.a, "b": state.b, "Q": current_Q(state, r)}}
        for step in set(want) & set(snaps):
            assert snaps[step].keys() == want[step].keys()
            for key, value in want[step].items():
                assert np.array_equal(snaps[step][key], value), (step, key)
            checked.add(step)
    assert checked == set(snaps)


def test_run_appendix_a_formats_report():
    text = run_appendix_a()
    for token in ("Iteration 1:", "Iteration 80:", "Iteration 81:", "P* =", "R* =", "Z ="):
        assert token in text
    assert "5.886" in text


def test_iterations_vs_zeros_small():
    rows = experiment_iterations_vs_zeros([1, 2, 4], size=40)
    assert [row["n_blocks"] for row in rows] == [1, 2, 4]
    one = rows[0]
    assert one["extra_zeros"] == 0
    # scalable case: all three methods effectively coincide
    assert abs(one["iters_naive"] - one["iters_plain"]) <= 1
    assert abs(one["iters_preproc"] - one["iters_plain"]) <= 3
    assert rows[2]["extra_zeros"] > 0
    assert rows[2]["iters_preproc"] < rows[2]["iters_plain"]
    assert rows[2]["iters_naive"] < rows[2]["iters_plain"]
    # the three methods' final couplings agree
    cfg = StopConfig(epsilon_tol=1e-11 * 40)
    for n_blocks in (1, 2, 4):
        r, mu, nu = gen_instance(InstanceSpec(KIND_STAIRCASE, 40, 40, n_blocks=n_blocks))
        p_plain = run_sinkhorn(r, mu, nu, cfg).p_star
        p_naive, _ = _naive_threshold_solve(r, mu, nu, cfg)
        p_masked = masked_solve(r, mu, nu, approx_support_algorithm1(r, mu, nu).mask, cfg).p_star
        assert np.abs(p_plain - p_naive).max() < 1e-6
        assert np.abs(p_plain - p_masked).max() < 1e-6


def test_iterations_vs_zeros_counts_at_size_100():
    # the whole table of the three methods on the 100x100 staircases
    rows = experiment_iterations_vs_zeros(range(1, 11), size=100)
    assert all(list(row) == ITERATIONS_CSV_HEADER.split(",") for row in rows)
    assert [row["n_blocks"] for row in rows] == list(range(1, 11))
    assert [row["extra_zeros"] for row in rows] == [0, 2500, 3333, 3750, 4000, 4166, 4285, 4374, 4444, 4500]
    assert [row["iters_plain"] for row in rows] == [17, 28, 58, 195, 250, 482, 554, 861, 952, 1323]
    assert [row["iters_naive"] for row in rows] == [17, 20, 28, 56, 86, 125, 170, 217, 280, 336]
    assert [row["iters_preproc"] for row in rows] == [20, 27, 42, 67, 107, 157, 226, 303, 402, 511]


@pytest.mark.slow
def test_fig6_full_size():
    lam_rows, eps_rows, classification = experiment_fig6(size=100)
    assert classification.tag == "NonScalable"
    tvs = [tv for _, tv in lam_rows]
    assert tvs == sorted(tvs, reverse=True)
    assert tvs[-1] < 2e-2
    for _, tv, _ in eps_rows:
        assert tv >= 0.1
    iters = [it for _, _, it in sorted(eps_rows, reverse=True)]
    assert iters == sorted(iters)


def test_classify_with_fallback_beyond_cap():
    from degensink.instances import block_ratio_schedule, staircase_instance
    r, mu, nu, _, _ = staircase_instance(40, [20, 20], block_ratio_schedule(2))
    out = classify_with_fallback(r, mu, nu)
    assert out.tag == "NonScalable"


def test_classify_with_fallback_unbalanced_feasible_beyond_cap():
    # the alias is classify_exact: exact tags above 20 rows, from one flow
    out = classify_with_fallback(np.eye(25), np.ones(25), 3 * np.ones(25))
    assert out.tag == "UnbalancedScalable" and out.witness is None
    out = classify_with_fallback(np.eye(25), np.ones(25), np.ones(25))
    assert out.tag == "Scalable" and out.witness is None
