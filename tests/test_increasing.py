"""The structure layer against the closed-form reduction of increasing
references (R_ij > 0 iff i <= j), computed in exact rational arithmetic
by ``increasing_reduction``: the only oracle here that reaches the tied
case beyond the 16 rows of subset enumeration."""

import math
from fractions import Fraction

import numpy as np
import pytest

from degensink import classify_exact, exact_support_procedure, maximal_theta
from degensink.instances import block_ratio_schedule, staircase_instance
from conftest import increasing_draw, increasing_reduction, increasing_tag, relabelled

# a ratio of two correctly rounded sums (math.fsum), correctly rounded:
# within 3u of the exact one, so within 3 ulps of it
ULPS = 3


def _draws():
    """``(r, mu, nu)`` for seeded increasing references of 1 to 40 rows and
    of 200 to 240: integer masses with ties built in
    (``increasing_draw``), and a quarter with masses drawn from
    U(0.5, 2), the entries of R from U(0.5, 2) above the diagonal."""
    rng = np.random.default_rng(1972)
    draws = []
    for n in [int(x) for x in rng.integers(1, 41, 40)] + [200, 213, 226, 240]:
        r = np.triu(rng.uniform(0.5, 2.0, (n, n)))
        mu, nu = increasing_draw(rng, n) if len(draws) % 4 else rng.uniform(0.5, 2.0, (2, n))
        draws.append((r, mu, nu))
    return draws


DRAWS = _draws()


def _within_ulps(theta, exact):
    return abs(Fraction(theta) - exact) <= ULPS * Fraction(math.ulp(float(exact)))


def _assert_is_the_rule(r, mu, nu, rng):
    """``exact_support_procedure`` and ``maximal_theta`` on (r, mu, nu)
    relabelled by ``rng`` against the rule on (mu, nu) in index order:
    the limit support, the steps' blocks and their theta within ULPS."""
    steps, mask = increasing_reduction(mu, nu)
    pr, pc = rng.permutation(len(mu)), rng.permutation(len(nu))
    moved = r[np.ix_(pr, pc)], mu[pr], nu[pc]
    trace = exact_support_procedure(*moved)
    assert np.array_equal(trace.final_mask, mask[np.ix_(pr, pc)])
    assert len(trace.steps) == len(steps)
    row_at, col_at = np.argsort(pr), np.argsort(pc)  # the new label of each old one
    for step, (k, e, theta) in zip(trace.steps, steps):
        assert step.sisp_rows == tuple(sorted(row_at[k:e].tolist()))
        assert step.sisp_cols == tuple(sorted(col_at[k:e].tolist()))
        assert _within_ulps(step.theta, theta)
    top = maximal_theta(*moved)
    k, e, theta = steps[0]
    assert top.smallest == [tuple(sorted(row_at[k:e].tolist()))]
    assert _within_ulps(top.theta_m, theta)
    return steps


def test_exact_procedure_is_the_increasing_rule():
    # relabelled draws; ties (two steps at one theta) in a good share
    rng = np.random.default_rng(11)
    tied = 0
    for r, mu, nu in DRAWS:
        steps = _assert_is_the_rule(r, mu, nu, rng)
        tied += len({theta for _, _, theta in steps}) < len(steps)
    assert tied >= 10


def test_transposed_exact_procedure_is_the_reversed_rule():
    # (R^T, nu, mu) with both index orders reversed is again increasing,
    # with masses (nu, mu) reversed; its limit support is the transpose
    rng = np.random.default_rng(12)
    for r, mu, nu in DRAWS:
        _, mask = increasing_reduction(mu, nu)
        _, flipped = increasing_reduction(nu[::-1], mu[::-1])
        assert np.array_equal(flipped[::-1, ::-1], mask.T)
        _assert_is_the_rule(r.T[::-1, ::-1], nu[::-1], mu[::-1], rng)


def test_classify_exact_tag_is_the_rules():
    tags = []
    for r, mu, nu in DRAWS:
        tags.append(increasing_tag(mu, nu))
        assert classify_exact(r, mu, nu).tag == tags[-1]
        assert classify_exact(r.T[::-1, ::-1], nu[::-1], mu[::-1]).base_tag == tags[-1].removeprefix("Unbalanced")
    assert {"Scalable", "ApproximatelyScalable", "NonScalable", "UnbalancedNonScalable"} <= set(tags)


@pytest.mark.parametrize("n", [12, 40, 100, 200])
def test_staircase_support_is_the_rules(n):
    # the support staircase_instance claims for the masses it generates
    for n_blocks in (1, 2, 3, 4, 5, 10):
        sizes = [n // n_blocks + (i < n % n_blocks) for i in range(n_blocks)]
        r, mu, nu, support, bounds = staircase_instance(n, sizes, block_ratio_schedule(n_blocks))
        assert np.array_equal(r > 0, np.triu(np.ones((n, n), dtype=bool)))
        steps, mask = increasing_reduction(mu, nu)
        assert np.array_equal(support, mask)
        assert [(k, e) for k, e, _ in steps] == sorted(bounds, reverse=True)


def _nested_cases():
    """Relabelled staircases of 16 to 200 rows with 1 to 10 blocks and the
    increasing draws of ``DRAWS``, each with its transpose: every row's
    support contains or lies in every other's."""
    rng = np.random.default_rng(13)
    cases = []
    for n in (16, 40, 100, 200):
        for n_blocks in range(1, 11):
            sizes = [n // n_blocks + (i < n % n_blocks) for i in range(n_blocks)]
            cases.append(staircase_instance(n, sizes, block_ratio_schedule(n_blocks))[:3])
    cases += DRAWS
    cases += [(r.T, nu, mu) for r, mu, nu in cases]
    return [relabelled(rng, *case) for case in cases]


def test_nested_supports_need_no_dinic_phase(blocking_flow_calls):
    # the greedy fill, smallest support first, is a maximum flow on nested
    # supports, at every depth of the reduction and whatever the labels
    for r, mu, nu in _nested_cases():
        classify_exact(r, mu, nu)
        exact_support_procedure(r, mu, nu)
        assert not blocking_flow_calls
