"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime (run with ``pytest -s tests/test_acceptance.py`` to see
them live)."""

import math
import time

import numpy as np

import degensink as dg
from degensink.experiments import appendix_a_checkpoints
from degensink.instances import block_ratio_schedule, staircase_instance
from degensink.sinkhorn import StopConfig
from conftest import (
    MU_G,
    NU_G,
    P_STAR,
    PRINTED_CHECKPOINTS,
    Q_STAR,
    R_STAR,
    S_MASK,
    Z_NORM,
    assert_printed,
    random_instance,
)


class _Timer:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.budget, \
                f"runtime {self.elapsed:.1f}s exceeds the {self.budget:.0f}s budget"


def _report(num, desc, timer):
    print(f"ACCEPTANCE {num:2d} PASS ({timer.elapsed:6.2f}s): {desc}")


def _tight(mass, max_iter=100_000):
    return StopConfig(epsilon_tol=1e-13 * max(mass, 1.0), max_iter=max_iter,
                      mode="iterate-delta")


def _staircase(size, n_blocks):
    sizes = [size // n_blocks + (1 if i < size % n_blocks else 0) for i in range(n_blocks)]
    return staircase_instance(size, sizes, block_ratio_schedule(n_blocks))


def test_criterion_01_appendix_golden(appendix):
    with _Timer(1.0) as t:
        r, mu, nu = appendix
        rep = dg.run_sinkhorn(r, mu, nu, StopConfig(epsilon_tol=1e-13 * 6, max_iter=5000,
                                                    mode="iterate-delta"))
        assert np.abs(rep.p_star - P_STAR).max() <= 1e-6
        assert np.abs(rep.q_star - Q_STAR).max() <= 1e-6
        assert np.abs(rep.r_star - R_STAR).max() <= 1e-6
    _report(1, "worked-example limits within 1e-6 under 5000 iterations", t)


def test_criterion_02_iterate_checkpoints():
    with _Timer(5.0) as t:
        snaps = appendix_a_checkpoints()
        for step, want in PRINTED_CHECKPOINTS.items():
            got = snaps[step]
            assert_printed(got["a"], want["a"])
            assert_printed(got["b"], want["b"])
            key = "P" if "P" in want else "Q"
            assert_printed(got[key], want[key], tiny=1e-14)
    _report(2, "iterate checkpoints 1/2/5/11/80/81 match the printed figures", t)


def test_criterion_03_optimality_suite():
    with _Timer(30.0) as t:
        rng = np.random.default_rng(1003)
        for k in range(200):
            r, mu, nu = random_instance(rng, max_n=8, balanced=bool(k % 2))
            _, rep = dg.detect_limit_support(r, mu, nu, max_iter=50_000)
            assert rep.gap_trace[-1][1] <= 1e-12 * mu.sum()  # stationary, i.e. converged
            diag = dg.check_optimality(rep, r, mu, nu)
            assert diag.eq_ratio_residual <= 1e-6
            assert diag.support_sum_residual <= 1e-6
            assert diag.min_sum_on_E >= -1e-6
            assert max(diag.swap_residuals) <= 1e-6
            assert max(diag.mass_residuals) <= 1e-9
    _report(3, "optimality and mass identities on 200 random instances", t)


def test_criterion_04_classifier_cross_check(appendix):
    with _Timer(30.0) as t:
        rng = np.random.default_rng(1004)
        for _ in range(500):
            r, mu, nu = random_instance(rng, max_n=8)
            exact = dg.classify_exact(r, mu, nu)
            assert (exact.base_tag == "NonScalable") == (not dg.feasibility_flow(r, mu, nu))
        ra, mua, nua = appendix
        out = dg.classify_exact(ra, mua, nua)
        assert out.tag == "NonScalable" and out.witness == (2,)
    _report(4, "classifier agrees with max-flow on 500 instances; worked-example witness {x3}", t)


def test_criterion_05_support_oracle(appendix):
    with _Timer(120.0) as t:
        rng = np.random.default_rng(1005)
        for k in range(100):
            r, mu, nu = random_instance(rng, max_n=8, balanced=bool(k % 2), full_support=True)
            exact = dg.exact_support_procedure(r, mu, nu).final_mask
            detected, _ = dg.detect_limit_support(r, mu, nu, max_iter=50_000)
            assert np.array_equal(exact, detected)
        ra, mua, nua = appendix
        assert np.array_equal(dg.exact_support_procedure(ra, mua, nua).final_mask, S_MASK)
    _report(5, "exact support equals the long-run limit support on 100 random instances", t)


def test_criterion_06_algorithm1_agreement():
    with _Timer(120.0) as t:
        # staircase family at full size, against the generator's derived
        # support, which the exact procedure reproduces
        for n_blocks in range(1, 11):
            r, mu, nu, support, _ = _staircase(100, n_blocks)
            res = dg.approx_support_algorithm1(r, mu, nu)
            assert res.converged
            assert np.array_equal(res.mask, support), f"n_blocks={n_blocks}"
            assert np.array_equal(dg.exact_support_procedure(r, mu, nu).final_mask, support)
        # the generator's support equals the exact procedure at desk scale
        for n_blocks in (1, 2, 3, 4, 5):
            r, mu, nu, support, _ = _staircase(15, n_blocks)
            assert np.array_equal(dg.exact_support_procedure(r, mu, nu).final_mask, support)
        # and the long-run detection at an intermediate size
        r, mu, nu, support, _ = _staircase(40, 4)
        detected, _ = dg.detect_limit_support(r, mu, nu)
        assert np.array_equal(detected, support)

        # well-separated random suite: random block structures with a
        # geometric ratio schedule
        rng = np.random.default_rng(1006)
        for _ in range(12):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(max(8, 2 * k), 19))
            sizes, left = [], n
            for i in range(k - 1):
                hi = left - 2 * (k - i - 1)
                s = int(rng.integers(2, hi + 1)) if hi >= 2 else 2
                sizes.append(s)
                left -= s
            sizes.append(left)
            ratios = sorted((1.6 ** ((k - 1) / 2 - m) for m in range(k)), reverse=True)
            r, mu, nu, support, _ = staircase_instance(n, sizes, ratios)
            exact = dg.exact_support_procedure(r, mu, nu).final_mask
            res = dg.approx_support_algorithm1(r, mu, nu)
            assert np.array_equal(res.mask, exact)
            assert np.array_equal(exact, support)

        # failure direction: supersets, never missing true entries, on random
        # instances whose limit densities stay above the default thresholds
        # (the stated precondition of the threshold detector), and under a
        # deliberately coarse stopping threshold
        rng = np.random.default_rng(1066)
        bounded = StopConfig(epsilon_tol=1e-3, max_iter=3000)
        checked = 0
        while checked < 25:
            r, mu, nu = random_instance(rng, max_n=8, full_support=True)
            indicator = (r > 0).astype(float)
            exact = dg.exact_support_procedure(r, mu, nu).final_mask
            # limit densities of the indicator problem, via the (fast,
            # linear-rate) masked solve on the known limit support
            dens = dg.masked_solve(indicator, mu, nu, exact,
                                   _tight(mu.sum(), 20_000)).p_star
            thresholds = dg.default_thresholds(indicator, mu)
            ok = all(not exact[i].any() or dens[i][exact[i]].min() >= 2 * thresholds[i]
                     for i in range(r.shape[0]))
            if not ok:
                continue
            checked += 1
            res = dg.approx_support_algorithm1(r, mu, nu, stop_cfg=bounded)
            assert not (exact & ~res.mask).any(), "approximate mask lost a true support entry"
        ra = np.triu(np.ones((3, 3)))
        coarse = dg.approx_support_algorithm1(ra, np.array([2.0, 2, 2]), np.array([2.0, 3, 1]),
                                              stop_cfg=StopConfig(epsilon_tol=50.0))
        assert not (S_MASK & ~coarse.mask).any() and (coarse.mask & ~S_MASK).any()
    _report(6, "approximate detector exact on staircases and well-separated suite; "
               "failures are supersets", t)


def test_criterion_07_linear_rate_recovery(appendix):
    with _Timer(120.0) as t:
        ra, mua, nua = appendix
        plain_a = dg.run_sinkhorn(ra, mua, nua, _tight(6.0))
        masked_a = dg.masked_solve(ra, mua, nua, S_MASK)
        assert masked_a.rate_r_squared > 0.99
        assert np.abs(masked_a.p_star - plain_a.p_star).max() <= 1e-6
        assert np.abs(masked_a.q_star - plain_a.q_star).max() <= 1e-6

        cfg = _tight(100.0)
        for n_blocks in range(1, 11):
            r, mu, nu, support, _ = _staircase(100, n_blocks)
            plain = dg.run_sinkhorn(r, mu, nu, cfg)
            approx = dg.approx_support_algorithm1(r, mu, nu)
            masked = dg.masked_solve(r, mu, nu, approx.mask, cfg)
            assert masked.rate_r_squared > 0.99, f"n_blocks={n_blocks}"
            assert np.abs(masked.p_star - plain.p_star).max() <= 1e-6
            assert np.abs(masked.q_star - plain.q_star).max() <= 1e-6
            if n_blocks >= 6:
                total = approx.inner_iterations + masked.iterations
                assert total < plain.iterations, f"n_blocks={n_blocks}"
    _report(7, "masked runs are linear-rate (R^2 > 0.99), same limits, and faster "
               "overall from 6 blocks on", t)


def test_criterion_08_gamma_limit_sweep(appendix):
    with _Timer(60.0) as t:
        r, mu, nu = appendix
        limit = dg.run_sinkhorn(r, mu, nu, _tight(6.0, 10_000))
        rows = dg.sweep_lambda(r, mu, nu, [10.0, 100.0, 1e3, 1e4], r_star=limit.r_star)
        tvs = [tv for _, tv in rows]
        assert all(b < a for a, b in zip(tvs, tvs[1:]))
        assert tvs[-1] < 1e-2
        sol = dg.solve_two_sided(r, mu, nu, dg.PenaltyConfig(lam=1e4))
        assert dg.tv_distance(sol / sol.sum(), R_STAR / Z_NORM) < 1e-2
        assert np.abs(sol.sum(axis=1) - MU_G).max() < 1e-2
        assert np.abs(sol.sum(axis=0) - NU_G).max() < 1e-2
    _report(8, "penalized solutions converge to the geometric-mean limit as the "
               "penalty grows; normalization matches", t)


def test_criterion_09_epsilon_fill_separation(appendix):
    with _Timer(60.0) as t:
        r, mu, nu = appendix
        limit = dg.run_sinkhorn(r, mu, nu, _tight(6.0, 10_000))
        rows = dg.sweep_epsilon(r, mu, nu, [1e-1, 1e-2, 1e-3], r_star=limit.r_star)
        for eps, tv, _ in rows:
            assert tv >= 0.1, f"eps={eps}: tv={tv}"
    _report(9, "filled-reference solutions stay >= 0.1 away from the limit", t)


def test_criterion_10_entropy_toolbox_properties():
    with _Timer(10.0) as t:
        rng = np.random.default_rng(1010)
        for _ in range(1000):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            r = np.where(rng.random((n, m)) < 0.85, rng.uniform(0.05, 2.0, (n, m)), 0.0)
            p = np.where(rng.random((n, m)) < 0.85, rng.uniform(0.0, 2.0, (n, m)), 0.0) * (r > 0)
            z = rng.normal(0.0, 1.2, (n, m))
            z[rng.random((n, m)) < 0.1] = -math.inf

            # Legendre inequality and its equality case
            sup_p = p > 0
            lhs = float(np.sum(z[sup_p] * p[sup_p]))
            rhs = dg.rel_entropy_coupling(p, r) + float(np.sum((np.exp(z) - 1.0) * r))
            assert lhs <= rhs + 1e-10
            zeq = np.full((n, m), -math.inf)
            sup = r > 0
            with np.errstate(divide="ignore"):
                zeq[sup] = np.log(np.where(sup, p, 1.0)[sup] / r[sup])
            lhs_eq = float(np.sum(zeq[sup_p] * p[sup_p]))
            rhs_eq = dg.rel_entropy_coupling(p, r) + float(np.sum((np.exp(zeq) - 1.0) * r))
            assert abs(lhs_eq - rhs_eq) <= 1e-10

            # data-processing inequality
            h = dg.rel_entropy_coupling(p, r)
            assert dg.rel_entropy(p.sum(axis=1), r.sum(axis=1)) <= h + 1e-10
            assert dg.rel_entropy(p.sum(axis=0), r.sum(axis=0)) <= h + 1e-10

            # projection value identity
            mu = rng.uniform(0.0, 2.0, n) * (r.sum(axis=1) > 0)
            proj = dg.project_first_marginal(r, mu)
            assert abs(dg.rel_entropy_coupling(proj, r)
                       - dg.rel_entropy(mu, r.sum(axis=1))) <= 1e-10
    _report(10, "Legendre, data-processing and projection identities on 1000 inputs", t)
