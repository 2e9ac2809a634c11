import numpy as np
import pytest

from degensink import (
    PenaltyConfig,
    classify_exact,
    epsilon_fill,
    marginal_col,
    marginal_row,
    penalized_objective,
    project_first_marginal,
    rel_entropy,
    run_sinkhorn,
    solve_schu_lambda,
    solve_two_sided,
    stationarity_residual,
    sweep_epsilon,
    sweep_lambda,
    tv_distance,
)
from degensink.sinkhorn import StopConfig, _lse_rows
from degensink.unbalanced import SIDE_SECOND
from conftest import MU_G, NU_G, NU_STAR, R_STAR, Z_NORM, log_arrays

TIGHT = StopConfig(epsilon_tol=1e-13 * 6, max_iter=10_000, mode="iterate-delta")

R_POS = np.array([[1.0, 0.4], [0.3, 1.0]])
MU2 = np.array([1.0, 2.0])
NU2 = np.array([1.5, 1.5])


def test_schu_large_lambda_recovers_constrained_solution():
    p = solve_schu_lambda(R_POS, MU2, NU2,
                          PenaltyConfig(lam=1e6, sides=SIDE_SECOND, epsilon_tol=1e-10))
    balanced = run_sinkhorn(R_POS, MU2, NU2,
                            StopConfig(epsilon_tol=1e-14, max_iter=10_000, mode="iterate-delta"))
    assert np.abs(p - balanced.p_star).max() < 1e-4


def test_schu_small_lambda_is_first_projection():
    p = solve_schu_lambda(R_POS, MU2, NU2, PenaltyConfig(lam=1e-9, sides=SIDE_SECOND))
    np.testing.assert_allclose(p, project_first_marginal(R_POS, MU2), atol=1e-6)


def test_schu_appendix(appendix):
    r, mu, nu = appendix
    p = solve_schu_lambda(r, mu, nu, PenaltyConfig(lam=1e3, sides=SIDE_SECOND))
    np.testing.assert_allclose(marginal_row(p), mu, atol=1e-12)
    gap = rel_entropy(marginal_col(p), nu)
    assert 0 < gap
    # the best reachable second marginal is nu*, so the penalty saturates
    # near H(nu*|nu) for large lam
    assert gap == pytest.approx(rel_entropy(NU_STAR, nu), rel=5e-2)


def test_schu_requires_one_sided_config():
    with pytest.raises(ValueError):
        solve_schu_lambda(R_POS, MU2, NU2, PenaltyConfig(lam=1.0))


def test_two_sided_returns_reference_when_coupled():
    r = np.array([[1.0, 0.5], [0.25, 1.0]])
    mu, nu = marginal_row(r), marginal_col(r)
    for lam in (1.0, 10.0, 1000.0):
        sol = solve_two_sided(r, mu, nu, PenaltyConfig(lam=lam))
        np.testing.assert_allclose(sol, r, atol=1e-9)


def test_two_sided_gamma_limit(appendix):
    r, mu, nu = appendix
    limit = run_sinkhorn(r, mu, nu, TIGHT)
    tvs = []
    for lam in (10.0, 100.0, 1e3, 1e4):
        sol = solve_two_sided(r, mu, nu, PenaltyConfig(lam=lam))
        tvs.append(tv_distance(sol, limit.r_star))
        assert stationarity_residual(sol, r, mu, nu, lam) <= 1e-8 * 6
    assert tvs == sorted(tvs, reverse=True)
    assert tvs[-1] < 1e-2
    # normalized output approaches R*/Z; marginals approach the geometric means
    sol4 = solve_two_sided(r, mu, nu, PenaltyConfig(lam=1e4))
    assert tv_distance(sol4 / sol4.sum(), R_STAR / Z_NORM) < 1e-2
    assert np.abs(marginal_row(sol4) - MU_G).max() < 1e-2
    assert np.abs(marginal_col(sol4) - NU_G).max() < 1e-2


def test_two_sided_objective_monotone(appendix):
    r, mu, nu = appendix
    lam = 100.0
    q_exp = lam / (1.0 + lam)
    log_r, log_mu, log_nu = log_arrays(r, mu, nu)
    u = np.zeros(3)
    v = np.zeros(3)
    prev = penalized_objective(np.exp(u[:, None] + v[None, :] + log_r), r, mu, nu, lam)
    for _ in range(3000):
        u = q_exp * (log_mu - _lse_rows(log_r + v[None, :]))
        v = q_exp * (log_nu - _lse_rows((log_r + u[:, None]).T))
        cur = penalized_objective(np.exp(u[:, None] + v[None, :] + log_r), r, mu, nu, lam)
        assert cur <= prev + 1e-10
        prev = cur


def test_two_sided_matches_log_domain_reference(appendix):
    r, mu, nu = appendix
    lam = 1e3
    q_exp = lam / (1.0 + lam)
    log_r, log_mu, log_nu = log_arrays(r, mu, nu)
    u = np.zeros(3)
    v = np.zeros(3)
    p_old, eps = r, 1e-10
    for _ in range(500_000):
        u = q_exp * (log_mu - _lse_rows(log_r + v[None, :]))
        v = q_exp * (log_nu - _lse_rows((log_r + u[:, None]).T))
        p = np.exp(u[:, None] + v[None, :] + log_r)
        if tv_distance(p, p_old) <= eps:
            if stationarity_residual(p, r, mu, nu, lam) <= 1e-8 * 6:
                break
            eps *= 1e-2
        p_old = p
    else:
        pytest.fail("log-domain reference did not converge")
    sol = solve_two_sided(r, mu, nu, PenaltyConfig(lam=lam))
    np.testing.assert_allclose(sol, p, rtol=0, atol=1e-10)


def test_epsilon_fill(appendix):
    r, mu, nu = appendix
    filled = epsilon_fill(r, 1e-3)
    assert (filled[np.tril_indices(3, -1)] == 1e-3).all()
    assert (filled[np.triu_indices(3)] == r[np.triu_indices(3)]).all()
    pos = np.full((2, 2), 0.7)
    np.testing.assert_array_equal(epsilon_fill(pos, 1e-2), pos)
    assert classify_exact(filled, mu, nu).tag == "Scalable"
    with pytest.raises(ValueError):
        epsilon_fill(r, 0.0)


def test_sweep_lambda_scalable_vanishes():
    r = np.array([[1.0, 0.5], [0.25, 1.0]])
    mu, nu = marginal_row(r), marginal_col(r)
    rows = sweep_lambda(r, mu, nu, [100.0, 1e3])
    for _, tv in rows:
        assert tv < 1e-6


def test_sweep_epsilon_appendix(appendix):
    r, mu, nu = appendix
    limit = run_sinkhorn(r, mu, nu, TIGHT)
    rows = sweep_epsilon(r, mu, nu, [1e-1, 1e-2, 1e-3], r_star=limit.r_star)
    eps_vals = [e for e, _, _ in rows]
    assert eps_vals == sorted(eps_vals, reverse=True)
    for _, tv, _ in rows:
        assert tv >= 0.1
    iters = [it for _, _, it in rows]
    assert iters == sorted(iters)  # smaller fill, slower convergence


def test_sweep_epsilon_degenerate_on_positive_reference():
    r = np.array([[1.0, 0.5], [0.25, 1.0]])
    mu, nu = marginal_row(r), marginal_col(r)
    plain = run_sinkhorn(r, mu, nu, StopConfig(epsilon_tol=1e-10, max_iter=1000,
                                               mode="iterate-delta"))
    rows = sweep_epsilon(r, mu, nu, [1e-3], r_star=plain.r_star)
    assert rows[0][1] == pytest.approx(0.0, abs=1e-8)


def test_not_converged_carries_partial_result(appendix):
    r, mu, nu = appendix
    from degensink import NotConverged
    with pytest.raises(NotConverged) as err:
        solve_two_sided(r, mu, nu, PenaltyConfig(lam=1e4, max_iter=10))
    assert err.value.result.shape == (3, 3)
    with pytest.raises(NotConverged) as err:
        solve_schu_lambda(r, mu, nu, PenaltyConfig(lam=1e3, sides=SIDE_SECOND, max_iter=3))
    assert err.value.result.shape == (3, 3)
