import warnings

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
from degensink.errors import NotConverged
from degensink.instances import (
    KIND_RANDOM,
    KIND_STAIRCASE,
    InstanceSpec,
    block_ratio_schedule,
    gen_instance,
    staircase_instance,
)
from degensink.sinkhorn import StopConfig
from degensink import unbalanced
from degensink.support import _exact_limit
from degensink.unbalanced import SIDE_SECOND
from conftest import MU_G, NU_G, NU_STAR, R_STAR, Z_NORM, _lse_rows, log_arrays

R_POS = np.array([[1.0, 0.4], [0.3, 1.0]])
MU2 = np.array([1.0, 2.0])
NU2 = np.array([1.5, 1.5])


def test_schu_large_lambda_recovers_constrained_solution():
    p = solve_schu_lambda(R_POS, MU2, NU2, PenaltyConfig(lam=1e6, sides=SIDE_SECOND))
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


@pytest.mark.parametrize("settings", [dict(lam=np.nan), dict(lam=0.0), dict(lam=np.inf),
                                      dict(lam=1.0, sides="bogus")],
                         ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
def test_penalty_config_rejects_invalid_settings(settings):
    # a NaN lam used to end in NotConverged after 0 or 100 Newton steps, an
    # infinite one after 0
    with pytest.raises(ValueError):
        PenaltyConfig(**settings)


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
    limit = _exact_limit(r, mu, nu)
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
    p_old = r
    # the damped recursion run to its float fixed point (successive iterates
    # equal), not to a move threshold: it contracts by only about 1 - 2/lam
    # per step, so any move stop leaves it about lam/2 times that move short
    for _ in range(500_000):
        u = q_exp * (log_mu - _lse_rows(log_r + v[None, :]))
        v = q_exp * (log_nu - _lse_rows((log_r + u[:, None]).T))
        p = np.exp(u[:, None] + v[None, :] + log_r)
        if np.array_equal(p, p_old):
            break
        p_old = p
    else:
        pytest.fail("log-domain reference did not converge")
    assert stationarity_residual(p, r, mu, nu, lam) <= 1e-8 * 6
    sol = solve_two_sided(r, mu, nu, PenaltyConfig(lam=lam))
    np.testing.assert_allclose(sol, p, rtol=0, atol=1e-10)


def _fig6_instance():
    return staircase_instance(100, [50, 50], block_ratio_schedule(2))[:3]


def test_newton_steps_bounded_on_fig6_instance(monkeypatch):
    # every Newton step is one linear solve; count them
    steps = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        steps[-1] += 1
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    r, mu, nu = _fig6_instance()
    mass = max(mu.sum(), nu.sum(), 1.0)
    for lam in (1.0, 10.0, 100.0, 1e3, 1e4):
        steps.append(0)
        sol = solve_two_sided(r, mu, nu, PenaltyConfig(lam=lam))
        assert stationarity_residual(sol, r, mu, nu, lam) <= 1e-8 * mass
    for lam in (10.0, 100.0, 1e3):
        steps.append(0)
        sol = solve_schu_lambda(r, mu, nu, PenaltyConfig(lam=lam, sides=SIDE_SECOND))
        np.testing.assert_allclose(marginal_row(sol), mu, rtol=0, atol=1e-9)
    # from x = 0 these took [8, 12, 17, 20, 20, 14, 18, 20]; the block
    # ascent sweeps before the first step leave 0 to 5
    assert steps == [0, 2, 3, 3, 3, 3, 5, 5]


def test_schur_direction_matches_dense_solve(monkeypatch):
    # the m x m Schur complement solve against the dense (n+m) x (n+m)
    # Newton system H d = g, at every step of the fig6 solves and at the
    # cold point x = 0 (P = R) at lam = 1, where the sweeps leave no step.
    # Both are backward stable: the residual is held to 1e-15 ||H|| ||d||
    # (at most 2.3e-16 measured; after the sweeps ||g|| is far below
    # ||H|| ||d|| at lam = 1e4, so a bound in ||g|| reads cond(H), not the
    # solve).  Their difference grows with cond(H), about 100 lam here, so
    # it is held to 1e-12 relative only where lam <= 10
    r, mu, nu = _fig6_instance()
    lam = 1.0
    cold = r[np.ix_(mu > 0, nu > 0)]
    weights = np.concatenate([mu[mu > 0], nu[nu > 0]])
    marg = np.concatenate([cold.sum(axis=1), cold.sum(axis=0)])
    seen = [(lam, cold, marg + weights / lam, weights - marg,
             unbalanced._newton_direction(cold, marg + weights / lam, weights - marg))]
    direction = unbalanced._newton_direction
    monkeypatch.setattr(unbalanced, "_newton_direction",
                        lambda p, diag, grad: seen.append((lam, p, diag, grad, direction(p, diag, grad)))
                        or seen[-1][-1])
    for lam in (1.0, 10.0, 1e4):
        solve_two_sided(r, mu, nu, PenaltyConfig(lam=lam))
    for lam in (10.0, 1e3):
        solve_schu_lambda(r, mu, nu, PenaltyConfig(lam=lam, sides=SIDE_SECOND))
    assert len(seen) == 1 + 0 + 2 + 3 + 3 + 5  # 1 + 8 + 12 + 20 + 14 + 20 from x = 0
    for lam, p, diag, grad, got in seen:
        k, m = p.shape
        hess = np.block([[np.zeros((k, k)), p], [p.T, np.zeros((m, m))]])
        np.fill_diagonal(hess, diag)
        assert np.linalg.norm(hess @ got - grad) <= 1e-15 * np.linalg.norm(hess, 2) * np.linalg.norm(got)
        if lam <= 10.0:
            want = np.linalg.solve(hess, grad)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_penalized_diagnostics_reject_shape_mismatch(appendix):
    r, mu, nu = appendix
    for diagnostic in (stationarity_residual, penalized_objective):
        with pytest.raises(ValueError):
            diagnostic(np.ones((3, 2)), r, mu, nu, 10.0)


@pytest.mark.parametrize("lam", [np.nan, 0.0, -1.0, np.inf], ids=["nan", "zero", "negative", "inf"])
@pytest.mark.parametrize("name", ["stationarity_residual", "penalized_objective"])
def test_penalized_values_reject_invalid_lam(name, lam, appendix):
    # at lam = 0 penalized_objective raised ZeroDivisionError
    r, mu, nu = appendix
    call = {"stationarity_residual": lambda: stationarity_residual(R_STAR, r, mu, nu, lam),
            "penalized_objective": lambda: penalized_objective(R_STAR, r, mu, nu, lam)}[name]
    with pytest.raises(ValueError, match="lam must be a positive number"):
        call()


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
    limit = _exact_limit(r, mu, nu)
    rows = sweep_epsilon(r, mu, nu, [1e-1, 1e-2, 1e-3], r_star=limit.r_star)
    eps_vals = [e for e, _, _ in rows]
    assert eps_vals == sorted(eps_vals, reverse=True)
    for _, tv, _ in rows:
        assert tv >= 0.1
    iters = [it for _, _, it in rows]
    assert iters == sorted(iters)  # smaller fill, slower convergence


def test_sweeps_default_reference_is_the_exact_limit():
    # ApproximatelyScalable: R* = I, which a plain scaling run reaches only
    # at a sublinear rate; the default reference must not carry that error
    r, mu, nu = np.triu(np.ones((4, 4))), np.ones(4), np.ones(4)
    [(_, tv)] = sweep_lambda(r, mu, nu, [1e8])
    sol = solve_two_sided(r, mu, nu, PenaltyConfig(lam=1e8))
    assert tv == pytest.approx(tv_distance(sol, np.eye(4)), abs=1e-6)
    assert tv < 1e-5
    [(_, tv, iters)] = sweep_epsilon(r, mu, nu, [1e-2])
    [(_, tv_eye, iters_eye)] = sweep_epsilon(r, mu, nu, [1e-2], r_star=np.eye(4))
    assert tv == pytest.approx(tv_eye, abs=1e-12) and iters == iters_eye


def test_sweep_epsilon_degenerate_on_positive_reference():
    r = np.array([[1.0, 0.5], [0.25, 1.0]])
    mu, nu = marginal_row(r), marginal_col(r)
    plain = run_sinkhorn(r, mu, nu, StopConfig(epsilon_tol=1e-10, max_iter=1000,
                                               mode="iterate-delta"))
    rows = sweep_epsilon(r, mu, nu, [1e-3], r_star=plain.r_star)
    assert rows[0][1] == pytest.approx(0.0, abs=1e-8)


def test_not_converged_carries_partial_result(appendix, monkeypatch):
    r, mu, nu = appendix
    monkeypatch.setattr(unbalanced, "_MAX_STEPS", 2)
    with pytest.raises(NotConverged) as err:
        solve_two_sided(r, mu, nu, PenaltyConfig(lam=1e4))
    assert err.value.result.shape == (3, 3)
    assert err.value.steps == 2 and 1e-12 * 6 < err.value.grad_norm < np.inf
    monkeypatch.setattr(unbalanced, "_MAX_STEPS", 3)
    with pytest.raises(NotConverged) as err:
        solve_schu_lambda(r, mu, nu, PenaltyConfig(lam=1e3, sides=SIDE_SECOND))
    assert err.value.result.shape == (3, 3)


def test_newton_backtracks_from_a_cold_start(monkeypatch):
    # without the scaling sweeps, fig6's two-sided solve at lam = 1e-3
    # starts at x = 0, where full Newton steps lower the dual: Armijo halves
    # them (9 times in all), and the solve still lands on the swept one
    r, mu, nu = _fig6_instance()
    cfg = PenaltyConfig(lam=1e-3)
    want = solve_two_sided(r, mu, nu, cfg)
    monkeypatch.setattr(unbalanced, "_SWEEPS", 0)
    p = solve_two_sided(r, mu, nu, cfg)
    assert stationarity_residual(p, r, mu, nu, cfg.lam) <= 1e-8 * max(mu.sum(), p.sum())
    assert tv_distance(p, want) <= 1e-12 * p.sum()
    # one trial per step: the first full step is rejected, and no ascent
    # step is left
    monkeypatch.setattr(unbalanced, "_HALVINGS", 1)
    with pytest.raises(NotConverged, match="no ascent step") as err:
        solve_two_sided(r, mu, nu, cfg)
    assert err.value.steps == 0


def test_two_sided_tiny_lambda_solves(appendix):
    # at lam = 1e-9 the float roundoff of log(P/R)/lam, not Newton, sets the
    # stationarity residual; the solution is R up to O(lam)
    r, mu, nu = appendix
    p = solve_two_sided(r, mu, nu, PenaltyConfig(lam=1e-9))
    assert np.abs(p - r).max() <= 1e-8


@pytest.mark.parametrize("solver,sides", [(solve_two_sided, unbalanced.SIDE_BOTH),
                                          (solve_schu_lambda, SIDE_SECOND)])
def test_singular_newton_system_raises_not_converged(appendix, monkeypatch, solver, sides):
    # numpy's LinAlgError used to escape, as at (mu, nu) * 1e-20 on the
    # worked example
    r, mu, nu = appendix

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(NotConverged, match="singular Newton system") as err:
        solver(r, mu, nu, PenaltyConfig(lam=1e3, sides=sides))
    assert err.value.steps == 0 and 0 < err.value.grad_norm < np.inf
    assert err.value.result.shape == (3, 3) and np.isfinite(err.value.result).all()


@pytest.mark.parametrize("k", [-250, -100, -20, -8, -3, 20, 250])
@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3, 1e6])
def test_penalized_solvers_at_extreme_masses(appendix, k, lam):
    # from x = 0 these raised LinAlgError (k = -20) or NotConverged after
    # 0 Newton steps (one-sided, k = 20 and 250, with RuntimeWarnings).
    # With a floor of 1 on the stop rules the fig6 two-sided solve at
    # lam = 1e-3 raised NotConverged after 100 Newton steps at every k < 0
    # here, its gradient stalled at about 3e-15 M(P)
    for r, mu, nu in (appendix, _fig6_instance()):
        mu, nu = mu * 10.0 ** k, nu * 10.0 ** k
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = solve_schu_lambda(r, mu, nu, PenaltyConfig(lam=lam, sides=SIDE_SECOND))
            assert np.abs(marginal_row(p) - mu).max() <= 1e-15 * mu.sum()
            p = solve_two_sided(r, mu, nu, PenaltyConfig(lam=lam))  # checks its stationarity
            assert np.isfinite(p).all() and p.sum() > 0


@pytest.mark.parametrize("k", [-20, -8])
@pytest.mark.parametrize("instance", ["worked", "fig6"])
def test_two_sided_small_mass_matches_tighter_stop(appendix, monkeypatch, instance, k):
    # with a floor of 1 the gradient threshold let the solve stop right
    # after the sweeps: P was 0.186 (worked) and 0.120 (fig6) off at k = -20,
    # 4.1e-7 and 8.8e-8 at k = -8
    r, mu, nu = appendix if instance == "worked" else _fig6_instance()
    mu, nu = mu * 10.0 ** k, nu * 10.0 ** k
    p = solve_two_sided(r, mu, nu, PenaltyConfig(lam=1e3))
    monkeypatch.setattr(unbalanced, "_GRAD_TOL", 1e-14)
    want = solve_two_sided(r, mu, nu, PenaltyConfig(lam=1e3))
    assert np.abs(p - want).max() <= 1e-9 * want.max()


# Newton steps from x = 0, per instance, at lam = 1e-3, 1, 1e2, 1e4, each
# two-sided then one-sided
_STEPS_FROM_ZERO = {
    "worked": [6, 7, 5, 5, 7, 8, 8, 8],
    "triu4": [5, 6, 5, 6, 8, 9, 12, 13],
    "staircase12": [7, 9, 6, 9, 10, 11, 11, 11],
    "random8x10": [6, 7, 5, 7, 8, 8, 8, 8],
    "random10x6": [6, 6, 5, 6, 7, 7, 7, 7],
}


def test_newton_steps_never_above_the_cold_start(appendix, monkeypatch):
    steps = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        steps[-1] += 1
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    instances = {
        "worked": appendix,
        "triu4": (np.triu(np.ones((4, 4))), np.ones(4), np.ones(4)),
        "staircase12": gen_instance(InstanceSpec(KIND_STAIRCASE, 12, 12, n_blocks=3)),
        "random8x10": gen_instance(InstanceSpec(KIND_RANDOM, 8, 10, density=0.5, seed=3)),
        "random10x6": gen_instance(InstanceSpec(KIND_RANDOM, 10, 6, density=0.7, seed=4)),
    }
    for name, (r, mu, nu) in instances.items():
        steps.clear()
        for lam in (1e-3, 1.0, 1e2, 1e4):
            steps.append(0)
            solve_two_sided(r, mu, nu, PenaltyConfig(lam=lam))
            steps.append(0)
            solve_schu_lambda(r, mu, nu, PenaltyConfig(lam=lam, sides=SIDE_SECOND))
        assert all(s <= cold for s, cold in zip(steps, _STEPS_FROM_ZERO[name], strict=True)), name
