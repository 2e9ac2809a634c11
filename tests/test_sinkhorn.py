import math

import numpy as np
import pytest

from degensink import (
    Assumption1Violated,
    OverflowDetected,
    check_optimality,
    current_P,
    current_Q,
    detect_limit_support,
    gap_balanced,
    gap_unbalanced,
    init_state,
    marginal_col,
    marginal_row,
    potentials_phi_psi,
    rel_entropy,
    run_sinkhorn,
    sinkhorn_step,
)
from degensink.instances import block_ratio_schedule, staircase_instance
from degensink.sinkhorn import SinkhornState, StopConfig, _LogIteration
from conftest import (
    MU_G,
    MU_STAR,
    NU_G,
    NU_STAR,
    P_STAR,
    Q_STAR,
    R_STAR,
    S_MASK,
    Z_NORM,
    _lse_rows,
    assert_printed,
    log_arrays,
    random_instance,
)

TIGHT = StopConfig(epsilon_tol=1e-13 * 6, max_iter=10_000, mode="iterate-delta")


def _steps(r, mu, nu, n):
    state = init_state(mu.size, nu.size)
    for _ in range(n):
        state = sinkhorn_step(state, r, mu, nu)
    return state


def test_first_step_appendix(appendix):
    r, mu, nu = appendix
    state = sinkhorn_step(init_state(3, 3), r, mu, nu)
    np.testing.assert_allclose(state.a, [2 / 3, 1.0, 2.0])
    np.testing.assert_allclose(state.b, [3.0, 9 / 5, 3 / 11])
    np.testing.assert_allclose(state.b_prev, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(current_P(state, r),
                               [[2 / 3, 2 / 3, 2 / 3], [0, 1, 1], [0, 0, 2]])
    np.testing.assert_allclose(current_Q(state, r),
                               [[2, 6 / 5, 2 / 11], [0, 9 / 5, 3 / 11], [0, 0, 6 / 11]])


def test_fixed_point_when_already_coupled():
    r = np.array([[0.5, 0.5], [0.25, 0.75]])
    mu, nu = marginal_row(r), marginal_col(r)
    state = sinkhorn_step(init_state(2, 2), r, mu, nu)
    np.testing.assert_allclose(state.a, 1.0)
    np.testing.assert_allclose(state.b, 1.0)
    np.testing.assert_allclose(current_P(state, r), r)


def test_appendix_iteration_five_potentials(appendix):
    # half-step 5 = third a-update
    r, mu, nu = appendix
    state = _steps(r, mu, nu, 3)
    assert_printed(state.a, [2.7e-1, 8.6e-1, 1.7e1])
    assert_printed(state.b_prev, [5.0, 2.2, 1.2e-1])


def test_step_raises_on_violated_assumption():
    with pytest.raises(Assumption1Violated):
        sinkhorn_step(init_state(2, 2), np.diag([1.0, 0.0]), np.array([1.0, 1.0]),
                      np.array([1.0, 1.0]))


def test_marginals_exact_after_updates():
    rng = np.random.default_rng(2)
    for _ in range(20):
        r, mu, nu = random_instance(rng, max_n=6)
        state = init_state(mu.size, nu.size)
        for _ in range(5):
            state = sinkhorn_step(state, r, mu, nu)
            np.testing.assert_allclose(marginal_row(current_P(state, r)), mu, atol=1e-12)
            np.testing.assert_allclose(marginal_col(current_Q(state, r)), nu, atol=1e-12)


def test_gap_balanced_values(appendix):
    r = np.array([[0.5, 0.5], [0.25, 0.75]])
    mu, nu = marginal_row(r), marginal_col(r)
    state = sinkhorn_step(init_state(2, 2), r, mu, nu)
    assert gap_balanced(state, r, mu, nu) == pytest.approx(0.0, abs=1e-12)

    d = np.diag([2.0, 3.0])
    dm = marginal_row(d)
    state = sinkhorn_step(init_state(2, 2), d, dm, dm)
    assert gap_balanced(state, d, dm, dm) <= 1e-12

    # non-scalable: large-magnitude, non-vanishing (and negative here: the
    # dual is unbounded when no coupling exists)
    ra, mua, nua = appendix
    state = _steps(ra, mua, nua, 10)
    assert abs(gap_balanced(state, ra, mua, nua)) > 1.0


def test_gap_balanced_nonnegative_on_scalable_run():
    rng = np.random.default_rng(6)
    r = rng.uniform(0.2, 1.0, (4, 4))
    mu = rng.uniform(0.5, 1.5, 4)
    nu = rng.uniform(0.5, 1.5, 4)
    nu *= mu.sum() / nu.sum()
    state = init_state(4, 4)
    for _ in range(50):
        state = sinkhorn_step(state, r, mu, nu)
        assert gap_balanced(state, r, mu, nu) >= -1e-12


def test_gap_unbalanced_fixed_point_and_lambda_limit():
    r = np.array([[0.5, 0.5], [0.25, 0.75]])
    mu, nu = marginal_row(r), marginal_col(r)
    state = sinkhorn_step(init_state(2, 2), r, mu, nu)
    assert gap_unbalanced(state, r, mu, nu, 1e3) == pytest.approx(0.0, abs=1e-9)

    # at any state whose P matches the second marginal, the lam -> inf limit
    # of the penalized criterion is the balanced criterion
    rng = np.random.default_rng(13)
    for _ in range(20):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        rr = rng.uniform(0.1, 2.0, (n, m))
        mm = rng.uniform(0.5, 1.5, n)
        nn = rng.uniform(0.5, 1.5, m)
        a = rng.uniform(0.2, 2.0, n)
        b_prev = nn / (rr.T @ a)
        state = SinkhornState(a=a, b=b_prev.copy(), b_prev=b_prev, iteration=1)
        gb = gap_balanced(state, rr, mm, nn)
        gu = gap_unbalanced(state, rr, mm, nn, 1e9)
        assert gu == pytest.approx(gb, abs=1e-6)


def test_gap_unbalanced_appendix_trace(appendix):
    # normalized instance: the penalized criterion with lam = 1/eps dips
    # below eps after finitely many iterations, then diverges
    r, mu, nu = appendix
    rep = run_sinkhorn(r / 6, mu / 6, nu / 6,
                       StopConfig(epsilon_tol=1e-3, lam=1e3, max_iter=4000, mode="unbalanced-gap"))
    assert rep.converged
    assert 500 < rep.iterations < 2000
    gaps = np.array([g for _, g in rep.gap_trace])
    assert (np.diff(gaps) <= 1e-9).all()  # decreasing all the way to the stop

    # raw masses: the same trace scaled by 6 dips to ~1.35e-3, misses the
    # 1e-3 threshold, and diverges afterwards
    rep_raw = run_sinkhorn(r, mu, nu,
                           StopConfig(epsilon_tol=1e-3, lam=1e3, max_iter=4000, mode="unbalanced-gap"))
    raw = np.array([g for _, g in rep_raw.gap_trace])
    assert not rep_raw.converged
    assert 1e-3 < raw.min() < 2e-3
    assert raw[-1] > 1.0


def test_run_sinkhorn_appendix_limits(appendix):
    r, mu, nu = appendix
    rep = run_sinkhorn(r, mu, nu, TIGHT)
    assert rep.converged
    np.testing.assert_allclose(rep.p_star, P_STAR, atol=1e-8)
    np.testing.assert_allclose(rep.q_star, Q_STAR, atol=1e-8)
    np.testing.assert_allclose(rep.r_star, R_STAR, atol=1e-8)
    np.testing.assert_allclose(rep.mu_star, MU_STAR, atol=1e-8)
    np.testing.assert_allclose(rep.nu_star, NU_STAR, atol=1e-8)
    np.testing.assert_allclose(rep.mu_g, MU_G, atol=1e-8)
    np.testing.assert_allclose(rep.nu_g, NU_G, atol=1e-8)
    assert rep.z_norm == pytest.approx(Z_NORM)
    np.testing.assert_allclose(rep.r_bar_star, R_STAR / Z_NORM, atol=1e-8)


def test_run_sinkhorn_scalable_diag():
    d = np.diag([2.0, 5.0])
    dm = marginal_row(d)
    rep = run_sinkhorn(d, dm, dm, StopConfig(epsilon_tol=1e-12, max_iter=10, mode="iterate-delta"))
    assert rep.converged and rep.iterations <= 2
    np.testing.assert_allclose(rep.p_star, d, atol=1e-14)
    np.testing.assert_allclose(rep.q_star, d, atol=1e-14)
    np.testing.assert_allclose(rep.r_star, d, atol=1e-14)


def test_report_invariants_randomized():
    rng = np.random.default_rng(42)
    for k in range(25):
        r, mu, nu = random_instance(rng, max_n=6, balanced=bool(k % 2))
        mask, rep = detect_limit_support(r, mu, nu, max_iter=30_000)
        # r_star is the geometric mean with mass z_norm
        np.testing.assert_allclose(rep.r_star, np.sqrt(rep.p_star * rep.q_star), atol=1e-14)
        assert rep.z_norm == pytest.approx(rep.r_star.sum())
        # mass identities
        assert rep.nu_star.sum() == pytest.approx(mu.sum(), abs=1e-9)
        assert rep.mu_star.sum() == pytest.approx(nu.sum(), abs=1e-9)
        # r_star marginals are the geometric-mean marginals
        np.testing.assert_allclose(marginal_row(rep.r_star), rep.mu_g, atol=1e-7)
        np.testing.assert_allclose(marginal_col(rep.r_star), rep.nu_g, atol=1e-7)
        # common structural support of the two limits
        z = 1e-12 * mu.sum()
        assert np.array_equal(rep.p_star >= z, rep.q_star >= z)


def test_modified_marginal_entropy_decreases_to_zero(appendix):
    r, mu, nu = appendix
    rep = run_sinkhorn(r, mu, nu, TIGHT)
    state = init_state(3, 3)
    values = []
    for _ in range(rep.iterations):
        state = sinkhorn_step(state, r, mu, nu)
        values.append(rel_entropy(rep.mu_star, marginal_row(current_Q(state, r))))
    assert values[-1] == pytest.approx(0.0, abs=1e-10)
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_potentials_phi_psi(appendix):
    r, mu, nu = appendix
    rep = run_sinkhorn(r, mu, nu, TIGHT)
    phi, psi = potentials_phi_psi(rep, mu, nu)
    np.testing.assert_allclose(phi, np.log([5 / 4, 5 / 4, 1 / 2]), atol=1e-9)
    np.testing.assert_allclose(psi, np.log([4 / 5, 4 / 5, 2.0]), atol=1e-9)
    assert phi[0] + psi[2] == pytest.approx(math.log(5 / 2))

    d = np.diag([2.0, 5.0])
    repd = run_sinkhorn(d, marginal_row(d), marginal_row(d),
                        StopConfig(epsilon_tol=1e-13, max_iter=10, mode="iterate-delta"))
    phid, psid = potentials_phi_psi(repd, marginal_row(d), marginal_row(d))
    np.testing.assert_allclose(phid, 0.0, atol=1e-12)
    np.testing.assert_allclose(psid, 0.0, atol=1e-12)


def test_check_optimality(appendix):
    r, mu, nu = appendix
    _, rep = detect_limit_support(r, mu, nu)
    diag = check_optimality(rep, r, mu, nu)
    assert diag.passed()
    assert np.array_equal(rep.structural_support, S_MASK)

    short = run_sinkhorn(r, mu, nu, StopConfig(epsilon_tol=0.0, max_iter=10, mode="iterate-delta"))
    partial = check_optimality(short, r, mu, nu)
    assert not partial.passed()
    assert partial.eq_ratio_residual > 1e-6 or partial.swap_residuals[0] > 1e-6


def test_log_domain_switch_keeps_iterating(appendix):
    # on the degenerate instance the potentials leave float range around
    # iteration ~1100; the run must survive well beyond that point (it may
    # stop earlier only because the iterates have become bit-identical,
    # which satisfies the delta criterion exactly)
    r, mu, nu = appendix
    rep = run_sinkhorn(r, mu, nu, StopConfig(epsilon_tol=0.0, max_iter=3000, mode="iterate-delta"))
    assert rep.iterations > 500
    assert rep.iterations == 3000 or rep.gap_trace[-1][1] == 0.0
    assert rep.state.overflow_flag  # the kernel absorbed its potentials
    assert np.isfinite(rep.p_star).all()
    np.testing.assert_allclose(rep.p_star, P_STAR, atol=1e-9)
    assert np.array_equal(rep.structural_support, S_MASK)


def _log_domain_couplings(r, mu, nu, n):
    """P^n and Q^n of the plain log-domain recursion."""
    log_r, log_mu, log_nu = log_arrays(r, mu, nu)
    u, v = np.zeros(mu.size), np.zeros(nu.size)
    for _ in range(n):
        v_prev = v
        u = log_mu - _lse_rows(log_r + v[None, :])
        v = log_nu - _lse_rows((log_r + u[:, None]).T)
    return np.exp(u[:, None] + v_prev[None, :] + log_r), np.exp(u[:, None] + v[None, :] + log_r)


@pytest.mark.parametrize("instance, cfg, absorbs", [
    # the unbalanced gap stays positive on the worked example, so a 0
    # threshold runs the full max_iter
    ("appendix", StopConfig(epsilon_tol=0.0, max_iter=3000, mode="unbalanced-gap"), True),
    ("appendix", StopConfig(epsilon_tol=0.0, max_iter=50, mode="unbalanced-gap"), False),
    ("staircase10", StopConfig(epsilon_tol=1e-9, max_iter=100_000, mode="iterate-delta"), True),
    ("massless", StopConfig(epsilon_tol=1e-12, max_iter=1000, mode="iterate-delta"), False),
], ids=["appendix-3000", "appendix-50", "staircase10", "massless"])
def test_absorbing_kernel_matches_log_domain(instance, cfg, absorbs, appendix, monkeypatch):
    if instance == "appendix":
        r, mu, nu = appendix
    elif instance == "staircase10":
        r, mu, nu, _, _ = staircase_instance(100, [10] * 10, block_ratio_schedule(10))
    else:  # a row and a column without mass
        r = np.array([[1.0, 2.0, 1.0], [1.0, 1.0, 3.0], [0.0, 2.0, 1.0]])
        mu, nu = np.array([0.0, 2.0, 1.0]), np.array([1.0, 0.0, 2.0])
    absorptions = []
    absorb = _LogIteration._absorb
    monkeypatch.setattr(_LogIteration, "_absorb",
                        lambda kernel: (absorptions.append(kernel), absorb(kernel)))
    rep = run_sinkhorn(r, mu, nu, cfg)
    assert len(absorptions) >= 2 if absorbs else not absorptions
    assert rep.state.overflow_flag == bool(absorptions)
    p_ref, q_ref = _log_domain_couplings(r, mu, nu, rep.iterations)
    # atol: near underflow the reference exp(u + v + log r) is itself only
    # accurate to about 1e-12 relative
    np.testing.assert_allclose(rep.p_star, p_ref, rtol=1e-12, atol=1e-12 * p_ref.max())
    np.testing.assert_allclose(rep.q_star, q_ref, rtol=1e-12, atol=1e-12 * q_ref.max())


def test_restrict_before_first_step_matches_masked_kernel():
    r, mu, nu, support, _ = staircase_instance(100, [10] * 10, block_ratio_schedule(10))
    mask = support.copy()
    mask[:5] = False  # rows 0-4 and columns 95-99 lose every entry
    mask[:, 95:] = False
    restricted = _LogIteration(r, mu, nu)
    restricted.restrict(mask)
    mu_live = np.where(mask.any(axis=1), mu, 0.0)
    nu_live = np.where(mask.any(axis=0), nu, 0.0)
    fresh = _LogIteration(r * mask, mu_live, nu_live)
    np.testing.assert_array_equal(restricted.mu, mu_live)
    np.testing.assert_array_equal(restricted.nu, nu_live)
    assert mu[:5].min() > 0 and nu[95:].min() > 0  # the caller's arrays are untouched
    for _ in range(400):
        restricted.step()
        fresh.step()
    assert restricted.absorbed and fresh.absorbed
    for got, want in zip(restricted.couplings(), fresh.couplings()):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * want.max())
        assert not got[:5].any() and not got[:, 95:].any()


def test_standalone_linear_step_eventually_overflows(appendix):
    r, mu, nu = appendix
    state = init_state(3, 3)
    with pytest.raises(OverflowDetected):
        for _ in range(5000):
            state = sinkhorn_step(state, r, mu, nu)
    assert state.overflow_flag  # the rescale fired before the failure


def test_balanced_gap_mode_stops_on_scalable():
    r = np.array([[1.0, 0.5], [0.25, 1.0]])
    mu, nu = marginal_row(r), marginal_col(r)
    rep = run_sinkhorn(r, mu, nu, StopConfig(epsilon_tol=1e-10, mode="balanced-gap"))
    assert rep.converged
    assert rep.gap_trace[-1][1] <= 1e-10
