import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degensink import (
    Assumption1Violated,
    OverflowDetected,
    check_optimality,
    current_P,
    current_Q,
    init_state,
    marginal_col,
    marginal_row,
    potentials_phi_psi,
    rel_entropy,
    run_sinkhorn,
    sinkhorn_step,
    total_mass,
    tv_distance,
)
from degensink import appendix_a_instance, sinkhorn
from degensink.instances import block_ratio_schedule, staircase_instance
from degensink.sinkhorn import (
    Z_TOL_FACTOR,
    OptimalityDiagnostics,
    StopConfig,
    _LogIteration,
)
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
    detect_limit_support,
    log_arrays,
    random_instance,
    reference_zero_loop,
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
    with pytest.raises(Assumption1Violated, match="first-marginal"):
        sinkhorn_step(init_state(2, 2), np.diag([1.0, 0.0]), np.array([1.0, 1.0]),
                      np.array([1.0, 1.0]))
    # column 0 keeps mass, but its only entry lies on the massless row 1
    with pytest.raises(Assumption1Violated, match="second-marginal"):
        sinkhorn_step(init_state(2, 2), np.array([[0.0, 1.0], [1.0, 1.0]]), np.array([1.0, 0.0]),
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

    # a mu of the wrong length raised a bare IndexError
    for short_mu, short_nu in ((mu[:2], nu), (mu, np.append(nu, 1.0))):
        with pytest.raises(ValueError, match="entries"):
            potentials_phi_psi(rep, short_mu, short_nu)


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


def test_check_optimality_rejects_nan(appendix):
    r, mu, nu = appendix
    rep = run_sinkhorn(r, mu, nu, StopConfig(epsilon_tol=0.0, max_iter=10, mode="iterate-delta"))
    mu_nan = mu.copy()
    mu_nan[1] = math.nan
    with pytest.raises(ValueError):
        check_optimality(rep, r, mu_nan, nu)
    clean = dict(eq_ratio_residual=0.0, support_sum_residual=0.0, min_sum_on_E=0.0,
                 swap_residuals=(0.0, 0.0), mass_residuals=(0.0, 0.0))
    assert OptimalityDiagnostics(**clean).passed()
    for name, value in clean.items():
        nan = (math.nan, 0.0) if isinstance(value, tuple) else math.nan
        diag = OptimalityDiagnostics(**{**clean, name: nan})
        assert len(diag.violations()) == 1, name


@pytest.mark.parametrize("shape", [(0, 0), (0, 2)])
def test_check_optimality_on_an_empty_triple(shape):
    # run_sinkhorn reports on these; the ratio residuals used to raise
    # numpy's zero-size reduction error
    r, mu, nu = np.zeros(shape), np.zeros(shape[0]), np.zeros(shape[1])
    diag = check_optimality(run_sinkhorn(r, mu, nu), r, mu, nu)
    assert diag.passed() and diag.eq_ratio_residual == 0.0


@pytest.mark.parametrize("settings", [dict(epsilon_tol=math.nan), dict(epsilon_tol=-1.0),
                                      dict(epsilon_tol=math.inf),
                                      dict(max_iter=0), dict(max_iter=2.5), dict(max_iter=math.nan),
                                      dict(max_iter=True),
                                      dict(mode="bogus"), dict(mode="balanced-gap"),
                                      dict(mode="unbalanced-gap"), dict(lam=1e3)],
                         ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
def test_stop_config_rejects_invalid_settings(settings):
    # a NaN threshold used to run to max_iter, as no move is <= NaN; a
    # fractional or NaN max_iter used to fail in range() mid-solve; the
    # penalization weight belongs to PenaltyConfig alone; max_iter=True ran
    # one iteration; an infinite threshold stopped after one iteration,
    # reporting P^1 as the limit
    with pytest.raises(TypeError if "lam" in settings else ValueError):
        StopConfig(**settings)


def test_stop_config_accepts_numpy_integer_max_iter(appendix):
    rep = run_sinkhorn(*appendix, StopConfig(epsilon_tol=0.0, max_iter=np.int64(7)))
    assert rep.iterations == 7


def test_step_and_gaps_reject_invalid_input(appendix):
    # the step, and the run whose gap_trace holds the moves
    r, mu, nu = appendix
    calls = (lambda m: sinkhorn_step(init_state(3, 3), r, m, nu),
             lambda m: run_sinkhorn(r, m, nu))
    for bad in (math.nan, math.inf, -1.0):
        mu_bad = mu.copy()
        mu_bad[0] = bad
        for call in calls:
            with pytest.raises(ValueError):
                call(mu_bad)


def _couplings_after(r, mu, nu, run):
    """(P^n, Q^n, n, absorbed) of ``run_sinkhorn`` under the StopConfig
    ``run``, or of the bare kernel driven for ``run`` steps when it is an
    int (iterate-delta at threshold 0 stalls at iteration 129 on the
    worked example, before the kernel first absorbs)."""
    if isinstance(run, StopConfig):
        rep = run_sinkhorn(r, mu, nu, run)
        return rep.p_star, rep.q_star, rep.iterations, rep.state.overflow_flag
    kernel = _LogIteration(r, mu, nu)
    for _ in range(run):
        kernel.step()
    p, q = kernel.couplings()
    return kernel.scatter(p), kernel.scatter(q), run, kernel.absorbed


def test_log_domain_switch_keeps_iterating(appendix):
    # on the degenerate instance the potentials leave float range around
    # iteration ~1100; the kernel must keep iterating well beyond that point
    r, mu, nu = appendix
    p, _, _, absorbed = _couplings_after(r, mu, nu, 3000)
    assert absorbed
    assert np.isfinite(p).all()
    np.testing.assert_allclose(p, P_STAR, atol=1e-9)
    assert np.array_equal(p >= Z_TOL_FACTOR * total_mass(mu), S_MASK)


def _log_domain_potentials(r, mu, nu, n):
    """log a^n, log b^{n-1} and log b^n of the plain log-domain recursion."""
    log_r, log_mu, log_nu = log_arrays(r, mu, nu)
    u, v = np.zeros(mu.size), np.zeros(nu.size)
    for _ in range(n):
        v_prev = v
        u = log_mu - _lse_rows(log_r + v[None, :])
        v = log_nu - _lse_rows((log_r + u[:, None]).T)
    return u, v_prev, v


def _log_domain_couplings(r, mu, nu, n):
    """P^n and Q^n of the plain log-domain recursion."""
    u, v_prev, v = _log_domain_potentials(r, mu, nu, n)
    log_r = log_arrays(r, mu, nu)[0]
    return np.exp(u[:, None] + v_prev[None, :] + log_r), np.exp(u[:, None] + v[None, :] + log_r)


def _named_instance(name, appendix):
    if name == "appendix":
        return appendix
    if name == "staircase10":
        return staircase_instance(100, [10] * 10, block_ratio_schedule(10))[:3]
    # a row and a column without mass
    r = np.array([[1.0, 2.0, 1.0], [1.0, 1.0, 3.0], [0.0, 2.0, 1.0]])
    return r, np.array([0.0, 2.0, 1.0]), np.array([1.0, 0.0, 2.0])


@pytest.mark.parametrize("instance, run, absorbs", [
    ("appendix", 3000, True),
    ("appendix", 50, False),
    ("staircase10", StopConfig(epsilon_tol=1e-9, max_iter=100_000, mode="iterate-delta"), True),
    ("massless", StopConfig(epsilon_tol=1e-12, max_iter=1000, mode="iterate-delta"), False),
], ids=["appendix-3000", "appendix-50", "staircase10", "massless"])
def test_absorbing_kernel_matches_log_domain(instance, run, absorbs, appendix, monkeypatch):
    r, mu, nu = _named_instance(instance, appendix)
    absorptions = []
    absorb = _LogIteration._absorb
    monkeypatch.setattr(_LogIteration, "_absorb",
                        lambda kernel: (absorptions.append(kernel), absorb(kernel)))
    p, q, iterations, absorbed = _couplings_after(r, mu, nu, run)
    assert len(absorptions) >= 2 if absorbs else not absorptions
    assert absorbed == bool(absorptions)
    p_ref, q_ref = _log_domain_couplings(r, mu, nu, iterations)
    # atol: near underflow the reference exp(u + v + log r) is itself only
    # accurate to about 1e-12 relative
    np.testing.assert_allclose(p, p_ref, rtol=1e-12, atol=1e-12 * p_ref.max())
    np.testing.assert_allclose(q, q_ref, rtol=1e-12, atol=1e-12 * q_ref.max())


@pytest.mark.parametrize("instance, run, flushes", [
    ("appendix", 3000, False),
    ("staircase10", StopConfig(epsilon_tol=1e-11 * 100, max_iter=100_000, mode="iterate-delta"), True),
], ids=["appendix-3000", "staircase10"])
def test_kernel_flush_keeps_the_run(instance, run, flushes, appendix, monkeypatch):
    # a rebuilt kernel entry below z_tol / _ABSORB^3 is set to 0: the run is
    # the same as without the flush, but for entries far below z_tol, and
    # no absorption leaves a subnormal kernel entry
    r, mu, nu = _named_instance(instance, appendix)
    subnormal = []
    absorb = _LogIteration._absorb

    def checked(kernel):
        absorb(kernel)
        subnormal.append(int(((kernel.k > 0) & (kernel.k < np.finfo(float).tiny)).sum()))

    def outcome():
        """P, Q and the record of the run: its iterations, moves and support."""
        if not isinstance(run, StopConfig):
            p, q, _, _ = _couplings_after(r, mu, nu, run)
            return p, q, None
        rep = run_sinkhorn(r, mu, nu, run)
        return rep.p_star, rep.q_star, (rep.iterations, rep.gap_trace, rep.structural_support.tolist())

    monkeypatch.setattr(_LogIteration, "_absorb", checked)
    p, q, record = outcome()
    assert subnormal and not any(subnormal)
    monkeypatch.setattr(sinkhorn, "_FLUSH", 0.0)
    subnormal.clear()
    p_ref, q_ref, record_ref = outcome()
    assert any(subnormal) == flushes  # without the flush, subnormal entries appear
    assert record == record_ref
    floor = Z_TOL_FACTOR * mu.sum() / sinkhorn._ABSORB
    for got, want in ((p, p_ref), (q, q_ref)):
        moved = got != want
        assert moved.any() == flushes
        assert (got[moved] < floor).all() and (want[moved] < floor).all()


def test_drop_before_first_step_matches_masked_kernel():
    r, mu, nu, support, _ = staircase_instance(100, [10] * 10, block_ratio_schedule(10))
    mask = support.copy()
    mask[:5] = False  # rows 0-4 and columns 95-99 lose every entry
    mask[:, 95:] = False
    dropped = _LogIteration(r, mu, nu)
    dropped.drop(~mask.take(dropped.entries))
    mu_live = np.where(mask.any(axis=1), mu, 0.0)
    nu_live = np.where(mask.any(axis=0), nu, 0.0)
    fresh = _LogIteration(r * mask, mu_live, nu_live)
    np.testing.assert_array_equal(dropped.mu, mu_live)
    np.testing.assert_array_equal(dropped.nu, nu_live)
    assert mu[:5].min() > 0 and nu[95:].min() > 0  # the caller's arrays are untouched
    for _ in range(400):
        dropped.step()
        fresh.step()
    assert dropped.absorbed and fresh.absorbed
    for got, want in zip(map(dropped.scatter, dropped.couplings()),
                         map(fresh.scatter, fresh.couplings())):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * want.max())
        assert not got[:5].any() and not got[:, 95:].any()


def test_drop_is_in_place_and_idempotent():
    r, mu, nu, _, _ = staircase_instance(100, [10] * 10, block_ratio_schedule(10))
    r_before = r.copy()
    rows = np.arange(100) < 10  # rows 0-9 and columns 0-9 lose every entry
    kernel = _LogIteration(r, mu, nu)
    for _ in range(300):
        kernel.step()
    assert kernel.absorbed
    off = rows[kernel.entry_rows]
    k_before, log_r_before = kernel.k.copy(), kernel.log_r.copy()
    kernel.drop(off)
    # dropping dead entries again changes nothing: rows 0-9 hold 10 of the
    # 11 entries of column 10, which keeps its mass
    kernel.drop(off)
    assert np.array_equal(r, r_before)  # the caller's R is untouched
    assert not kernel.k[:10].any() and np.array_equal(kernel.k[10:], k_before[10:])
    assert np.array_equal(kernel.log_r, np.where(off, -np.inf, log_r_before))
    np.testing.assert_array_equal(kernel.mu, np.where(rows, 0.0, mu))
    np.testing.assert_array_equal(kernel.nu, np.where(rows, 0.0, nu))
    np.testing.assert_array_equal(kernel.pad, np.concatenate((rows, rows)).astype(float))
    fresh = _LogIteration(r, mu, nu)
    fresh.drop(off)  # before any absorption, K is still the caller's R
    assert np.array_equal(r, r_before) and not fresh.k[:10].any()


def _dense_couplings(kernel):
    """P and Q over all n x m entries, each entry (a_i K_ij) b_j."""
    ak = kernel.a[:, None] * kernel.k
    return ak * kernel.b_prev[None, :], ak * kernel.b[None, :]


def _assert_couplings_match_dense(kernel):
    off = np.ones(kernel.k.size, dtype=bool)
    off[kernel.entries] = False
    for on_list, dense in zip(kernel.couplings(), _dense_couplings(kernel)):
        got = kernel.scatter(on_list)
        assert got.dtype == dense.dtype and got.tobytes() == dense.tobytes()
        assert not got.ravel()[off].any()


def test_couplings_on_the_entry_list_are_the_dense_formula(appendix):
    rng = np.random.default_rng(5)
    r_dense = rng.random((7, 9)) + 0.1
    cases = [appendix, (r_dense, rng.random(7), rng.random(9)), _named_instance("massless", appendix)]
    for r, mu, nu in cases:
        kernel = _LogIteration(r, mu, nu)
        for n in range(1, 1201):
            kernel.step()
            if n in (1, 2, 3, 50, 1200):
                _assert_couplings_match_dense(kernel)
        assert np.array_equal(kernel.entries, np.flatnonzero(r))  # massless rows and columns too

    r, mu, nu, _, _ = staircase_instance(100, [10] * 10, block_ratio_schedule(10))
    kernel = _LogIteration(r, mu, nu)
    for _ in range(600):
        kernel.step()
    # entries of K flushed to 0 stay on the list
    assert kernel.absorbed and ((kernel.log_r > -np.inf) & (kernel.k.take(kernel.entries) == 0)).any()
    _assert_couplings_match_dense(kernel)
    assert np.array_equal(kernel.entries, np.flatnonzero(r))
    kernel.drop(kernel.entry_cols >= 95)
    for _ in range(200):
        kernel.step()
    _assert_couplings_match_dense(kernel)
    kernel.drop(kernel.entry_rows < 10)
    kernel.step()
    _assert_couplings_match_dense(kernel)
    _assert_couplings_match_dense(kernel)  # twice without a step between


def _dense_reference_run(r, mu, nu, epsilon_tol):
    """Iterations, P*, Q* and structural support of an iterate-delta run
    whose couplings, moves and zero record span all n x m entries."""
    z_tol = Z_TOL_FACTOR * total_mass(mu)
    kernel = _LogIteration(r, mu, nu)
    below = np.zeros(r.shape, dtype=np.int64)
    prev = None
    for n in range(1, 100_001):
        kernel.step()
        p, q = _dense_couplings(kernel)
        below = (below + 1) * (p < z_tol)
        if prev is not None and max(tv_distance(p, prev[0]), tv_distance(q, prev[1])) <= epsilon_tol:
            break
        prev = p, q
    return n, p, q, (r > 0) & (below < min(sinkhorn._ZERO_STREAK, n))


def test_bench_staircases_match_the_dense_run():
    # the benchmark's three relabelled 100x100 staircases at seed 1
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    iterations = []
    for n_blocks in workloads.STAIRCASE_BLOCKS:
        r, mu, nu, _ = workloads._permuted(1000 + n_blocks, *workloads._staircase(100, n_blocks))
        rep = run_sinkhorn(r, mu, nu, StopConfig(epsilon_tol=1e-11 * 100))
        n, p, q, structural = _dense_reference_run(r, mu, nu, 1e-11 * 100)
        assert rep.iterations == n
        assert rep.p_star.tobytes() == p.tobytes() and rep.q_star.tobytes() == q.tobytes()
        assert np.array_equal(rep.structural_support, structural) and not structural.all()
        iterations.append(n)
    assert iterations == [195, 482, 1323]


def test_standalone_linear_step_eventually_overflows(appendix):
    # the literal recursion keeps no defence of its own: its first float
    # overflow raises, without a RuntimeWarning, and overflow_flag is left
    # to run_sinkhorn's absorptions
    r, mu, nu = appendix
    state = init_state(3, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowDetected, match="step 1023"):
            for _ in range(1100):
                state = sinkhorn_step(state, r, mu, nu)
    assert state.iteration == 1022
    assert not state.overflow_flag


def test_literal_step_potentials_are_a_n_and_b_n(appendix):
    # at step 600 a_3 is near 1e181 and b_3 near 1e-181; the potentials are
    # still those of the recursion itself, not a rescaled pair
    r, mu, nu = appendix
    state = _steps(r, mu, nu, 600)
    u, v_prev, v = _log_domain_potentials(r, mu, nu, 600)
    for got, log_want in ((state.a, u), (state.b_prev, v_prev), (state.b, v)):
        np.testing.assert_allclose(got, np.exp(log_want), rtol=1e-11, atol=0)


@pytest.mark.parametrize("instance, cfg", [
    # detect_limit_support's run: ends on the stall exit, whose test reads
    # the record
    ("appendix", StopConfig(epsilon_tol=0.0, max_iter=50_000, mode="iterate-delta")),
    ("staircase10", StopConfig(epsilon_tol=1e-9, max_iter=100_000, mode="iterate-delta")),
    # structural zeros after 29 iterations, fewer than the streak length
    ("massless", StopConfig(epsilon_tol=0.0, max_iter=5000, mode="iterate-delta")),
], ids=["appendix-detect", "staircase10", "massless-stall"])
def test_zero_record_matches_int64_counter(instance, cfg, appendix):
    r, mu, nu = _named_instance(instance, appendix)
    rep = run_sinkhorn(r, mu, nu, cfg)
    iterations, trace, structural = reference_zero_loop(r, mu, nu, cfg)
    assert rep.iterations == iterations
    # at threshold 0 too, the runs end before the cap
    assert iterations < cfg.max_iter
    assert rep.gap_trace == trace
    assert np.array_equal(rep.structural_support, structural)
    assert not structural.all()


def test_stop_reason(appendix):
    r, mu, nu = appendix
    capped = run_sinkhorn(r, mu, nu, StopConfig(epsilon_tol=0.0, max_iter=50))
    assert (capped.stop_reason, capped.converged, capped.iterations) == ("max_iter", False, 50)
    _, stalled = detect_limit_support(r, mu, nu)
    assert stalled.stop_reason == "stall" and stalled.iterations < 50_000
    default = run_sinkhorn(r, mu, nu)
    assert default.stop_reason == "criterion" and default.converged


def test_zero_record_holds_back_the_stall(appendix, monkeypatch):
    # at z_tol = 1e-40 M(mu) the two vanishing entries of the worked example
    # cross the threshold after the moves have stalled: the exit waits until
    # both have stayed below it for 50 iterations
    monkeypatch.setattr(sinkhorn, "Z_TOL_FACTOR", 1e-40)
    r, mu, nu = appendix
    mask, rep = detect_limit_support(r, mu, nu)
    cfg = StopConfig(epsilon_tol=0.0, max_iter=50_000, mode="iterate-delta")
    iterations, _, structural = reference_zero_loop(r, mu, nu, cfg)
    assert rep.iterations == iterations == 149
    assert np.array_equal(mask, structural) and np.array_equal(mask, S_MASK)


def test_zero_record_streak_boundary(appendix):
    # P^n_02 first falls below z_tol at iteration n0: a structural zero in
    # the run of n0 + 49 iterations (50 masks below), not in that of n0 + 48
    r, mu, nu = appendix
    kernel, n0 = _LogIteration(r, mu, nu), 0
    while not kernel.scatter(kernel.couplings()[0])[0, 2] < Z_TOL_FACTOR * mu.sum():
        kernel.step()
        n0 += 1
    assert n0 + 48 > 50  # both runs are longer than the streak
    for extra, survives in ((48, True), (49, False)):
        cfg = StopConfig(epsilon_tol=0.0, max_iter=n0 + extra, mode="iterate-delta")
        rep = run_sinkhorn(r, mu, nu, cfg)
        assert rep.structural_support[0, 2] == survives
        assert np.array_equal(rep.structural_support, reference_zero_loop(r, mu, nu, cfg)[2])


def test_huge_mass_raises_overflow_detected(appendix, monkeypatch):
    # masses near the float limit overflow the absorbed kernel's matrix-vector
    # products; the run stops there, without a RuntimeWarning
    steps = []
    step = _LogIteration.step
    monkeypatch.setattr(_LogIteration, "step", lambda kernel: (steps.append(1), step(kernel)))
    r, mu, nu = appendix
    cfg = StopConfig(epsilon_tol=1e-13, max_iter=200_000, mode="iterate-delta")
    with pytest.raises(OverflowDetected):
        run_sinkhorn(r, mu * 1e300, nu * 1e300, cfg)
    assert len(steps) < 100


# Invariances of the limit couplings P*, Q*, each run to a move below
# 1e-13 M(mu) and compared to 1e-12 M(mu).


def _invariance_cases():
    rng = np.random.default_rng(2024)
    return [appendix_a_instance(), staircase_instance(12, [4, 4, 4], block_ratio_schedule(3))[:3],
            *(random_instance(rng, max_n=6, full_support=True) for _ in range(3))]


INVARIANCE_CASES = _invariance_cases()


def _limit_report(r, mu, nu, tol=None):
    tol = 1e-13 * max(mu.sum(), 1.0) if tol is None else tol
    rep = run_sinkhorn(r, mu, nu, StopConfig(epsilon_tol=tol, max_iter=20_000, mode="iterate-delta"))
    assert rep.converged
    return rep


def _limits(r, mu, nu, tol=None):
    rep = _limit_report(r, mu, nu, tol)
    return rep.p_star, rep.q_star


def _assert_close(got, want, mu):
    assert np.abs(got - want).max() <= 1e-12 * max(mu.sum(), 1.0)


@settings(max_examples=40, deadline=None)
@given(case=st.integers(0, len(INVARIANCE_CASES) - 1), seed=st.integers(0, 2**32 - 1))
def test_limits_follow_permutation(case, seed):
    r, mu, nu = INVARIANCE_CASES[case]
    rng = np.random.default_rng(seed)
    pr, pc = rng.permutation(r.shape[0]), rng.permutation(r.shape[1])
    p, q = _limits(r, mu, nu)
    p_perm, q_perm = _limits(r[np.ix_(pr, pc)], mu[pr], nu[pc])
    _assert_close(p_perm, p[np.ix_(pr, pc)], mu)
    _assert_close(q_perm, q[np.ix_(pr, pc)], mu)


@settings(max_examples=10, deadline=None)
@given(case=st.integers(0, len(INVARIANCE_CASES) - 1))
def test_limits_follow_transposition(case):
    # P*(R^T, nu, mu) = Q*(R, mu, nu)^T and the other way round
    r, mu, nu = INVARIANCE_CASES[case]
    p, q = _limits(r, mu, nu)
    p_t, q_t = _limits(r.T, nu, mu)
    _assert_close(p_t, q.T, mu)
    _assert_close(q_t, p.T, mu)


@settings(max_examples=40, deadline=None)
@given(case=st.integers(0, len(INVARIANCE_CASES) - 1), k=st.integers(-100, 100),
       mantissa=st.floats(1.0, 10.0))
def test_limits_ignore_reference_scale(case, k, mantissa):
    r, mu, nu = INVARIANCE_CASES[case]
    p, q = _limits(r, mu, nu)
    p_c, q_c = _limits(mantissa * 10.0 ** k * r, mu, nu)
    _assert_close(p_c, p, mu)
    _assert_close(q_c, q, mu)


@settings(max_examples=40, deadline=None)
@given(case=st.integers(0, len(INVARIANCE_CASES) - 1), k=st.integers(-287, 287))
def test_limits_scale_with_mass(case, k):
    # the stop threshold scales with the mass: unscaled, a mass of 1e-100
    # moves by less than 1e-13 from the second iteration on.  At 10^288 the
    # worked example and the staircase overflow (OverflowDetected); below
    # 10^-289 the staircase's masses are subnormal
    r, mu, nu = INVARIANCE_CASES[case]
    scale = 10.0 ** k
    want = _limit_report(r, mu, nu)
    got = _limit_report(r, scale * mu, scale * nu, tol=scale * 1e-13 * max(mu.sum(), 1.0))
    for name in ("p_star", "q_star", "r_star", "mu_g", "nu_g"):
        _assert_close(getattr(got, name) / scale, getattr(want, name), mu)
    assert got.z_norm / scale == pytest.approx(want.z_norm, rel=1e-12, abs=0)


def test_subnormal_masses_raise_overflow_detected():
    # at (mu, nu)·1e-300 a denominator of the staircase's updates underflows
    # to 0 at iteration 76: the run went on after a divide-by-zero
    # RuntimeWarning, and now raises
    r, mu, nu = INVARIANCE_CASES[1]
    scale = 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowDetected, match="a float left its range at iteration 76"):
            run_sinkhorn(r, scale * mu, scale * nu, StopConfig(epsilon_tol=1e-12 * scale * mu.sum()))


@pytest.mark.parametrize("k", [154, 200, 250])
def test_geometric_means_finite_near_float_limit(k):
    # p q overflows from 10^154: R*, z_norm, mu_g and nu_g were inf and
    # r_bar_star NaN, with RuntimeWarnings only
    r, mu, nu = appendix_a_instance()
    scale = 10.0 ** k
    want = run_sinkhorn(r, mu, nu, StopConfig(epsilon_tol=1e-3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_sinkhorn(r, scale * mu, scale * nu, StopConfig(epsilon_tol=1e-3 * scale))
    assert got.iterations == want.iterations
    # to 1e-15 of the largest entry, as small entries carry their own roundoff
    for name, unit in (("r_star", scale), ("mu_g", scale), ("nu_g", scale), ("r_bar_star", 1.0)):
        ref = getattr(want, name)
        np.testing.assert_allclose(getattr(got, name) / unit, ref, rtol=0, atol=1e-15 * ref.max())
    assert got.z_norm / scale == pytest.approx(want.z_norm, rel=1e-15, abs=0)
