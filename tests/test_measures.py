import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degensink import (
    InfeasibleProjection,
    OverflowDetected,
    geometric_mean,
    marginal_col,
    marginal_row,
    project_first_marginal,
    rel_entropy,
    rel_entropy_coupling,
    total_mass,
    tv_distance,
)
from degensink import (
    appendix_a_instance,
    approx_support_algorithm1,
    check_assumption1,
    classify_exact,
    default_thresholds,
    epsilon_fill,
    exact_support_procedure,
    feasibility_flow,
    masked_solve,
    penalized_objective,
    potentials_phi_psi,
    run_sinkhorn,
    solve_schu_lambda,
    solve_two_sided,
    stationarity_residual,
)
from degensink.unbalanced import SIDE_SECOND, PenaltyConfig
from conftest import P_STAR, Q_STAR, R_STAR, S_MASK


def test_total_mass():
    assert total_mass([2.0, 2.0, 2.0]) == 6.0
    assert total_mass([]) == 0.0
    assert total_mass([0.5, 0.25]) == 0.75


@pytest.mark.parametrize("entry", [
    pytest.param(lambda r, m: total_mass(m), id="total_mass"),
    pytest.param(lambda r, m: run_sinkhorn(r, m, m), id="run_sinkhorn"),
    pytest.param(lambda r, m: classify_exact(r, m, m), id="classify_exact")])
def test_mass_beyond_float_range_raises_overflow_detected(entry):
    # every weight is finite, but the sum 2e308 is not: math.fsum used to
    # raise a bare OverflowError here
    with pytest.raises(OverflowDetected, match="total mass exceeds the float range"):
        entry(np.ones((2, 2)), np.array([1e308, 1e308]))


def test_marginals_upper_triangular(appendix):
    r, _, _ = appendix
    assert np.array_equal(marginal_row(r), [3.0, 2.0, 1.0])
    assert np.array_equal(marginal_col(r), [1.0, 2.0, 3.0])
    zero = np.zeros((2, 3))
    assert np.array_equal(marginal_row(zero), [0.0, 0.0])
    assert np.array_equal(marginal_col(zero), [0.0, 0.0, 0.0])


def test_rel_entropy_basics():
    assert rel_entropy([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert rel_entropy([1.0, 0.0], [0.0, 1.0]) == math.inf
    assert rel_entropy([2.0, 0.0], [1.0, 1.0]) == pytest.approx(2 * math.log(2))
    with pytest.raises(ValueError):
        rel_entropy([1.0], [1.0, 2.0])


def test_rel_entropy_coupling():
    r = np.ones((2, 2))
    assert rel_entropy_coupling(r, r) == 0.0
    p = r.copy()
    rz = r.copy()
    rz[0, 1] = 0.0
    assert rel_entropy_coupling(p, rz) == math.inf
    # direct evaluation of the definition for P = 2R on all-ones 2x2
    assert rel_entropy_coupling(2 * r, r) == pytest.approx(4 * (2 * math.log(2) - 1))
    with pytest.raises(ValueError):
        rel_entropy_coupling(np.ones((2, 2)), np.ones((2, 3)))


def test_project_first_marginal_appendix(appendix):
    r, mu, _ = appendix
    p1 = project_first_marginal(r, mu)
    expected = np.array([[2 / 3, 2 / 3, 2 / 3], [0, 1, 1], [0, 0, 2.0]])
    np.testing.assert_allclose(p1, expected)
    np.testing.assert_allclose(marginal_row(p1), mu)
    # optimal value identity H(P|R) = H(mu | mu^R)
    assert rel_entropy_coupling(p1, r) == pytest.approx(rel_entropy(mu, marginal_row(r)))


def test_project_first_marginal_identity_and_diag(appendix):
    r, _, _ = appendix
    np.testing.assert_allclose(project_first_marginal(r, marginal_row(r)), r)
    np.testing.assert_allclose(project_first_marginal(np.eye(2), [3.0, 5.0]), np.diag([3.0, 5.0]))
    with pytest.raises(InfeasibleProjection):
        project_first_marginal(np.diag([1.0, 0.0]), np.array([1.0, 1.0]))


def test_geometric_mean(appendix):
    np.testing.assert_allclose(geometric_mean(P_STAR, Q_STAR), R_STAR)
    p = np.array([[1.0, 4.0]])
    np.testing.assert_allclose(geometric_mean(p, p), p)
    np.testing.assert_allclose(geometric_mean([[1.0, 4.0]], [[9.0, 1.0]]), [[3.0, 2.0]])


def test_tv_distance():
    assert tv_distance(P_STAR, P_STAR) == 0.0
    assert tv_distance(P_STAR, Q_STAR) == pytest.approx(2.0)
    assert tv_distance([[1.0]], [[0.0]]) == 1.0
    # solvers call it every iteration, so it checks only its result:
    # negative entries pass, NaN and infinite ones do not
    assert tv_distance([[-1.0, 2.0]], [[0.0, 0.0]]) == 3.0
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            tv_distance([[bad, 1.0]], [[0.0, 1.0]])


# ---------------------------------------------------------------------------
# invariants

@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_entropy_nonnegative_zero_iff_equal(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    r = rng.uniform(0.1, 3.0, n)
    p = rng.uniform(0.0, 3.0, n)
    h = rel_entropy(p, r)
    assert h >= 0.0
    assert rel_entropy(r, r) == 0.0
    if h == 0.0:
        np.testing.assert_allclose(p, r, atol=1e-12)


def _legendre_sides(z, p, r):
    # <Z, p> with -inf * 0 = 0; H(p|r) + <e^Z - 1, r>
    sup_p = p > 0
    lhs = float(np.sum(z[sup_p] * p[sup_p]))
    rhs = rel_entropy(p, r) + float(np.sum((np.exp(z) - 1.0) * r))
    return lhs, rhs


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=80, deadline=None)
def test_legendre_inequality_and_equality(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    r = np.where(rng.random(n) < 0.8, rng.uniform(0.05, 3.0, n), 0.0)
    p = np.where(rng.random(n) < 0.8, rng.uniform(0.0, 3.0, n), 0.0) * (r > 0)
    z = rng.normal(0.0, 1.5, n)
    z[rng.random(n) < 0.15] = -math.inf
    lhs, rhs = _legendre_sides(z, p, r)
    assert lhs <= rhs + 1e-10
    # equality case: Z = log(p/r) on supp r (log(0/a) = -inf)
    zeq = np.full(n, -math.inf)
    sup = r > 0
    with np.errstate(divide="ignore"):
        zeq[sup] = np.log(np.where(sup, p, 1.0)[sup] / r[sup])
    lhs_eq, rhs_eq = _legendre_sides(zeq, p, r)
    assert lhs_eq == pytest.approx(rhs_eq, abs=1e-10)


def test_data_processing_inequality():
    rng = np.random.default_rng(4)
    for _ in range(200):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        r = rng.uniform(0.05, 2.0, shape)
        p = rng.uniform(0.0, 2.0, shape)
        h = rel_entropy_coupling(p, r)
        assert rel_entropy(marginal_row(p), marginal_row(r)) <= h + 1e-10
        assert rel_entropy(marginal_col(p), marginal_col(r)) <= h + 1e-10


def test_projection_is_entropy_minimizer():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        r = rng.uniform(0.1, 2.0, (n, m))
        mu = rng.uniform(0.2, 2.0, n)
        p = project_first_marginal(r, mu)
        base = rel_entropy_coupling(p, r)
        for _ in range(8):
            delta = rng.normal(0.0, 1.0, (n, m))
            delta -= delta.mean(axis=1, keepdims=True)  # row sums zero
            scale = 1e-3 / max(np.abs(delta).max(), 1e-9)
            cand = p + scale * delta
            if (cand < 0).any():
                continue
            assert rel_entropy_coupling(cand, r) >= base - 1e-12


def test_projection_conserves_mass():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = rng.uniform(0.0, 2.0, (3, 4))
        r[0, 0] = 1.0
        mu = rng.uniform(0.0, 2.0, 3) * (marginal_row(r) > 0)
        p = project_first_marginal(r, mu)
        assert total_mass(p) == pytest.approx(total_mass(mu), abs=1e-12)


ENTRY_POINTS = {
    "run_sinkhorn": run_sinkhorn,
    "solve_schu_lambda": lambda r, mu, nu: solve_schu_lambda(
        r, mu, nu, PenaltyConfig(lam=10.0, sides=SIDE_SECOND)),
    "solve_two_sided": lambda r, mu, nu: solve_two_sided(r, mu, nu, PenaltyConfig(lam=10.0)),
    "approx_support_algorithm1": approx_support_algorithm1,
    "exact_support_procedure": exact_support_procedure,
    "classify_exact": classify_exact,
    "check_assumption1": check_assumption1,
    "feasibility_flow": feasibility_flow,
    "default_thresholds": lambda r, mu, nu: default_thresholds(r, mu),
    "masked_solve": lambda r, mu, nu: masked_solve(r, mu, nu, S_MASK),
    "epsilon_fill": lambda r, mu, nu: epsilon_fill(r, 0.1),
    "stationarity_residual": lambda r, mu, nu: stationarity_residual(P_STAR, r, mu, nu, 10.0),
    "penalized_objective": lambda r, mu, nu: penalized_objective(P_STAR, r, mu, nu, 10.0),
    "project_first_marginal": lambda r, mu, nu: project_first_marginal(r, mu),
    # mu on one side, R on the other
    "rel_entropy": lambda r, mu, nu: rel_entropy(mu, r[0]),
    "rel_entropy_coupling": lambda r, mu, nu: rel_entropy_coupling(np.outer(mu, nu), r),
    "geometric_mean": lambda r, mu, nu: geometric_mean(r, np.outer(mu, nu)),
    # a NaN in mu gave a NaN phi
    "potentials_phi_psi": lambda r, mu, nu: potentials_phi_psi(run_sinkhorn(*appendix_a_instance()), mu, nu),
}
NOT_TAKEN = {"epsilon_fill": "mu", "potentials_phi_psi": "R"}  # the argument it does not take


@pytest.mark.parametrize("bad, where, entry", [
    pytest.param(bad, where, entry, id=f"{bad_id}-{where}-{entry}")
    for entry in sorted(ENTRY_POINTS)
    for where in ("R", "mu") if NOT_TAKEN.get(entry) != where
    for bad, bad_id in ((math.nan, "nan"), (math.inf, "inf"), (-1.0, "negative"))])
def test_entry_points_reject_invalid_input(entry, where, bad, appendix):
    r, mu, nu = (np.array(x, dtype=float) for x in appendix)
    if where == "R":
        r[0, 0] = bad
    else:
        mu[1] = bad
    with pytest.raises(ValueError):
        ENTRY_POINTS[entry](r, mu, nu)
