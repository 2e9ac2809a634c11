"""The benchmark's workloads.

Each workload is built from a seed into a list of tasks.  A task calls the
package through its public functions, one call per task, and may read the
outputs of earlier tasks of the same pass.  Its check raises
:class:`CheckFailed` (or any other exception) when the output is wrong.

The functions are bound here at module level, so that the traced run can
wrap them where the benchmark binds them, exactly as it wraps the bindings
inside the package.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from degensink.experiments import classify_with_fallback
from degensink.instances import (
    KIND_RANDOM,
    InstanceSpec,
    appendix_a_instance,
    block_ratio_schedule,
    gen_instance,
    staircase_instance,
)
from degensink.scalability import classify_exact, feasibility_flow
from degensink.sinkhorn import StopConfig, run_sinkhorn
from degensink.support import approx_support_algorithm1, exact_support_procedure, masked_solve
from degensink.unbalanced import (
    SIDE_BOTH,
    SIDE_SECOND,
    PenaltyConfig,
    solve_schu_lambda,
    solve_two_sided,
    stationarity_residual,
    sweep_epsilon,
    sweep_lambda,
)
import degensink.unbalanced as unbalanced_module

STAIRCASE_SIZE = 100
STAIRCASE_BLOCKS = (4, 6, 10)
FIG6_SIZE = 100
LAMBDAS = (1.0, 10.0, 100.0, 1e3)
SCHU_LAMBDAS = (10.0, 100.0, 1e3)
FILL_EPSILONS = (1e-1, 1e-2, 1e-3)


class CheckFailed(AssertionError):
    """A task's output failed its correctness predicate."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Task:
    """One call into the package.  ``run(outputs)`` returns the output;
    ``check(output, outputs)`` raises when it is wrong.  ``outputs`` maps
    the names of the pass's earlier tasks to their outputs."""

    name: str
    run: Callable
    check: Callable


def _permuted(seed, r, mu, nu, support=None):
    """Relabel rows and columns at random: the limits, supports and
    classifications are equivariant, so the seed varies the input arrays
    without changing the work the solvers have to do."""
    rng = np.random.default_rng(seed)
    pr = rng.permutation(r.shape[0])
    pc = rng.permutation(r.shape[1])
    out = (r[np.ix_(pr, pc)], mu[pr], nu[pc])
    if support is not None:
        out += (support[np.ix_(pr, pc)],)
    return out


def _staircase(n, n_blocks):
    sizes = [n // n_blocks + (1 if i < n % n_blocks else 0) for i in range(n_blocks)]
    r, mu, nu, support, _ = staircase_instance(n, sizes, block_ratio_schedule(n_blocks))
    return r, mu, nu, support


def _random_instance(rng, n_rows, n_cols, density):
    spec = InstanceSpec(KIND_RANDOM, n_rows, n_cols, density=density,
                        seed=int(rng.integers(1 << 30)))
    return gen_instance(spec)


def _max_abs(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


# --------------------------------------------------------------------------
# Staircases: plain solve, Algorithm 1, masked solve with rate fit.


def _staircase_tasks(seed):
    tasks = []
    for n_blocks in STAIRCASE_BLOCKS:
        r, mu, nu, support = _permuted(seed * 1000 + n_blocks, *_staircase(STAIRCASE_SIZE, n_blocks))
        cfg = StopConfig(epsilon_tol=1e-11 * STAIRCASE_SIZE, max_iter=100_000, mode="iterate-delta")
        tag = f"b{n_blocks}"
        tasks += [
            Task(f"{tag}.plain",
                 lambda out, r=r, mu=mu, nu=nu, cfg=cfg: run_sinkhorn(r, mu, nu, cfg),
                 lambda rep, out: expect(rep.converged, "plain solve did not converge")),
            Task(f"{tag}.algorithm1",
                 lambda out, r=r, mu=mu, nu=nu: approx_support_algorithm1(r, mu, nu),
                 lambda res, out, support=support: (
                     expect(res.converged, "Algorithm 1 did not converge"),
                     expect(np.array_equal(res.mask, support),
                            "Algorithm 1 mask differs from the generator's support"))),
            Task(f"{tag}.masked",
                 lambda out, r=r, mu=mu, nu=nu, cfg=cfg, tag=tag:
                     masked_solve(r, mu, nu, out[f"{tag}.algorithm1"].mask, cfg),
                 lambda rep, out, tag=tag: _check_masked(rep, out[f"{tag}.plain"])),
        ]
    return tasks


def _check_masked(masked, plain):
    expect(masked.rate_r_squared is not None and masked.rate_r_squared > 0.99,
           f"rate fit R^2 = {masked.rate_r_squared}")
    expect(_max_abs(masked.p_star, plain.p_star) <= 1e-6, "masked P* differs from the plain solve")
    expect(_max_abs(masked.q_star, plain.q_star) <= 1e-6, "masked Q* differs from the plain solve")


# --------------------------------------------------------------------------
# Penalized: the two-block fig6 staircase under every relaxation.


def _capture_two_sided(sink):
    """Run ``sweep_lambda`` with its solutions recorded into ``sink``: the
    sweep returns only distances, and the stationarity check needs the
    solutions themselves."""
    inner = unbalanced_module.solve_two_sided

    def recording(r, mu, nu, cfg):
        p = inner(r, mu, nu, cfg)
        sink.append((cfg.lam, p))
        return p

    return recording


def _sweep_lambda_keeping_solutions(r, mu, nu, r_star):
    solutions = []
    saved = unbalanced_module.solve_two_sided
    unbalanced_module.solve_two_sided = _capture_two_sided(solutions)
    try:
        rows = sweep_lambda(r, mu, nu, LAMBDAS, r_star=r_star)
    finally:
        unbalanced_module.solve_two_sided = saved
    return rows, solutions


def _check_sweep_lambda(result, r, mu, nu):
    rows, solutions = result
    tvs = [tv for _, tv in rows]
    expect([lam for lam, _ in rows] == sorted(LAMBDAS), "sweep rows are not the requested lambdas")
    expect(all(b < a for a, b in zip(tvs, tvs[1:])), f"TV to R* does not decrease in lambda: {tvs}")
    tol = 1e-8 * max(mu.sum(), nu.sum(), 1.0)
    expect(len(solutions) == len(LAMBDAS), "sweep did not return one solution per lambda")
    for lam, p in solutions:
        res = stationarity_residual(p, r, mu, nu, lam)
        expect(res <= tol, f"stationarity residual {res:.3g} at lambda={lam:g}")


def _penalized_tasks(seed):
    half = FIG6_SIZE // 2
    r, mu, nu, _, _ = staircase_instance(FIG6_SIZE, [half, FIG6_SIZE - half], block_ratio_schedule(2))
    r, mu, nu = _permuted(seed, r, mu, nu)
    limit_cfg = StopConfig(epsilon_tol=1e-12 * FIG6_SIZE, max_iter=100_000, mode="iterate-delta")
    tasks = [
        Task("limit", lambda out: run_sinkhorn(r, mu, nu, limit_cfg),
             lambda rep, out: expect(rep.converged, "constrained limit did not converge")),
        Task("sweep_lambda",
             lambda out: _sweep_lambda_keeping_solutions(r, mu, nu, out["limit"].r_star),
             lambda res, out: _check_sweep_lambda(res, r, mu, nu)),
    ]
    for lam in SCHU_LAMBDAS:
        tasks.append(Task(
            f"schu.lam{lam:g}",
            lambda out, lam=lam: solve_schu_lambda(r, mu, nu, PenaltyConfig(lam=lam, sides=SIDE_SECOND)),
            lambda p, out: expect(_max_abs(p.sum(axis=1), mu) <= 1e-9,
                                  "one-sided solution's first marginal differs from mu")))
    tasks.append(Task(
        "sweep_epsilon",
        lambda out: sweep_epsilon(r, mu, nu, FILL_EPSILONS, r_star=out["limit"].r_star),
        lambda rows, out: expect(
            [eps for eps, _, _ in rows] == sorted(FILL_EPSILONS, reverse=True)
            and all(math.isfinite(tv) and tv > 0 and its < 200_000 for _, tv, its in rows),
            f"filled-reference sweep rows are malformed: {rows}")))
    return tasks


# --------------------------------------------------------------------------
# structure: subset enumeration and max-flow, no scaling at all.


def _feasible_random(rng, n, density):
    """Random instance on which ``feasibility_flow`` holds, so that
    ``classify_exact`` runs both of its enumeration passes."""
    while True:
        r, mu, nu = _random_instance(rng, n, n, density)
        if feasibility_flow(r, mu, nu):
            return r, mu, nu


def _check_agrees_with_flow(cls, r, mu, nu):
    feasible = feasibility_flow(r, mu, nu)
    expect((cls.base_tag == "NonScalable") == (not feasible),
           f"classification {cls.tag} disagrees with max-flow feasibility {feasible}")
    if cls.witness is not None and cls.base_tag == "NonScalable":
        rows = list(cls.witness)
        image = np.nonzero((r[rows] > 0).any(axis=0))[0]
        expect(mu[rows].sum() > nu[image].sum(), "NonScalable witness satisfies Hall's condition")


def structure(seed):
    rng = np.random.default_rng(seed)
    tasks = []
    cases = [(f"rand{n}", _feasible_random(rng, n, 0.8)) for n in (14, 16)]
    r, mu, nu, _ = _staircase(16, 3)
    cases.append(("stair16.b3", _permuted(seed + 1, r, mu, nu)))
    for name, (r, mu, nu) in cases:
        tasks.append(Task(f"{name}.classify",
                          lambda out, r=r, mu=mu, nu=nu: classify_exact(r, mu, nu),
                          lambda cls, out, r=r, mu=mu, nu=nu: _check_agrees_with_flow(cls, r, mu, nu)))
    for n_blocks in (3, 4, 5):
        r, mu, nu, support = _permuted(seed + n_blocks, *_staircase(16, n_blocks))
        tasks.append(Task(f"exact.b{n_blocks}",
                          lambda out, r=r, mu=mu, nu=nu: exact_support_procedure(r, mu, nu),
                          lambda tr, out, support=support: expect(
                              np.array_equal(tr.final_mask, support),
                              "exact support differs from the generator's support")))
    # Both 200x200 instances are feasible, so the fallback decides them by
    # max-flow.  A NonScalable one above the enumeration cap is left out:
    # its min-cut witness is sometimes wrong (bench/known_defects.py).
    big = [("fallback.staircase200", _permuted(seed + 200, *_staircase(200, 1)[:3])),
           ("fallback.random200", _random_instance(rng, 200, 200, 0.5))]
    for name, (r, mu, nu) in big:
        tasks.append(Task(name,
                          lambda out, r=r, mu=mu, nu=nu: classify_with_fallback(r, mu, nu),
                          lambda cls, out, r=r, mu=mu, nu=nu: _check_agrees_with_flow(cls, r, mu, nu)))
    return tasks


def scaling(seed):
    """Every scaling solver: the staircase tasks (the ``sinkhorn`` and
    ``measures`` layers, in the scaled and the log domain) followed by the
    penalized ones (the ``unbalanced`` layer).  They share one workload so
    that each of the two workloads gets runs of a minute: on a shared
    machine, shorter runs often fell wholly inside a minutes-long stretch
    of contention."""
    return _staircase_tasks(seed) + _penalized_tasks(seed)


WORKLOADS = {
    "scaling": scaling,
    "structure": structure,
}


def warm_up():
    """Call every function the workloads use once on the 3x3 worked
    example, so that lazy imports and first-call set-up are paid before
    timing."""
    r, mu, nu = appendix_a_instance()
    cfg = StopConfig(epsilon_tol=1e-9, max_iter=200, mode="iterate-delta")
    rep = run_sinkhorn(r, mu, nu, cfg)
    res = approx_support_algorithm1(r, mu, nu)
    masked_solve(r, mu, nu, res.mask, cfg)
    exact_support_procedure(r, mu, nu)
    classify_exact(r, mu, nu)
    classify_with_fallback(r, mu, nu)
    solve_two_sided(r, mu, nu, PenaltyConfig(lam=1.0, sides=SIDE_BOTH))
    solve_schu_lambda(r, mu, nu, PenaltyConfig(lam=1.0, sides=SIDE_SECOND))
    sweep_epsilon(r, mu, nu, [0.1], r_star=rep.r_star)
    rb, mub, nub = _random_instance(np.random.default_rng(0), 4, 4, 0.9)
    feasibility_flow(rb, mub, nub)
