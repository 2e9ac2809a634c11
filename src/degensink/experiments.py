"""Worked-example reproduction and the two experiment harnesses
(iteration counts vs number of extra limit zeros; total-variation
distance of penalized / filled-reference solutions to the limit).
"""

import io

import numpy as np

from .instances import (
    InstanceSpec,
    KIND_STAIRCASE,
    appendix_a_instance,
    block_ratio_schedule,
    gen_instance,
    staircase_instance,
)
from .measures import total_mass, tv_distance
from .sinkhorn import (
    Z_TOL_FACTOR,
    StopConfig,
    _LogIteration,
    current_P,
    current_Q,
    init_state,
    run_sinkhorn,
    sinkhorn_step,
)
from .support import approx_support_algorithm1, default_thresholds, masked_solve
from .unbalanced import sweep_epsilon, sweep_lambda
from .scalability import (
    APPROXIMATELY_SCALABLE,
    _UNBALANCED_TAG,
    ScalabilityClass,
    _is_unbalanced,
    classify_exact,
    feasibility_flow,  # noqa: F401  (bench/spans.py traces it under this module)
)
from .errors import DimensionTooLarge

__all__ = [
    "appendix_a_checkpoints",
    "run_appendix_a",
    "experiment_iterations_vs_zeros",
    "experiment_fig6",
    "ITERATIONS_CSV_HEADER",
    "LAMBDA_CSV_HEADER",
    "EPSILON_CSV_HEADER",
]

ITERATIONS_CSV_HEADER = "n_blocks,extra_zeros,iters_plain,iters_naive,iters_preproc"
LAMBDA_CSV_HEADER = "lambda,tv"
EPSILON_CSV_HEADER = "epsilon,tv,iterations"

APPENDIX_CHECKPOINTS = (1, 2, 5, 11, 80, 81)
LAMBDAS = (1.0, 10.0, 100.0, 1e3, 1e4)
EPSILONS = (1e-1, 1e-2, 1e-3)


def appendix_a_checkpoints():
    """Potentials and couplings of the worked example at the half-step
    counts ``APPENDIX_CHECKPOINTS``.

    Half-step 2m-1 is the m-th a-update (exposing a^m, b^{m-1}, P^m) and
    half-step 2m the m-th b-update (a^m, b^m, Q^m); this matches the
    worked example's usual iteration numbering.  Returns a dict keyed by
    half-step with entries ``a``, ``b`` and ``P`` or ``Q``.
    """
    r, mu, nu = appendix_a_instance()
    wanted = set(APPENDIX_CHECKPOINTS)
    out = {}
    state = init_state(3, 3)
    for m in range(1, (max(wanted) + 1) // 2 + 1):
        state = sinkhorn_step(state, r, mu, nu)
        if 2 * m - 1 in wanted:
            out[2 * m - 1] = {"a": state.a, "b": state.b_prev, "P": current_P(state, r)}
        if 2 * m in wanted:
            out[2 * m] = {"a": state.a, "b": state.b, "Q": current_Q(state, r)}
    return out


def _fmt(arr):
    return np.array2string(np.asarray(arr), precision=2, suppress_small=False,
                           formatter={"float_kind": lambda x: f"{x:.2g}"})


def run_appendix_a():
    """Reproduce the worked example: iterate snapshots at half-steps
    1, 2, 5, 11, 80, 81 plus the closed-form limits.  Returns the report
    as a string."""
    buf = io.StringIO()
    snaps = appendix_a_checkpoints()
    for k in sorted(snaps):
        entry = snaps[k]
        kind = "P" if "P" in entry else "Q"
        buf.write(f"Iteration {k}:\n")
        buf.write(f"  a = {_fmt(entry['a'])}\n")
        buf.write(f"  b = {_fmt(entry['b'])}\n")
        buf.write(f"  {kind} =\n")
        for row in entry[kind]:
            buf.write(f"    {_fmt(row)}\n")
    r, mu, nu = appendix_a_instance()
    report = run_sinkhorn(r, mu, nu, StopConfig(epsilon_tol=1e-13 * total_mass(mu),
                                                max_iter=5000, mode="iterate-delta"))
    z_tol = Z_TOL_FACTOR * total_mass(mu)
    for name, mat in (("P*", report.p_star), ("Q*", report.q_star), ("R*", report.r_star)):
        buf.write(f"{name} =\n")
        for row in np.where(np.abs(mat) < z_tol, 0.0, mat):
            buf.write(f"    {_fmt(row)}\n")
    buf.write(f"Z = {report.z_norm:.6g}\n")
    return buf.getvalue()


def _naive_threshold_solve(r, mu, nu, cfg):
    """Scaling run that permanently zeroes reference entries whose scaling
    density a_i b_j falls below the minimal factor m_i (per-entry variant
    of the row-dropping detector): after each step the kernel is
    restricted to the live entries with u_i + v_j >= log m_i.  Stops on
    the successive-iterate criterion of ``cfg``.  Returns
    (P, Q, reference_used, iterations)."""
    r = np.asarray(r, dtype=float)
    log_m = np.log(default_thresholds(r, mu))[:, None]
    kernel = _LogIteration(r, mu, nu)
    p_old = q_old = None
    iterations = cfg.max_iter
    for n in range(1, cfg.max_iter + 1):
        kernel.step()
        log_ab = kernel.log_a()[:, None] + kernel.log_b()[None, :]
        kernel.restrict((kernel.log_r > -np.inf) & (log_ab >= log_m))
        p, q = kernel.couplings()
        if p_old is not None and max(tv_distance(p, p_old), tv_distance(q, q_old)) <= cfg.epsilon_tol:
            iterations = n
            break
        p_old, q_old = p, q
    return p, q, r * (kernel.log_r > -np.inf), iterations


def experiment_iterations_vs_zeros(block_range, size=100):
    """Iterations to convergence for the three methods, per block count.

    For each staircase instance: (i) the plain scaling run, (ii) the run
    with naive per-step thresholding of reference entries, (iii) the
    approximate support detector (default stopping rule) followed by the
    masked run (iteration counts of both phases summed).  Also records how
    many support entries of the reference die in the limit.  All three
    solves use the same successive-iterate criterion, at 1e-11 * size, so
    the counts are comparable, and their final couplings agree on
    well-thresholded instances.

    Returns a list of row dicts matching ``ITERATIONS_CSV_HEADER``, plus
    the couplings under key "_p_stars" for cross-method comparisons.
    """
    cfg = StopConfig(epsilon_tol=1e-11 * size, max_iter=100_000, mode="iterate-delta")
    rows = []
    for n_blocks in block_range:
        r, mu, nu = gen_instance(InstanceSpec(KIND_STAIRCASE, size, size, n_blocks=n_blocks))
        plain = run_sinkhorn(r, mu, nu, cfg)
        p_naive, _, _, iters_naive = _naive_threshold_solve(r, mu, nu, cfg)
        approx = approx_support_algorithm1(r, mu, nu)
        masked = masked_solve(r, mu, nu, approx.mask, cfg)
        extra_zeros = int((r > 0).sum() - approx.mask.sum())
        rows.append({
            "n_blocks": int(n_blocks),
            "extra_zeros": extra_zeros,
            "iters_plain": plain.iterations,
            "iters_naive": iters_naive,
            "iters_preproc": approx.inner_iterations + masked.iterations,
            "_p_stars": (plain.p_star, p_naive, masked.p_star),
        })
    return rows


def classify_with_fallback(r, mu, nu):
    """Exact classification when enumeration is feasible, otherwise the
    max-flow feasibility bit.

    :func:`classify_exact` decides every instance above the enumeration
    cap with one max-flow: it returns NonScalable (with a min-cut witness)
    when the flow falls short, and raises DimensionTooLarge only when the
    flow has shown the instance feasible.  That exception is answered here
    with the "at least approximately scalable" tag, ApproximatelyScalable
    or UnbalancedApproximatelyScalable, without a witness and without a
    second flow.
    """
    try:
        return classify_exact(r, mu, nu)
    except DimensionTooLarge:
        tag = APPROXIMATELY_SCALABLE
        if _is_unbalanced(mu, nu):
            tag = _UNBALANCED_TAG[tag]
        return ScalabilityClass(tag=tag)


def experiment_fig6(size=100):
    """Two-block 100x100 comparison: distance of the doubly penalized
    solutions to the geometric-mean limit as the penalty grows through
    ``LAMBDAS``, and of the filled-reference solutions as the fill shrinks
    through ``EPSILONS``.

    The instance has one block with mass ratio above 1 (removed first by
    the reduction) and one below, hence no constrained solution exists.
    Returns ``(lambda_rows, epsilon_rows, classification)``.
    """
    ratios = block_ratio_schedule(2)
    sizes = [size // 2, size - size // 2]
    r, mu, nu, _, _ = staircase_instance(size, sizes, ratios)
    classification = classify_with_fallback(r, mu, nu)
    limit = run_sinkhorn(r, mu, nu, StopConfig(epsilon_tol=1e-12 * size,
                                               max_iter=100_000, mode="iterate-delta"))
    lam_rows = sweep_lambda(r, mu, nu, LAMBDAS, r_star=limit.r_star)
    eps_rows = sweep_epsilon(r, mu, nu, EPSILONS, r_star=limit.r_star)
    return lam_rows, eps_rows, classification
