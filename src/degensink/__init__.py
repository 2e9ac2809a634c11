"""Sinkhorn scaling for entropy-minimization (matrix scaling) problems
whose reference coupling has zero entries, including the regime where no
coupling with the prescribed marginals exists: the iteration then
alternates toward two limit points, whose componentwise geometric mean
solves the marginally penalized relaxation in the infinite-penalty limit.

The package provides the scaling solver with its stopping criterion, exact
and flow-based feasibility classification, exact and approximate limit-
support detection, the penalized (unbalanced) solvers, instance
generators, and the experiment harnesses behind the numerical studies.
"""

from .errors import (
    Assumption1Violated,
    Assumption2Violated,
    DegensinkError,
    InfeasibleProjection,
    NotConverged,
    OverflowDetected,
)
from .measures import (
    as_coupling,
    as_measure,
    geometric_mean,
    marginal_col,
    marginal_row,
    project_first_marginal,
    rel_entropy,
    rel_entropy_coupling,
    total_mass,
    tv_distance,
)
from .scalability import (
    ScalabilityClass,
    check_assumption1,
    classify_exact,
    connected_components,
    feasibility_flow,
    support_graph,
)
from .sinkhorn import (
    OptimalityDiagnostics,
    SinkhornState,
    SolveReport,
    StopConfig,
    check_optimality,
    current_P,
    current_Q,
    init_state,
    potentials_phi_psi,
    run_sinkhorn,
    sinkhorn_step,
)
from .support import (
    Algorithm1Result,
    ProcedureTrace,
    ThetaSetResult,
    approx_support_algorithm1,
    default_thresholds,
    exact_support_procedure,
    masked_solve,
    maximal_theta,
)
from .unbalanced import (
    PenaltyConfig,
    epsilon_fill,
    penalized_objective,
    solve_schu_lambda,
    solve_two_sided,
    stationarity_residual,
    sweep_epsilon,
    sweep_lambda,
)
from .instances import (
    InstanceSpec,
    appendix_a_instance,
    gen_instance,
    load_instance,
    staircase_instance,
)

__version__ = "0.1.0"
