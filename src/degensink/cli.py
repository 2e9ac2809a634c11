"""Command-line interface.

    degensink solve     --instance f.json [--tol T --lambda L --max-iter N --stop gap|delta --emit report|trace]
    degensink classify  --instance f.json
    degensink support   --instance f.json [--method exact|approx --tol T --emit-trace]
    degensink experiment tv-vs-lambda|tv-vs-epsilon|iterations-vs-zeros|fig6 ...
    degensink appendix-a

Instances come from ``--instance file.json`` or ``--gen kind=...,n=...``
(kinds: upper, staircase, random).  Output goes to stdout or ``--out``.
The ``solve`` report carries the classification of ``classify``: above
the enumeration cap a feasible instance is tagged (Unbalanced)
ApproximatelyScalable from the same max-flow that decides feasibility.
Exit codes: 0 success, 2 not converged, 3 infeasible instance or
assumption violation.
"""

import argparse
import json
import sys

import numpy as np

from . import experiments
from .errors import (
    Assumption1Violated,
    Assumption2Violated,
    DimensionTooLarge,
    InfeasibleProjection,
    NotConverged,
)
from .instances import InstanceSpec, KIND_RANDOM, KIND_STAIRCASE, KIND_UPPER, gen_instance, load_instance
from .sinkhorn import StopConfig, run_sinkhorn
from .support import approx_support_algorithm1, exact_support_procedure
from .unbalanced import sweep_epsilon, sweep_lambda

_GEN_KINDS = {"upper": KIND_UPPER, "staircase": KIND_STAIRCASE, "random": KIND_RANDOM}

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_INFEASIBLE = 3


def _parse_gen(text):
    fields = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        if not value:
            raise ValueError(f"--gen expects key=value pairs, got {part!r}")
        fields[key.strip()] = value.strip()
    kind = _GEN_KINDS.get(fields.pop("kind", ""))
    if kind is None:
        raise ValueError(f"--gen kind must be one of {sorted(_GEN_KINDS)}")
    n = int(fields.pop("n"))
    m = int(fields.pop("m", n))
    spec = InstanceSpec(
        kind=kind, n_rows=n, n_cols=m,
        n_blocks=int(fields.pop("blocks", 1)),
        density=float(fields.pop("density", 0.5)),
        seed=int(fields.pop("seed", 0)),
    )
    if fields:
        raise ValueError(f"unknown --gen fields: {sorted(fields)}")
    return spec


def _instance_from(args):
    if getattr(args, "instance", None):
        return load_instance(args.instance)
    if getattr(args, "gen", None):
        return gen_instance(_parse_gen(args.gen))
    raise ValueError("provide --instance or --gen")


def _write(text, out):
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _csv(rows, header):
    lines = [header]
    for row in rows:
        lines.append(",".join(_num(x) for x in row))
    return "\n".join(lines) + "\n"


def _num(x):
    return f"{int(x)}" if isinstance(x, (int, np.integer)) else f"{float(x):.12g}"


def _add_instance_args(parser):
    parser.add_argument("--instance", help="instance JSON file")
    parser.add_argument("--gen", help="generator spec, e.g. kind=upper,n=3")
    parser.add_argument("--out", help="output file (default stdout)")


def _report_payload(report):
    return {
        "p_star": report.p_star.tolist(),
        "q_star": report.q_star.tolist(),
        "r_star": report.r_star.tolist(),
        "r_bar_star": report.r_bar_star.tolist(),
        "mu_star": report.mu_star.tolist(),
        "nu_star": report.nu_star.tolist(),
        "mu_g": report.mu_g.tolist(),
        "nu_g": report.nu_g.tolist(),
        "z_norm": report.z_norm,
        "iterations": report.iterations,
        "converged": report.converged,
    }


def _classification(r, mu, nu):
    outcome = experiments.classify_with_fallback(r, mu, nu)
    return {"tag": outcome.tag, "witness": list(outcome.witness) if outcome.witness else None}


def _cmd_solve(args):
    r, mu, nu = _instance_from(args)
    mode = "iterate-delta" if args.stop == "delta" else "unbalanced-gap"
    cfg = StopConfig(epsilon_tol=args.tol, lam=args.lam, max_iter=args.max_iter, mode=mode)
    report = run_sinkhorn(r, mu, nu, cfg)
    if args.emit == "trace":
        _write(_csv(report.gap_trace, "iteration,gap"), args.out)
    else:
        payload = _report_payload(report)
        payload["classification"] = _classification(r, mu, nu)
        _write(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _cmd_classify(args):
    r, mu, nu = _instance_from(args)
    _write(json.dumps(_classification(r, mu, nu), indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_support(args):
    r, mu, nu = _instance_from(args)
    if args.method == "exact":
        trace = exact_support_procedure(r, mu, nu)
        mask = trace.final_mask
        payload = {"mask": mask.tolist()}
        if args.emit_trace:
            payload["trace"] = [
                {"rows": list(s.rows), "cols": list(s.cols),
                 "sisp_rows": list(s.sisp_rows), "sisp_cols": list(s.sisp_cols),
                 "theta": s.theta}
                for s in trace.steps
            ]
            payload["stationary_at"] = trace.stationary_at
        code = EXIT_OK
    else:
        result = approx_support_algorithm1(r, mu, nu, stop_cfg=StopConfig(epsilon_tol=args.tol))
        payload = {"mask": result.mask.tolist()}
        if args.emit_trace:
            payload["steps"] = [
                {"removed_rows": list(s["removed_rows"]),
                 "removed_cols": list(s["removed_cols"]),
                 "inner_iterations": s["inner_iterations"]}
                for s in result.steps
            ]
            payload["inner_iterations"] = result.inner_iterations
        code = EXIT_OK if result.converged else EXIT_NOT_CONVERGED
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return code


def _cmd_experiment(args):
    if args.which == "tv-vs-lambda":
        r, mu, nu = _instance_from(args)
        rows = sweep_lambda(r, mu, nu, args.lambdas)
        _write(_csv(rows, experiments.LAMBDA_CSV_HEADER), args.out)
    elif args.which == "tv-vs-epsilon":
        r, mu, nu = _instance_from(args)
        rows = sweep_epsilon(r, mu, nu, args.epsilons)
        _write(_csv(rows, experiments.EPSILON_CSV_HEADER), args.out)
    elif args.which == "iterations-vs-zeros":
        blocks = range(args.min_blocks, args.max_blocks + 1)
        rows = experiments.experiment_iterations_vs_zeros(blocks, size=args.size)
        table = [(row["n_blocks"], row["extra_zeros"], row["iters_plain"],
                  row["iters_naive"], row["iters_preproc"]) for row in rows]
        _write(_csv(table, experiments.ITERATIONS_CSV_HEADER), args.out)
    else:  # fig6
        lam_rows, eps_rows, classification = experiments.experiment_fig6(size=args.size)
        prefix = args.out_prefix or "fig6"
        _write(_csv(lam_rows, experiments.LAMBDA_CSV_HEADER), f"{prefix}-lambda.csv")
        _write(_csv(eps_rows, experiments.EPSILON_CSV_HEADER), f"{prefix}-epsilon.csv")
        sys.stdout.write(f"classification: {classification.tag}\n")
    return EXIT_OK


def _cmd_appendix(args):
    _write(experiments.run_appendix_a(), args.out)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="degensink",
                                     description="Sinkhorn scaling with degenerate references")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the scaling iteration, emit the solve report")
    _add_instance_args(solve)
    solve.add_argument("--tol", type=float, default=1e-3)
    solve.add_argument("--lambda", dest="lam", type=float, default=1e3)
    solve.add_argument("--max-iter", type=int, default=100_000)
    solve.add_argument("--stop", choices=("gap", "delta"), default="gap")
    solve.add_argument("--emit", choices=("report", "trace"), default="report")
    solve.set_defaults(func=_cmd_solve)

    classify = sub.add_parser("classify", help="scalability classification")
    _add_instance_args(classify)
    classify.set_defaults(func=_cmd_classify)

    support = sub.add_parser("support", help="limit-support detection")
    _add_instance_args(support)
    support.add_argument("--method", choices=("exact", "approx"), default="exact")
    support.add_argument("--tol", type=float, default=1e-3)
    support.add_argument("--emit-trace", action="store_true")
    support.set_defaults(func=_cmd_support)

    experiment = sub.add_parser("experiment", help="experiment harnesses (CSV output)")
    experiment.add_argument("which", choices=("tv-vs-lambda", "tv-vs-epsilon",
                                              "iterations-vs-zeros", "fig6"))
    _add_instance_args(experiment)
    experiment.add_argument("--lambdas", type=float, nargs="+", default=experiments.LAMBDAS)
    experiment.add_argument("--epsilons", type=float, nargs="+", default=experiments.EPSILONS)
    experiment.add_argument("--size", type=int, default=100)
    experiment.add_argument("--min-blocks", type=int, default=1)
    experiment.add_argument("--max-blocks", type=int, default=10)
    experiment.add_argument("--out-prefix", help="file prefix for fig6's two CSV tables")
    experiment.set_defaults(func=_cmd_experiment)

    appendix = sub.add_parser("appendix-a", help="reproduce the worked example")
    appendix.add_argument("--out", help="output file (default stdout)")
    appendix.set_defaults(func=_cmd_appendix)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotConverged as exc:
        sys.stderr.write(f"not converged: {exc}\n")
        return EXIT_NOT_CONVERGED
    except (Assumption1Violated, Assumption2Violated, InfeasibleProjection,
            DimensionTooLarge) as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
