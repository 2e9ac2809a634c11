"""Command-line interface.

    degensink solve     --instance f.json [--tol T --max-iter N --emit report|trace]
    degensink classify  --instance f.json
    degensink support   --instance f.json [--method exact|approx --tol T --emit-trace]
    degensink experiment tv-vs-lambda|tv-vs-epsilon|iterations-vs-zeros|fig6 ...
    degensink appendix-a

Instances come from ``--instance file.json`` or ``--gen kind=...,n=...``
(kinds: upper, staircase, random).  Output goes to stdout or ``--out``,
which is opened before the computation starts.
``solve`` stops on the iterate-delta rule at ``--tol``; the penalization
weight lambda belongs to ``experiment tv-vs-lambda`` alone.  The
``solve`` report carries the classification of ``classify``, exact at
any size: one maximum flow tells NonScalable, ApproximatelyScalable and
Scalable apart.
Exit codes: 0 success, 2 not converged (or a float that left its range,
from masses near the float limits) or a usage error, such as an output
path that cannot be written, 3 infeasible instance or assumption violation.
"""

import argparse
import contextlib
import dataclasses
import json
import os
import sys

import numpy as np

from . import experiments
from .errors import (
    Assumption1Violated,
    Assumption2Violated,
    InfeasibleProjection,
    NotConverged,
    OverflowDetected,
)
from .instances import InstanceSpec, KIND_RANDOM, KIND_STAIRCASE, KIND_UPPER, gen_instance, load_instance
from .scalability import classify_exact
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
    if "n" not in fields:
        raise ValueError("--gen needs n=<rows>")
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
        try:
            return load_instance(args.instance)
        except OSError as exc:
            raise ValueError(f"cannot read --instance {args.instance}: {exc.strerror}") from exc
    if getattr(args, "gen", None):
        return gen_instance(_parse_gen(args.gen))
    raise ValueError("provide --instance or --gen")


@contextlib.contextmanager
def _output(out, option="--out"):
    """The stream a command writes to: stdout, or the file ``out``, opened
    before the command computes anything, as a shell redirect is, so that
    a path that cannot be written is a usage error at once.  A file it
    creates is removed again when the command raises."""
    if not out:
        yield sys.stdout
        return
    created = not os.path.exists(out)
    try:
        handle = open(out, "w")
    except OSError as exc:
        raise ValueError(f"cannot write {option} {out}: {exc.strerror}") from exc
    try:
        with handle:
            yield handle
    except BaseException:
        if created:
            os.remove(out)
        raise


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
    arrays = ("p_star", "q_star", "r_star", "r_bar_star", "mu_star", "nu_star", "mu_g", "nu_g")
    payload = {name: getattr(report, name).tolist() for name in arrays}
    return payload | {"z_norm": report.z_norm, "iterations": report.iterations,
                      "converged": report.converged, "stop_reason": report.stop_reason}


def _classification(r, mu, nu):
    outcome = classify_exact(r, mu, nu)
    return {"tag": outcome.tag, "witness": list(outcome.witness) if outcome.witness else None}


def _cmd_solve(args):
    r, mu, nu = _instance_from(args)
    with _output(args.out) as out:
        report = run_sinkhorn(r, mu, nu, StopConfig(epsilon_tol=args.tol, max_iter=args.max_iter))
        if args.emit == "trace":
            out.write(_csv(report.gap_trace, "iteration,gap"))
        else:
            payload = _report_payload(report)
            payload["classification"] = _classification(r, mu, nu)
            out.write(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _cmd_classify(args):
    r, mu, nu = _instance_from(args)
    with _output(args.out) as out:
        out.write(json.dumps(_classification(r, mu, nu), indent=2) + "\n")
    return EXIT_OK


def _cmd_support(args):
    r, mu, nu = _instance_from(args)
    with _output(args.out) as out:
        if args.method == "exact":
            trace = exact_support_procedure(r, mu, nu)
            mask = trace.final_mask
            payload = {"mask": mask.tolist()}
            if args.emit_trace:
                payload["trace"] = [dataclasses.asdict(s) for s in trace.steps]
                payload["stationary_at"] = len(trace.steps)
            code = EXIT_OK
        else:
            result = approx_support_algorithm1(r, mu, nu, stop_cfg=StopConfig(epsilon_tol=args.tol))
            payload = {"mask": result.mask.tolist()}
            if args.emit_trace:
                payload["steps"] = result.steps
                payload["inner_iterations"] = result.inner_iterations
            code = EXIT_OK if result.converged else EXIT_NOT_CONVERGED
        out.write(json.dumps(payload, indent=2) + "\n")
    return code


def _cmd_experiment(args):
    if args.which == "fig6":
        prefix = args.out_prefix or "fig6"
        with _output(f"{prefix}-lambda.csv", "--out-prefix") as lam_out, \
                _output(f"{prefix}-epsilon.csv", "--out-prefix") as eps_out:
            lam_rows, eps_rows, classification = experiments.experiment_fig6(size=args.size)
            lam_out.write(_csv(lam_rows, experiments.LAMBDA_CSV_HEADER))
            eps_out.write(_csv(eps_rows, experiments.EPSILON_CSV_HEADER))
        sys.stdout.write(f"classification: {classification.tag}\n")
    elif args.which == "iterations-vs-zeros":
        blocks = range(args.min_blocks, args.max_blocks + 1)
        with _output(args.out) as out:
            rows = experiments.experiment_iterations_vs_zeros(blocks, size=args.size)
            table = [row.values() for row in rows]  # keyed by the header's columns, in order
            out.write(_csv(table, experiments.ITERATIONS_CSV_HEADER))
    else:
        r, mu, nu = _instance_from(args)
        sweep, values, header = (
            (sweep_lambda, args.lambdas, experiments.LAMBDA_CSV_HEADER) if args.which == "tv-vs-lambda"
            else (sweep_epsilon, args.epsilons, experiments.EPSILON_CSV_HEADER))
        with _output(args.out) as out:
            out.write(_csv(sweep(r, mu, nu, values), header))
    return EXIT_OK


def _cmd_appendix(args):
    with _output(args.out) as out:
        out.write(experiments.run_appendix_a())
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="degensink",
                                     description="Sinkhorn scaling with degenerate references")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the scaling iteration, emit the solve report")
    _add_instance_args(solve)
    solve.add_argument("--tol", type=float, default=1e-3)
    solve.add_argument("--max-iter", type=int, default=100_000)
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
    except (NotConverged, OverflowDetected) as exc:
        sys.stderr.write(f"not converged: {exc}\n")
        return EXIT_NOT_CONVERGED
    except (Assumption1Violated, Assumption2Violated, InfeasibleProjection) as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
