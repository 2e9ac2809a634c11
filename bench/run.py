"""Benchmark of the degensink package, driven through its public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``.
Workloads are defined in ``bench/workloads.py`` and the metrics in
``BENCHMARK.json``.  One run:

1. starts a fresh interpreter several times to import the package and
   build the workload's inputs from the seed (``setup_s`` is the median);
2. warms the process up, then makes two passes over the workload's
   tasks, one task at a time, and more while another pass fits in
   ``--seconds``;
3. checks every task's output; a task that raises or fails its check is a
   failed task, and the pass carries on.

With ``--trace 0`` it reports the end-to-end metrics; a pass's time is
the sum over tasks of each task's fastest repetition in the run.  With
``--trace 1`` it alternates untraced passes with traced ones, whose spans
at the module boundaries (``bench/spans.py``) give the per-layer metrics,
medians over traced passes.  The last line of standard output is the
JSON result; the line before it holds the run's provenance.
"""

import os

# Solves are single-threaded numpy; pin BLAS before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 5
SETUP_TIMEOUT_S = 60


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="degensink benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _setup_child(workload, seed):
    """Import the package and build the workload's inputs in this fresh
    interpreter; print the phase times as JSON."""
    t0 = time.perf_counter()
    import networkx  # noqa: F401  (timed on its own: the largest import)
    t1 = time.perf_counter()
    import degensink  # noqa: F401
    t2 = time.perf_counter()
    import workloads
    workloads.WORKLOADS[workload](seed)
    t3 = time.perf_counter()
    print(json.dumps({"networkx_import_s": t1 - t0, "import_s": t2 - t0, "generate_s": t3 - t2}))


def _measure_setup(workload, seed):
    walls, phases = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up interpreter failed with exit code {proc.returncode}")
        phases.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    medians = {key: statistics.median(p[key] for p in phases) for key in phases[0]}
    return statistics.median(walls), medians


def _run_pass(tasks, tracer=None):
    """One pass over the tasks.  Returns each task's wall time and CPU
    time, in task order, and the failures by task name."""
    outputs, failures, walls, cpus = {}, {}, [], []
    if tracer is not None:
        tracer.reset()
        tracer.install()
        tracer.begin("bench.pass")
    for task in tasks:
        if tracer is not None:
            tracer.begin("bench.task", task.name)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            outputs[task.name] = task.run(outputs)
        except Exception as exc:  # a task that raises is a failed task
            failures[task.name] = f"raised {type(exc).__name__}: {exc}"
        finally:
            walls.append(time.perf_counter() - wall0)
            cpus.append(time.process_time() - cpu0)
            if tracer is not None:
                tracer.end()
    if tracer is not None:
        tracer.end()
        tracer.uninstall()
    for task in tasks:
        if task.name in failures:
            continue
        try:
            task.check(outputs[task.name], outputs)
        except Exception as exc:  # a wrong output, or a check that cannot run on it
            failures[task.name] = f"check failed: {type(exc).__name__}: {exc}"
    return walls, cpus, failures


def _fastest_pass(passes, column):
    """Time of one pass with every task at its fastest repetition.

    Other tenants of a shared machine only ever add time to a task, and
    their load drifts over tens of seconds.  On 2 shared CPUs, over six
    runs of a pass of 450 short calls, the median pass varied by 15%
    (interquartile range over median) and this sum by 5.5%."""
    return sum(min(times) for times in zip(*(p[column] for p in passes)))


def _repeat(seconds, body, at_least):
    """Call ``body()`` ``at_least`` times, then again while another call is
    predicted to fit in ``seconds``; returns the list of its results."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(body())
        last = time.perf_counter() - t0
        if len(results) >= at_least and time.perf_counter() - start + last > seconds:
            return results


def _openblas_version(np):
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        return None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "degensink").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _provenance(args, n_passes):
    import networkx
    import numpy as np
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "networkx": networkx.__version__,
        "openblas": _openblas_version(np),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "passes": n_passes,
    }


def _metric_specs():
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "degensink" / "__init__.py").is_file():
        sys.stderr.write(f"package source not found under {SRC}; run from the repository root\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        _setup_child(args.workload, args.seed)
        return 0

    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}\n")
        return 2
    end_to_end, per_layer = _metric_specs()
    setup_s, setup_phases = _measure_setup(args.workload, args.seed)
    tasks = workloads.WORKLOADS[args.workload](args.seed)
    workloads.warm_up()

    if args.trace:
        from spans import Tracer, layer_metrics
        tracer = Tracer()

        def pair():
            plain = _run_pass(tasks)
            traced = _run_pass(tasks, tracer)
            layers = layer_metrics(tracer)
            tracer.reset()
            return plain, traced, layers

        pairs = _repeat(args.seconds, pair, at_least=1)
        passes = [p for plain, traced, _ in pairs for p in (plain, traced)]
        layers = {key: statistics.median(l.get(key, 0.0) for _, _, l in pairs)
                  for key in set().union(*(l for _, _, l in pairs))}
        layers["trace.overhead_s"] = (_fastest_pass([t for _, t, _ in pairs], 0)
                                      - _fastest_pass([p for p, _, _ in pairs], 0))
        layers["instances.generate_s"] = setup_phases["generate_s"]
        layers["setup.import_s"] = setup_phases["import_s"]
        layers["setup.networkx_import_s"] = setup_phases["networkx_import_s"]
        values = {m["name"]: layers.get(m["name"], 0.0) for m in per_layer}
        units = {m["name"]: m["unit"] for m in per_layer}
        print(json.dumps({"case_counts": {name: value for name, value in values.items()
                                          if ".blocks" in name or ".lam" in name}}))
    else:
        # Two passes at least, so that every task's fastest repetition is a
        # minimum over more than one try.
        passes = _repeat(args.seconds, lambda: _run_pass(tasks), at_least=2)
        failed = sum(len(f) for _, _, f in passes)
        values = {
            "wall_s": _fastest_pass(passes, 0),
            "cpu_s": _fastest_pass(passes, 1),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - failed / (len(tasks) * len(passes)),
        }
        units = {m["name"]: m["unit"] for m in end_to_end}

    failures = [(name, msg) for _, _, f in passes for name, msg in f.items()]
    for name, msg in failures[:20]:
        sys.stderr.write(f"FAILED {args.workload}/{name}: {msg}\n")
    print(json.dumps({"provenance": _provenance(args, len(passes))}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(tasks) * len(passes),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
