"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Run from the repository root.  For every workload it runs one pass at
seed 0 and requires every check to pass; then it corrupts single outputs
(a flipped mask entry, a perturbed coupling, a swapped tag, ...) and
requires the matching check to reject each of them.  It also requires a
task that raises to be counted as failed without stopping the pass.
Exits 0 when every expectation holds, 1 otherwise.
"""

import copy
import dataclasses
import sys

import run  # pins the BLAS threads and locates the package source

sys.path.insert(0, str(run.SRC))

from degensink.errors import NotConverged  # noqa: E402
import workloads  # noqa: E402


def _flip_mask(res):
    res.mask[0, -1] = not res.mask[0, -1]
    return res


def _flip_final_mask(trace):
    trace.final_mask[0, -1] = not trace.final_mask[0, -1]
    return trace


def _perturb_p_star(report):
    report.p_star[0, 0] += 1e-3
    return report


def _swap_tvs(result):
    rows, solutions = result
    rows[0], rows[1] = (rows[0][0], rows[1][1]), (rows[1][0], rows[0][1])
    return rows, solutions


def _perturb_first_marginal(p):
    p[0] *= 1.0 + 1e-6
    return p


def _swap_tag(cls):
    return dataclasses.replace(cls, tag="NonScalable" if cls.base_tag != "NonScalable" else "Scalable")


def _empty_witness(cls):
    return dataclasses.replace(cls, witness=())


# workload -> [(task name, what is corrupted, corruption)]
CORRUPTIONS = {
    "scaling": [("b4.algorithm1", "flipped mask entry", _flip_mask),
                ("b4.masked", "perturbed P*", _perturb_p_star),
                ("sweep_lambda", "swapped TV values", _swap_tvs),
                ("schu.lam10", "perturbed first marginal", _perturb_first_marginal)],
    "structure": [("rand14.classify", "swapped tag", _swap_tag),
                  ("exact.b3", "flipped mask entry", _flip_final_mask),
                  ("stair16.b3.classify", "empty NonScalable witness", _empty_witness)],
}


def _outputs(tasks):
    outputs = {}
    for task in tasks:
        outputs[task.name] = task.run(outputs)
    return outputs


def main():
    problems = []
    workloads.warm_up()
    for name, build in workloads.WORKLOADS.items():
        tasks = build(0)
        by_name = {task.name: task for task in tasks}
        outputs = _outputs(tasks)
        for task in tasks:
            try:
                task.check(outputs[task.name], outputs)
            except Exception as exc:  # report every failing check, not just the first
                problems.append(f"{name}/{task.name}: genuine output rejected: {exc}")
        for task_name, what, corrupt in CORRUPTIONS[name]:
            bad = corrupt(copy.deepcopy(outputs[task_name]))
            try:
                by_name[task_name].check(bad, outputs)
            except workloads.CheckFailed as exc:
                print(f"ok   {name}/{task_name}: {what} rejected ({exc})")
            else:
                problems.append(f"{name}/{task_name}: {what} was accepted")

    def raising(outputs):
        raise NotConverged("iteration cap reached")

    tasks = [workloads.Task("raises", raising, lambda out, outputs: None),
             workloads.Task("after", lambda outputs: 1, lambda out, outputs: None)]
    _, _, failures = run._run_pass(tasks)
    if set(failures) == {"raises"}:
        print("ok   a raising task is counted as failed and the pass carries on")
    else:
        problems.append(f"raising task handled wrongly: failures {failures}")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
