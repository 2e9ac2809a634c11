"""Spans at the package's module boundaries, for the traced run.

The tracer replaces a public function where another module binds it (for
example ``degensink.support.run_sinkhorn``, or ``tv_distance`` as bound in
``degensink.sinkhorn``) with a wrapper that records one span per call.
The package's source is not touched; :meth:`Tracer.uninstall` puts the
original bindings back.  A span records its name, start, end, the span
that called it, the task it ran for, and the module that made the call.
A span's self time is its duration minus the durations of its children;
the self times of all spans of a pass add up to the pass's wall time.
"""

import importlib
import time
from array import array
from collections import defaultdict

# (module that binds the name, attribute, span name).  The span name's
# first component is the layer that does the work.  ``workloads`` is the
# benchmark's own binding of the functions its tasks call.
BINDINGS = [
    ("degensink.sinkhorn", "tv_distance", "measures.tv_distance"),
    ("degensink.unbalanced", "tv_distance", "measures.tv_distance"),
    ("degensink.experiments", "tv_distance", "measures.tv_distance"),
    ("degensink.sinkhorn", "rel_entropy", "measures.entropy"),
    ("degensink.sinkhorn", "rel_entropy_coupling", "measures.entropy"),
    ("degensink.unbalanced", "rel_entropy", "measures.entropy"),
    ("degensink.unbalanced", "rel_entropy_coupling", "measures.entropy"),
    ("degensink.sinkhorn", "sinkhorn_step", "sinkhorn.step"),
    ("degensink.sinkhorn", "current_P", "sinkhorn.couplings"),
    ("degensink.sinkhorn", "current_Q", "sinkhorn.couplings"),
    ("degensink.sinkhorn", "run_sinkhorn", "sinkhorn.run_sinkhorn"),
    ("degensink.support", "run_sinkhorn", "sinkhorn.run_sinkhorn"),
    ("degensink.unbalanced", "run_sinkhorn", "sinkhorn.run_sinkhorn"),
    ("degensink.experiments", "run_sinkhorn", "sinkhorn.run_sinkhorn"),
    ("workloads", "run_sinkhorn", "sinkhorn.run_sinkhorn"),
    ("degensink.unbalanced", "solve_two_sided", "unbalanced.two_sided"),
    ("degensink.unbalanced", "stationarity_residual", "unbalanced.stationarity"),
    ("workloads", "solve_schu_lambda", "unbalanced.schu"),
    ("workloads", "sweep_lambda", "unbalanced.sweep_lambda"),
    ("workloads", "sweep_epsilon", "unbalanced.sweep_epsilon"),
    ("workloads", "approx_support_algorithm1", "support.algorithm1"),
    ("workloads", "masked_solve", "support.masked_solve"),
    ("workloads", "exact_support_procedure", "support.exact_procedure"),
    ("degensink.support", "maximal_theta", "support.maximal_theta"),
    ("degensink.support", "connected_components", "scalability.connected_components"),
    ("degensink.scalability", "connected_components", "scalability.connected_components"),
    ("degensink.scalability", "feasibility_flow", "scalability.feasibility_flow"),
    ("degensink.experiments", "feasibility_flow", "scalability.feasibility_flow"),
    ("workloads", "feasibility_flow", "scalability.feasibility_flow"),
    ("degensink.experiments", "classify_exact", "scalability.classify_exact"),
    ("workloads", "classify_exact", "scalability.classify_exact"),
    ("workloads", "classify_with_fallback", "experiments.classify_with_fallback"),
]

# Methods of the log-domain iteration that ``run_sinkhorn`` switches to.
METHOD_BINDINGS = [
    ("degensink.sinkhorn", "_LogIteration", "step", "sinkhorn.step"),
    ("degensink.sinkhorn", "_LogIteration", "couplings", "sinkhorn.couplings"),
]

# networkx calls made by ``degensink.scalability`` through its ``nx`` name.
MAXFLOW_CALLS = ("maximum_flow_value", "maximum_flow", "minimum_cut")


def _run_sinkhorn_info(args, kwargs, report):
    return {"iterations": report.iterations,
            "rescaled": bool(report.state is not None and report.state.overflow_flag),
            "rerun": kwargs.get("tv_reference") is not None}


INFO = {
    "sinkhorn.run_sinkhorn": _run_sinkhorn_info,
    "unbalanced.two_sided": lambda args, kwargs, out: {
        "lam": float((args[3] if len(args) > 3 else kwargs["cfg"]).lam)},
    "support.algorithm1": lambda args, kwargs, out: {"inner": out.inner_iterations},
}


class _ModuleProxy:
    """Stands in for a module, with some of its attributes replaced."""

    def __init__(self, module, replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Records spans while installed.  Span ``k`` is ``names[name_ids[k]]``,
    called from module ``callers[caller_ids[k]]`` by span ``parents[k]``
    (-1 for none) for task ``task_names[tasks[k]]``, from ``starts[k]`` to
    ``ends[k]``; ``infos`` maps some spans to counts read off their result.
    Spans live in flat arrays, which the garbage collector does not scan,
    so that hundreds of thousands of them do not slow the traced pass."""

    def __init__(self):
        self.names, self.callers, self.task_names = [], [], []
        self.name_ids, self.caller_ids = array("i"), array("i")
        self.parents, self.tasks = array("i"), array("i")
        self.starts, self.ends = array("d"), array("d")
        self.infos = {}
        self._saved = []
        self._stack = []
        self._task = -1

    def reset(self):
        for column in (self.name_ids, self.caller_ids, self.parents, self.tasks,
                       self.starts, self.ends):
            del column[:]
        self.infos.clear()
        self.task_names.clear()

    @staticmethod
    def _intern(table, value):
        if value not in table:
            table.append(value)
        return table.index(value)

    def _open(self, name_id, caller_id):
        k = len(self.starts)
        self.name_ids.append(name_id)
        self.caller_ids.append(caller_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.tasks.append(self._task)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(k)
        return k

    def _close(self):
        self.ends[self._stack.pop()] = time.perf_counter()

    def _wrap(self, fn, name, caller):
        name_id = self._intern(self.names, name)
        caller_id = self._intern(self.callers, caller)
        info_fn = INFO.get(name)
        # _open and _close inlined: this wrapper runs once per solver
        # iteration on the hottest paths.
        name_ids, caller_ids, parents, tasks = self.name_ids, self.caller_ids, self.parents, self.tasks
        starts, ends, stack, infos, clock = self.starts, self.ends, self._stack, self.infos, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            k = len(starts)
            name_ids.append(name_id)
            caller_ids.append(caller_id)
            parents.append(stack[-1] if stack else -1)
            tasks.append(tracer._task)
            ends.append(0.0)
            stack.append(k)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[k] = clock()
                stack.pop()
            if info_fn is not None:
                infos[k] = info_fn(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, old))
        setattr(owner, attr, value)

    def install(self):
        for mod_name, attr, span_name in BINDINGS:
            module = importlib.import_module(mod_name)
            caller = "bench" if mod_name == "workloads" else mod_name.rsplit(".", 1)[-1]
            self._patch(module, attr, self._wrap(getattr(module, attr), span_name, caller))
        for mod_name, cls_name, attr, span_name in METHOD_BINDINGS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            self._patch(cls, attr, self._wrap(cls.__dict__[attr], span_name, "sinkhorn"))
        scal = importlib.import_module("degensink.scalability")
        self._patch(scal, "nx", _ModuleProxy(scal.nx, {
            call: self._wrap(getattr(scal.nx, call), "scalability.maxflow", "scalability")
            for call in MAXFLOW_CALLS}))

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def begin(self, name, task_name=None):
        """Open a benchmark span: the pass, or one task of it."""
        if task_name is not None:
            self.task_names.append(task_name)
            self._task = len(self.task_names) - 1
        self._open(self._intern(self.names, name), self._intern(self.callers, "bench"))

    def end(self):
        self._close()
        if not self._stack:
            self._task = -1


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    names = [tracer.names[i] for i in tracer.name_ids]
    callers = [tracer.callers[i] for i in tracer.caller_ids]
    parents, infos = tracer.parents, tracer.infos
    tasks = [tracer.task_names[t] if t >= 0 else "" for t in tracer.tasks]
    durations = [end - start for start, end in zip(tracer.starts, tracer.ends)]
    child = [0.0] * len(durations)
    for parent, d in zip(parents, durations):
        if parent >= 0:
            child[parent] += d

    dur, calls, self_t, m = defaultdict(float), defaultdict(int), defaultdict(float), defaultdict(float)
    for k, (name, d) in enumerate(zip(names, durations)):
        dur[name] += d
        calls[name] += 1
        self_t[name.split(".", 1)[0]] += d - child[k]
        parent, info = parents[k], infos.get(k)
        if name == "measures.tv_distance":
            m[f"measures.tv_distance_s.{callers[k]}"] += d
            m[f"measures.tv_distance_calls.{callers[k]}"] += 1
            if parent >= 0 and names[parent] == "unbalanced.two_sided" and parent in infos:
                m[f"unbalanced.two_sided_iterations.lam{infos[parent]['lam']:g}"] += 1
        elif name == "sinkhorn.run_sinkhorn" and info is not None:
            m["sinkhorn.iterations"] += info["iterations"]
            m["sinkhorn.rescaled_solves"] += info["rescaled"]
            if info["rerun"]:
                m["support.rate_rerun_s"] += d
            block = _block_case(tasks[k])
            if block and tasks[k].endswith(".plain") and names[parent] == "bench.task":
                m[f"sinkhorn.plain_iterations.{block}"] += info["iterations"]
            elif block and tasks[k].endswith(".masked") and not info["rerun"]:
                m[f"support.preproc_iterations.{block}"] += info["iterations"]
        elif name == "unbalanced.two_sided" and info is not None:
            m[f"unbalanced.two_sided_s.lam{info['lam']:g}"] += d
        elif name == "support.algorithm1" and info is not None:
            m["support.algorithm1_inner_iterations"] += info["inner"]
            block = _block_case(tasks[k])
            if block:
                m[f"support.preproc_iterations.{block}"] += info["inner"]

    for metric, span, table in (
            ("measures.tv_distance_s", "measures.tv_distance", dur),
            ("measures.tv_distance_calls", "measures.tv_distance", calls),
            ("measures.entropy_s", "measures.entropy", dur),
            ("sinkhorn.run_s", "sinkhorn.run_sinkhorn", dur),
            ("sinkhorn.step_s", "sinkhorn.step", dur),
            ("sinkhorn.step_calls", "sinkhorn.step", calls),
            ("sinkhorn.couplings_s", "sinkhorn.couplings", dur),
            ("unbalanced.two_sided_s", "unbalanced.two_sided", dur),
            ("unbalanced.schu_s", "unbalanced.schu", dur),
            ("unbalanced.stationarity_calls", "unbalanced.stationarity", calls),
            ("support.algorithm1_s", "support.algorithm1", dur),
            ("support.masked_solve_s", "support.masked_solve", dur),
            ("support.exact_procedure_s", "support.exact_procedure", dur),
            ("support.maximal_theta_s", "support.maximal_theta", dur),
            ("support.maximal_theta_calls", "support.maximal_theta", calls),
            ("scalability.classify_exact_s", "scalability.classify_exact", dur),
            ("scalability.feasibility_flow_s", "scalability.feasibility_flow", dur),
            ("scalability.maxflow_s", "scalability.maxflow", dur),
            ("scalability.connected_components_s", "scalability.connected_components", dur),
            ("experiments.classify_with_fallback_s", "experiments.classify_with_fallback", dur),
            ("trace.pass_s", "bench.pass", dur)):
        m[metric] = table[span]
    m["sinkhorn.us_per_iter"] = (1e6 * m["sinkhorn.run_s"] / m["sinkhorn.iterations"]
                                 if m["sinkhorn.iterations"] else 0.0)
    for layer, value in self_t.items():
        m[f"{layer}.self_s"] = value
    m["bench.glue_s"] = self_t["bench"]
    return dict(m)


def _block_case(task_name):
    """``blocks<k>`` for the staircase tasks ``b<k>.*``, else None."""
    head = task_name.partition(".")[0]
    return f"blocks{head[1:]}" if head[:1] == "b" and head[1:].isdigit() else None
