"""The benchmark's tracer wraps package functions by name; every name it
binds must still exist, or a traced run fails at install time."""

import importlib
import importlib.util
from pathlib import Path

import networkx as nx

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_bindings_resolve():
    spans = _load("spans")
    workloads = _load("workloads")

    def owner(mod_name):
        return workloads if mod_name == "workloads" else importlib.import_module(mod_name)

    missing = [f"{mod}.{attr}" for mod, attr, _ in spans.BINDINGS if not hasattr(owner(mod), attr)]
    missing += [f"{mod}.{cls}.{attr}" for mod, cls, attr, _ in spans.METHOD_BINDINGS
                if attr not in vars(getattr(owner(mod), cls))]
    missing += [f"networkx.{call}" for call in spans.MAXFLOW_CALLS if not hasattr(nx, call)]
    assert missing == []


def test_maxflow_proxy_target_resolves():
    # the tracer wraps these calls on ``degensink.scalability.nx``, which
    # must stay bound to networkx even though the package calls none of them
    spans = _load("spans")
    scalability = importlib.import_module("degensink.scalability")
    assert scalability.nx is nx
    assert [call for call in spans.MAXFLOW_CALLS if not hasattr(scalability.nx, call)] == []
