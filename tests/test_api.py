"""The package's public names, and what importing it brings in."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import degensink

ROOT = Path(__file__).resolve().parents[1]

# Read only by tests: the two that serve as reference code live in
# conftest.py.
REMOVED = ("gap_balanced", "gap_unbalanced", "forward_image", "dump_instance", "is_sisp",
           "detect_limit_support")


def test_removed_names_are_gone():
    modules = [degensink] + [importlib.import_module(f"degensink.{info.name}")
                             for info in pkgutil.iter_modules(degensink.__path__)]
    left = [f"{module.__name__}.{name}" for module in modules for name in REMOVED
            if hasattr(module, name) or name in getattr(module, "__all__", ())]
    assert not left


# Computes the answers of the package's main entry points on the worked
# example, as JSON; run here and in a fresh interpreter that cannot import
# networkx.
PROBE = """
import contextlib, io, json
import degensink as dg
from degensink import cli

def answers():
    r, mu, nu = dg.appendix_a_instance()
    cls = dg.classify_exact(r, mu, nu)
    rep = dg.run_sinkhorn(r, mu, nu, dg.StopConfig(epsilon_tol=1e-12))
    approx = dg.approx_support_algorithm1(r, mu, nu)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["classify", "--gen", "kind=upper,n=3"])
    return {
        "classify_exact": [cls.tag, list(cls.witness or ())],
        "exact_support_procedure": dg.exact_support_procedure(r, mu, nu).final_mask.tolist(),
        "approx_support_algorithm1": [approx.mask.tolist(), approx.inner_iterations],
        "run_sinkhorn": [rep.iterations, rep.r_star.tolist()],
        "solve_two_sided": dg.solve_two_sided(r, mu, nu, dg.PenaltyConfig(lam=10.0)).tolist(),
        "classify_command": [code, out.getvalue()],
    }
"""


def _fresh_interpreter(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_import_leaves_networkx_out():
    # networkx was imported with the package, which calls none of it
    code = "import sys, degensink, degensink.cli; print('networkx' in sys.modules)"
    assert _fresh_interpreter(code).strip() == "False"


def test_package_runs_without_networkx():
    blocked = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        + PROBE
        + "print(json.dumps(answers()))\n"
        "from degensink import scalability\n"
        "try:\n"
        "    scalability.nx\n"
        "except ModuleNotFoundError:\n"
        "    print('no networkx')\n"
    )
    answers, last = _fresh_interpreter(blocked).splitlines()
    namespace = {}
    exec(PROBE, namespace)
    assert json.loads(answers) == namespace["answers"]()
    assert last == "no networkx"
