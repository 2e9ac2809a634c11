"""The package's public names."""

import importlib
import pkgutil

import degensink

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
