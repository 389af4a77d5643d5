"""Every function the benchmark's tracer wraps exists in the package.

``perfbench/tracing.py`` lists its hooks as ``(module, attribute path, span,
count hook)`` in ``TARGETS``, and ``install`` looks each one up on the
imported ``wignersim`` modules.  A deleted or renamed target would only show
when the benchmark runs with ``--trace 1``; this test reads the list, without
installing anything, and resolves every entry.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def trace_targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, path) for module_name, path, _, _ in module.TARGETS]


TARGETS = trace_targets()


def test_the_target_list_is_read():
    assert ("storyplot", "check_compatibility") in TARGETS
    assert ("cli", "main") in TARGETS


@pytest.mark.parametrize("module_name,path", TARGETS, ids=[f"{m}.{p}" for m, p in TARGETS])
def test_trace_target_resolves(module_name, path):
    # ``importlib`` reaches wignersim.presets the module, which the package
    # attribute of the same name (the function) shadows.
    owner = importlib.import_module(f"wignersim.{module_name}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)
