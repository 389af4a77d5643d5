"""Every function of ``src/wignersim`` that no program path runs is listed here.

The program paths are the golden CLI commands of ``tools/cli_goldens.py``,
the demos, and one pass of each benchmark deck of ``perfbench/workloads.py``
(loaded by path and only read).  A fresh interpreter installs a
``sys.settrace`` tracer before it imports ``wignersim``, so calls made at
import count too, and runs the paths in-process; the tracer records the
first line of every code object called and the one it replaced is restored
afterwards.  A function no path reaches must appear in ``UNREACHED`` with
the reason it is kept.  A new function that nothing runs fails the test, and
so does an entry whose function now runs or no longer exists: the list says
exactly what the program does not use.
"""

import ast
import contextlib
import importlib.util
import io
import json
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

ERROR_PATH = "runs only when an input is rejected"
TRACED = "a target of perfbench/tracing.py, kept until the benchmark drops it"
TESTS_ONLY = "only tests call it"

UNREACHED = {
    "tolerances._spelled": ERROR_PATH,
    "states._not_normalized": ERROR_PATH,
    "deduction.ChainCycleError.__init__": ERROR_PATH,
    "deduction.DeductionRule.render": "renders a rule for an error message",
    "cli.entry": "the console script; the paths call cli.main",
    "serialize.load_experiment": "reads --config files, which the golden set does not use",
    "states.tensor": TRACED,
    "states.partial_trace": TRACED,
    "states.born_probability": TRACED,
    "channels.apply_isometry": TRACED,
    "channels.collapse": TRACED,
    "states.Projector.__post_init__": "the operand of born_probability, " + TRACED,
    "states.Projector._check_host": "the host check of born_probability, " + TRACED,
    "registry.SubsystemRegistry.combined": "the registry of tensor, " + TRACED,
    "states.DensityMatrix.__post_init__": "checks raw entries from library callers, "
    "and is the fallback when a Gram product's rounding bound fails",
    "states._hermitian": "the Hermitian check of raw entries from library callers, "
    "and of the fallback when a Gram product's rounding bound fails",
    "states.StateVector.amplitude": TESTS_ONLY,
    "states.DensityMatrix.dims": TESTS_ONLY,
    "states.DensityMatrix.trace": TESTS_ONLY,
    "experiment.ConditionalTable.probability": TESTS_ONLY,
    "experiment.ExperimentSpec.measuring_steps": "read by the tests and tools/answer_drift.py",
    "deduction.DeductionChain.__len__": TESTS_ONLY,
    "storyplot.Violation.render": TESTS_ONLY,
    "registry.SubsystemRegistry.build": TESTS_ONLY,
}


def defined_functions(package: Path):
    """{(file, first line of the code object): (name, lines from ``def``)}."""
    out = {}
    for path in sorted(package.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # A decorated function's code starts at its first decorator.
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    lines = child.end_lineno - child.lineno + 1
                    out[(str(path), first)] = (f"{module}.{prefix}{child.name}", lines)
                    visit(child, prefix + child.name + ".")

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def run_program_paths():
    """Run every path; returns the decks' failed checks and the package directory."""
    import numpy as np

    import wignersim as ws
    import wignersim.cli  # noqa: F401  (the decks' CLI questions call ws.cli.main)

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        load("_reach_cli_goldens", ROOT / "tools" / "cli_goldens.py").digest_lines()
        for script in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(script), run_name="__main__")
    # The decks import their oracles, ``ghz`` and ``reference``, by bare name.
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = load("_reach_workloads", PERFBENCH / "workloads.py")
    finally:
        sys.path.remove(str(PERFBENCH))
    failed = []
    for name, workload in workloads.WORKLOADS.items():
        specs = workload.build_specs(ws, np.random.default_rng(0))
        for question in workload.build_questions(ws, specs):
            message = question.check(question.ask())
            if message is not None:
                failed.append(f"{name}: {question.label}: {message}")
    return failed, Path(ws.__file__).resolve().parent


def unreached_functions():
    """({name: lines} of every function never called, the decks' failed checks)."""
    reached = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        reached.add((code.co_filename, code.co_firstlineno))

    saved = sys.gettrace()
    sys.settrace(tracer)
    try:
        failed, package = run_program_paths()
    finally:
        sys.settrace(saved)
    files = {name: str(Path(name).resolve()) for name, _ in reached}
    reached = {(files[name], line) for name, line in reached}
    unreached = {
        name: lines
        for key, (name, lines) in defined_functions(package).items()
        if key not in reached
    }
    return unreached, failed


def test_every_unreached_function_is_listed_with_its_reason():
    result = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, result.stderr
    unreached, failed = json.loads(result.stdout)
    assert not failed, failed
    surplus = sorted(set(unreached) - set(UNREACHED))
    stale = sorted(set(UNREACHED) - set(unreached))
    assert not surplus and not stale, (
        "unreached and not listed: "
        + ", ".join(f"{name} ({unreached[name]} lines)" for name in surplus)
        + "; listed but reached or gone: "
        + ", ".join(stale)
    )


if __name__ == "__main__":
    print(json.dumps(unreached_functions()))
