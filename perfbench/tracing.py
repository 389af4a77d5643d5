"""Per-layer attribution from outside the program: timing wrappers and spans.

:func:`install` replaces chosen public functions and methods of ``wignersim``
with wrappers that record a span (name, start, end, parent) per call.  A
function is replaced in every ``wignersim`` module namespace that binds it,
because ``from .channels import apply_isometry`` copies the name at import.
Methods are replaced on their class.  The program itself is not changed.

Per span name the tracer keeps calls, total time and self time (total minus
the time covered by child spans), plus a few counts computed from registry
dimensions at the same boundary.  Full span records are kept only while
``keep_spans`` is set, so memory stays bounded over a long run.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from typing import Callable

_clock = time.perf_counter_ns


def _density_bytes(tracer, args, result):
    d = args[0].registry.total_dimension
    tracer.count("states.density.bytes", 16 * d * d)


def _amps_out(tracer, args, result):
    tracer.count("channels.apply_isometry.amps_out", result.registry.total_dimension)


def _branches(tracer, args, result):
    tracer.count("channels.branch_decomposition.outcomes", len(result))
    tracer.count("channels.branch_decomposition.useful", sum(b is not None for _, _, b in result))


def _readout(tracer, args, result):
    tracer.count("experiment.readout.support", len(result.probs))
    tracer.count("experiment.readout.cells", math.prod(len(a) for a in result.alphabets.values()))


# (module, attribute path, span name, count hook).  Span names group the
# functions whose cost one metric reports.
TARGETS = (
    ("registry", "SubsystemRegistry.extended", "registry.extended", None),
    ("registry", "SubsystemRegistry.restricted", "registry.restricted", None),
    ("registry", "SubsystemRegistry.combined", "registry.combined", None),
    ("registry", "SubsystemRegistry.flat_index", "registry.flat_index", None),
    ("registry", "SubsystemRegistry.basis_tuple", "registry.basis_tuple", None),
    ("states", "StateVector.__post_init__", "states.statevector", None),
    ("states", "DensityMatrix.__post_init__", "states.density", _density_bytes),
    ("states", "partial_trace", "states.partial_trace", None),
    ("states", "tensor", "states.tensor", None),
    ("states", "born_probability", "states.born_probability", None),
    ("channels", "build_measurement_isometry", "channels.build_isometry", None),
    ("channels", "build_preparation_isometry", "channels.build_isometry", None),
    ("channels", "apply_isometry", "channels.apply_isometry", _amps_out),
    ("channels", "branch_decomposition", "channels.branch_decomposition", _branches),
    ("channels", "collapse", "channels.collapse", None),
    ("experiment", "evolve", "experiment.evolve", _readout),
    ("experiment", "evolved_density", "experiment.memory_state", None),
    ("experiment", "memory_state", "experiment.memory_state", None),
    ("experiment", "conditional", "experiment.conditional", None),
    ("experiment", "conditional_table", "experiment.conditional", None),
    ("experiment", "conditional_via_renormalized_state", "experiment.conditional", None),
    ("experiment", "marginal", "experiment.marginal", None),
    ("experiment", "post_select", "experiment.post_select", None),
    ("experiment", "JointDistribution.probability", "experiment.joint.probability", None),
    ("presets", "frauchiger_renner", "presets.build", None),
    ("presets", "deutsch_variant", "presets.build", None),
    ("presets", "wigner_friend", "presets.build", None),
    ("serialize", "experiment_to_document", "serialize.roundtrip", None),
    ("serialize", "document_to_experiment", "serialize.roundtrip", None),
    ("serialize", "dumps_canonical", "serialize.roundtrip", None),
    ("deduction", "build_fr_scenario", "deduction.scenario", None),
    ("deduction", "build_deutsch_scenario", "deduction.scenario", None),
    ("deduction", "certainty_deductions", "deduction.certainty_deductions", None),
    ("deduction", "chain", "deduction.chain", None),
    ("storyplot", "plot_from_distribution", "storyplot.plot_from_distribution", None),
    ("storyplot", "check_compatibility", "storyplot.check_compatibility", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [span id, start ns, child ns]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.keep_spans = False
        self.spans: list[tuple] = []  # (id, parent id, name, start ns, end ns)
        self._next_id = 0

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def reset(self) -> None:
        """Forget the aggregates (between set-up, warm-up and the timed loop)."""
        self.calls.clear()
        self.total_ns.clear()
        self.self_ns.clear()
        self.counts.clear()

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_ns": dict(self.total_ns),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
        }

    def enter(self) -> list:
        self._next_id += 1
        frame = [self._next_id, 0, 0]
        self.stack.append(frame)
        frame[1] = _clock()
        return frame

    def exit(self, name: str, frame: list) -> None:
        end = _clock()
        self.stack.pop()
        duration = end - frame[1]
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - frame[2]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if self.keep_spans:
            self.spans.append((frame[0], parent[0] if parent else None, name, frame[1], end))

    def span(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` inside a span of its own (the benchmark's question root)."""
        frame = self.enter()
        try:
            return fn(*args)
        finally:
            self.exit(name, frame)

    def wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(name, frame)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced


def install(tracer: Tracer, package) -> None:
    """Wrap every target in every ``wignersim`` namespace."""
    prefix = package.__name__ + "."
    namespaces = [package] + [
        m for name, m in sorted(sys.modules.items()) if name.startswith(prefix) and m is not None
    ]
    for module_name, path, span_name, hook in TARGETS:
        module = sys.modules[prefix + module_name]
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, attr, tracer.wrap(span_name, getattr(owner, attr), hook))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(span_name, original, hook)
        for namespace in namespaces:
            for bound, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, bound, wrapper)
