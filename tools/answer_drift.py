"""Every answer of a parent commit and of this checkout, compared route by route.

Usage, from the root of a checkout::

    python3 tools/answer_drift.py PARENT_REF

``PARENT_REF`` is unpacked with ``git archive`` into a temporary directory,
as ``tools/pairs.py`` does, and imported as ``old_wignersim`` next to this
checkout's working tree as ``new_wignersim`` (``tools/interleave.py``'s
loader).  Both sides build the four presets and GHZ(2,2), (3,2), (3,3) and
(4,4) (``perfbench/ghz.py`` with fixed amplitudes and angles) and ask them,
under ``ism``, ``objective`` and every ``clps:X``:

* ``evolve`` at every truncation;
* ``evolved_density`` at every truncation of total dimension ≤ 1024;
* ``conditional_table`` for every ordered pair of agents;
* ``renormalized`` (``conditional_via_renormalized_state``) for every
  ordered pair and every outcome of the given agent;
* ``memory_state`` on the presets for every nonempty kept set of labels,
  and on GHZ(2,2) and (3,2) for every kept set of one or two labels, each
  with no given outcome and with each single given outcome.

It prints, per route, the number of answers, how many are bitwise equal
(an error counts as an answer: equal when both sides raise the same type
and message), the largest |Δ| of the answers whose shape is the same, the
answers whose support changed (which cells or columns are nonzero, or their
labels) and the errors that differ.  It exits 1 when a support or an error
differs, else 0.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "perfbench"))

import ghz  # noqa: E402
from interleave import load  # noqa: E402
from pairs import unpack  # noqa: E402

GHZ = {
    (2, 2): ghz.GhzParams(2, 2, math.sqrt(0.35), 1j * math.sqrt(0.65), (0.3, 1.1)),
    (3, 2): ghz.GhzParams(3, 2, math.sqrt(0.6), -math.sqrt(0.4), (0.9, 1.2)),
    (3, 3): ghz.GhzParams(
        3, 3, math.sqrt(0.35), math.sqrt(0.65) * complex(math.cos(1.1), math.sin(1.1)),
        (0.3, 1.1, 0.7),
    ),
    (4, 4): ghz.GhzParams(4, 4, math.sqrt(0.45), -1j * math.sqrt(0.55), (0.3, 1.1, 0.7, 0.2)),
}
DENSITY_MAX_DIM = 1024
MEMORY_GHZ = ("ghz-2-2", "ghz-3-2")  # asked memory_state on kept sets of at most 2 labels
ROUTES = ("evolve", "evolved_density", "conditional_table", "renormalized", "memory_state")


def specs(ws) -> dict:
    out = {name: build() for name, build in sorted(ws.presets().items())}
    for (n, m), p in GHZ.items():
        out[f"ghz-{n}-{m}"] = ghz.build_spec(ws, p)
    return out


def models(ws, spec) -> list:
    return [ws.NO_COLLAPSE, ws.OBJECTIVE_COLLAPSE] + [
        ws.CollapseModel.subjective(agent) for agent in spec.measuring_agents
    ]


def answer(call):
    """(labels, values) of an answer, or ("error", message) if it raises.

    ``labels`` is everything but the numbers: agents, alphabets, registry,
    column keys and the model tag.  ``values`` is one flat array.
    """
    try:
        got = call()
    except Exception as err:  # an error is an answer too
        return "error", f"{type(err).__name__}: {err}"
    if hasattr(got, "array"):  # a joint
        return (got.agents, tuple(got.alphabets.items()), got.model_tag), got.array.ravel()
    if hasattr(got, "entries"):  # a density
        return got.registry.labels, got.entries.ravel()
    if hasattr(got, "columns"):  # a table
        keys = tuple((g, tuple(column)) for g, column in got.columns.items())
        values = [p for column in got.columns.values() for p in column.values()]
        return (keys, got.model_tag), np.array(values)
    return tuple(got), np.array(list(got.values()))  # a renormalized column


def questions(ws, name: str, spec):
    """(route, key, call) for every question the sweep asks of ``spec``."""
    times = [None, 0] + [s.time for s in spec.steps]
    pairs = list(itertools.permutations(spec.measuring_agents, 2))
    for model in models(ws, spec):
        for t in times:
            yield "evolve", (name, model.tag, t), lambda t=t, m=model: ws.evolve(spec, m, t)
            if spec.registry_after(t).total_dimension <= DENSITY_MAX_DIM:
                yield ("evolved_density", (name, model.tag, t),
                       lambda t=t, m=model: ws.evolved_density(spec, m, t))
        for target, given in pairs:
            yield ("conditional_table", (name, model.tag, target, given),
                   lambda a=target, b=given, m=model: ws.conditional_table(spec, m, a, b))
            for outcome in spec.step_for(given).iso.outcome_labels:
                yield ("renormalized", (name, model.tag, target, given, outcome),
                       lambda a=target, b=given, o=outcome, m=model:
                       ws.conditional_via_renormalized_state(spec, m, a, b, o))
        if name.startswith("ghz") and name not in MEMORY_GHZ:
            continue
        labels = spec.registry_after().labels
        most = 2 if name in MEMORY_GHZ else len(labels)
        givens = [{}] + [
            {s.agent: o} for s in spec.measuring_steps for o in s.iso.outcome_labels
        ]
        for r in range(1, most + 1):
            for keep in itertools.combinations(labels, r):
                discard = [label for label in labels if label not in keep]
                for given in givens:
                    yield ("memory_state", (name, model.tag, keep, tuple(given.items())),
                           lambda d=discard, g=given, m=model: ws.memory_state(spec, m, d, g))


def sweep(ws) -> dict:
    return {
        (route, key): answer(call)
        for name, spec in specs(ws).items()
        for route, key, call in questions(ws, name, spec)
    }


def compare(old: dict, new: dict) -> dict:
    if old.keys() != new.keys():
        raise SystemExit("error: the two sides asked different questions")
    rows = {route: {"answers": 0, "bitwise": 0, "max_delta": 0.0, "support": 0, "errors": 0}
            for route in ROUTES}
    for (route, _), (old_labels, old_values) in old.items():
        new_labels, new_values = new[route, _]
        row = rows[route]
        row["answers"] += 1
        if "error" in (old_labels, new_labels):
            same = (old_labels, old_values) == (new_labels, new_values)
            row["bitwise"] += same
            row["errors"] += not same
            continue
        if old_labels != new_labels or old_values.shape != new_values.shape:
            row["support"] += 1
            continue
        row["bitwise"] += old_values.tobytes() == new_values.tobytes()
        row["max_delta"] = max(row["max_delta"], float(np.max(np.abs(old_values - new_values),
                                                               initial=0.0)))
        row["support"] += not np.array_equal(old_values != 0, new_values != 0)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_ref")
    ref = parser.parse_args(argv).parent_ref
    with tempfile.TemporaryDirectory(prefix="answer-drift-") as tmp:
        old = sweep(load("old_wignersim", unpack(ref, Path(tmp))))
    new = sweep(load("new_wignersim", ROOT))
    rows = compare(old, new)
    print(f"{ref} -> working tree")
    print(f"{'route':<20}{'answers':>9}{'bitwise':>9}{'max |d|':>10}{'support':>9}{'errors':>8}")
    for route, row in rows.items():
        print(f"{route:<20}{row['answers']:>9}{row['bitwise']:>9}{row['max_delta']:>10.2g}"
              f"{row['support']:>9}{row['errors']:>8}")
    return int(any(row["support"] or row["errors"] for row in rows.values()))


if __name__ == "__main__":
    raise SystemExit(main())
