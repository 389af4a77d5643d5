"""A pair's answers come from its backward cone and match the full circuit.

``conditional_table`` and ``conditional_via_renormalized_state`` evolve only
the steps that the two memories can feel.  These tests pin that nothing else
changes: on every preset and three GHZ circuits, under pure isometry,
objective collapse, every one-agent and every two-agent collapse set, each
ordered pair's table equals Bayes' rule on the full truncated circuit, with
the same columns and model tag, and so does every renormalized column.  A
mechanism pin checks that GHZ(4,4)'s ``W3|F3`` replays two steps in a few
KiB instead of the whole 65,536-amplitude state.
"""

import itertools
import math
import tracemalloc

import pytest

from dense_ensemble import ghz_spec
from wignersim.channels import NO_COLLAPSE, OBJECTIVE_COLLAPSE, CollapseModel, _Ensemble
from wignersim.experiment import (
    conditional,
    conditional_table,
    conditional_via_renormalized_state,
    evolve,
)
from wignersim.presets import presets

ATOL = 1e-12
ALPHA = math.sqrt(0.35)
BETA = math.sqrt(0.65) * complex(math.cos(1.1), math.sin(1.1))
THETAS = (0.3, 1.1, 0.7, 0.2)

BUILDERS = dict(sorted(presets().items()))
for _n, _m in [(2, 2), (3, 3), (3, 2)]:
    BUILDERS[f"ghz-{_n}-{_m}"] = lambda n=_n, m=_m: ghz_spec(n, m, ALPHA, BETA, THETAS[:m])


def collapse_sets(spec):
    agents = spec.measuring_agents
    return [NO_COLLAPSE, OBJECTIVE_COLLAPSE] + [
        CollapseModel(frozenset(s)) for r in (1, 2) for s in itertools.combinations(agents, r)
    ]


@pytest.mark.parametrize("name", BUILDERS)
def test_every_pair_answers_as_the_full_truncated_circuit(name):
    spec = BUILDERS[name]()
    pruned = 0
    for model in collapse_sets(spec):
        for target, given in itertools.permutations(spec.measuring_agents, 2):
            through = max(spec.step_for(target).time, spec.step_for(given).time)
            want = conditional(evolve(spec, model, through), target, given)
            got = conditional_table(spec, model, target, given)
            case = (model.tag, target, given)
            assert got.model_tag == want.model_tag, case
            assert got.present_columns() == want.present_columns(), case
            for g in want.columns:
                for t, p in want.columns[g].items():
                    assert abs(got.columns[g][t] - p) <= ATOL, case + (g, t)
                renormalized = conditional_via_renormalized_state(spec, model, target, given, g)
                assert renormalized.keys() == want.columns[g].keys(), case + (g,)
                for t, p in want.columns[g].items():
                    assert abs(renormalized[t] - p) <= ATOL, case + (g, t)
            pruned += len(spec._cone(target, given, through).steps) < spec._stop(through)
    if name.startswith("ghz"):
        assert pruned > 0  # the comparison above covers cones that leave steps out


def counted_steps(monkeypatch):
    calls = []
    stepped = _Ensemble.stepped

    def counting(self, plan, collapses):
        calls.append(plan.iso.agent)
        return stepped(self, plan, collapses)

    monkeypatch.setattr(_Ensemble, "stepped", counting)
    return calls


@pytest.mark.parametrize(
    "model",
    [NO_COLLAPSE, CollapseModel.subjective("F0"), OBJECTIVE_COLLAPSE],
    ids=lambda m: m.tag,
)
def test_a_pair_table_on_ghz_4_4_replays_its_two_steps_in_a_few_kib(model, monkeypatch):
    spec = ghz_spec(4, 4, ALPHA, BETA, THETAS)
    assert spec._stop(spec.step_for("W3").time) == 8
    calls = counted_steps(monkeypatch)
    table = conditional_table(spec, model, "W3", "F3")
    assert calls == ["F3", "W3"]
    assert table.model_tag == model.tag
    tracemalloc.start()
    try:
        conditional_table(spec, model, "W3", "F3")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The full truncated circuit holds 65,536 amplitudes (1 MiB) per copy.
    assert peak < 64 * 1024, peak


def test_the_cone_keeps_what_the_memories_can_feel_and_is_shared_by_both_orders():
    spec = ghz_spec(3, 3, ALPHA, BETA, THETAS[:3])
    through = spec.step_for("W2").time
    cone = spec._cone("W2", "F1", through)
    # W1 acts on F1's memory after F1's step; F0 and W0 touch neither memory.
    assert [s.agent for s in cone.steps] == ["F1", "F2", "W1", "W2"]
    assert (cone.name, cone.halting) == (spec.name, None)
    assert cone.registry is spec.registry and cone.initial is spec.initial
    assert spec._cone("F1", "W2", through) is cone
    # W1 comes before W2 but reads only Q1 and F1.
    assert [s.agent for s in spec._cone("W0", "W2", through).steps] == ["F0", "F2", "W0", "W2"]
    # A cone that leaves no step out is the spec itself, which has the plans.
    assert spec._cone("F1", "F0", spec.step_for("F1").time) is spec
