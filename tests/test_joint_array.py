"""The array-backed joint against plain-Python sums over its support view.

``JointDistribution`` keeps one array with an axis per agent, and answers
``probability``, ``marginal``, ``conditional`` and ``post_select`` with axis
operations on it.  Each answer is recomputed here by a loop over
``joint.probs.items()`` that shares no code with those operations.  The check
covers every preset under every collapse model, at every step time, and two
GHZ friend/superobserver circuits.
"""

import itertools
import math
import pickle
import re

import numpy as np
import pytest

from circuits import ghz_spec, models_for
from wignersim.experiment import (
    JointDistribution,
    conditional,
    conditional_via_renormalized_state,
    evolve,
    marginal,
    memory_state,
    post_select,
)
from wignersim.presets import presets

TOL = 1e-15
ZERO_MARGINAL = 1e-12  # the library's CONDITION_EPS: a column below it is absent

SPECS = {name: build() for name, build in sorted(presets().items())}
SPECS["ghz-2-2"] = ghz_spec(2, 2, math.sqrt(0.35), 1j * math.sqrt(0.65), (0.3, 0.6))
SPECS["ghz-3-2"] = ghz_spec(3, 2, math.sqrt(0.6), -math.sqrt(0.4), (0.9, 1.2))
CASES = [(name, model) for name, spec in SPECS.items() for model in models_for(spec)]
IDS = [f"{name}-{model.tag}" for name, model in CASES]


def joints(spec, model):
    # Time 0 precedes every step, so its joint has no agents at all.
    for through in [None, 0] + [s.time for s in spec.steps]:
        yield evolve(spec, model, through)


def ref_probability(joint, condition):
    return sum(
        p
        for assignment, p in joint.probs.items()
        if all(assignment[agent] == o for agent, o in condition.items())
    )


def ref_marginal(joint, agent):
    out = dict.fromkeys(joint.alphabets[agent], 0.0)
    for assignment, p in joint.probs.items():
        out[assignment[agent]] += p
    return out


def conditions(joint, size):
    for agents in itertools.combinations(joint.agents, size):
        for outcomes in itertools.product(*(joint.alphabets[a] for a in agents)):
            yield dict(zip(agents, outcomes))


@pytest.mark.parametrize("name,model", CASES, ids=IDS)
def test_support_view_lists_the_nonzero_cells_in_basis_order(name, model):
    for joint in joints(SPECS[name], model):
        cells = [
            tuple(joint.alphabets[agent].index(o) for agent, o in assignment.outcomes)
            for assignment in joint.probs
        ]
        assert all(tuple(a for a, _ in key.outcomes) == joint.agents for key in joint.probs)
        assert cells == sorted(cells)
        assert len(joint.probs) == np.count_nonzero(joint.array > 0)
        assert list(joint.probs.values()) == [joint.array[cell] for cell in cells]


@pytest.mark.parametrize("name,model", CASES, ids=IDS)
def test_probability_of_every_one_and_two_agent_condition(name, model):
    for joint in joints(SPECS[name], model):
        for size in (1, 2):
            for condition in conditions(joint, size):
                want = ref_probability(joint, condition)
                assert abs(joint.probability(condition) - want) <= TOL, condition


@pytest.mark.parametrize("name,model", CASES, ids=IDS)
def test_marginals_and_every_ordered_conditional(name, model):
    for joint in joints(SPECS[name], model):
        for agent in joint.agents:
            got, want = marginal(joint, agent), ref_marginal(joint, agent)
            assert list(got) == list(want)
            assert max(abs(got[o] - want[o]) for o in want) <= TOL
        for target, given in itertools.permutations(joint.agents, 2):
            table = conditional(joint, target, given)
            given_marginal = ref_marginal(joint, given)
            present = [g for g, pg in given_marginal.items() if pg > ZERO_MARGINAL]
            assert list(table.columns) == present
            for g in present:
                pg = given_marginal[g]
                for t in joint.alphabets[target]:
                    want = ref_probability(joint, {target: t, given: g}) / pg
                    got = table.columns[g][t]
                    assert abs(got - want) <= TOL, f"{target}={t}|{given}={g}"


@pytest.mark.parametrize("name,model", CASES, ids=IDS)
def test_post_select_on_the_halting_condition(name, model):
    spec = SPECS[name]
    joint = evolve(spec, model)
    halting = [dict(spec.halting)] if spec.halting else []
    for condition in halting + list(conditions(joint, 1)):
        total = ref_probability(joint, condition)
        if total <= ZERO_MARGINAL:
            continue
        want = {
            a: p / total
            for a, p in joint.probs.items()
            if all(a[agent] == o for agent, o in condition.items())
        }
        got = post_select(joint, condition).probs
        assert list(got) == list(want)
        assert max(abs(got[a] - want[a]) for a in want) <= TOL


def test_joint_array_and_support_view_are_read_only():
    joint = evolve(SPECS["fr"], models_for(SPECS["fr"])[0])
    view = joint.probs
    assert pickle.loads(pickle.dumps(joint)).probs == view
    assert not joint.array.flags.writeable
    with pytest.raises(ValueError):
        joint.array[(0,) * joint.array.ndim] = 1.0
    with pytest.raises(TypeError):
        joint.probs[next(iter(joint.probs))] = 1.0
    with pytest.raises(KeyError, match="unknown agents"):
        joint.probability({"nobody": "o"})


def test_an_unknown_outcome_is_no_event_on_every_route():
    """An outcome outside its alphabet raises; it is not a zero-probability event."""
    spec, model = SPECS["fr"], models_for(SPECS["fr"])[0]
    joint = evolve(spec, model)
    message = re.escape(repr("'zz' is not an outcome of 'A'"))
    calls = [
        lambda: joint.probability({"A": "zz"}),
        lambda: post_select(joint, {"A": "zz"}),
        lambda: post_select(joint, {"W": "O", "A": "zz"}),
        lambda: conditional_via_renormalized_state(spec, model, "W", "A", "zz"),
        lambda: memory_state(spec, model, ["S"], {"A": "zz"}),
    ]
    for call in calls:
        with pytest.raises(KeyError, match=f"^{message}$"):
            call()
    with pytest.raises(KeyError, match="unknown agents"):
        post_select(joint, {"nobody": "o", "A": "zz"})


@pytest.mark.parametrize(
    "array,message",
    [([0.5, 0.4], "joint distribution sums to 0.9, not 1"), ([1.1, -0.1], "negative probability -0.1")],
    ids=["sum", "negative"],
)
def test_an_array_that_is_no_distribution_is_rejected(array, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        JointDistribution(("A",), {"A": ("a", "b")}, np.array(array), "ism")
