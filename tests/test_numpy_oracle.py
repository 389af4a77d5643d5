"""The stacked ensemble against the plain-numpy oracle in :mod:`numpy_oracle`.

The oracle kron-pads every step's matrix to the full registry and collapses
and conditions with explicit full-dimensional projectors, so it shares no
code with the library's stacked kernel, nor with the public
``apply_isometry``/``branch_decomposition`` that now run on that kernel.
Every preset and a GHZ circuit with a complex amplitude (the presets are
real) are checked under every collapse model: the ``evolve`` joint at every
truncation time, ``conditional_via_renormalized_state`` for every ordered
agent pair and possible outcome, and ``memory_state`` for every kept subset
of up to two factors plus the memories, unconditioned and conditioned on
every possible single outcome.
"""

import itertools
import math

import numpy as np
import pytest

import numpy_oracle as oracle
from dense_ensemble import ghz_spec, models_for
from wignersim.experiment import conditional_via_renormalized_state, evolve, memory_state
from wignersim.presets import presets

ORACLE_ATOL = 1e-12

SPECS = {name: build() for name, build in sorted(presets().items())}
SPECS["ghz-2-2"] = ghz_spec(2, 2, math.sqrt(0.35), 1j * math.sqrt(0.65), (0.3, 1.1))
CASES = [(name, model) for name, spec in SPECS.items() for model in models_for(spec)]
IDS = [f"{name}-{model.tag}" for name, model in CASES]


def test_every_case_fits_the_oracle():
    assert max(s.registry_after().total_dimension for s in SPECS.values()) <= 256


@pytest.mark.parametrize("name,model", CASES, ids=IDS)
def test_evolve_joint_at_every_truncation_time(name, model):
    spec = SPECS[name]
    for through in [None, 0] + [s.time for s in spec.steps]:
        labels, dims, branches = oracle.ensemble(spec, model, through)
        want = oracle.joint(spec, model, labels, dims, branches, through)
        got = evolve(spec, model, through)
        assert got.array.shape == want.shape
        assert np.max(np.abs(got.array - want), initial=0.0) < ORACLE_ATOL, through


def possible_outcomes(spec, model):
    """(agent, outcome) for every outcome of nonzero marginal probability."""
    labels, dims, branches = oracle.ensemble(spec, model)
    array = oracle.joint(spec, model, labels, dims, branches)
    for axis, step in enumerate(spec.measuring_steps):
        other = tuple(i for i in range(array.ndim) if i != axis)
        for outcome, p in zip(step.iso.outcome_labels, array.sum(axis=other)):
            if p > 1e-9:
                yield step.agent, outcome


@pytest.mark.parametrize("name,model", CASES, ids=IDS)
def test_renormalized_state_conditional(name, model):
    spec = SPECS[name]
    cases = 0
    for (given, outcome), target in itertools.product(
        possible_outcomes(spec, model), spec.measuring_agents
    ):
        through = max(spec.step_for(target).time, spec.step_for(given).time)
        labels, dims, branches = oracle.ensemble(spec, model, through)
        branches = oracle.conditioned(spec, model, labels, dims, branches, {given: outcome})
        array = oracle.joint(spec, model, labels, dims, branches, through)
        agents = [s.agent for s in spec.measuring_steps if s.time <= through]
        axis = agents.index(target)
        want = array.sum(axis=tuple(i for i in range(array.ndim) if i != axis))
        got = conditional_via_renormalized_state(spec, model, target, given, outcome)
        assert list(got) == list(spec.step_for(target).iso.outcome_labels)
        assert np.max(np.abs(np.array(list(got.values())) - want)) < ORACLE_ATOL, (
            f"{target}|{given}={outcome}"
        )
        cases += 1
    assert cases > 0


def kept_sets(spec):
    labels = spec.registry_after().labels
    for size in (1, 2):
        yield from itertools.combinations(labels, size)
    yield tuple(s.iso.memory_label for s in spec.measuring_steps)


@pytest.mark.parametrize("name,model", CASES, ids=IDS)
def test_memory_state(name, model):
    spec = SPECS[name]
    registry = spec.registry_after()
    labels, dims, evolved = oracle.ensemble(spec, model)
    givens = [None] + [{agent: outcome} for agent, outcome in possible_outcomes(spec, model)]
    for given in givens:
        branches = evolved
        if given:
            branches = oracle.conditioned(spec, model, labels, dims, evolved, given)
        for keep in kept_sets(spec):
            discard = set(registry.labels) - set(keep)
            got = memory_state(spec, model, discard, given)
            assert got.registry == registry.restricted(keep)
            want = oracle.reduced_density(labels, dims, branches, keep)
            assert np.max(np.abs(got.entries - want)) < ORACLE_ATOL, (keep, given)
