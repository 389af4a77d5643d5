"""Collapsed memories as record factors, against the dense reference ensemble.

Under a collapse model each branch keeps a collapsed memory as a
one-dimensional record factor instead of a full factor that is one-hot at the
outcome.  Here the record-factor ensemble, the ``evolve`` joint and the
renormalized-state conditional are compared, for every preset and model, with
:mod:`dense_ensemble`, which keeps every branch on the full registry.  The
memory states and evolved densities built from the same ensemble are checked
against it in ``test_reduced_density.py``.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from dense_ensemble import dense_condition, dense_ensemble, dense_joint, ghz_spec, models_for
from wignersim.channels import (
    NO_COLLAPSE,
    OBJECTIVE_COLLAPSE,
    CollapseModel,
    _expand_records,
    apply_isometry,
    build_measurement_isometry,
)
from wignersim.experiment import (
    ExperimentSpec,
    OutcomeAssignment,
    Step,
    _evolved_branches,
    _memory_readout,
    conditional_via_renormalized_state,
    evolve,
    marginal,
)
from wignersim.presets import presets, wigner_friend
from wignersim.registry import Subsystem, SubsystemRegistry
from wignersim.states import StateVector

ORACLE_ATOL = 1e-12

PRESET_MODELS = [
    (name, model)
    for name, build in sorted(presets().items())
    for model in models_for(build())
]
IDS = [f"{n}-{m.tag}" for n, m in PRESET_MODELS]


def through_times(spec):
    return [None] + [s.time for s in spec.steps]


@pytest.mark.parametrize("name,model", PRESET_MODELS, ids=IDS)
def test_branches_are_the_dense_branches_with_records_folded(name, model):
    spec = presets()[name]()
    for through in through_times(spec):
        registry = spec.registry_after(through)
        got = _evolved_branches(spec, model, through)
        want = dense_ensemble(spec, model, through)
        assert len(got) == len(want)
        for b, w in zip(got, want):
            assert b.records == w.records
            assert abs(b.weight - w.weight) < ORACLE_ATOL
            # Labels never move; a record factor holds exactly its outcome.
            assert b.state.registry.labels == registry.labels
            for agent, outcome in b.records:
                label = spec.step_for(agent).iso.memory_label
                held = b.state.registry.subsystem(label)
                assert held in (Subsystem(label, 1, (outcome,)), registry.subsystem(label))
            full = _expand_records(b.state, registry.subsystems)
            assert full.registry == registry
            assert np.max(np.abs(full.amplitudes - w.state.amplitudes)) < ORACLE_ATOL


def joint_array(joint, agents, alphabets):
    assert list(joint.agents) == list(agents)
    out = np.zeros(tuple(len(a) for a in alphabets))
    for assignment, p in joint.probs.items():
        out[tuple(alphabets[i].index(assignment[a]) for i, a in enumerate(agents))] += p
    return out


@pytest.mark.parametrize("name,model", PRESET_MODELS, ids=IDS)
def test_evolve_joint_matches_dense_ensemble(name, model):
    spec = presets()[name]()
    for through in through_times(spec):
        agents, alphabets, want = dense_joint(spec, model, through)
        got = joint_array(evolve(spec, model, through), agents, alphabets)
        assert np.max(np.abs(got - want)) < ORACLE_ATOL


def dense_conditional(spec, model, target, given, given_outcome):
    through = max(spec.step_for(target).time, spec.step_for(given).time)
    branches = dense_condition(
        dense_ensemble(spec, model, through), spec, model, {given: given_outcome}
    )
    step = spec.step_for(target)
    out = dict.fromkeys(step.iso.outcome_labels, 0.0)
    for b in branches:
        if model.collapses_at(target):
            out[dict(b.records)[target]] += b.weight
            continue
        axis = b.state.registry.axis(step.iso.memory_label)
        probs = np.moveaxis(np.abs(b.state.tensored()) ** 2, axis, 0)
        for outcome, p in zip(step.iso.outcome_labels, probs.reshape(len(out), -1).sum(1)):
            out[outcome] += b.weight * p
    return out


@pytest.mark.parametrize("name,model", PRESET_MODELS, ids=IDS)
def test_renormalized_state_conditional_matches_dense_ensemble(name, model):
    spec = presets()[name]()
    joint = evolve(spec, model)
    cases = 0
    # target == given included: conditioning then leaves the target's memory
    # a record factor, which the readout has to expand.
    for target, given in itertools.product(spec.measuring_agents, repeat=2):
        for outcome, p in marginal(joint, given).items():
            if p <= 1e-9:
                continue
            got = conditional_via_renormalized_state(spec, model, target, given, outcome)
            want = dense_conditional(spec, model, target, given, outcome)
            assert got.keys() == want.keys()
            assert max(abs(got[t] - want[t]) for t in want) < ORACLE_ATOL, (
                f"{target}|{given}={outcome}"
            )
            if target == given:
                assert got == pytest.approx(
                    {t: float(t == outcome) for t in got}, abs=ORACLE_ATOL
                )
            cases += 1
    assert cases > 0


def ndindex_joint(spec, model):
    """The readout loop over every cell, as ``evolve`` had it before."""
    branches = _evolved_branches(spec, model)
    registry = spec.registry_after()
    steps = spec.measuring_steps
    agents = tuple(s.agent for s in steps)
    readout_steps = [s for s in steps if not model.collapses_at(s.agent)]
    memory_axes = [registry.axis(s.iso.memory_label) for s in readout_steps]
    mem_dims = tuple(registry.dims[a] for a in memory_axes)
    probs = {}
    for b in branches:
        readout = b.weight * _memory_readout(b.state, memory_axes)
        for idx in np.ndindex(*mem_dims):
            p = float(readout[idx])
            if p <= 1e-15:
                continue
            by_agent = dict(b.records)
            for s, i in zip(readout_steps, idx):
                by_agent[s.agent] = s.iso.outcome_labels[i]
            assignment = OutcomeAssignment.from_pairs((a, by_agent[a]) for a in agents)
            probs[assignment] = probs.get(assignment, 0.0) + p
    return probs


@pytest.mark.parametrize("name,model", PRESET_MODELS, ids=IDS)
def test_support_readout_equals_every_cell_loop(name, model):
    spec = presets()[name]()
    got = evolve(spec, model).probs
    want = ndindex_joint(spec, model)
    assert got == want
    # The support view lists cells in basis order.  The loop's dict is in
    # branch order, which differs when a collapsed agent is not the first.
    alphabets = {s.agent: s.iso.outcome_labels for s in spec.measuring_steps}
    basis_order = sorted(
        want, key=lambda a: tuple(alphabets[x].index(o) for x, o in a.outcomes)
    )
    assert list(got) == basis_order


GHZ_ALPHA = math.sqrt(0.35)
GHZ_BETA = math.sqrt(0.65) * complex(math.cos(1.1), math.sin(1.1))


def test_ghz44_objective_branches_hold_only_uncollapsed_factors():
    spec = ghz_spec(4, 4, GHZ_ALPHA, GHZ_BETA, (0.3, 0.6, 0.9, 1.2))
    assert spec.registry_after().total_dimension == 65536
    branches = _evolved_branches(spec, OBJECTIVE_COLLAPSE)
    assert len(branches) == 32
    assert max(b.state.registry.total_dimension for b in branches) <= 256
    tracemalloc.start()
    try:
        joint = evolve(spec, OBJECTIVE_COLLAPSE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One full-registry branch alone is 16·65536 bytes (1 MiB); the ensemble
    # of 32 such branches held 32 MiB.
    assert peak < 8 * 2**20
    assert sum(joint.probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_step_on_an_unexpanded_record_factor_raises():
    spec = wigner_friend("superposition")
    friend, wigner = spec.steps
    (branch, _) = _evolved_branches(spec, CollapseModel.subjective("F"), friend.time)
    assert branch.state.registry.subsystem("F").dimension == 1
    with pytest.raises(ValueError, match="bases differ"):
        apply_isometry(branch.state, wigner.iso)


@pytest.mark.parametrize("model", [NO_COLLAPSE, CollapseModel.subjective("F0")], ids=lambda m: m.tag)
def test_step_on_a_memory_in_another_basis_fails_when_applied(model):
    # The spec checks only labels; the basis mismatch is caught when the step
    # is applied, also when the memory was collapsed to a record factor.
    spec = ghz_spec(1, 1, GHZ_ALPHA, GHZ_BETA, (0.5,))
    friend = spec.steps[0]
    flipped = SubsystemRegistry((spec.registry.subsystem("Q0"), Subsystem("F0", 2, ("b", "a"))))
    basis = [StateVector.basis_state(flipped, ("0", "a")), StateVector.basis_state(flipped, ("1", "b"))]
    iso = build_measurement_isometry("W0", flipped, basis, memory="W0")
    spec = ExperimentSpec("flipped", spec.registry, spec.initial, (friend, Step(2, iso)))
    with pytest.raises(ValueError, match="bases differ"):
        evolve(spec, model)
