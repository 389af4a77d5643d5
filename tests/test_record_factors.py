"""Collapsed memories as record factors, against the dense reference ensemble.

Under a collapse model each row of the stacked ensemble keeps a collapsed
memory as a length-1 record factor instead of a full factor that is one-hot
at the outcome.  Here the stacked ensemble, the ``evolve`` joint and the
renormalized-state conditional are compared, for every preset and model, with
:mod:`dense_ensemble`, which keeps every branch on the full registry.  The
memory states and evolved densities built from the same ensemble are checked
against it in ``test_reduced_density.py``.
"""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from dense_ensemble import dense_condition, dense_ensemble, dense_joint, ghz_spec, models_for
from wignersim.channels import (
    NO_COLLAPSE,
    OBJECTIVE_COLLAPSE,
    CollapseModel,
    _Ensemble,
    _isometry_image,
    _StepPlan,
    build_measurement_isometry,
)
from wignersim.experiment import (
    ExperimentSpec,
    OutcomeAssignment,
    Step,
    _evolved_branches,
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


def row_records(ensemble, spec, row):
    """Row ``row``'s records as (agent, outcome) pairs, in the order recorded."""
    agent_of = {s.iso.memory_label: s.agent for s in spec.measuring_steps}
    return tuple(
        (agent_of[label], ensemble.layout.subsystem(label).basis_labels[r[row]])
        for label, r in ensemble.records.items()
    )


@pytest.mark.parametrize("name,model", PRESET_MODELS, ids=IDS)
def test_branches_are_the_dense_branches_with_records_folded(name, model):
    spec = presets()[name]()
    for through in through_times(spec):
        registry = spec.registry_after(through)
        got = _evolved_branches(spec, model, through)
        want = dense_ensemble(spec, model, through)
        assert len(got.amps) == len(got.weights) == len(want)
        # Labels never move; a record factor holds exactly its outcome.
        assert sorted(got.layout.subsystems, key=registry.subsystems.index) == list(
            registry.subsystems
        )
        for label in registry.labels:
            held = got.amps.shape[got.layout.axis(label) + 1]
            assert held == registry.subsystem(label).dimension or (
                held == 1 and label in got.records
            )
        for row, (state, w) in enumerate(zip(got.states(), want)):
            assert row_records(got, spec, row) == w.records
            assert abs(got.weights[row] - w.weight) < ORACLE_ATOL
            assert state.registry == registry
            assert np.max(np.abs(state.amplitudes - w.state.amplitudes)) < ORACLE_ATOL


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
    """The readout loop over every cell, row by row, as ``evolve`` had it before."""
    ensemble = _evolved_branches(spec, model)
    registry = spec.registry_after()
    steps = spec.measuring_steps
    agents = tuple(s.agent for s in steps)
    readout_steps = [s for s in steps if not model.collapses_at(s.agent)]
    memory_axes = [registry.axis(s.iso.memory_label) for s in readout_steps]
    mem_dims = tuple(registry.dims[a] for a in memory_axes)
    probs = {}
    for row, (weight, state) in enumerate(zip(ensemble.weights, ensemble.states())):
        amps = state.tensored()
        other = tuple(i for i in range(amps.ndim) if i not in memory_axes)
        readout = weight * (np.abs(amps) ** 2).sum(axis=other)
        for idx in np.ndindex(*mem_dims):
            p = float(readout[idx])
            if p <= 1e-15:
                continue
            by_agent = dict(row_records(ensemble, spec, row))
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
    ensemble = _evolved_branches(spec, OBJECTIVE_COLLAPSE)
    assert len(ensemble.weights) == 32
    assert ensemble.amps[0].size <= 256
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
    ensemble = _evolved_branches(spec, CollapseModel.subjective("F"), friend.time)
    assert len(ensemble.weights) == 2
    assert ensemble.is_record("F")
    with pytest.raises(ValueError, match="bases differ"):
        plan = _StepPlan.of(ensemble.registry, ensemble.layout, wigner.iso)
        _isometry_image(ensemble.amps, plan)


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


NOT_NORMALIZED = re.compile(
    r"state not normalized: \|psi\|\^2 = (\S+) "
    r"\(pass normalized=False for an unnormalized branch\)"
)


@pytest.mark.parametrize("norm_sq", [1 + 2e-12, 1 - 2e-12, math.nan], ids=["high", "low", "nan"])
@pytest.mark.parametrize("collapses", [False, True], ids=["step", "collapse"])
def test_row_norm_check_rejects_a_bad_row_as_state_vector_does(norm_sq, collapses):
    spec = wigner_friend("superposition")
    good = spec.initial.tensored()
    rows = np.stack([good, good * math.sqrt(norm_sq)])
    with pytest.raises(ValueError) as state_error:
        StateVector(spec.registry, rows[1])
    ensemble = _Ensemble(spec.registry, spec.registry, rows, np.array([0.5, 0.5]), {})
    if collapses and not math.isnan(norm_sq):
        # A collapse renormalizes its outcome rows, so only NaN survives it.
        assert len(ensemble.stepped(spec._plans(None)[0], collapses).weights) == 4
        return
    with pytest.raises(ValueError) as ensemble_error, np.errstate(invalid="ignore"):
        ensemble.stepped(spec._plans(None)[0], collapses)
    want = NOT_NORMALIZED.fullmatch(str(state_error.value))
    got = NOT_NORMALIZED.fullmatch(str(ensemble_error.value))
    assert want and got
    assert float(got[1]) == pytest.approx(float(want[1]), abs=1e-15, nan_ok=True)


def test_row_norm_check_accepts_rows_within_the_bound():
    spec = wigner_friend("superposition")
    good = spec.initial.tensored()
    rows = np.stack([good * math.sqrt(1 + 5e-13), good * math.sqrt(1 - 5e-13)])
    ensemble = _Ensemble(spec.registry, spec.registry, rows, np.array([0.5, 0.5]), {})
    assert len(ensemble.stepped(spec._plans(None)[0], False).weights) == 2
