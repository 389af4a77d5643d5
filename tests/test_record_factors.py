"""Collapsed memories as record factors, against the plain-numpy oracle.

Under a collapse model each row of the stacked ensemble keeps a collapsed
memory as a length-1 record factor instead of a full factor that is one-hot
at the outcome.  Here the stacked ensemble and the ``evolve`` joint's
support view are compared, for every preset and model, with
:mod:`numpy_oracle`, which keeps every branch on the full registry and
shares no code with the kernel.  The renormalized-state conditional is
checked against it in ``test_numpy_oracle.py``, and the memory states and
evolved densities built from the same ensemble in
``test_reduced_density.py``.  Conditioning reads the records alone: it
selects the rows of a collapsed memory and projects a coherent one, and the
two give the same state.  A step that reads a memory in another basis
never reaches a record factor: its spec cannot be built.  A plan replayed
by hand on an ensemble that holds its domain as a record is still caught
when the step is applied.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

import numpy_oracle as oracle
from circuits import ghz_spec, models_for, read_model
from wignersim.channels import (
    BRANCH_CUT,
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
    _condition_branches,
    _evolved_branches,
    evolve,
)
from wignersim.presets import presets, wigner_friend
from wignersim.registry import Subsystem, SubsystemRegistry
from wignersim.states import StateVector, ZeroProbabilityError, _row_norms_sq

ORACLE_ATOL = 1e-12

PRESET_MODELS = [
    (name, model)
    for name, build in sorted(presets().items())
    for model in models_for(build())
]
IDS = [f"{n}-{m.tag}" for n, m in PRESET_MODELS]


def evolved(spec, model, through=None):
    """The ensemble of the whole truncated circuit: reading every label, the cone runs every step by then."""
    reads = frozenset(spec.registry_after(through).labels)
    ensemble, cone = _evolved_branches(spec, model, reads, through)
    run = [s for s in spec.steps if through is None or s.time <= through]
    assert list(map(id, cone.steps)) == list(map(id, run))
    return ensemble


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
def test_branches_are_the_oracle_branches_with_records_folded(name, model):
    spec = presets()[name]()
    for through in through_times(spec):
        registry = spec.registry_after(through)
        got = evolved(spec, model, through)
        labels, _, want = oracle.ensemble(spec, model, through)
        assert tuple(labels) == registry.labels
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
        for row, (state, (weight, vector, records)) in enumerate(zip(got.states(registry), want)):
            assert row_records(got, spec, row) == tuple(records.items())
            assert abs(got.weights[row] - weight) < ORACLE_ATOL
            assert state.registry == registry
            assert np.max(np.abs(state.amplitudes - vector)) < ORACLE_ATOL


def joint_array(joint, agents, alphabets):
    assert list(joint.agents) == list(agents)
    out = np.zeros(tuple(len(a) for a in alphabets))
    for assignment, p in joint.probs.items():
        out[tuple(alphabets[i].index(assignment[a]) for i, a in enumerate(agents))] += p
    return out


@pytest.mark.parametrize("name,model", PRESET_MODELS, ids=IDS)
def test_evolve_support_view_matches_the_oracle_joint(name, model):
    spec = presets()[name]()
    for through in through_times(spec):
        steps = [s for s in spec.measuring_steps if through is None or s.time <= through]
        agents = [s.agent for s in steps]
        alphabets = [s.iso.outcome_labels for s in steps]
        want = oracle.joint(spec, model, *oracle.ensemble(spec, model, through), through)
        got = joint_array(evolve(spec, model, through), agents, alphabets)
        assert np.max(np.abs(got - want)) < ORACLE_ATOL


def ndindex_joint(spec, model):
    """The readout loop over every cell, row by row, as ``evolve`` had it before."""
    ensemble = evolved(spec, model)
    registry = spec.registry_after()
    steps = spec.measuring_steps
    agents = tuple(s.agent for s in steps)
    readout_steps = [s for s in steps if not model.collapses_at(s.agent)]
    memory_axes = [registry.axis(s.iso.memory_label) for s in readout_steps]
    mem_dims = tuple(registry.dims[a] for a in memory_axes)
    probs = {}
    for row, (weight, state) in enumerate(zip(ensemble.weights, ensemble.states(registry))):
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
            assignment = OutcomeAssignment(tuple((a, by_agent[a]) for a in agents))
            probs[assignment] = probs.get(assignment, 0.0) + p
    return probs


@pytest.mark.parametrize("name,model", PRESET_MODELS, ids=IDS)
def test_support_readout_equals_every_cell_loop(name, model):
    spec = presets()[name]()
    got = evolve(spec, model).probs
    # The loop runs on the ensemble evolve reads: the caller's collapse set
    # plus the measurements the circuit settles.
    want = ndindex_joint(spec, read_model(spec, model))
    assert got == want
    # The support view lists cells in basis order.  The loop's dict is in
    # branch order, which differs when a collapsed agent is not the first.
    alphabets = {s.agent: s.iso.outcome_labels for s in spec.measuring_steps}
    basis_order = sorted(
        want, key=lambda a: tuple(alphabets[x].index(o) for x, o in a.outcomes)
    )
    assert list(got) == basis_order


def weighted_density(ensemble, registry):
    """The ensemble's density matrix on ``registry``, from its weighted rows."""
    rows = np.stack([state.amplitudes for state in ensemble.states(registry)])
    return np.einsum("b,bi,bj->ij", ensemble.weights, rows, rows.conj())


@pytest.mark.parametrize("name", sorted(presets()))
def test_conditioning_selects_recorded_rows_and_projects_coherent_memories(name):
    # No model is handed to the conditioning: a memory holds a record
    # exactly when its agent collapsed, and the record decides the update.
    spec = presets()[name]()
    for step in spec.measuring_steps:
        memory, registry = step.iso.memory_label, spec.registry_after(step.time)
        collapsed = evolved(spec, CollapseModel.subjective(step.agent), step.time)
        coherent = evolved(spec, NO_COLLAPSE, step.time)
        assert memory in collapsed.records and memory not in coherent.records
        for index, outcome in enumerate(step.iso.outcome_labels):
            keep = collapsed.records[memory] == index
            if not keep.any():
                for ensemble in (collapsed, coherent):
                    with pytest.raises(ZeroProbabilityError):
                        _condition_branches(ensemble, spec, {step.agent: outcome})
                continue
            selected = _condition_branches(collapsed, spec, {step.agent: outcome})
            assert np.array_equal(selected.amps, collapsed.amps[keep])
            projected = _condition_branches(coherent, spec, {step.agent: outcome})
            assert projected.is_record(memory)
            assert projected.records[memory].tolist() == [index] * len(projected.weights)
            for ensemble in (selected, projected):
                assert ensemble.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.max(
                np.abs(weighted_density(selected, registry) - weighted_density(projected, registry))
            ) < ORACLE_ATOL, (step.agent, outcome)


GHZ_ALPHA = math.sqrt(0.35)
GHZ_BETA = math.sqrt(0.65) * complex(math.cos(1.1), math.sin(1.1))


def test_ghz44_objective_branches_hold_only_uncollapsed_factors():
    spec = ghz_spec(4, 4, GHZ_ALPHA, GHZ_BETA, (0.3, 0.6, 0.9, 1.2))
    assert spec.registry_after().total_dimension == 65536
    ensemble = evolved(spec, OBJECTIVE_COLLAPSE)
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
    ensemble = evolved(spec, CollapseModel.subjective("F"), friend.time)
    assert len(ensemble.weights) == 2
    assert ensemble.is_record("F")
    with pytest.raises(ValueError, match="bases differ"):
        plan = _StepPlan.of(spec.registry_after(friend.time), ensemble.layout, wigner.iso)
        _isometry_image(ensemble.amps, plan)


def test_step_on_a_memory_in_another_basis_fails_when_the_spec_is_built():
    # The step's plan checks the basis, so no model ever reaches it, whether
    # or not it would hold the memory as a record factor.
    spec = ghz_spec(1, 1, GHZ_ALPHA, GHZ_BETA, (0.5,))
    friend = spec.steps[0]
    flipped = SubsystemRegistry((spec.registry.subsystem("Q0"), Subsystem("F0", 2, ("b", "a"))))
    basis = [StateVector.basis_state(flipped, ("0", "a")), StateVector.basis_state(flipped, ("1", "b"))]
    iso = build_measurement_isometry("W0", flipped, basis, memory="W0")
    with pytest.raises(ValueError, match="bases differ"):
        ExperimentSpec("flipped", spec.registry, spec.initial, (friend, Step(2, iso)))


def test_a_collapse_keeps_each_surviving_child_of_its_parent():
    # GHZ(3,2) under objective collapse: after F0 each row holds its qubits'
    # values, so every later step cuts half of its children (two of F1's and
    # F2's, and the two completion outcomes of W0's and W1's four).
    spec = ghz_spec(3, 2, GHZ_ALPHA, GHZ_BETA, (0.3, 1.1))
    ens, cut = spec._start, []
    for plan in spec._step_plans:
        image = _isometry_image(ens.expanded(plan.domain).amps, plan)
        children = ens.stepped(plan, collapses=True)
        b, k = image.shape[:2]
        row = 0
        for parent, outcome in np.ndindex(b, k):
            child = image[parent, outcome][None]
            p = _row_norms_sq(child[None])[0]
            if p <= BRANCH_CUT:
                continue
            for label, records in ens.records.items():
                assert children.records[label][row] == records[parent]
            assert children.records[plan.iso.memory_label][row] == outcome
            assert children.weights[row] == ens.weights[parent] * p
            assert np.array_equal(children.amps[row], child / np.sqrt(p))
            row += 1
        assert len(children.weights) == len(children.amps) == row
        assert children.records.keys() == ens.records.keys() | {plan.iso.memory_label}
        cut.append(b * k - row)
        ens = children
    assert cut == [0, 2, 2, 4, 8]
    # A NaN amplitude makes its row's children NaN: they are kept, so the
    # norm check rejects them.
    first = spec._start.stepped(spec._step_plans[0], collapses=True)
    amps = first.amps.copy()
    amps[1].flat[0] = math.nan
    poisoned = _Ensemble(first.layout, amps, first.weights, first.records)
    with pytest.raises(ValueError, match=r"^state not normalized: \|psi\|\^2 = nan$"):
        with np.errstate(invalid="ignore"):
            poisoned.stepped(spec._step_plans[1], collapses=True)


NOT_NORMALIZED = re.compile(r"state not normalized: \|psi\|\^2 = (\S+)")


@pytest.mark.parametrize("norm_sq", [1 + 2e-12, 1 - 2e-12, math.nan], ids=["high", "low", "nan"])
@pytest.mark.parametrize("collapses", [False, True], ids=["step", "collapse"])
def test_row_norm_check_rejects_a_bad_row_as_state_vector_does(norm_sq, collapses):
    spec = wigner_friend("superposition")
    good = spec.initial.tensored()
    rows = np.stack([good, good * math.sqrt(norm_sq)])
    with pytest.raises(ValueError) as state_error:
        StateVector(spec.registry, rows[1])
    ensemble = _Ensemble(spec.registry, rows, np.array([0.5, 0.5]), {})
    if collapses and not math.isnan(norm_sq):
        # A collapse renormalizes its outcome rows, so only NaN survives it.
        assert len(ensemble.stepped(spec._step_plans[0], collapses).weights) == 4
        return
    with pytest.raises(ValueError) as ensemble_error, np.errstate(invalid="ignore"):
        ensemble.stepped(spec._step_plans[0], collapses)
    want = NOT_NORMALIZED.fullmatch(str(state_error.value))
    got = NOT_NORMALIZED.fullmatch(str(ensemble_error.value))
    assert want and got
    assert float(got[1]) == pytest.approx(float(want[1]), abs=1e-15, nan_ok=True)


def test_row_norm_check_accepts_rows_within_the_bound():
    spec = wigner_friend("superposition")
    good = spec.initial.tensored()
    rows = np.stack([good * math.sqrt(1 + 5e-13), good * math.sqrt(1 - 5e-13)])
    ensemble = _Ensemble(spec.registry, rows, np.array([0.5, 0.5]), {})
    assert len(ensemble.stepped(spec._step_plans[0], False).weights) == 2
