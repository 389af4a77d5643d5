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
when the step is applied.  Rows carry their weights: a collapse keeps each
surviving child unscaled, its cut is conditional on the parent (two
independent 1e-7 outcomes keep their 1e-14 cell, as the oracle does), and
a row off its weight fails the norm check, relative to that weight, at a
collapse and at the cone's end.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

import numpy_oracle as oracle
from circuits import ghz_spec, models_for, read_model, truncated_cone
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


def carried_rows(ensemble, registry):
    """Every row as the ensemble carries it, |row|² its weight: records expanded, axes in registry order."""
    full = ensemble.expanded(range(1, ensemble.amps.ndim))
    return full.amps.transpose([0] + [full.layout.axis(label) + 1 for label in registry.labels])


def ndindex_joint(spec, model):
    """The readout loop over every cell, row by row, on each row's |amplitude|²."""
    ensemble = evolved(spec, model)
    registry = spec.registry_after()
    steps = spec.measuring_steps
    agents = tuple(s.agent for s in steps)
    readout_steps = [s for s in steps if not model.collapses_at(s.agent)]
    memory_axes = [registry.axis(s.iso.memory_label) for s in readout_steps]
    mem_dims = tuple(registry.dims[a] for a in memory_axes)
    probs = {}
    for row, amps in enumerate(carried_rows(ensemble, registry)):
        other = tuple(i for i in range(amps.ndim) if i not in memory_axes)
        readout = (np.abs(amps) ** 2).sum(axis=other)
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
    """The ensemble's density matrix on ``registry``: Σ row row†, each row carrying its weight."""
    rows = carried_rows(ensemble, registry).reshape(len(ensemble.weights), -1)
    return np.einsum("bi,bj->ij", rows, rows.conj())


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
            # The recorded rows, rescaled once by their total weight.
            total = math.sqrt(collapsed.weights[keep].sum())
            assert np.array_equal(selected.amps, collapsed.amps[keep] / total)
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
    # F2's, and the two completion outcomes of W0's and W1's four).  Each
    # child is kept as the step made it: its squared norm is its weight.
    spec = ghz_spec(3, 2, GHZ_ALPHA, GHZ_BETA, (0.3, 1.1))
    program = truncated_cone(spec)._program(OBJECTIVE_COLLAPSE)
    assert [plan for plan, _, _ in program] == list(spec._step_plans)
    ens, cut = spec._start, []
    for plan, expand, outcomes in program:
        assert outcomes.tolist() == list(range(len(plan.iso.outcome_labels)))
        image = _isometry_image(ens.expanded(expand).amps, plan)
        children = ens.stepped(plan, expand, outcomes)
        b, k = image.shape[:2]
        row = 0
        for parent, outcome in np.ndindex(b, k):
            child = image[parent, outcome][None]
            p = _row_norms_sq(child[None])[0]
            if p <= BRANCH_CUT * ens.weights[parent]:
                continue
            for label, records in ens.records.items():
                assert children.records[label][row] == records[parent]
            assert children.records[plan.iso.memory_label][row] == outcome
            assert children.weights[row] == p
            assert np.array_equal(children.amps[row], child)
            row += 1
        assert len(children.weights) == len(children.amps) == row
        assert children.records.keys() == ens.records.keys() | {plan.iso.memory_label}
        cut.append(b * k - row)
        ens = children
    assert cut == [0, 2, 2, 4, 8]
    # A NaN amplitude makes its row's children NaN: they are kept, so the
    # parent's norm check rejects them.
    first = spec._start.stepped(*program[0])
    amps = first.amps.copy()
    amps[1].flat[0] = math.nan
    poisoned = _Ensemble(first.layout, amps, first.weights, first.records)
    with pytest.raises(ValueError, match=r"^state not normalized: \|psi\|\^2 = nan$"):
        with np.errstate(invalid="ignore"):
            poisoned.stepped(*program[1])


NOT_NORMALIZED = re.compile(r"state not normalized: \|psi\|\^2 = (\S+)")


def started_from(rows, weights):
    """wigner_friend("superposition") with every cone started from ``rows`` and ``weights``."""
    spec = wigner_friend("superposition")
    object.__setattr__(spec, "_start", _Ensemble(spec.registry, rows, weights, {}))
    return spec


# F measures the spin and W measures spin and memory together: under
# objective collapse F's step checks the start rows, and under ism the rows
# are first checked at the cone's end.
WHERE = {"collapse": OBJECTIVE_COLLAPSE, "end": NO_COLLAPSE}


@pytest.mark.parametrize("norm_sq", [1 + 2e-12, 1 - 2e-12, math.nan], ids=["high", "low", "nan"])
@pytest.mark.parametrize("where", WHERE)
def test_row_norm_check_rejects_a_bad_row_as_state_vector_does(norm_sq, where):
    good = wigner_friend("superposition").initial
    with pytest.raises(ValueError) as state_error:
        StateVector(good.registry, good.amplitudes * math.sqrt(norm_sq))
    rows = np.stack([good.tensored(), good.tensored() * math.sqrt(norm_sq)])
    spec = started_from(rows, np.ones(2))
    reads = frozenset(spec.registry_after().labels)
    with pytest.raises(ValueError) as ensemble_error, np.errstate(invalid="ignore"):
        _evolved_branches(spec, WHERE[where], reads)
    want = NOT_NORMALIZED.fullmatch(str(state_error.value))
    got = NOT_NORMALIZED.fullmatch(str(ensemble_error.value))
    assert want and got
    assert float(got[1]) == pytest.approx(float(want[1]), abs=1e-15, nan_ok=True)


def test_row_norm_check_accepts_rows_within_the_bound():
    # F and W each split every row in two under objective collapse.
    good = wigner_friend("superposition").initial.tensored()
    rows = np.stack([good * math.sqrt(1 + 5e-13), good * math.sqrt(1 - 5e-13)])
    reads = frozenset(wigner_friend("superposition").registry_after().labels)
    for where, count in [("collapse", 8), ("end", 2)]:
        ens, _ = _evolved_branches(started_from(rows, np.ones(2)), WHERE[where], reads)
        assert len(ens.weights) == count


@pytest.mark.parametrize("where", WHERE)
def test_row_norm_check_is_relative_to_each_rows_weight(where):
    # Off its weight by 2.5e-12 of it, a row fails, though the absolute
    # difference is 2.5e-20; its sibling is within 5e-13 of its own.
    good = wigner_friend("superposition").initial.tensored()
    rows = np.stack([good * math.sqrt(1 + 5e-13), good * math.sqrt(1 - 5e-13)]) * 1e-4
    weights = np.array([1e-8, 1e-8 * (1 + 2e-12)])
    reads = frozenset(wigner_friend("superposition").registry_after().labels)
    with pytest.raises(ValueError, match=r"^state not normalized: \|psi\|\^2 = 0\.99999999999"):
        _evolved_branches(started_from(rows, weights), WHERE[where], reads)


def rare_pair():
    """Two qubits, each |1⟩ with probability 1e-7, measured by F0 then F1."""
    qubits = [Subsystem(f"Q{i}", 2, ("0", "1")) for i in range(2)]
    registry = SubsystemRegistry(tuple(qubits))
    one = np.array([math.sqrt(1 - 1e-7), math.sqrt(1e-7)])
    steps = []
    for i, qubit in enumerate(qubits):
        reg = SubsystemRegistry((qubit,))
        basis = [StateVector.basis_state(reg, "0"), StateVector.basis_state(reg, "1")]
        iso = build_measurement_isometry(f"F{i}", reg, basis, memory=f"F{i}", memory_labels=("a", "b"))
        steps.append(Step(i + 1, iso))
    return ExperimentSpec("rare", registry, StateVector(registry, np.kron(one, one)), tuple(steps))


def test_the_branch_cut_is_conditional_on_the_parent():
    # F1's rare child of F0's rare branch has probability 1e-14: far below
    # BRANCH_CUT in absolute terms, but 1e-7 of its parent, so it is kept,
    # as the oracle keeps it, and its cell is in the support.
    spec = rare_pair()
    got = evolve(spec, OBJECTIVE_COLLAPSE)
    want = oracle.joint(spec, OBJECTIVE_COLLAPSE, *oracle.ensemble(spec, OBJECTIVE_COLLAPSE))
    assert want[1, 1] == pytest.approx(1e-14, rel=1e-9)
    cell = OutcomeAssignment((("F0", "b"), ("F1", "b")))
    assert got.probs[cell] == pytest.approx(want[1, 1], rel=1e-12, abs=0)
    assert np.max(np.abs(got.array - want)) < ORACLE_ATOL
    assert len(evolved(spec, OBJECTIVE_COLLAPSE).weights) == 4
