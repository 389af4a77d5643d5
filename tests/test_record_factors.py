"""Collapsed memories as record factors, against the plain-numpy oracle.

Under a collapse model each row of the stacked ensemble keeps a collapsed
memory as a length-1 record factor instead of a full factor that is one-hot
at the outcome.  Here the stacked ensemble and the ``evolve`` joint's
support view are compared, for every preset and model, with
:mod:`numpy_oracle`, which keeps every branch on the full registry and
shares no code with the kernel.  The renormalized-state conditional is
checked against it in ``test_numpy_oracle.py``, and the memory states and
evolved densities built from the same ensemble in
``test_reduced_density.py``.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

import numpy_oracle as oracle
from circuits import ghz_spec, models_for
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
    evolve,
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
def test_branches_are_the_oracle_branches_with_records_folded(name, model):
    spec = presets()[name]()
    for through in through_times(spec):
        registry = spec.registry_after(through)
        got = _evolved_branches(spec, model, through)
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
        for row, (state, (weight, vector, records)) in enumerate(zip(got.states(), want)):
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
            assignment = OutcomeAssignment(tuple((a, by_agent[a]) for a in agents))
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


NOT_NORMALIZED = re.compile(r"state not normalized: \|psi\|\^2 = (\S+)")


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
