"""Dense reference ensemble, built only from the public channel functions.

Every branch here is a full-registry ``StateVector``: a collapsed measurement
keeps its memory factor at full length, one-hot at the outcome, exactly as
``branch_decomposition`` returns it.  It checks the stacked ensemble's
branch order, record layout and record-factor bookkeeping.  The public
functions run on the same stacked kernel, so for an oracle that shares no
code with it see :mod:`numpy_oracle`.  :func:`ghz_spec` builds the GHZ
friend/superobserver circuits that the size tests use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wignersim.channels import (
    NO_COLLAPSE,
    OBJECTIVE_COLLAPSE,
    CollapseModel,
    apply_isometry,
    branch_decomposition,
    build_measurement_isometry,
)
from wignersim.experiment import ExperimentSpec, Step
from wignersim.registry import Subsystem, SubsystemRegistry
from wignersim.states import DensityMatrix, StateVector


@dataclass(frozen=True)
class DenseBranch:
    weight: float
    state: StateVector
    records: tuple[tuple[str, str], ...]


def models_for(spec):
    return [NO_COLLAPSE, OBJECTIVE_COLLAPSE] + [
        CollapseModel.subjective(agent) for agent in spec.measuring_agents
    ]


def dense_ensemble(spec, model, through_time=None):
    branches = [DenseBranch(1.0, spec.initial, ())]
    for step in spec.steps:
        if through_time is not None and step.time > through_time:
            break
        if step.is_measurement and model.collapses_at(step.agent):
            branches = [
                DenseBranch(b.weight * p, state, b.records + ((step.agent, label),))
                for b in branches
                for label, p, state in branch_decomposition(b.state, step.iso)
                if state is not None
            ]
        else:
            branches = [
                DenseBranch(b.weight, apply_isometry(b.state, step.iso), b.records)
                for b in branches
            ]
    return branches


def dense_condition(branches, spec, model, condition):
    """Select collapsed records, project uncollapsed memories, renormalize."""
    for agent, outcome in condition.items():
        step = spec.step_for(agent)
        if model.collapses_at(agent):
            branches = [b for b in branches if dict(b.records)[agent] == outcome]
            continue
        projected = []
        for b in branches:
            registry = b.state.registry
            axis = registry.axis(step.iso.memory_label)
            mask = np.zeros(registry.dims[axis])
            mask[step.iso.outcome_labels.index(outcome)] = 1.0
            shape = [1] * len(registry.dims)
            shape[axis] = -1
            kept = b.state.tensored() * mask.reshape(shape)
            p = float(np.sum(np.abs(kept) ** 2))
            if p > 1e-12:
                state = StateVector(registry, kept / math.sqrt(p))
                projected.append(DenseBranch(b.weight * p, state, b.records))
        branches = projected
    total = sum(b.weight for b in branches)
    return [DenseBranch(b.weight / total, b.state, b.records) for b in branches]


def dense_density(branches, registry):
    d = registry.total_dimension
    rho = np.zeros((d, d), dtype=np.complex128)
    for b in branches:
        assert b.state.registry == registry
        rho += b.weight * np.outer(b.state.amplitudes, b.state.amplitudes.conj())
    return DensityMatrix(registry, rho)


def dense_joint(spec, model, through_time=None):
    """Joint outcome array over the measuring agents (in spec order).

    Collapsed agents contribute their branch record; the others the diagonal
    readout of their memory factor in the final state.
    """
    steps = [
        s for s in spec.measuring_steps
        if through_time is None or s.time <= through_time
    ]
    out = np.zeros(tuple(len(s.iso.outcome_labels) for s in steps))
    for b in dense_ensemble(spec, model, through_time):
        registry = b.state.registry
        probs = b.weight * np.abs(b.state.tensored()) ** 2
        records = dict(b.records)
        index = []
        keep_axes = []
        for s in steps:
            if model.collapses_at(s.agent):
                index.append(s.iso.outcome_labels.index(records[s.agent]))
            else:
                index.append(slice(None))
                keep_axes.append(registry.axis(s.iso.memory_label))
        # Each step appends its memory, so the kept axes are in step order.
        assert keep_axes == sorted(keep_axes)
        other = tuple(i for i in range(probs.ndim) if i not in keep_axes)
        out[tuple(index)] += probs.sum(axis=other)
    return [s.agent for s in steps], [s.iso.outcome_labels for s in steps], out


def ghz_spec(n, m, alpha, beta, thetas):
    """GHZ friend/superobserver circuit: total dimension 4**n * 4**m.

    Qubits Q0..Q{n-1} start in alpha|0…0⟩ + beta|1…1⟩; friend Fi records Qi
    as a/b, then superobserver Wi (i < m) measures (Qi, Fi) in
    {c|0a⟩ + s|1b⟩, s|0a⟩ - c|1b⟩}, completed to four outcomes.
    """
    qubits = [Subsystem(f"Q{i}", 2, ("0", "1")) for i in range(n)]
    registry = SubsystemRegistry(tuple(qubits))
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0], amps[-1] = alpha, beta
    steps, friends = [], []
    for i, qubit in enumerate(qubits):
        reg = SubsystemRegistry((qubit,))
        iso = build_measurement_isometry(
            f"F{i}",
            reg,
            [StateVector.basis_state(reg, "0"), StateVector.basis_state(reg, "1")],
            memory=f"F{i}",
            memory_labels=("a", "b"),
        )
        friends.append(iso)
        steps.append(Step(len(steps) + 1, iso))
    for i, theta in zip(range(m), thetas):
        c, s = math.cos(theta), math.sin(theta)
        pair = SubsystemRegistry((qubits[i], friends[i].memory))
        basis = [
            StateVector.from_terms(pair, {("0", "a"): c, ("1", "b"): s}),
            StateVector.from_terms(pair, {("0", "a"): s, ("1", "b"): -c}),
        ]
        iso = build_measurement_isometry(
            f"W{i}", pair, basis, memory=f"W{i}", memory_labels=("p", "m")
        )
        steps.append(Step(len(steps) + 1, iso))
    return ExperimentSpec(
        name=f"ghz-{n}-{m}",
        registry=registry,
        initial=StateVector(registry, amps),
        steps=tuple(steps),
    )
