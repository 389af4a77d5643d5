"""Circuits and model lists shared by the tests.

:func:`ghz_spec` builds the GHZ friend/superobserver circuits that the size
and cone tests use; :func:`models_for` lists the collapse models a spec is
checked under.
"""

from __future__ import annotations

import math

import numpy as np

from wignersim.channels import (
    NO_COLLAPSE,
    OBJECTIVE_COLLAPSE,
    CollapseModel,
    build_measurement_isometry,
)
from wignersim.experiment import ExperimentSpec, Step
from wignersim.registry import Subsystem, SubsystemRegistry
from wignersim.states import StateVector


def models_for(spec):
    return [NO_COLLAPSE, OBJECTIVE_COLLAPSE] + [
        CollapseModel.subjective(agent) for agent in spec.measuring_agents
    ]


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
