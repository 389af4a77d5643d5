"""Circuits and model lists shared by the tests.

:func:`ghz_spec` builds the GHZ friend/superobserver circuits that the size
and cone tests use, and :func:`site_tables` one site of their closed form;
:func:`models_for` lists the collapse models a spec is checked under.
:func:`settled` scans a truncation's steps for the measurements it settles,
and :func:`read_model` is the model ``evolve`` runs for a caller's model.
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


def settled(spec, through=None):
    """The agents whose memory no later step by ``through`` reads, the last step's excepted.

    A direct scan: each measurement is checked against every step after it.
    """
    steps = [s for s in spec.steps if through is None or s.time <= through]
    return frozenset(
        step.agent
        for i, step in enumerate(steps)
        if step.is_measurement
        and i + 1 < len(steps)
        and all(step.iso.memory_label not in later.iso.domain.labels for later in steps[i + 1 :])
    )


def truncated_cone(spec, through=None):
    """The cone ``evolve`` runs: it reads every label, so it keeps every step by ``through``."""
    return spec._cone(frozenset(spec.registry_after(through).labels), through)


def read_model(spec, model, through=None):
    """The caller's collapse set plus the settled measurements; ``objective`` as is."""
    if model.agents is None:
        return model
    return CollapseModel(model.agents | settled(spec, through))


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


def site_tables(theta):
    """One GHZ site's two branch states on (Qi, Fi, Wi), as (friend record, W record) tables.

    V_Fi then V_Wi take |0⟩ to |0a⟩ = c e_p + s e_m and |1⟩ to
    |1b⟩ = s e_p − c e_m, each e_w tagged with its record w, where
    e_p = c|0a⟩ + s|1b⟩ and e_m = s|0a⟩ − c|1b⟩.  The qubit always equals
    the friend's record, so entry [x, f, w] is branch x's amplitude of
    |f f⟩|w⟩.  W's two completed outcomes never occur.
    """
    c, s = math.cos(theta), math.sin(theta)
    e = np.array([[c, s], [s, -c]])  # e[w, f]: e_w's amplitude of |f f⟩
    tables = np.zeros((2, 2, 4))
    for x, k in enumerate(((c, s), (s, -c))):
        tables[x, :, :2] = (np.array(k)[:, None] * e).T
    return tables
