"""The friend's measurement described two ways, read on the program's route.

Wigner probes his friend's lab in the basis {phi+, phi-} of (S, F).  If the
friend's measurement is an isometry, the lab is in phi+ and phi- never fires;
if it is a collapse onto u, the lab is in |up,u⟩ and phi- fires half the
time.  These numbers are read as ``check deutsch`` reads them, through
``conditional_via_renormalized_state`` under ``ism`` and ``clps:F``, and
checked against :mod:`numpy_oracle`, which shares no code with the kernel.
"""

import math

import numpy as np
import pytest

import numpy_oracle as oracle
from wignersim.channels import NO_COLLAPSE, CollapseModel
from wignersim.experiment import conditional_via_renormalized_state, evolve, marginal
from wignersim.presets import deutsch_variant, frauchiger_renner, wigner_friend

SQ2 = math.sqrt(0.5)


def oracle_conditional(spec, model, target, given, given_outcome):
    """P(target | given = given_outcome) from the oracle's conditioned joint."""
    labels, dims, branches = oracle.ensemble(spec, model)
    branches = oracle.conditioned(spec, model, labels, dims, branches, {given: given_outcome})
    array = oracle.joint(spec, model, labels, dims, branches)
    axis = spec.measuring_agents.index(target)
    probs = array.sum(axis=tuple(i for i in range(array.ndim) if i != axis))
    return dict(zip(spec.step_for(target).iso.outcome_labels, probs.tolist()))


def test_unitary_account_never_shows_phi_minus():
    spec = deutsch_variant()
    got = conditional_via_renormalized_state(spec, NO_COLLAPSE, "W", "F", "u")
    want = oracle_conditional(spec, NO_COLLAPSE, "W", "F", "u")
    assert got["phi-"] == pytest.approx(0.0, abs=1e-12)
    assert want["phi-"] == pytest.approx(0.0, abs=1e-12)


def test_collapsed_account_shows_phi_minus_half_the_time():
    spec = deutsch_variant()
    model = CollapseModel.subjective("F")
    got = conditional_via_renormalized_state(spec, model, "W", "F", "u")
    # Independent oracle: expand |up,u> in the phi+- pair directly.
    up_u = np.zeros(4, dtype=complex)
    up_u[0] = 1.0
    phi_minus = np.array([SQ2, 0.0, 0.0, -SQ2], dtype=complex)
    by_hand = abs(np.vdot(phi_minus, up_u)) ** 2
    assert by_hand == pytest.approx(0.5, abs=1e-12)
    assert oracle_conditional(spec, model, "W", "F", "u")["phi-"] == pytest.approx(by_hand, abs=1e-12)
    assert got["phi-"] == pytest.approx(by_hand, abs=1e-12)


def test_superobserver_outcome_projectors():
    spec = frauchiger_renner()
    assistant = spec.step_for("A").iso
    wigner = spec.step_for("W").iso
    assert assistant.basis[0].amplitude(("h", "H")) == pytest.approx(SQ2)
    assert assistant.basis[0].amplitude(("t", "T")) == pytest.approx(-SQ2)
    assert wigner.basis[0].amplitude(("down", "D")) == pytest.approx(SQ2)
    assert wigner.basis[0].amplitude(("up", "U")) == pytest.approx(-SQ2)
    # The program's route: P(a=o), then P(w=O | a=o) from the renormalized state.
    p_o = marginal(evolve(spec, NO_COLLAPSE), "A")["o"]
    p_big_o = conditional_via_renormalized_state(spec, NO_COLLAPSE, "W", "A", "o")["O"]
    assert p_o == pytest.approx(1 / 6, abs=1e-9)
    assert p_o * p_big_o == pytest.approx(1 / 12, abs=1e-9)
    # The oracle: both outcome projectors, |b><b| on the measured factors and
    # identity elsewhere, applied to the oracle's final state.
    labels, dims, ((_, psi, _),) = oracle.ensemble(spec, NO_COLLAPSE)
    o_proj, big_o_proj = (
        oracle.padded(
            np.outer(v.amplitudes, v.amplitudes.conj()),
            dims,
            [labels.index(label) for label in v.registry.labels],
        )
        for v in (assistant.basis[0], wigner.basis[0])
    )
    oracle_o = float(np.vdot(psi, o_proj @ psi).real)
    oracle_o_then_big_o = float(np.vdot(psi, o_proj @ big_o_proj @ psi).real)
    assert oracle_o == pytest.approx(p_o, abs=1e-12)
    assert oracle_o_then_big_o == pytest.approx(p_o * p_big_o, abs=1e-12)


def test_completed_outcomes_never_fire_in_presets():
    for preset, agents in (
        (frauchiger_renner(), ("A", "W")),
        (wigner_friend("superposition"), ("W",)),
        (wigner_friend("product"), ("W",)),
    ):
        joint = evolve(preset, NO_COLLAPSE)
        for agent in agents:
            dist = marginal(joint, agent)
            for outcome, p in dist.items():
                if outcome.startswith("perp"):
                    assert p <= 1e-12, (preset.name, agent, outcome)
