"""Born-rule checks on the friend/Wigner states, with independent oracles."""

import math

import numpy as np
import pytest

from wignersim.channels import apply_isometry, collapse
from wignersim.experiment import evolve, marginal
from wignersim.channels import NO_COLLAPSE
from wignersim.presets import frauchiger_renner, wigner_friend
from wignersim.registry import SubsystemRegistry
from wignersim.states import StateVector, born_probability, projector_from_basis_vector

SQ2 = math.sqrt(0.5)


def joint_sf():
    return SubsystemRegistry.build([("S", ("up", "down")), ("F", ("u", "d"))])


def phi_minus_projector():
    phi_minus = StateVector.from_terms(
        joint_sf(), {("up", "u"): SQ2, ("down", "d"): -SQ2}
    )
    return projector_from_basis_vector(phi_minus)


def test_unitary_account_never_shows_phi_minus():
    spec = wigner_friend("superposition")
    after_friend = apply_isometry(spec.initial, spec.steps[0].iso)
    assert born_probability(after_friend, phi_minus_projector()) == pytest.approx(
        0.0, abs=1e-12
    )


def test_collapsed_account_shows_phi_minus_half_the_time():
    spec = wigner_friend("superposition")
    collapsed = collapse(spec.initial, spec.steps[0].iso, "u")
    # Independent oracle: expand |up,u> in the phi+- pair directly.
    up_u = np.zeros(4, dtype=complex)
    up_u[0] = 1.0
    phi_minus = np.array([SQ2, 0.0, 0.0, -SQ2], dtype=complex)
    oracle = abs(np.vdot(phi_minus, up_u)) ** 2
    assert oracle == pytest.approx(0.5, abs=1e-12)
    assert born_probability(collapsed, phi_minus_projector()) == pytest.approx(
        oracle, abs=1e-12
    )


def test_superobserver_outcome_projectors():
    spec = frauchiger_renner()
    assistant = spec.steps[3].iso
    wigner = spec.steps[4].iso
    o_proj = projector_from_basis_vector(assistant.basis[0], targets={"C", "F1"})
    big_o_proj = projector_from_basis_vector(wigner.basis[0], targets={"S", "F2"})
    assert assistant.basis[0].amplitude(("h", "H")) == pytest.approx(SQ2)
    assert assistant.basis[0].amplitude(("t", "T")) == pytest.approx(-SQ2)
    assert wigner.basis[0].amplitude(("down", "D")) == pytest.approx(SQ2)
    assert wigner.basis[0].amplitude(("up", "U")) == pytest.approx(-SQ2)
    # Both projectors embed with identity padding on the six-factor registry
    # and reproduce the halting probability directly from the final state.
    from wignersim.experiment import _evolved_branches

    ensemble = _evolved_branches(spec, NO_COLLAPSE)
    assert ensemble.weights.tolist() == [1.0]
    (state,) = ensemble.states()
    registry = state.registry
    assert registry == spec.registry_after()
    p_both = born_probability(
        state,
        projector_from_basis_vector(assistant.basis[0]),
    )
    assert p_both == pytest.approx(1 / 6, abs=1e-9)  # P(a=o), memory untouched
    p_o_then_O = float(
        np.real(
            np.vdot(
                state.amplitudes,
                o_proj.matrix_on(registry)
                @ big_o_proj.matrix_on(registry)
                @ state.amplitudes,
            )
        )
    )
    assert p_o_then_O == pytest.approx(1 / 12, abs=1e-9)


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
