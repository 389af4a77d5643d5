import math
import re

import numpy as np
import pytest

from numpy_oracle import projector
from wignersim.registry import Subsystem, SubsystemRegistry
from wignersim.channels import (
    CollapseModel,
    Isometry,
    _checked_isometry,
    _isometry_image,
    _StepPlan,
    apply_isometry,
    branch_decomposition,
    build_measurement_isometry,
    build_preparation_isometry,
    collapse,
)
from wignersim.states import StateVector, ZeroProbabilityError

SQ2 = math.sqrt(0.5)
SQ3 = math.sqrt(1.0 / 3.0)


def spin_registry():
    return SubsystemRegistry.build([("S", ("up", "down"))])


def coin_registry():
    return SubsystemRegistry.build([("C", ("h", "t"))])


def friend_measurement():
    reg = spin_registry()
    return build_measurement_isometry(
        "F",
        reg,
        [StateVector.basis_state(reg, "up"), StateVector.basis_state(reg, "down")],
        memory="F",
        memory_labels=("u", "d"),
    )


def wigner_superposition_measurement():
    """Joint (S, F) measurement in {(|up,u> +- |down,d>)/sqrt(2)}, completed."""
    joint = SubsystemRegistry.build([("S", ("up", "down")), ("F", ("u", "d"))])
    phi_plus = StateVector.from_terms(joint, {("up", "u"): SQ2, ("down", "d"): SQ2})
    phi_minus = StateVector.from_terms(joint, {("up", "u"): SQ2, ("down", "d"): -SQ2})
    return build_measurement_isometry(
        "W", joint, [phi_plus, phi_minus], memory="W", memory_labels=("phi+", "phi-")
    )


def source_superposition():
    return StateVector.from_terms(spin_registry(), {"up": SQ2, "down": SQ2})


class TestBuildMeasurementIsometry:
    def test_friend_mapping(self):
        iso = friend_measurement()
        up = StateVector.basis_state(spin_registry(), "up")
        out = apply_isometry(up, iso)
        assert out.amplitude(("up", "u")) == pytest.approx(1.0)
        down = StateVector.basis_state(spin_registry(), "down")
        assert apply_isometry(down, iso).amplitude(("down", "d")) == pytest.approx(1.0)

    def test_superposition_basis_completed_to_four_outcomes(self):
        iso = wigner_superposition_measurement()
        assert iso.memory.dimension == 4
        assert iso.outcome_labels == ("phi+", "phi-", "perp2", "perp3")
        # Two of the four results never occur on the image of the friend's step.
        state = apply_isometry(source_superposition(), friend_measurement())
        branches = dict(
            (label, p) for label, p, _ in branch_decomposition(state, iso)
        )
        assert branches["perp2"] == 0.0
        assert branches["perp3"] == 0.0

    def test_one_dimensional_trivial_record(self):
        reg = SubsystemRegistry.build([("q", ("0",))])
        iso = build_measurement_isometry(
            "A", reg, [StateVector.basis_state(reg, "0")], memory="M"
        )
        out = apply_isometry(StateVector.basis_state(reg, "0"), iso)
        assert out.amplitude(("0", "z0")) == pytest.approx(1.0)

    def test_non_orthonormal_basis_rejected(self):
        reg = spin_registry()
        v = StateVector.from_terms(reg, {"up": SQ2, "down": SQ2})
        with pytest.raises(ValueError):
            build_measurement_isometry(
                "F", reg, [StateVector.basis_state(reg, "up"), v], memory="M"
            )

    def test_memory_label_collision(self):
        reg = spin_registry()
        with pytest.raises(ValueError):
            build_measurement_isometry(
                "F", reg, [StateVector.basis_state(reg, "up"),
                           StateVector.basis_state(reg, "down")], memory="S"
            )


class TestApplyIsometry:
    def test_friend_on_source_superposition(self):
        out = apply_isometry(source_superposition(), friend_measurement())
        assert out.amplitude(("up", "u")) == pytest.approx(SQ2)
        assert out.amplitude(("down", "d")) == pytest.approx(SQ2)
        assert abs(out.amplitude(("up", "d"))) < 1e-15
        assert out.registry.labels == ("S", "F")

    def test_measure_and_prepare_chain(self):
        # Coin measurement recording H/T, then a preparation controlled on the
        # record: |H> -> |down>, |T> -> (|down>+|up>)/sqrt(2).
        coin = coin_registry()
        measure = build_measurement_isometry(
            "F1",
            coin,
            [StateVector.basis_state(coin, "h"), StateVector.basis_state(coin, "t")],
            memory="F1",
            memory_labels=("H", "T"),
        )
        spin = Subsystem("S", 2, ("up", "down"))
        spin_reg = SubsystemRegistry((spin,))
        prepare = build_preparation_isometry(
            "F1",
            SubsystemRegistry((measure.memory,)),
            {
                "H": StateVector.basis_state(spin_reg, "down"),
                "T": StateVector.from_terms(spin_reg, {"down": SQ2, "up": SQ2}),
            },
            output=spin,
        )
        coin_state = StateVector.from_terms(coin, {"h": SQ3, "t": math.sqrt(2.0 / 3.0)})
        out = apply_isometry(apply_isometry(coin_state, measure), prepare)
        assert out.registry.labels == ("C", "F1", "S")
        assert out.amplitude(("h", "H", "down")) == pytest.approx(SQ3, abs=1e-12)
        assert out.amplitude(("t", "T", "down")) == pytest.approx(SQ3, abs=1e-12)
        assert out.amplitude(("t", "T", "up")) == pytest.approx(SQ3, abs=1e-12)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved_on_unnormalized_branch(self):
        # A weighted branch is an ensemble row, not a StateVector; the step
        # keeps its norm, which a collapse then reads as the branch weight.
        reg = spin_registry()
        plan = _StepPlan.of(reg, reg, friend_measurement())
        row = np.array([0.25, 0.5], dtype=np.complex128)
        image = _isometry_image(row[None], plan)
        assert np.linalg.norm(image) == pytest.approx(np.linalg.norm(row), abs=1e-14)
        outcomes = (np.abs(image[0]) ** 2).sum(axis=1)
        assert outcomes == pytest.approx([0.0625, 0.25], abs=1e-14)

    def test_label_mismatch(self):
        psi = StateVector.basis_state(coin_registry(), "h")
        with pytest.raises(ValueError):
            apply_isometry(psi, friend_measurement())


def record_registry():
    return SubsystemRegistry.build([("F1", ("H", "T"))])


SPIN = Subsystem("S", 2, ("up", "down"))


def spin_state(label):
    return StateVector.basis_state(SubsystemRegistry((SPIN,)), label)


class TestBuildPreparationIsometryErrors:
    @pytest.mark.parametrize(
        "prepared,output,message",
        [
            (
                {"H": StateVector.basis_state(coin_registry(), "h"), "T": spin_state("up")},
                SPIN,
                "prepared state for ('H',) must live on 'S'",
            ),
            (
                {"H": spin_state("up"), ("H",): spin_state("down")},
                SPIN,
                "duplicate control outcome ('H',)",
            ),
            ({"T": spin_state("up")}, SPIN, "prepared map covers 1 of 2 control outcomes"),
            (
                {
                    "H": StateVector.basis_state(record_registry(), "H"),
                    "T": StateVector.basis_state(record_registry(), "T"),
                },
                record_registry().subsystem("F1"),
                "output label 'F1' collides with a control label",
            ),
        ],
    )
    def test_rejected_with_its_message(self, prepared, output, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build_preparation_isometry("F1", record_registry(), prepared, output)


class TestIsometryKind:
    @pytest.mark.parametrize("both", [False, True])
    def test_needs_exactly_one_of_basis_and_table(self, both):
        iso = friend_measurement()
        table = ((("u",), StateVector.basis_state(spin_registry(), "up")),) if both else ()
        with pytest.raises(ValueError, match="exactly one of a measurement basis"):
            Isometry(
                iso.agent,
                iso.domain,
                iso.appended,
                iso.matrix,
                iso.basis if both else (),
                table,
            )


class TestCheckedIsometry:
    def test_wrong_shape(self):
        with pytest.raises(
            ValueError, match=re.escape("isometry matrix shape (2, 2), expected (4, 2)")
        ):
            _checked_isometry(np.eye(2), 2, 2)

    def test_not_an_isometry(self):
        with pytest.raises(ValueError, match="V†V differs from the identity"):
            _checked_isometry(np.ones((4, 2)), 2, 2)

    def test_result_is_a_read_only_complex_copy(self):
        source = np.vstack([np.eye(2), np.zeros((2, 2))])
        mat = _checked_isometry(source, 2, 2)
        assert mat.dtype == np.complex128
        assert not mat.flags.writeable
        np.testing.assert_array_equal(mat, source)


class TestCollapse:
    def test_friend_observes_u(self):
        out = collapse(source_superposition(), friend_measurement(), "u")
        assert out.amplitude(("up", "u")) == pytest.approx(1.0)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_eigenstate_input_probability_one(self):
        up = StateVector.basis_state(spin_registry(), "up")
        branches = dict(
            (label, p) for label, p, _ in branch_decomposition(up, friend_measurement())
        )
        assert branches["u"] == pytest.approx(1.0, abs=1e-12)
        out = collapse(up, friend_measurement(), "u")
        assert out.amplitude(("up", "u")) == pytest.approx(1.0)

    def test_coin_collapse_keeps_prepared_superposition_intact(self):
        coin = coin_registry()
        measure = build_measurement_isometry(
            "F1",
            coin,
            [StateVector.basis_state(coin, "h"), StateVector.basis_state(coin, "t")],
            memory="F1",
            memory_labels=("H", "T"),
        )
        coin_state = StateVector.from_terms(coin, {"h": SQ3, "t": math.sqrt(2.0 / 3.0)})
        out = collapse(coin_state, measure, "T")
        assert out.amplitude(("t", "T")) == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_outcome_raises(self):
        up = StateVector.basis_state(spin_registry(), "up")
        with pytest.raises(ZeroProbabilityError):
            collapse(up, friend_measurement(), "d")

    def test_unknown_outcome(self):
        with pytest.raises(KeyError):
            collapse(source_superposition(), friend_measurement(), "nope")


class TestBranchDecomposition:
    def test_friend_even_split(self):
        branches = branch_decomposition(source_superposition(), friend_measurement())
        assert [(label, p) for label, p, _ in branches] == [
            ("u", pytest.approx(0.5)),
            ("d", pytest.approx(0.5)),
        ]
        u_branch = branches[0][2]
        assert u_branch.amplitude(("up", "u")) == pytest.approx(1.0)

    def test_coin_thirds(self):
        coin = coin_registry()
        measure = build_measurement_isometry(
            "F1",
            coin,
            [StateVector.basis_state(coin, "h"), StateVector.basis_state(coin, "t")],
            memory="F1",
            memory_labels=("H", "T"),
        )
        coin_state = StateVector.from_terms(coin, {"h": SQ3, "t": math.sqrt(2.0 / 3.0)})
        branches = branch_decomposition(coin_state, measure)
        assert branches[0][0] == "H" and branches[0][1] == pytest.approx(1 / 3)
        assert branches[1][0] == "T" and branches[1][1] == pytest.approx(2 / 3)

    def test_wigner_sees_only_phi_plus_without_collapse(self):
        state = apply_isometry(source_superposition(), friend_measurement())
        branches = branch_decomposition(state, wigner_superposition_measurement())
        table = {label: (p, br) for label, p, br in branches}
        assert table["phi+"][0] == pytest.approx(1.0, abs=1e-12)
        assert table["phi-"][0] == 0.0
        assert table["phi-"][1] is None

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(19)
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = StateVector(spin_registry(), amps / np.linalg.norm(amps))
        branches = branch_decomposition(psi, friend_measurement())
        assert sum(p for _, p, _ in branches) == pytest.approx(1.0, abs=1e-9)

    def test_collapse_equals_named_branch(self):
        rng = np.random.default_rng(23)
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = StateVector(spin_registry(), amps / np.linalg.norm(amps))
        branches = branch_decomposition(psi, friend_measurement())
        for label, p, branch in branches:
            if branch is None:
                continue
            collapsed = collapse(psi, friend_measurement(), label)
            assert np.allclose(collapsed.amplitudes, branch.amplitudes, atol=1e-12)


def test_collapse_then_mix_equals_unitary_then_dephase():
    """Mixing the collapsed branches reproduces the memory-dephased isometry output."""
    rng = np.random.default_rng(31)
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi = StateVector(spin_registry(), amps / np.linalg.norm(amps))
    iso = friend_measurement()

    mixed = np.zeros((4, 4), dtype=complex)
    for label, p, branch in branch_decomposition(psi, iso):
        if branch is not None:
            mixed += p * np.outer(branch.amplitudes, branch.amplitudes.conj())

    unitary = apply_isometry(psi, iso)
    rho = np.outer(unitary.amplitudes, unitary.amplitudes.conj())
    dephased = np.zeros_like(rho)
    dims = list(unitary.registry.dims)
    memory_axis = unitary.registry.axis(iso.memory.label)
    for index in range(iso.memory.dimension):
        proj = projector(dims, memory_axis, index)
        dephased += proj @ rho @ proj
    assert np.allclose(mixed, dephased, atol=1e-12)


class TestCollapseModel:
    def test_tags(self):
        assert CollapseModel.none().tag == "ism"
        assert CollapseModel.objective().tag == "objective"
        assert CollapseModel.subjective("F1").tag == "clps:F1"

    def test_collapses_at(self):
        assert not CollapseModel.none().collapses_at("F")
        assert CollapseModel.objective().collapses_at("F")
        model = CollapseModel.subjective("F1")
        assert model.collapses_at("F1") and not model.collapses_at("W")

    def test_validation(self):
        for bad in ("", 3, None):
            with pytest.raises(ValueError):
                CollapseModel.subjective(bad)
        with pytest.raises(ValueError):
            CollapseModel(frozenset({"F1", ""}))
        with pytest.raises(ValueError):
            CollapseModel("F1")  # a string, not a set of labels

    def test_a_model_is_its_set_of_collapsing_agents(self):
        assert CollapseModel(frozenset()) == CollapseModel.none()
        assert CollapseModel(None) == CollapseModel.objective()
        assert CollapseModel({"F1"}) == CollapseModel.subjective("F1")
        model = CollapseModel(["W", "F2", "F1"])
        assert model.agents == frozenset({"F1", "F2", "W"})
        assert model.tag == "clps:F1+F2+W"
        assert model.collapses_at("F2") and not model.collapses_at("A")
