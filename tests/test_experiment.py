import math
from dataclasses import replace

import numpy as np
import pytest

from numpy_oracle import projector
from wignersim.channels import (
    NO_COLLAPSE,
    OBJECTIVE_COLLAPSE,
    CollapseModel,
    build_measurement_isometry,
)
from wignersim.experiment import (
    ExperimentSpec,
    OutcomeAssignment,
    Step,
    conditional,
    conditional_table,
    conditional_via_renormalized_state,
    evolve,
    evolved_density,
    marginal,
    memory_state,
    post_select,
)
from wignersim.presets import deutsch_variant, frauchiger_renner, presets, wigner_friend
from wignersim.registry import SubsystemRegistry
from wignersim.states import StateVector, ZeroProbabilityError

SQ2 = math.sqrt(0.5)


def single_step_eigenstate():
    """One measurement on an eigenstate of its basis: a point distribution."""
    reg = SubsystemRegistry.build([("S", ("up", "down"))])
    iso = build_measurement_isometry(
        "F",
        reg,
        [StateVector.basis_state(reg, "up"), StateVector.basis_state(reg, "down")],
        memory="F",
        memory_labels=("u", "d"),
    )
    return ExperimentSpec(
        name="eigen",
        registry=reg,
        initial=StateVector.basis_state(reg, "up"),
        steps=(Step(1, iso),),
    )


class TestSpecValidation:
    def test_times_strictly_increasing(self):
        spec = single_step_eigenstate()
        with pytest.raises(ValueError):
            ExperimentSpec(
                name="bad",
                registry=spec.registry,
                initial=spec.initial,
                steps=(spec.steps[0], Step(1, wigner_friend().steps[1].iso)),
            )

    def test_halting_agent_must_measure(self):
        spec = single_step_eigenstate()
        with pytest.raises(ValueError):
            ExperimentSpec(
                name="bad",
                registry=spec.registry,
                initial=spec.initial,
                steps=spec.steps,
                halting=(("W", "O"),),
            )

    def test_an_agent_measures_only_once(self):
        # F1 both measures (t=1) and prepares (t=2) in the preset, which is
        # legal; A's measurement relabelled as F1's is a second measurement.
        spec = frauchiger_renner()
        second = replace(spec.steps[3], iso=replace(spec.steps[3].iso, agent="F1"))
        with pytest.raises(ValueError) as err:
            ExperimentSpec(
                "twice", spec.registry, spec.initial, spec.steps[:3] + (second,) + spec.steps[4:]
            )
        assert str(err.value) == (
            "agent 'F1' measures at t=1 and at t=4; an agent may measure only once"
        )

    @pytest.mark.parametrize(
        "steps,message",
        [
            (lambda s: s.steps[1:], "W's step reads unknown subsystem 'F'"),
            (lambda s: s.steps[::-1], "W's step reads unknown subsystem 'F'"),
        ],
        ids=["missing", "too-early"],
    )
    def test_a_step_on_an_unknown_label_names_the_agent_and_the_label(self, steps, message):
        spec = wigner_friend()
        kept = tuple(Step(t, s.iso) for t, s in enumerate(steps(spec), 1))
        with pytest.raises(ValueError) as err:
            ExperimentSpec("bad", spec.registry, spec.initial, kept)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "memory,message",
        [("F1", "subsystem label 'F1' already registered"), ("C", "subsystem label 'C' already registered")],
        ids=["a-memory", "an-initial-factor"],
    )
    def test_a_step_appending_a_registered_label_is_rejected(self, memory, message):
        # F2 measures the spin S into a memory whose label an earlier memory
        # or the initial registry already holds.
        spec = frauchiger_renner()
        f2 = spec.steps[2]
        iso = build_measurement_isometry(
            "F2", f2.iso.domain, list(f2.iso.basis), memory, f2.iso.outcome_labels
        )
        steps = spec.steps[:2] + (Step(f2.time, iso),) + spec.steps[3:]
        with pytest.raises(ValueError) as err:
            ExperimentSpec("bad", spec.registry, spec.initial, steps)
        assert str(err.value) == message

    def test_fr_registry_walk(self):
        spec = frauchiger_renner()
        assert spec.registry_after().labels == ("C", "F1", "S", "F2", "A", "W")
        assert spec.registry_after(through_time=3).labels == ("C", "F1", "S", "F2")
        assert spec.measuring_agents == ("F1", "F2", "A", "W")

    def test_the_agent_map_agrees_with_a_scan_of_the_steps(self):
        # FR's F1 also prepares; the map names its measurement step only.
        for build in presets().values():
            spec = build()
            scanned = tuple(s for s in spec.steps if s.is_measurement)
            assert spec.measuring_steps == scanned
            assert spec.measuring_agents == tuple(s.agent for s in scanned)
            for step in scanned:
                assert spec.step_for(step.agent) is step
            with pytest.raises(KeyError, match=f"no measuring agent 'Z' in experiment {spec.name!r}"):
                spec.step_for("Z")


class TestEvolveNoCollapse:
    def test_fr_halting_probability(self):
        joint = evolve(frauchiger_renner(), NO_COLLAPSE)
        assert joint.probability({"A": "o", "W": "O"}) == pytest.approx(
            1 / 12, abs=1e-9
        )
        assert joint.probability({"A": "f", "W": "F"}) == pytest.approx(3 / 4, abs=1e-9)
        assert joint.probability({"A": "f", "W": "O"}) == pytest.approx(1 / 12, abs=1e-9)
        assert joint.probability({"A": "o", "W": "F"}) == pytest.approx(1 / 12, abs=1e-9)

    def test_wigner_friend_product_correlations(self):
        joint = evolve(wigner_friend("product"), NO_COLLAPSE)
        assert joint.probability({"F": "u", "W": "U"}) == pytest.approx(0.5, abs=1e-12)
        assert joint.probability({"F": "d", "W": "D"}) == pytest.approx(0.5, abs=1e-12)
        assert joint.probability({"F": "u", "W": "D"}) == 0.0
        assert joint.probability({"F": "d", "W": "U"}) == 0.0

    def test_point_distribution_on_eigenstate(self):
        for model in (NO_COLLAPSE, OBJECTIVE_COLLAPSE, CollapseModel.subjective("F")):
            joint = evolve(single_step_eigenstate(), model)
            assert joint.probability({"F": "u"}) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_subjective_agent(self):
        with pytest.raises(ValueError):
            evolve(single_step_eigenstate(), CollapseModel.subjective("nobody"))


class TestMarginal:
    def test_fr_wigner_marginal(self):
        joint = evolve(frauchiger_renner(), NO_COLLAPSE)
        w = marginal(joint, "W")
        assert w["O"] == pytest.approx(1 / 6, abs=1e-9)
        assert w["F"] == pytest.approx(5 / 6, abs=1e-9)

    def test_point_marginal_unchanged(self):
        joint = evolve(single_step_eigenstate(), NO_COLLAPSE)
        assert marginal(joint, "F") == {"u": pytest.approx(1.0), "d": 0.0}

    def test_uniform_independent_joint(self):
        joint = evolve(wigner_friend("superposition"), NO_COLLAPSE)
        f = marginal(joint, "F")
        assert f["u"] == pytest.approx(0.5, abs=1e-12)
        assert f["d"] == pytest.approx(0.5, abs=1e-12)

    def test_unknown_agent(self):
        with pytest.raises(KeyError):
            marginal(evolve(single_step_eigenstate(), NO_COLLAPSE), "X")


class TestConditionalTables:
    """The four knowledge tables of the nested-lab protocol."""

    def test_assistant_about_f2(self):
        table = conditional_table(frauchiger_renner(), NO_COLLAPSE, "F2", "A")
        assert table.probability("U", "o") == pytest.approx(1.0, abs=1e-9)
        assert table.probability("D", "o") == pytest.approx(0.0, abs=1e-9)
        assert table.probability("U", "f") == pytest.approx(0.2, abs=1e-9)
        assert table.probability("D", "f") == pytest.approx(0.8, abs=1e-9)
        # Completed outcomes never fire, so their columns are absent.
        assert table.present_columns() == ("o", "f")

    def test_f2_about_f1(self):
        table = conditional_table(frauchiger_renner(), NO_COLLAPSE, "F1", "F2")
        assert table.probability("t".upper(), "U") == pytest.approx(1.0, abs=1e-9)
        assert table.probability("H", "U") == pytest.approx(0.0, abs=1e-9)
        assert table.probability("H", "D") == pytest.approx(0.5, abs=1e-9)
        assert table.probability("T", "D") == pytest.approx(0.5, abs=1e-9)

    def test_f1_about_wigner_with_collapse(self):
        probs_t = conditional_via_renormalized_state(
            frauchiger_renner(), CollapseModel.subjective("F1"), "W", "F1", "T"
        )
        assert probs_t["F"] == pytest.approx(1.0, abs=1e-9)
        assert probs_t["O"] == pytest.approx(0.0, abs=1e-9)
        probs_h = conditional_via_renormalized_state(
            frauchiger_renner(), CollapseModel.subjective("F1"), "W", "F1", "H"
        )
        assert probs_h["F"] == pytest.approx(0.5, abs=1e-9)
        assert probs_h["O"] == pytest.approx(0.5, abs=1e-9)

    def test_f1_about_wigner_without_collapse(self):
        table = conditional_table(frauchiger_renner(), NO_COLLAPSE, "W", "F1")
        for given in ("H", "T"):
            assert table.probability("F", given) == pytest.approx(5 / 6, abs=1e-9)
            assert table.probability("O", given) == pytest.approx(1 / 6, abs=1e-9)

    def test_conditional_is_plain_bayes_on_the_supplied_joint(self):
        spec = frauchiger_renner()
        joint_t3 = evolve(spec, NO_COLLAPSE, through_time=spec.step_for("A").time)
        table = conditional(joint_t3, "F2", "A")
        assert table.probability("U", "o") == pytest.approx(1.0, abs=1e-9)

    def test_conditioning_errors(self):
        joint = evolve(single_step_eigenstate(), NO_COLLAPSE)
        with pytest.raises(KeyError):
            conditional(joint, "F", "X")
        with pytest.raises(ValueError):
            conditional(joint, "F", "F")


class TestRenormalizedRoute:
    def test_agrees_with_bayes_across_models(self):
        spec = frauchiger_renner()
        models = (NO_COLLAPSE, OBJECTIVE_COLLAPSE, CollapseModel.subjective("F1"))
        pairs = [("F2", "A"), ("F1", "F2"), ("W", "F1"), ("W", "A")]
        for model in models:
            for target, given in pairs:
                table = conditional_table(spec, model, target, given)
                for g in table.present_columns():
                    direct = conditional_via_renormalized_state(
                        spec, model, target, given, g
                    )
                    for outcome, p in table.columns[g].items():
                        assert direct[outcome] == pytest.approx(p, abs=1e-9), (
                            model.tag,
                            target,
                            given,
                            g,
                            outcome,
                        )

    def test_conditioning_on_point_agent_is_no_op(self):
        spec = ExperimentSpec(
            name="point",
            registry=single_step_eigenstate().registry,
            initial=single_step_eigenstate().initial,
            steps=wigner_friend("superposition").steps,
        )
        joint = evolve(spec, NO_COLLAPSE)
        unconditioned = marginal(joint, "W")
        conditioned = conditional_via_renormalized_state(
            spec, NO_COLLAPSE, "W", "F", "u"
        )
        for outcome, p in unconditioned.items():
            assert conditioned[outcome] == pytest.approx(p, abs=1e-9)

    def test_zero_probability_conditioning(self):
        with pytest.raises(ZeroProbabilityError):
            conditional_via_renormalized_state(
                single_step_eigenstate().__class__(
                    name="p",
                    registry=single_step_eigenstate().registry,
                    initial=single_step_eigenstate().initial,
                    steps=wigner_friend("product").steps,
                ),
                NO_COLLAPSE,
                "W",
                "F",
                "d",
            )


class TestMemoryState:
    def test_product_basis_classical_record(self):
        rho = memory_state(wigner_friend("product"), NO_COLLAPSE, discard={"S"})
        assert rho.registry.labels == ("F", "W")
        expected = np.zeros((8, 8))
        uU = rho.registry.flat_index(("u", "U"))
        dD = rho.registry.flat_index(("d", "D"))
        expected[uU, uU] = 0.5
        expected[dD, dD] = 0.5
        assert np.max(np.abs(rho.entries - expected)) < 1e-12

    def test_superposition_basis_product_form(self):
        rho = memory_state(wigner_friend("superposition"), NO_COLLAPSE, discard={"S"})
        friend_mixture = np.eye(2) / 2
        wigner_pure = np.zeros((4, 4))
        wigner_pure[0, 0] = 1.0  # phi+ record
        expected = np.kron(friend_mixture, wigner_pure)
        assert np.max(np.abs(rho.entries - expected)) < 1e-12

    def test_collapsed_memory_state(self):
        rho = memory_state(
            wigner_friend("superposition"),
            CollapseModel.subjective("F"),
            discard={"S"},
            given={"F": "u"},
        )
        # Independent oracle: build tr_S(V_W |up,u><up,u| V_W^dagger) from raw
        # numpy.  Axis order (S, F, W) with W's completed 4-outcome memory.
        phi = np.zeros((2, 2, 4), dtype=complex)  # V_W |up,u>
        # |up,u> = (phi+ + phi-)/sqrt(2); V_W appends the matching record.
        for k, sign in ((0, 1.0), (1, -1.0)):  # phi+ record 0, phi- record 1
            phi[0, 0, k] += 0.5          # up,u component of phi+-
            phi[1, 1, k] += sign * 0.5   # down,d component
        rho_full = np.einsum("sfw,tgx->sfwtgx", phi, phi.conj())
        expected = np.trace(rho_full, axis1=0, axis2=3).reshape(8, 8)
        assert np.max(np.abs(rho.entries - expected)) < 1e-12
        # Wigner can now see the minus record with probability 1/2.
        diag = np.real(np.diag(rho.entries))
        minus_total = sum(
            diag[rho.registry.flat_index((f, "phi-"))] for f in ("u", "d")
        )
        assert minus_total == pytest.approx(0.5, abs=1e-9)

    def test_unknown_discard_label(self):
        with pytest.raises(KeyError):
            memory_state(wigner_friend("product"), NO_COLLAPSE, discard={"Q"})

    @pytest.mark.parametrize(
        "discard,model,given,error,message",
        [
            ({"C", "F1", "S", "F2", "A", "W", "Z"}, NO_COLLAPSE, None,
             KeyError, "unknown subsystem labels ['Z']"),
            ({"C", "F1", "S", "F2", "A", "W"}, CollapseModel.subjective("Z"), None,
             ValueError, "discard names every subsystem; nothing is left to keep"),
            ({"C"}, CollapseModel.subjective("Z"), {"Q": "x"},
             ValueError, "collapse model names unknown agent 'Z' for 'fr'"),
            ({"C"}, NO_COLLAPSE, {"Q": "x", "F1": "zz"},
             KeyError, "no measuring agent 'Q' in experiment 'fr'"),
            ({"C"}, NO_COLLAPSE, {"W": "perp2", "A": "zz"},
             KeyError, "'zz' is not an outcome of 'A'"),
        ],
        ids=[
            "discard-label-then-empty-keep",
            "empty-keep-then-model-agent",
            "model-agent-then-given-agent",
            "given-agent-then-given-outcome",
            "given-outcome-then-zero-probability",
        ],
    )
    def test_each_pair_of_faults_names_the_first_check(self, discard, model, given, error, message):
        # Checks run in the order: unknown discard label, empty keep, model
        # agent, given agent, given outcome, zero probability.  W = perp2
        # has probability 0 in FR.
        with pytest.raises(error) as raised:
            memory_state(frauchiger_renner(), model, discard, given)
        assert type(raised.value) is error and raised.value.args == (message,)


class TestObjectiveCollapse:
    def test_sequential_tree_joint(self):
        """Frozen oracle: the collapse tree gives uniform (a, w) in each branch."""
        joint = evolve(frauchiger_renner(), OBJECTIVE_COLLAPSE)
        # p(f1) * p(f2|f1) * 1/2 * 1/2 for every of the four (a, w) cells.
        assert joint.probability(
            {"F1": "H", "F2": "D", "A": "o", "W": "O"}
        ) == pytest.approx(1 / 12, abs=1e-9)
        assert joint.probability(
            {"F1": "T", "F2": "U", "A": "f", "W": "F"}
        ) == pytest.approx(1 / 12, abs=1e-9)
        assert joint.probability({"F1": "H", "F2": "U"}) == pytest.approx(0.0, abs=1e-12)
        w_given_t = conditional_table(
            frauchiger_renner(), OBJECTIVE_COLLAPSE, "W", "F1"
        )
        assert w_given_t.probability("F", "T") == pytest.approx(0.5, abs=1e-9)
        assert w_given_t.probability("O", "T") == pytest.approx(0.5, abs=1e-9)

    def test_agrees_with_no_collapse_before_superobservers(self):
        spec = frauchiger_renner()
        through = spec.step_for("F2").time
        ism = evolve(spec, NO_COLLAPSE, through_time=through)
        obj = evolve(spec, OBJECTIVE_COLLAPSE, through_time=through)
        for assignment, p in ism.probs.items():
            assert obj.probs.get(assignment, 0.0) == pytest.approx(p, abs=1e-9)


class TestPostSelect:
    def test_halting_round(self):
        joint = evolve(frauchiger_renner(), NO_COLLAPSE)
        halted = post_select(joint, dict(frauchiger_renner().halting))
        assert halted.probability({"A": "o", "W": "O"}) == pytest.approx(1.0, abs=1e-9)
        # Inside the halting round the two friends' records are uniform:
        # Wigner's coherent step erased the earlier certainty correlations.
        assert halted.probability({"F1": "H", "F2": "U"}) == pytest.approx(
            0.25, abs=1e-9
        )

    def test_impossible_post_selection(self):
        joint = evolve(wigner_friend("product"), NO_COLLAPSE)
        with pytest.raises(ZeroProbabilityError):
            post_select(joint, {"F": "u", "W": "D"})


class TestDisjointness:
    def test_memory_projectors_pairwise_orthogonal(self):
        spec = frauchiger_renner()
        registry = spec.registry_after()
        for step in spec.measuring_steps:
            memory = step.iso.memory
            projs = [
                projector(list(registry.dims), registry.axis(memory.label), index)
                for index in range(memory.dimension)
            ]
            for i in range(len(projs)):
                for j in range(i + 1, len(projs)):
                    assert np.max(np.abs(projs[i] @ projs[j])) <= 1e-12


class TestPresets:
    def test_fr_initial_state(self):
        spec = frauchiger_renner()
        assert spec.initial.amplitude("h") == pytest.approx(math.sqrt(1 / 3))
        assert spec.initial.amplitude("t") == pytest.approx(math.sqrt(2 / 3))
        assert spec.halting == (("A", "o"), ("W", "O"))

    def test_wigner_superposition_basis_vectors(self):
        spec = wigner_friend("superposition")
        wigner = spec.steps[1].iso
        plus, minus = wigner.basis[0], wigner.basis[1]
        assert plus.amplitude(("up", "u")) == pytest.approx(SQ2)
        assert plus.amplitude(("down", "d")) == pytest.approx(SQ2)
        assert minus.amplitude(("down", "d")) == pytest.approx(-SQ2)

    def test_deutsch_shares_the_superposition_circuit(self):
        spec = deutsch_variant()
        assert spec.name == "deutsch"
        assert spec.steps[1].iso.outcome_labels[:2] == ("phi+", "phi-")

    def test_preset_registry(self):
        names = set(presets())
        assert names == {"fr", "deutsch", "wigner-product", "wigner-superposition"}
        for build in presets().values():
            build()  # constructs without error

    def test_bad_basis_name(self):
        with pytest.raises(ValueError):
            wigner_friend("diagonal")


def test_evolved_density_trace_one():
    for model in (NO_COLLAPSE, OBJECTIVE_COLLAPSE, CollapseModel.subjective("F1")):
        rho = evolved_density(frauchiger_renner(), model)
        assert rho.trace() == pytest.approx(1.0, abs=1e-9)


def test_outcome_assignment_access():
    a = OutcomeAssignment((("A", "o"), ("W", "O")))
    assert a["A"] == "o"
    assert a.get("X") is None
    assert str(a) == "A=o,W=O"
    with pytest.raises(KeyError):
        a["F1"]
