import json
import re

import pytest

from wignersim.channels import NO_COLLAPSE, build_preparation_isometry
from wignersim.experiment import ExperimentSpec, Step, evolve
from wignersim.presets import frauchiger_renner, wigner_friend
from wignersim.registry import Subsystem, SubsystemRegistry
from wignersim.serialize import (
    document_to_experiment,
    dumps_canonical,
    experiment_to_document,
    load_experiment,
)
from wignersim.states import StateVector


@pytest.mark.parametrize("build", [frauchiger_renner, wigner_friend])
def test_roundtrip_preserves_distributions(build):
    spec = build()
    rebuilt = document_to_experiment(experiment_to_document(spec))
    original = evolve(spec, NO_COLLAPSE)
    again = evolve(rebuilt, NO_COLLAPSE)
    assert original.agents == again.agents
    for assignment, p in original.probs.items():
        assert again.probs.get(assignment, 0.0) == pytest.approx(p, abs=1e-12)
    assert rebuilt.halting == spec.halting


def test_canonical_dump_is_stable_and_valid_json():
    doc = experiment_to_document(frauchiger_renner())
    text = dumps_canonical(doc)
    assert text == dumps_canonical(experiment_to_document(frauchiger_renner()))
    parsed = json.loads(text)
    assert parsed["name"] == "fr"
    assert parsed["halting"] == [
        {"agent": "A", "outcome": "o"},
        {"agent": "W", "outcome": "O"},
    ]
    # 17-significant-digit float formatting.
    assert "0.57735026918962573" in text


def test_roundtrip_through_file(tmp_path):
    path = tmp_path / "fr.json"
    path.write_text(dumps_canonical(experiment_to_document(frauchiger_renner())))
    spec = load_experiment(str(path))
    assert spec.name == "fr"
    assert evolve(spec, NO_COLLAPSE).probability(
        {"A": "o", "W": "O"}
    ) == pytest.approx(1 / 12, abs=1e-9)


def test_partial_basis_config_completes_deterministically(tmp_path):
    # A hand-written config may give only the spanning vectors; completion
    # must supply the rest with perp labels.
    doc = {
        "name": "mini",
        "registry": [
            {"label": "S", "dimension": 2, "basis_labels": ["up", "down"]},
            {"label": "F", "dimension": 2, "basis_labels": ["u", "d"]},
        ],
        "initial": {"up,u": [1.0, 0.0]},
        "steps": [
            {
                "type": "measure",
                "time": 1,
                "agent": "W",
                "targets": ["S", "F"],
                "basis": [
                    [[0.7071067811865476, 0], [0, 0], [0, 0], [0.7071067811865476, 0]],
                ],
                "memory_label": "W",
                "memory_basis_labels": ["phi+"],
            }
        ],
        "halting": [],
    }
    spec = document_to_experiment(doc)
    labels = spec.steps[0].iso.outcome_labels
    assert labels == ("phi+", "perp1", "perp2", "perp3")


def test_unknown_step_type_rejected():
    doc = experiment_to_document(wigner_friend())
    doc["steps"][0]["type"] = "teleport"
    with pytest.raises(ValueError, match=r"^steps\[0\]\.type: unknown step type 'teleport'$"):
        document_to_experiment(doc)


@pytest.mark.parametrize(
    "initial,message",
    [
        ({"up": 5}, 'initial["up"]: expected [re, im]'),
        ({"up": [1.0, 0.0, 0.0]}, 'initial["up"]: expected [re, im]'),
        ({"up": [True, False]}, 'initial["up"]: expected [re, im]'),
        ([[1.0, 0.0]], "initial: expected an object"),
    ],
)
def test_initial_amplitude_must_be_a_pair(initial, message):
    doc = experiment_to_document(wigner_friend())
    doc["initial"] = initial
    with pytest.raises(ValueError, match=re.escape(message)):
        document_to_experiment(doc)


def _set(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize(
    "path,value,message",
    [
        (("steps", 0, "targets"), 5, "steps[0].targets: expected a list of labels, got 5"),
        (("registry", 0, "basis_labels"), 7, "registry[0].basis_labels: expected a list of labels, got 7"),
        (("registry", 0, "dimension"), "2", "registry[0].dimension: expected an integer, got '2'"),
        (("registry", 0, "label"), 3, "registry[0].label: expected a label, got 3"),
        (("registry", 0), "C", "registry[0]: expected an object, got 'C'"),
        (("registry",), {}, "registry: expected a list of subsystems"),
        (("steps", 2, "time"), "3", "steps[2].time: expected an integer, got '3'"),
        (("steps", 2, "time"), True, "steps[2].time: expected an integer, got True"),
        (("steps", 0, "basis"), 4, "steps[0].basis: expected a list of vectors, got 4"),
        (("steps", 0, "basis", 1), 4, "steps[0].basis[1]: expected a list of [re, im] amplitudes"),
        (("steps", 0, "basis", 1, 0), "x", "steps[0].basis[1][0]: expected [re, im], got 'x'"),
        (("steps", 0, "memory_basis_labels"), [1, 2], "steps[0].memory_basis_labels: expected a list of labels"),
        (("steps", 1, "prepared"), [1], "steps[1].prepared: expected an object, got [1]"),
        (("steps", 1, "prepared", "a"), 9, 'steps[1].prepared["a"]: expected a list of [re, im] amplitudes'),
        (("steps", 1, "output_basis_labels"), "ab", "steps[1].output_basis_labels: expected a list of labels"),
        (("steps",), None, "steps: expected a list of steps, got None"),
        (("halting",), {"A": "o"}, "halting: expected a list of conditions"),
        (("halting", 0, "outcome"), 1, "halting[0].outcome: expected a label, got 1"),
        (("name",), 5, "name: expected a label, got 5"),
        (("name",), None, "name: expected a label, got None"),
        (("name",), ["x"], "name: expected a label, got ['x']"),
        (("name",), {}, "name: expected a label, got {}"),
    ],
)
def test_wrong_field_types_raise_path_qualified_errors(path, value, message):
    doc = json.loads(dumps_canonical(experiment_to_document(frauchiger_renner())))
    _set(doc, path, value)
    with pytest.raises(ValueError, match=re.escape(message)):
        document_to_experiment(doc)


def _delete(doc, path):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    del doc[last]


@pytest.mark.parametrize(
    "path",
    [
        ("registry",),
        ("initial",),
        ("steps",),
        ("registry", 0, "label"),
        ("registry", 0, "dimension"),
        ("registry", 0, "basis_labels"),
        ("steps", 0, "type"),
        ("steps", 0, "time"),
        ("steps", 0, "targets"),
        ("steps", 0, "agent"),
        ("steps", 0, "basis"),
        ("steps", 0, "memory_label"),
        ("steps", 0, "memory_basis_labels"),
        ("steps", 1, "agent"),
        ("steps", 1, "output_label"),
        ("steps", 1, "output_basis_labels"),
        ("steps", 1, "prepared"),
        ("halting", 0, "agent"),
        ("halting", 1, "outcome"),
    ],
)
def test_missing_fields_raise_path_qualified_errors(path):
    doc = json.loads(dumps_canonical(experiment_to_document(frauchiger_renner())))
    _delete(doc, path)
    *parents, key = path
    where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in parents)
    message = f"{where}.{key}".lstrip(".") + ": missing"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        document_to_experiment(doc)


def _rekey(mapping, old, new):
    mapping[new] = mapping.pop(old)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda doc: doc["steps"][0].update(targets=["Q"]), "steps[0].targets: unknown subsystem label 'Q'"),
        (lambda doc: doc["steps"][3].update(targets=["C", "C"]), "steps[3].targets: duplicate subsystem labels in ['C', 'C']"),
        (lambda doc: _rekey(doc["initial"], "h", "zz"), 'initial["zz"]: subsystem \'C\' has no basis state \'zz\''),
        (lambda doc: _rekey(doc["initial"], "h", "h,t"), 'initial["h,t"]: expected 1 basis labels, got 2'),
        (lambda doc: _rekey(doc["steps"][1]["prepared"], "T", "qq"), 'steps[1].prepared["qq"]: subsystem \'F1\' has no basis state \'qq\''),
        (lambda doc: _rekey(doc["steps"][1]["prepared"], "T", "T,T"), 'steps[1].prepared["T,T"]: expected 1 basis labels, got 2'),
        (lambda doc: doc["registry"][0].update(dimension=3), "registry[0]: subsystem 'C': 2 basis labels for dimension 3"),
        (lambda doc: doc["registry"].append(dict(doc["registry"][0])), "registry: duplicate subsystem labels in ['C', 'C']"),
        (lambda doc: doc["initial"].update(h=[1.0, 0.0], t=[1.0, 0.0]), "initial: state not normalized: |psi|^2 = 2.0"),
        (lambda doc: doc["steps"][0]["basis"][0].__setitem__(1, [1.0, 0.0]), "steps[0].basis[0]: state not normalized: |psi|^2 = 2.0"),
        (lambda doc: doc["steps"][1]["prepared"]["T"].__setitem__(0, [1.0, 0.0]), 'steps[1].prepared["T"]: state not normalized: |psi|^2 = 1.5'),
        (lambda doc: doc["steps"][0].update(basis=[]), "steps[0]: need between 1 and 2 basis vectors, got 0"),
        (lambda doc: doc["steps"][0].update(memory_basis_labels=["H"]), "steps[0]: 1 memory labels for 2 basis vectors"),
        (lambda doc: doc["steps"][0].update(memory_label="C"), "steps[0]: memory label 'C' collides with a measured label"),
        (lambda doc: doc["steps"][2].update(memory_label="C"), "steps[2].memory_label: subsystem label 'C' already registered"),
        (lambda doc: doc["steps"][1].update(output_label="F1"), "steps[1]: output label 'F1' collides with a control label"),
        (lambda doc: doc["steps"][1].update(output_label="C"), "steps[1].output_label: subsystem label 'C' already registered"),
        (lambda doc: doc["steps"][1].update(output_basis_labels=["up", "up"]), "steps[1]: subsystem 'S': basis labels must be unique"),
        (lambda doc: doc["steps"][1]["prepared"].pop("T"), "steps[1]: prepared map covers 1 of 2 control outcomes"),
        # Errors of the experiment as a whole keep the messages ExperimentSpec gives.
        (lambda doc: doc["steps"][1].update(time=9), "step times must be strictly increasing, got [1, 9, 3, 4, 5]"),
        (
            lambda doc: (doc["steps"][3].update(agent="F1"), doc.update(halting=[])),
            "agent 'F1' measures at t=1 and at t=4; an agent may measure only once",
        ),
    ],
    ids=[
        "target", "duplicate-target", "initial-label", "initial-count", "control-label",
        "control-count", "registry-dimension", "registry-duplicate", "initial-norm",
        "basis-norm", "prepared-norm", "no-basis", "memory-label-count",
        "memory-measured", "memory-registered", "output-control", "output-registered",
        "output-basis-labels", "prepared-cover", "time-order", "measures-twice",
    ],
)
def test_rejected_entries_raise_path_qualified_errors(edit, message):
    doc = json.loads(dumps_canonical(experiment_to_document(frauchiger_renner())))
    edit(doc)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        document_to_experiment(doc)


def test_name_and_halting_are_optional():
    doc = json.loads(dumps_canonical(experiment_to_document(wigner_friend())))
    del doc["name"], doc["halting"]
    spec = document_to_experiment(doc)
    assert (spec.name, spec.halting) == ("experiment", None)


def test_document_must_be_an_object():
    with pytest.raises(ValueError, match=re.escape("document: expected an object, got []")):
        document_to_experiment([])


def test_preparation_on_two_control_factors_round_trips_byte_identical():
    registry = SubsystemRegistry.build([("C", ("h", "t")), ("D", ("H", "T"))])
    out = Subsystem("S", 2, ("up", "down"))
    out_registry = SubsystemRegistry((out,))
    prepared = {
        ("h", "H"): StateVector.basis_state(out_registry, "up"),
        ("h", "T"): StateVector.basis_state(out_registry, "down"),
        ("t", "H"): StateVector.from_terms(out_registry, {"up": 0.6, "down": 0.8}),
        ("t", "T"): StateVector.from_terms(out_registry, {"up": 0.8, "down": -0.6j}),
    }
    spec = ExperimentSpec(
        name="two-controls",
        registry=registry,
        initial=StateVector.from_terms(registry, {("h", "H"): 0.6, ("t", "T"): 0.8}),
        steps=(Step(1, build_preparation_isometry("P", registry, prepared, out)),),
    )
    text = dumps_canonical(experiment_to_document(spec))
    assert '"h,H": [' in text
    rebuilt = document_to_experiment(json.loads(text))
    assert dumps_canonical(experiment_to_document(rebuilt)) == text
