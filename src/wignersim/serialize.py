"""Experiment documents: a JSON schema for loading and exporting experiments.

Document layout::

    {
      "name": "...",
      "registry": [{"label", "dimension", "basis_labels"}, ...],
      "initial": {"<basis labels, comma-joined>": [re, im], ...},
      "steps": [
        {"type": "measure", "time", "agent", "targets": [...],
         "basis": [[[re, im], ...], ...],
         "memory_label", "memory_basis_labels": [...]},
        {"type": "prepare", "time", "agent", "targets": [...],
         "output_label", "output_basis_labels": [...],
         "prepared": {"<control labels, comma-joined>": [[re, im], ...]}}
      ],
      "halting": [{"agent", "outcome"}, ...]
    }

Exports are byte-stable: keys are emitted sorted and floats are printed with
a fixed 17-significant-digit format, so the same experiment always serializes
to the same bytes.
"""

from __future__ import annotations

import json
from typing import Mapping

import numpy as np

from .channels import build_measurement_isometry, build_preparation_isometry
from .experiment import ExperimentSpec, Step
from .registry import Subsystem, SubsystemRegistry
from .states import StateVector


def _pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _vector_pairs(amps: np.ndarray) -> list[list[float]]:
    return [_pair(a) for a in amps]


def _at(obj: Mapping, where: str, key: str) -> tuple[object, str]:
    """``obj[key]`` and its path; a missing key raises a ValueError naming it."""
    path = f"{where}.{key}" if where else key
    if key not in obj:
        raise ValueError(f"{path}: missing")
    return obj[key], path


def _named(where: str, call, *args):
    """``call(*args)``; a KeyError or ValueError it raises names ``where``."""
    try:
        return call(*args)
    except (KeyError, ValueError) as err:
        raise ValueError(f"{where}: {err.args[0]}") from None


def _complex_pair(value, where: str) -> complex:
    """Inverse of :func:`_pair`; a ValueError names ``where`` on bad input."""
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in value
        )
    ):
        raise ValueError(f"{where}: expected [re, im], got {value!r}")
    return complex(value[0], value[1])


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: expected an integer, got {value!r}")
    return value


def _label(value, where: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{where}: expected a label, got {value!r}")
    return value


def _labels(value, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ValueError(f"{where}: expected a list of labels, got {value!r}")
    return tuple(value)


def _list(value, where: str, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{where}: expected a list of {what}, got {value!r}")
    return value


def _object(value, where: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ValueError(f"{where}: expected an object, got {value!r}")
    return value


def _vector(value, where: str) -> np.ndarray:
    pairs = _list(value, where, "[re, im] amplitudes")
    return np.array(
        [_complex_pair(z, f"{where}[{i}]") for i, z in enumerate(pairs)],
        dtype=np.complex128,
    )


def experiment_to_document(spec: ExperimentSpec) -> dict:
    """Plain-data form of an experiment, ready for canonical dumping."""
    doc: dict = {
        "name": spec.name,
        "registry": [
            {
                "label": s.label,
                "dimension": s.dimension,
                "basis_labels": list(s.basis_labels),
            }
            for s in spec.registry.subsystems
        ],
        "initial": {
            ",".join(spec.registry.basis_tuple(i)): _pair(a)
            for i, a in enumerate(spec.initial.amplitudes)
            if abs(a) > 0.0
        },
        "steps": [],
        "halting": [
            {"agent": agent, "outcome": outcome} for agent, outcome in (spec.halting or ())
        ],
    }
    for step in spec.steps:
        iso = step.iso
        entry = {
            "time": step.time,
            "agent": iso.agent,
            "targets": list(iso.domain.labels),
        }
        if iso.basis:
            entry["type"] = "measure"
            entry["basis"] = [_vector_pairs(v.amplitudes) for v in iso.basis]
            entry["memory_label"] = iso.appended.label
            entry["memory_basis_labels"] = list(iso.appended.basis_labels)
        else:
            entry["type"] = "prepare"
            entry["output_label"] = iso.appended.label
            entry["output_basis_labels"] = list(iso.appended.basis_labels)
            entry["prepared"] = {
                ",".join(labels): _vector_pairs(state.amplitudes)
                for labels, state in iso.prepared
            }
        doc["steps"].append(entry)
    return doc


def document_to_experiment(doc: Mapping) -> ExperimentSpec:
    """Rebuild an experiment from its document form.

    A field of the wrong type raises a ``ValueError`` that names its path,
    such as ``steps[0].targets: expected a list of labels, got 5``, and so do
    a missing field, an unknown label, and an entry that a constructor
    rejects, as ``registry[0]: subsystem 'C': 2 basis labels for dimension 3``.
    :class:`ExperimentSpec`'s own errors, such as the step order, keep theirs.
    """
    doc = _object(doc, "document")
    subsystems = []
    for i, s in enumerate(_list(*_at(doc, "", "registry"), "subsystems")):
        where = f"registry[{i}]"
        s = _object(s, where)
        subsystems.append(
            _named(
                where,
                Subsystem,
                _label(*_at(s, where, "label")),
                _integer(*_at(s, where, "dimension")),
                _labels(*_at(s, where, "basis_labels")),
            )
        )
    registry = _named("registry", SubsystemRegistry, tuple(subsystems))
    amps = np.zeros(registry.total_dimension, dtype=np.complex128)
    for key, value in _object(*_at(doc, "", "initial")).items():
        at = f"initial[{json.dumps(key, ensure_ascii=False)}]"
        amplitude = _complex_pair(value, at)
        amps[_named(at, registry.flat_index, tuple(key.split(",")))] = amplitude
    initial = _named("initial", StateVector, registry, amps)

    steps = []
    walked = registry
    for n, raw in enumerate(_list(*_at(doc, "", "steps"), "steps")):
        where = f"steps[{n}]"
        raw = _object(raw, where)
        targets, at = _at(raw, where, "targets")
        targets = _labels(targets, at)
        time = _integer(*_at(raw, where, "time"))
        target_registry = _named(
            at, lambda: SubsystemRegistry(tuple(walked.subsystem(l) for l in targets))
        )
        kind, at = _at(raw, where, "type")
        if kind == "measure":
            vectors = _list(*_at(raw, where, "basis"), "vectors")
            basis = []
            for i, vec in enumerate(vectors):
                at = f"{where}.basis[{i}]"
                basis.append(_named(at, StateVector, target_registry, _vector(vec, at)))
            iso = _named(
                where,
                build_measurement_isometry,
                _label(*_at(raw, where, "agent")),
                target_registry,
                basis,
                _label(*_at(raw, where, "memory_label")),
                _labels(*_at(raw, where, "memory_basis_labels")),
            )
            walked = _named(f"{where}.memory_label", walked.extended, iso.appended)
        elif kind == "prepare":
            output_labels = _labels(*_at(raw, where, "output_basis_labels"))
            output = _named(
                where,
                Subsystem,
                _label(*_at(raw, where, "output_label")),
                len(output_labels),
                output_labels,
            )
            out_registry = SubsystemRegistry((output,))
            prepared = {}
            for key, vec in _object(*_at(raw, where, "prepared")).items():
                at = f"{where}.prepared[{json.dumps(key, ensure_ascii=False)}]"
                state = _named(at, StateVector, out_registry, _vector(vec, at))
                labels = tuple(key.split(","))
                _named(at, target_registry.flat_index, labels)
                prepared[labels] = state
            agent = _label(*_at(raw, where, "agent"))
            iso = _named(
                where, build_preparation_isometry, agent, target_registry, prepared, output
            )
            walked = _named(f"{where}.output_label", walked.extended, iso.appended)
        else:
            raise ValueError(f"{at}: unknown step type {kind!r}")
        steps.append(Step(time, iso))

    halting = []
    for i, h in enumerate(_list(doc.get("halting", []), "halting", "conditions")):
        where = f"halting[{i}]"
        h = _object(h, where)
        agent = _label(*_at(h, where, "agent"))
        halting.append((agent, _label(*_at(h, where, "outcome"))))
    return ExperimentSpec(
        name=_label(doc.get("name", "experiment"), "name"),
        registry=registry,
        initial=initial,
        steps=tuple(steps),
        halting=tuple(halting) or None,
    )


def load_experiment(path: str) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return document_to_experiment(json.load(fh))


def _canonical(value, indent: int) -> str:
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k), ensure_ascii=False)}: '
            f"{_canonical(value[k], indent + 2)}"
            for k in sorted(value, key=str)
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{pad}  {_canonical(v, indent + 2)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return json.dumps(value, ensure_ascii=False)


def dumps_canonical(doc: Mapping) -> str:
    """Deterministic text form: sorted keys, floats at 17 significant digits."""
    return _canonical(dict(doc), 0) + "\n"
