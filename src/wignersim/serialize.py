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

from .channels import (
    MeasurementIsometry,
    build_measurement_isometry,
    build_preparation_isometry,
)
from .experiment import ExperimentSpec, Step
from .registry import Subsystem, SubsystemRegistry
from .states import StateVector


def _pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _vector_pairs(amps: np.ndarray) -> list[list[float]]:
    return [_pair(a) for a in amps]


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
        if isinstance(iso, MeasurementIsometry):
            doc["steps"].append(
                {
                    "type": "measure",
                    "time": step.time,
                    "agent": iso.agent,
                    "targets": list(iso.measured_labels),
                    "basis": [_vector_pairs(v.amplitudes) for v in iso.basis],
                    "memory_label": iso.memory.label,
                    "memory_basis_labels": list(iso.memory.basis_labels),
                }
            )
        else:
            doc["steps"].append(
                {
                    "type": "prepare",
                    "time": step.time,
                    "agent": iso.agent,
                    "targets": list(iso.control_labels),
                    "output_label": iso.output.label,
                    "output_basis_labels": list(iso.output.basis_labels),
                    "prepared": {
                        ",".join(labels): _vector_pairs(state.amplitudes)
                        for labels, state in iso.prepared
                    },
                }
            )
    return doc


def document_to_experiment(doc: Mapping) -> ExperimentSpec:
    """Rebuild an experiment from its document form."""
    registry = SubsystemRegistry(
        tuple(
            Subsystem(s["label"], int(s["dimension"]), tuple(s["basis_labels"]))
            for s in doc["registry"]
        )
    )
    amps = np.zeros(registry.total_dimension, dtype=np.complex128)
    if not isinstance(doc["initial"], Mapping):
        raise ValueError("initial: expected an object of [re, im] amplitudes")
    for key, value in doc["initial"].items():
        amps[registry.flat_index(tuple(key.split(",")))] = _complex_pair(
            value, f"initial[{json.dumps(key, ensure_ascii=False)}]"
        )
    initial = StateVector(registry, amps)

    steps = []
    walked = registry
    for raw in doc["steps"]:
        targets = tuple(raw["targets"])
        target_registry = SubsystemRegistry(
            tuple(walked.subsystem(label) for label in targets)
        )
        if raw["type"] == "measure":
            basis = [
                StateVector(
                    target_registry,
                    np.array([complex(re, im) for re, im in vec]),
                )
                for vec in raw["basis"]
            ]
            iso = build_measurement_isometry(
                raw["agent"],
                target_registry,
                basis,
                memory=raw["memory_label"],
                memory_labels=raw["memory_basis_labels"],
            )
        elif raw["type"] == "prepare":
            output = Subsystem(
                raw["output_label"],
                len(raw["output_basis_labels"]),
                tuple(raw["output_basis_labels"]),
            )
            out_registry = SubsystemRegistry((output,))
            prepared = {
                tuple(key.split(",")): StateVector(
                    out_registry,
                    np.array([complex(re, im) for re, im in vec]),
                )
                for key, vec in raw["prepared"].items()
            }
            iso = build_preparation_isometry(
                raw["agent"], target_registry, prepared, output
            )
        else:
            raise ValueError(f"unknown step type {raw['type']!r}")
        steps.append(Step(int(raw["time"]), iso))
        walked = walked.extended(iso.appended)

    halting = tuple((h["agent"], h["outcome"]) for h in doc.get("halting", ()))
    return ExperimentSpec(
        name=doc.get("name", "experiment"),
        registry=registry,
        initial=initial,
        steps=tuple(steps),
        halting=halting or None,
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
