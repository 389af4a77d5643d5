"""Ready-made experiments: Wigner's friend, Deutsch's variant, and the
nested two-lab protocol of Frauchiger and Renner.

All states and measurement bases are written out exactly; the only irrational
numbers involved are sqrt(1/2) and sqrt(1/3).

The public constructors, and the map :func:`presets` returns, build a fresh
spec on every call.  The command line and the scenario builders of
:mod:`wignersim.deduction` instead share one spec per preset name, built on
first use (``_shared``).  A spec is frozen and its step plans and cones hold
no amplitudes or answers, so sharing it changes no result; it only saves
rebuilding the isometries, their basis completions and the plans.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from .channels import build_measurement_isometry, build_preparation_isometry
from .experiment import ExperimentSpec, Step
from .registry import Subsystem, SubsystemRegistry
from .states import StateVector

SQ2 = math.sqrt(0.5)
SQ3 = math.sqrt(1.0 / 3.0)

WIGNER_BASES = ("product", "superposition")


def _check_wigner_basis(wigner_basis: str) -> None:
    if wigner_basis not in WIGNER_BASES:
        raise ValueError(f"wigner_basis must be one of {WIGNER_BASES}")


def wigner_friend(wigner_basis: str = "product") -> ExperimentSpec:
    """Friend measures a spin superposition; Wigner measures spin plus memory.

    ``wigner_basis`` selects Wigner's joint measurement: ``product`` reads the
    friend's record out directly ({|up,u>, |down,d>}), ``superposition``
    probes the coherence between the two records
    ({(|up,u> + |down,d>)/sqrt(2), (|up,u> - |down,d>)/sqrt(2)}).
    """
    _check_wigner_basis(wigner_basis)
    spin = Subsystem("S", 2, ("up", "down"))
    registry = SubsystemRegistry((spin,))
    initial = StateVector.from_terms(registry, {"up": SQ2, "down": SQ2})

    friend = build_measurement_isometry(
        "F",
        registry,
        [StateVector.basis_state(registry, "up"),
         StateVector.basis_state(registry, "down")],
        memory="F",
        memory_labels=("u", "d"),
    )
    joint = SubsystemRegistry((spin, friend.memory))
    if wigner_basis == "product":
        basis = [
            StateVector.basis_state(joint, ("up", "u")),
            StateVector.basis_state(joint, ("down", "d")),
        ]
        labels = ("U", "D")
    else:
        basis = [
            StateVector.from_terms(joint, {("up", "u"): SQ2, ("down", "d"): SQ2}),
            StateVector.from_terms(joint, {("up", "u"): SQ2, ("down", "d"): -SQ2}),
        ]
        labels = ("phi+", "phi-")
    wigner = build_measurement_isometry(
        "W", joint, basis, memory="W", memory_labels=labels
    )
    return ExperimentSpec(
        name=f"wigner-{wigner_basis}",
        registry=registry,
        initial=initial,
        steps=(Step(1, friend), Step(2, wigner)),
    )


def deutsch_variant() -> ExperimentSpec:
    """Wigner's friend with the superposition-basis probe.

    The defining additions of Deutsch's variant, the friend's definiteness
    report x and the "could Wigner see the minus outcome" answer y, are
    classical reported bits: :func:`wignersim.deduction.build_deutsch_scenario`
    adds them as extra slots to the event schema it derives from this spec,
    not as quantum steps of the circuit.
    """
    base = wigner_friend("superposition")
    return ExperimentSpec(
        name="deutsch",
        registry=base.registry,
        initial=base.initial,
        steps=base.steps,
    )


def frauchiger_renner() -> ExperimentSpec:
    """Two nested friend experiments, the first friend sourcing the second.

    t1  F1 measures the coin sqrt(1/3)|h> + sqrt(2/3)|t>, recording H/T.
    t2  F1 prepares a spin: |down> after H, (|down>+|up>)/sqrt(2) after T.
    t3  F2 measures the spin in {up, down}, recording U/D.
    t4  the assistant A measures (coin, F1's record) in
        {|o> = (|h,H> - |t,T>)/sqrt(2), |f> = (|h,H> + |t,T>)/sqrt(2)}.
    t5  Wigner W measures (spin, F2's record) in
        {|O> = (|down,D> - |up,U>)/sqrt(2), |F> = (|down,D> + |up,U>)/sqrt(2)}.

    Runs repeat until A reads o and W reads O, so analyses condition on that
    halting assignment.
    """
    coin = Subsystem("C", 2, ("h", "t"))
    registry = SubsystemRegistry((coin,))
    initial = StateVector.from_terms(
        registry, {"h": SQ3, "t": math.sqrt(2.0 / 3.0)}
    )

    f1_measure = build_measurement_isometry(
        "F1",
        registry,
        [StateVector.basis_state(registry, "h"),
         StateVector.basis_state(registry, "t")],
        memory="F1",
        memory_labels=("H", "T"),
    )
    spin = Subsystem("S", 2, ("up", "down"))
    spin_reg = SubsystemRegistry((spin,))
    f1_prepare = build_preparation_isometry(
        "F1",
        SubsystemRegistry((f1_measure.memory,)),
        {
            "H": StateVector.basis_state(spin_reg, "down"),
            "T": StateVector.from_terms(spin_reg, {"down": SQ2, "up": SQ2}),
        },
        output=spin,
    )
    f2_measure = build_measurement_isometry(
        "F2",
        spin_reg,
        [StateVector.basis_state(spin_reg, "up"),
         StateVector.basis_state(spin_reg, "down")],
        memory="F2",
        memory_labels=("U", "D"),
    )
    coin_lab = SubsystemRegistry((coin, f1_measure.memory))
    assistant = build_measurement_isometry(
        "A",
        coin_lab,
        [StateVector.from_terms(coin_lab, {("h", "H"): SQ2, ("t", "T"): -SQ2}),
         StateVector.from_terms(coin_lab, {("h", "H"): SQ2, ("t", "T"): SQ2})],
        memory="A",
        memory_labels=("o", "f"),
    )
    spin_lab = SubsystemRegistry((spin, f2_measure.memory))
    wigner = build_measurement_isometry(
        "W",
        spin_lab,
        [StateVector.from_terms(spin_lab, {("down", "D"): SQ2, ("up", "U"): -SQ2}),
         StateVector.from_terms(spin_lab, {("down", "D"): SQ2, ("up", "U"): SQ2})],
        memory="W",
        memory_labels=("O", "F"),
    )
    return ExperimentSpec(
        name="fr",
        registry=registry,
        initial=initial,
        steps=(
            Step(1, f1_measure),
            Step(2, f1_prepare),
            Step(3, f2_measure),
            Step(4, assistant),
            Step(5, wigner),
        ),
        halting=(("A", "o"), ("W", "O")),
    )


def presets() -> dict[str, Callable[[], ExperimentSpec]]:
    """Name -> constructor map used by the command line."""
    return {
        "fr": frauchiger_renner,
        "deutsch": deutsch_variant,
        "wigner-product": lambda: wigner_friend("product"),
        "wigner-superposition": lambda: wigner_friend("superposition"),
    }


@functools.cache
def _shared(name: str) -> ExperimentSpec:
    """The one spec of preset ``name`` this process shares; KeyError if unknown.

    Two threads asking for a cold name may each build one; whichever is
    cached, both are equal and every answer is the same.
    """
    return presets()[name]()
