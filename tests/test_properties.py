"""Randomized invariant checks over generated states, channels, and plots.

Every property runs over at least 200 generated cases with total dimensions
kept at or below 64.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wignersim.channels import (
    NO_COLLAPSE,
    OBJECTIVE_COLLAPSE,
    CollapseModel,
    apply_isometry,
    build_measurement_isometry,
)
from wignersim.experiment import (
    ExperimentSpec,
    Step,
    conditional_table,
    conditional_via_renormalized_state,
    evolve,
)
from wignersim.registry import SubsystemRegistry
from wignersim.states import (
    DensityMatrix,
    Projector,
    StateVector,
    born_probability,
    partial_trace,
)
from wignersim.storyplot import (
    Deduced,
    EventSetSchema,
    Plot,
    Slot,
    Value,
    check_compatibility,
    make_event,
)

CASES = settings(max_examples=200, deadline=None, derandomize=True)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases.conj()


@st.composite
def registries(draw, max_total=64):
    n = draw(st.integers(1, 3))
    dims = []
    total = 1
    for i in range(n):
        d = draw(st.integers(2, 4))
        if total * d > max_total:
            break
        dims.append(d)
        total *= d
    assume(dims)
    return SubsystemRegistry.build(
        [(f"q{i}", tuple(f"b{j}" for j in range(d))) for i, d in enumerate(dims)]
    )


@st.composite
def states(draw, registry=None):
    if registry is None:
        registry = draw(registries())
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    amps = rng.normal(size=registry.total_dimension) + 1j * rng.normal(
        size=registry.total_dimension
    )
    assume(np.linalg.norm(amps) > 1e-6)
    return StateVector(registry, amps / np.linalg.norm(amps))


@st.composite
def measurements(draw, registry):
    """A measurement of a random subsystem subset, possibly with completion."""
    labels = registry.labels
    size = draw(st.integers(1, min(2, len(labels))))
    indices = sorted(
        draw(
            st.sets(
                st.integers(0, len(labels) - 1), min_size=size, max_size=size
            )
        )
    )
    chosen = [labels[i] for i in indices]
    measured = SubsystemRegistry(tuple(registry.subsystem(l) for l in chosen))
    d = measured.total_dimension
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    unitary = random_unitary(rng, d)
    n_given = draw(st.integers(1, d))
    basis = [StateVector(measured, unitary[:, i]) for i in range(n_given)]
    return build_measurement_isometry(
        draw(st.sampled_from(["F", "W", "A"])) + str(draw(st.integers(0, 99))),
        measured,
        basis,
        memory=f"mem{draw(st.integers(0, 10**6))}",
    )


@CASES
@given(st.data())
def test_isometry_preserves_norm(data):
    psi = data.draw(states())
    iso = data.draw(measurements(psi.registry))
    assume(psi.registry.total_dimension * iso.memory.dimension <= 64)
    out = apply_isometry(psi, iso)
    assert abs(np.linalg.norm(out.amplitudes) - np.linalg.norm(psi.amplitudes)) <= 1e-12


@CASES
@given(st.data())
def test_partial_trace_preserves_trace(data):
    psi = data.draw(states())
    labels = psi.registry.labels
    keep_idx = data.draw(
        st.sets(st.integers(0, len(labels) - 1), min_size=1, max_size=len(labels))
    )
    keep = {labels[i] for i in keep_idx}
    rho = DensityMatrix(psi.registry, np.outer(psi.amplitudes, psi.amplitudes.conj()))
    reduced = partial_trace(rho, keep)
    assert abs(reduced.trace() - 1.0) <= 1e-12


@CASES
@given(st.data())
def test_partial_trace_composes(data):
    psi = data.draw(states())
    labels = psi.registry.labels
    assume(len(labels) >= 2)
    rho = DensityMatrix(psi.registry, np.outer(psi.amplitudes, psi.amplitudes.conj()))
    drop_first = labels[0]
    drop_second = labels[1]
    keep_rest = set(labels) - {drop_first, drop_second}
    assume(keep_rest)
    direct = partial_trace(rho, keep_rest)
    stepwise = partial_trace(
        partial_trace(rho, set(labels) - {drop_first}), keep_rest
    )
    assert np.max(np.abs(direct.entries - stepwise.entries)) <= 1e-12


@CASES
@given(st.data())
def test_born_completeness(data):
    psi = data.draw(states())
    label = data.draw(st.sampled_from(psi.registry.labels))
    target = psi.registry.restricted({label})
    family = [Projector((label,), target, np.diag(e)) for e in np.eye(target.total_dimension)]
    total = sum(born_probability(psi, p) for p in family)
    assert abs(total - 1.0) <= 1e-12


@CASES
@given(st.data())
def test_born_completeness_over_random_joint_basis(data):
    psi = data.draw(states())
    iso = data.draw(measurements(psi.registry))
    family = [
        Projector(v.registry.labels, v.registry, np.outer(v.amplitudes, v.amplitudes.conj()))
        for v in iso.basis
    ]
    total = sum(born_probability(psi, p) for p in family)
    assert abs(total - 1.0) <= 1e-12


@st.composite
def experiments(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    d0 = draw(st.sampled_from([2, 3]))
    registry = SubsystemRegistry.build(
        [("q0", tuple(f"b{j}" for j in range(d0)))]
    )
    amps = rng.normal(size=d0) + 1j * rng.normal(size=d0)
    assume(np.linalg.norm(amps) > 1e-6)
    initial = StateVector(registry, amps / np.linalg.norm(amps))

    steps = []
    current = registry
    for k in range(draw(st.integers(2, 3))):
        labels = current.labels
        size = draw(st.integers(1, min(2, len(labels))))
        indices = sorted(
            draw(
                st.sets(
                    st.integers(0, len(labels) - 1), min_size=size, max_size=size
                )
            )
        )
        chosen = [labels[i] for i in indices]
        measured = SubsystemRegistry(
            tuple(current.subsystem(l) for l in chosen)
        )
        d = measured.total_dimension
        if current.total_dimension * d > 64:
            break
        unitary = random_unitary(rng, d)
        n_given = draw(st.integers(max(1, d - 1), d))
        basis = [StateVector(measured, unitary[:, i]) for i in range(n_given)]
        iso = build_measurement_isometry(
            f"agent{k}", measured, basis, memory=f"mem{k}"
        )
        steps.append(Step(k + 1, iso))
        current = current.extended(iso.memory)
    assume(len(steps) >= 2)
    return ExperimentSpec(
        name="random", registry=registry, initial=initial, steps=tuple(steps)
    )


@CASES
@given(st.data())
def test_bayes_agrees_with_renormalized_state(data):
    spec = data.draw(experiments())
    agents = list(spec.measuring_agents)
    model = data.draw(
        st.sampled_from(
            [NO_COLLAPSE, OBJECTIVE_COLLAPSE]
            + [CollapseModel.subjective(a) for a in agents]
        )
    )
    target = data.draw(st.sampled_from(agents))
    given = data.draw(st.sampled_from([a for a in agents if a != target]))
    table = conditional_table(spec, model, target, given)
    for g in table.present_columns():
        direct = conditional_via_renormalized_state(spec, model, target, given, g)
        for outcome, p in table.columns[g].items():
            assert direct[outcome] == pytest.approx(p, abs=1e-9)


@CASES
@given(st.data())
def test_joint_distribution_normalized(data):
    spec = data.draw(experiments())
    model = data.draw(
        st.sampled_from(
            [NO_COLLAPSE, OBJECTIVE_COLLAPSE]
            + [CollapseModel.subjective(a) for a in spec.measuring_agents]
        )
    )
    joint = evolve(spec, model)
    total = sum(joint.probs.values())
    assert total == pytest.approx(1.0, abs=1e-9)
    assert all(p >= 0.0 for p in joint.probs.values())


@st.composite
def schemas(draw):
    times = tuple(f"t{i}" for i in range(draw(st.integers(1, 3))))
    slots = tuple(
        Slot(f"s{i}", tuple(f"v{j}" for j in range(draw(st.integers(2, 3)))))
        for i in range(draw(st.integers(1, 3)))
    )
    return EventSetSchema(times, slots)


@st.composite
def plots(draw, schema):
    events = []
    for _ in range(draw(st.integers(0, 4))):
        time = draw(st.sampled_from(schema.times))
        entries = {}
        for slot in schema.slots:
            kind = draw(st.sampled_from(["wild", "value", "deduced"]))
            if kind == "wild":
                continue
            value = draw(st.sampled_from(slot.alphabet))
            entries[slot.name] = Value(value) if kind == "value" else Deduced(value)
        events.append(make_event(schema, time, entries))
    return Plot(schema, tuple(events))


@CASES
@given(st.data())
def test_compatibility_is_symmetric(data):
    schema = data.draw(schemas())
    a = data.draw(plots(schema))
    b = data.draw(plots(schema))
    ab = check_compatibility(a, b, schema.slot_names)
    ba = check_compatibility(b, a, schema.slot_names)
    assert ab.consistent == ba.consistent
    assert {(v.time, v.slot) for v in ab.violations} == {
        (v.time, v.slot) for v in ba.violations
    }
    forward = {(v.time, v.slot): (v.left, v.right) for v in ab.violations}
    backward = {(v.time, v.slot): (v.right, v.left) for v in ba.violations}
    assert forward == backward
