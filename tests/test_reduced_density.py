"""Contraction-first memory states against the dense reference route.

``memory_state`` and ``evolved_density`` build the reduced state straight
from the branch ensemble.  The reference kept here is the dense route they
replaced: sum every branch's outer product into the full d×d density,
validate it as a ``DensityMatrix``, then ``partial_trace`` it.  The branches
come from :mod:`dense_ensemble`, which builds full-registry states from the
public ``apply_isometry`` and ``branch_decomposition``.  Those share the
stacked kernel, but not its record factors or its reduction;
``test_numpy_oracle.py`` checks the same states against plain numpy.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from dense_ensemble import (
    dense_condition,
    dense_density,
    dense_ensemble,
    ghz_spec,
    models_for,
)
from wignersim.channels import (
    NO_COLLAPSE,
    OBJECTIVE_COLLAPSE,
    CollapseModel,
    build_measurement_isometry,
)
from wignersim.experiment import (
    ExperimentSpec,
    Step,
    evolve,
    evolved_density,
    marginal,
    memory_state,
)
from wignersim.presets import presets, wigner_friend
from wignersim.registry import Subsystem, SubsystemRegistry
from wignersim.states import StateVector, partial_trace

ORACLE_ATOL = 1e-12


def possible_givens(spec, model):
    """None, then every single-agent outcome of nonzero probability."""
    joint = evolve(spec, model)
    out = [None]
    for agent in spec.measuring_agents:
        for outcome, p in marginal(joint, agent).items():
            if p > 1e-9:
                out.append({agent: outcome})
    return out


def nonempty_subsets(labels):
    for r in range(1, len(labels) + 1):
        yield from itertools.combinations(labels, r)


PRESET_MODELS = [
    (name, model)
    for name, build in sorted(presets().items())
    for model in models_for(build())
]


def assert_matches_dense_route(spec, model):
    registry = spec.registry_after()
    labels = registry.labels
    cases = 0
    for given in possible_givens(spec, model):
        branches = dense_ensemble(spec, model)
        if given:
            branches = dense_condition(branches, spec, model, given)
        full = dense_density(branches, registry)
        for keep in nonempty_subsets(labels):
            discard = set(labels) - set(keep)
            got = memory_state(spec, model, discard, given)
            want = partial_trace(full, keep)
            assert got.registry == want.registry
            assert np.max(np.abs(got.entries - want.entries)) < ORACLE_ATOL, (
                f"keep={keep} given={given}"
            )
            cases += 1
    assert cases >= 2 ** len(labels) - 1


@pytest.mark.parametrize(
    "name,model", PRESET_MODELS, ids=[f"{n}-{m.tag}" for n, m in PRESET_MODELS]
)
def test_memory_state_matches_dense_route(name, model):
    assert_matches_dense_route(presets()[name](), model)


@pytest.mark.parametrize(
    "name,model", PRESET_MODELS, ids=[f"{n}-{m.tag}" for n, m in PRESET_MODELS]
)
def test_evolved_density_matches_outer_product_sum(name, model):
    spec = presets()[name]()
    for through in [None] + [s.time for s in spec.steps]:
        want = dense_density(
            dense_ensemble(spec, model, through), spec.registry_after(through)
        )
        got = evolved_density(spec, model, through)
        assert got.registry == want.registry
        assert np.max(np.abs(got.entries - want.entries)) < ORACLE_ATOL


def test_unknown_discard_label_is_checked_before_evolving():
    spec = wigner_friend("superposition")
    # W=phi- is impossible without collapse; the label check must come first.
    with pytest.raises(KeyError, match="unknown subsystem labels"):
        memory_state(spec, NO_COLLAPSE, discard={"Q"}, given={"W": "phi-"})


def test_discarding_everything_is_rejected():
    spec = wigner_friend("product")
    labels = spec.registry_after().labels
    with pytest.raises(ValueError, match="nothing is left to keep"):
        memory_state(spec, NO_COLLAPSE, discard=labels)


def ghz_friends(n, alpha, beta):
    """n qubits in alpha|0…0⟩ + beta|1…1⟩, friend Fi records Qi as a/b."""
    qubits = tuple(Subsystem(f"Q{i}", 2, ("0", "1")) for i in range(n))
    registry = SubsystemRegistry(qubits)
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0], amps[-1] = alpha, beta
    steps = []
    for i, qubit in enumerate(qubits):
        reg = SubsystemRegistry((qubit,))
        iso = build_measurement_isometry(
            f"F{i}",
            reg,
            [StateVector.basis_state(reg, "0"), StateVector.basis_state(reg, "1")],
            memory=f"F{i}",
            memory_labels=("a", "b"),
        )
        steps.append(Step(i + 1, iso))
    return ExperimentSpec(
        name=f"ghz-friends-{n}",
        registry=registry,
        initial=StateVector(registry, amps),
        steps=tuple(steps),
    )


ALPHA = math.sqrt(0.3)
BETA = math.sqrt(0.7) * complex(math.cos(0.4), math.sin(0.4))


@pytest.mark.parametrize(
    "model",
    [NO_COLLAPSE, OBJECTIVE_COLLAPSE, CollapseModel.subjective("F1")],
    ids=lambda m: m.tag,
)
def test_complex_ghz_matches_dense_route(model):
    # The presets have real amplitudes; a complex beta makes the coherences
    # between the qubits sensitive to which factor carries the conjugate.
    assert_matches_dense_route(ghz_friends(2, ALPHA, BETA), model)


@pytest.mark.parametrize("model", [NO_COLLAPSE, OBJECTIVE_COLLAPSE], ids=lambda m: m.tag)
def test_six_friend_memories_at_d4096_stay_small(model):
    spec = ghz_friends(6, ALPHA, BETA)
    qubits = {f"Q{i}" for i in range(6)}
    assert spec.registry_after().total_dimension == 4096
    tracemalloc.start()
    try:
        rho = memory_state(spec, model, discard=qubits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The dense d×d route needs 16·4096² bytes (268 MB) for the matrix alone.
    assert peak < 8 * 2**20
    assert rho.registry.labels == tuple(f"F{i}" for i in range(6))
    expected = np.zeros((64, 64))
    aaaaaa = rho.registry.flat_index(("a",) * 6)
    bbbbbb = rho.registry.flat_index(("b",) * 6)
    expected[aaaaaa, aaaaaa] = abs(ALPHA) ** 2
    expected[bbbbbb, bbbbbb] = abs(BETA) ** 2
    assert np.max(np.abs(rho.entries - expected)) < ORACLE_ATOL


def _peak_bytes(call):
    """Traced peak of one call, after a warm call has built the spec's plans."""
    call()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


GHZ_THETAS = (0.4, 0.9)


@pytest.mark.parametrize("model", [NO_COLLAPSE, OBJECTIVE_COLLAPSE], ids=lambda m: m.tag)
def test_evolved_density_holds_one_answer_sized_array(model):
    """GHZ(2,2), d = 256: the answer is the only d×d array of the call.

    A second one of 16·d² bytes, such as a zeros array beside the Gram
    product, a transposed copy or a whole positivity remainder, would put
    the peak at 2·16·d² or more.  ``ism`` keeps no record, ``objective``
    keeps W0 and W1 as records.
    """
    spec = ghz_spec(2, 2, ALPHA, BETA, GHZ_THETAS)
    registry = spec.registry_after()
    d = registry.total_dimension
    assert d == 256
    assert _peak_bytes(lambda: evolved_density(spec, model)) < 1.5 * 16 * d**2
    want = dense_density(dense_ensemble(spec, model), registry)
    assert np.max(np.abs(evolved_density(spec, model).entries - want.entries)) < ORACLE_ATOL


def test_memory_state_with_a_kept_record_holds_one_answer_sized_array():
    """GHZ(3,2) keeping F and W given W0 = p: d_keep = 128, W0 kept as a record.

    The answer is written block by block into one zeroed d_keep×d_keep
    array; the rest of the peak is block scratch and the ensemble.
    """
    spec = ghz_spec(3, 2, ALPHA, BETA, GHZ_THETAS)
    qubits = {f"Q{i}" for i in range(3)}
    rho = memory_state(spec, NO_COLLAPSE, qubits, {"W0": "p"})
    d_keep = rho.registry.total_dimension
    assert d_keep == 128
    peak = _peak_bytes(lambda: memory_state(spec, NO_COLLAPSE, qubits, {"W0": "p"}))
    assert peak < 2 * 16 * d_keep**2
    branches = dense_condition(dense_ensemble(spec, NO_COLLAPSE), spec, NO_COLLAPSE, {"W0": "p"})
    want = partial_trace(dense_density(branches, spec.registry_after()), rho.registry.labels)
    assert np.max(np.abs(rho.entries - want.entries)) < ORACLE_ATOL
