"""Contraction-first memory states against the dense route of the numpy oracle.

``memory_state`` and ``evolved_density`` build the reduced state straight
from the branch ensemble.  The reference is the dense route they replaced,
as :mod:`numpy_oracle` takes it: sum every full-registry branch's outer
product into the d×d density, then trace the discarded factors out.  Here
every kept subset of every preset is checked, given each possible single
outcome, together with the densities at every truncation time and the
memory each route holds.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import numpy_oracle as oracle
from circuits import ghz_spec, models_for
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
from wignersim.states import DensityMatrix, StateVector

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
        names, dims, branches = oracle.ensemble(spec, model)
        if given:
            branches = oracle.conditioned(spec, model, names, dims, branches, given)
        for keep in nonempty_subsets(labels):
            discard = set(labels) - set(keep)
            got = memory_state(spec, model, discard, given)
            want = oracle.reduced_density(names, dims, branches, keep)
            assert got.registry == registry.restricted(keep)
            assert np.max(np.abs(got.entries - want)) < ORACLE_ATOL, (
                f"keep={keep} given={given}"
            )
            oracle.assert_density(got.entries)
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
        names, dims, branches = oracle.ensemble(spec, model, through)
        want = oracle.reduced_density(names, dims, branches, names)
        got = evolved_density(spec, model, through)
        assert got.registry == spec.registry_after(through)
        assert np.max(np.abs(got.entries - want)) < ORACLE_ATOL
        oracle.assert_density(got.entries)


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
    oracle.assert_density(rho.entries)


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
    names, dims, branches = oracle.ensemble(spec, model)
    want = oracle.reduced_density(names, dims, branches, names)
    got = evolved_density(spec, model)
    assert np.max(np.abs(got.entries - want)) < ORACLE_ATOL
    oracle.assert_density(got.entries)


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
    names, dims, branches = oracle.ensemble(spec, NO_COLLAPSE)
    branches = oracle.conditioned(spec, NO_COLLAPSE, names, dims, branches, {"W0": "p"})
    want = oracle.reduced_density(names, dims, branches, rho.registry.labels)
    assert np.max(np.abs(rho.entries - want)) < ORACLE_ATOL
    oracle.assert_density(rho.entries)


def post_init_calls(monkeypatch):
    """The entries every ``DensityMatrix.__post_init__`` call receives, copied."""
    seen = []
    original = DensityMatrix.__post_init__

    def spy(self):
        seen.append(np.array(self.entries, dtype=np.complex128))
        original(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", spy)
    return seen


def test_workload_sized_densities_are_proved_from_their_shape(monkeypatch):
    """GHZ(2,2) and GHZ(3,2), d = 256 and 1024: the Gram bound holds, so no
    answer runs the Hermitian check or the spectrum."""
    small = ghz_spec(2, 2, ALPHA, BETA, GHZ_THETAS)
    large = ghz_spec(3, 2, ALPHA, BETA, GHZ_THETAS)
    qubits = {f"Q{i}" for i in range(3)}
    seen = post_init_calls(monkeypatch)
    answers = [
        evolved_density(small, NO_COLLAPSE),
        evolved_density(small, OBJECTIVE_COLLAPSE),
        memory_state(large, NO_COLLAPSE, qubits, {"W0": "p"}),
        memory_state(large, OBJECTIVE_COLLAPSE, qubits | {"W0", "W1"}, {"F0": "b"}),
    ]
    assert seen == []
    for rho in answers:
        assert not rho.entries.flags.writeable
        oracle.assert_density(rho.entries)


def test_a_contraction_past_the_bound_takes_the_full_checks(monkeypatch):
    """Thirteen GHZ friends, d = 2^26, Q0 kept: its cone is F0's step alone,
    so one row over Q0…Q12 and F0 is contracted over 2^13 entries, and
    2γ·max ρ_ii ≈ 1.3e-12 exceeds the Hermitian tolerance.  The constructor
    then checks the product and keeps its bytes."""
    spec = ghz_friends(13, ALPHA, BETA)
    seen = post_init_calls(monkeypatch)
    rho = memory_state(spec, NO_COLLAPSE, set(spec.registry_after().labels) - {"Q0"})
    assert len(seen) == 1
    assert rho.entries.tobytes() == seen[0].tobytes()
    assert np.max(np.abs(rho.entries - np.diag([abs(ALPHA) ** 2, abs(BETA) ** 2]))) < ORACLE_ATOL


@pytest.mark.parametrize("length,checked", [(4501, False), (4502, True)])
def test_the_hermitian_bound_is_two_gamma_of_the_largest_diagonal(monkeypatch, length, checked):
    """A pure state, max ρ_ii = 1: 2γ_{n+2} ≤ 1e-12 holds up to n = 4501."""
    seen = post_init_calls(monkeypatch)
    rho = DensityMatrix._gram(SubsystemRegistry((Subsystem("S", 1, ("0",)),)), [[1.0]], length)
    assert len(seen) == int(checked)
    assert rho.entries.tobytes() == np.array([[1.0]], dtype=np.complex128).tobytes()


@pytest.mark.parametrize(
    "entries,message",
    [
        ([[1.0, 0.0], [0.0, 1.0]], "density matrix trace (2+0j) != 1 within 1e-12"),
        ([[math.nan, 0.0], [0.0, 1.0]], "density matrix trace (nan+0j) != 1 within 1e-12"),
    ],
    ids=["trace-2", "nan-diagonal"],
)
def test_a_gram_product_still_has_its_trace_checked(entries, message):
    registry = SubsystemRegistry((Subsystem("S", 2, ("0", "1")),))
    with pytest.raises(ValueError) as err:
        DensityMatrix._gram(registry, np.array(entries), 1)
    assert str(err.value) == message
