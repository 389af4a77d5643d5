import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circuits import ghz_spec
from numpy_oracle import ensemble, padded
from wignersim.channels import (
    NO_COLLAPSE,
    OBJECTIVE_COLLAPSE,
    Isometry,
    _checked_isometry,
    build_measurement_isometry,
)
from wignersim.deduction import DeductionRule
from wignersim.experiment import ConditionalTable, JointDistribution, evolved_density
from wignersim.presets import presets
from wignersim.registry import Subsystem, SubsystemRegistry
from wignersim.states import (
    BLOCK,
    DensityMatrix,
    Projector,
    StateVector,
    _row_norms_sq,
    born_probability,
    partial_trace,
    tensor,
)
from wignersim.tolerances import ATOL_PSD

SQ2 = math.sqrt(0.5)


def qubit(label, basis=("0", "1")):
    return SubsystemRegistry.build([(label, basis)])


def spin_friend():
    """S (up/down) and F (u/d), the minimal observer pair."""
    return SubsystemRegistry.build([("S", ("up", "down")), ("F", ("u", "d"))])


class TestRegistry:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            SubsystemRegistry.build([("S", ("0", "1")), ("S", ("0", "1"))])

    def test_duplicate_basis_labels_rejected(self):
        with pytest.raises(ValueError):
            Subsystem("S", 2, ("0", "0"))

    def test_flat_index_roundtrip(self):
        reg = SubsystemRegistry.build(
            [("a", ("x", "y")), ("b", ("p", "q", "r")), ("c", ("0", "1"))]
        )
        for i in range(reg.total_dimension):
            assert reg.flat_index(reg.basis_tuple(i)) == i

    def test_restricted_preserves_relative_order(self):
        reg = SubsystemRegistry.build(
            [("a", ("0", "1")), ("b", ("0", "1")), ("c", ("0", "1"))]
        )
        assert reg.restricted({"c", "a"}).labels == ("a", "c")

    def test_restricted_unknown_label(self):
        with pytest.raises(KeyError):
            qubit("S").restricted({"nope"})


class TestTensor:
    def test_zero_tensor_plus(self):
        a = StateVector.basis_state(qubit("sys1"), "0")
        b = StateVector.from_terms(qubit("sys2"), {"0": SQ2, "1": SQ2})
        prod = tensor(a, b)
        assert np.allclose(prod.amplitudes, [SQ2, SQ2, 0.0, 0.0])
        assert prod.registry.labels == ("sys1", "sys2")

    def test_up_tensor_u_is_joint_basis_vector(self):
        s = StateVector.basis_state(qubit("S", ("up", "down")), "up")
        f = StateVector.basis_state(qubit("F", ("u", "d")), "u")
        joint = tensor(s, f)
        assert joint.amplitude(("up", "u")) == pytest.approx(1.0)
        assert np.sum(np.abs(joint.amplitudes) > 1e-12) == 1

    def test_trivial_one_dimensional_factor(self):
        trivial = StateVector.basis_state(qubit("aux", ("*",)), "*")
        psi = StateVector.from_terms(qubit("S"), {"0": 0.6, "1": 0.8})
        out = tensor(trivial, psi)
        assert out.registry.labels == ("aux", "S")
        assert np.allclose(out.amplitudes, psi.amplitudes)

    def test_label_collision(self):
        with pytest.raises(ValueError):
            tensor(
                StateVector.basis_state(qubit("S"), "0"),
                StateVector.basis_state(qubit("S"), "1"),
            )

    def test_associative_up_to_registry(self):
        regs = [qubit(l) for l in ("a", "b", "c")]
        rng = np.random.default_rng(3)
        states = []
        for reg in regs:
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            states.append(StateVector(reg, amps / np.linalg.norm(amps)))
        left = tensor(tensor(states[0], states[1]), states[2])
        right = tensor(states[0], tensor(states[1], states[2]))
        assert np.allclose(left.amplitudes, right.amplitudes, atol=1e-12)


class TestPartialTrace:
    def test_product_state(self):
        a = StateVector.basis_state(qubit("a"), "0")
        b = StateVector.from_terms(qubit("b"), {"0": SQ2, "1": SQ2})
        prod = tensor(a, b)
        rho = DensityMatrix(prod.registry, np.outer(prod.amplitudes, prod.amplitudes.conj()))
        reduced = partial_trace(rho, {"a"})
        assert np.allclose(reduced.entries, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_bell_state_marginal_is_maximally_mixed(self):
        reg = SubsystemRegistry.build([("a", ("0", "1")), ("b", ("0", "1"))])
        bell = StateVector.from_terms(reg, {("0", "0"): SQ2, ("1", "1"): SQ2})
        rho = DensityMatrix(reg, np.outer(bell.amplitudes, bell.amplitudes.conj()))
        reduced = partial_trace(rho, {"b"})
        assert np.allclose(reduced.entries, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved_and_composition(self):
        reg = SubsystemRegistry.build(
            [("a", ("0", "1")), ("b", ("0", "1")), ("c", ("0", "1", "2"))]
        )
        rng = np.random.default_rng(11)
        amps = rng.normal(size=reg.total_dimension) + 1j * rng.normal(
            size=reg.total_dimension
        )
        psi = amps / np.linalg.norm(amps)
        rho = DensityMatrix(reg, np.outer(psi, psi.conj()))
        one_shot = partial_trace(rho, {"b"})
        two_step = partial_trace(partial_trace(rho, {"b", "c"}), {"b"})
        assert np.allclose(one_shot.entries, two_step.entries, atol=1e-12)
        assert one_shot.trace() == pytest.approx(1.0, abs=1e-12)

    def test_empty_keep_rejected(self):
        rho = DensityMatrix(qubit("a"), np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            partial_trace(rho, set())


class TestProjectorsAndBorn:
    def test_rank1_projector_padded(self):
        reg = spin_friend()
        proj = Projector(("S",), qubit("S", ("up", "down")), np.diag([1.0, 0.0]))
        full = padded(proj.operator, list(reg.dims), [reg.axis("S")])
        expected = np.kron(np.diag([1.0, 0.0]), np.eye(2))
        assert np.allclose(full, expected, atol=1e-12)

    def test_projector_on_an_unnormalized_vector_is_rejected(self):
        with pytest.raises(ValueError, match="projector is not idempotent"):
            Projector(("S",), qubit("S"), np.full((2, 2), 0.25))

    def test_plus_state_measured_in_z(self):
        plus = StateVector.from_terms(qubit("S"), {"0": SQ2, "1": SQ2})
        proj = Projector(("S",), qubit("S"), np.diag([1.0, 0.0]))
        assert born_probability(plus, proj) == pytest.approx(0.5, abs=1e-12)

    def test_completeness_over_basis_family(self):
        reg = SubsystemRegistry.build([("a", ("0", "1")), ("b", ("0", "1", "2"))])
        rng = np.random.default_rng(5)
        amps = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi = StateVector(reg, amps / np.linalg.norm(amps))
        b = reg.restricted({"b"})
        total = sum(born_probability(psi, Projector(("b",), b, np.diag(e))) for e in np.eye(3))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_registry_mismatch(self):
        proj = Projector(("X",), qubit("X"), np.diag([1.0, 0.0]))
        psi = StateVector.basis_state(qubit("S"), "0")
        with pytest.raises(ValueError):
            born_probability(psi, proj)

    def test_embed_operator_handles_noncontiguous_targets(self):
        reg = SubsystemRegistry.build(
            [("a", ("0", "1")), ("b", ("0", "1")), ("c", ("0", "1"))]
        )
        # Operator declared on (c, a): padding must permute axes back.
        rng = np.random.default_rng(7)
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        op = op + op.conj().T
        full = padded(op, list(reg.dims), [reg.axis("c"), reg.axis("a")])
        # Check one matrix element against a direct tensor contraction.
        psi = np.zeros(8)
        psi[reg.flat_index(("1", "0", "1"))] = 1.0
        phi = np.zeros(8)
        phi[reg.flat_index(("0", "0", "1"))] = 1.0
        # <0b0 c1| O_(c,a) |1b0 c1> with b untouched: O[(c=1,a=0),(c=1,a=1)]
        assert phi @ full @ psi == pytest.approx(op[2, 3])


def born_via_padded_matrix(state, proj):
    """The d×d route: pad the projector, then <psi|P|psi> or tr(rho P)."""
    reg = state.registry
    full = padded(proj.operator, list(reg.dims), [reg.axis(l) for l in proj.target_labels])
    if isinstance(state, StateVector):
        value = float(np.real(np.vdot(state.amplitudes, full @ state.amplitudes)))
    else:
        value = float(np.real(np.trace(state.entries @ full)))
    return min(max(value, 0.0), 1.0)


def preset_projectors(spec):
    """Every measurement-basis projector and every memory basis projector."""
    for step in spec.measuring_steps:
        for v in step.iso.basis:
            rank_one = np.outer(v.amplitudes, v.amplitudes.conj())
            yield Projector(v.registry.labels, v.registry, rank_one)
        memory = SubsystemRegistry((step.iso.memory,))
        for e in np.eye(memory.total_dimension):
            yield Projector(memory.labels, memory, np.diag(e))


def final_state(spec):
    """The oracle's single branch under pure isometry, as a StateVector."""
    _, _, ((_, vector, _),) = ensemble(spec, NO_COLLAPSE)
    return StateVector(spec.registry_after(), vector)


class TestBornByContraction:
    @pytest.mark.parametrize("name", sorted(presets()))
    def test_matches_matrix_on_route_for_every_preset_projector(self, name):
        spec = presets()[name]()
        states = [final_state(spec), evolved_density(spec, OBJECTIVE_COLLAPSE)]
        cases = 0
        for proj in preset_projectors(spec):
            for state in states:
                got = born_probability(state, proj)
                assert abs(got - born_via_padded_matrix(state, proj)) < 1e-12
                cases += 1
        assert cases >= 2 * len(spec.measuring_steps)

    def test_noncontiguous_targets_in_declared_order(self):
        reg = SubsystemRegistry.build(
            [("a", ("0", "1")), ("b", ("0", "1", "2")), ("c", ("0", "1"))]
        )
        rng = np.random.default_rng(11)
        amps = rng.normal(size=12) + 1j * rng.normal(size=12)
        psi = StateVector(reg, amps / np.linalg.norm(amps))
        mixed = rng.normal(size=(12, 3)) + 1j * rng.normal(size=(12, 3))
        rho = DensityMatrix(reg, mixed @ mixed.conj().T / np.sum(np.abs(mixed) ** 2))
        targets = SubsystemRegistry.build([("c", ("0", "1")), ("a", ("0", "1"))])
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        proj = Projector(targets.labels, targets, np.outer(v, v.conj()))
        for state in (psi, rho):
            assert abs(born_probability(state, proj) - born_via_padded_matrix(state, proj)) < 1e-12

    def test_ghz_d1024_state_needs_no_padded_matrix(self):
        spec = ghz_spec(3, 2, math.sqrt(0.4), math.sqrt(0.6), (0.5, 1.0))
        psi = final_state(spec)
        assert psi.registry.total_dimension == 1024
        w1 = psi.registry.restricted({"W1"})
        proj = Projector(("W1",), w1, np.diag([1.0, 0.0, 0.0, 0.0]))
        tracemalloc.start()
        try:
            value = born_probability(psi, proj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The padded 1024×1024 matrix alone is 16 MiB.
        assert peak < 2**20
        assert abs(value - born_via_padded_matrix(psi, proj)) < 1e-12


def _non_hermitian_density():
    DensityMatrix(qubit("S"), np.array([[0.5, 1.0], [0.0, 0.5]]))


def _skewed_basis():
    reg = qubit("S")
    basis = [StateVector.basis_state(reg, "0"), StateVector.from_terms(reg, {"0": 0.6, "1": 0.8})]
    build_measurement_isometry("F", reg, basis, memory="F")


def _unnormalized_column():
    ConditionalTable("A", "B", ("a", "b"), ("x",), {"x": {"a": 0.5, "b": 1.0}}, "ism")


def _uncertain_rule():
    DeductionRule("A", "o", "F2", "U", "ism", 0.5)


# Each message spells its tolerance from the constant, read at call time, so
# setting the constant in wignersim.tolerances moves the message.
@pytest.mark.parametrize(
    "constant, default, trigger",
    [
        ("ATOL_CONSTRUCT", "not Hermitian within 1e-12", _non_hermitian_density),
        ("ATOL_ORTHO", "not orthonormal within 1e-9", _skewed_basis),
        ("ATOL_DIST", "not 1 within 1e-9", _unnormalized_column),
        ("CERTAINTY_SLACK", "below the 1 - 1e-9 threshold", _uncertain_rule),
    ],
)
def test_tolerance_messages_follow_their_constants(monkeypatch, constant, default, trigger):
    with pytest.raises(ValueError) as err:
        trigger()
    assert default in str(err.value)
    monkeypatch.setattr(f"wignersim.tolerances.{constant}", 0.25)
    with pytest.raises(ValueError) as err:
        trigger()
    assert default.replace("1e-12", "0.25").replace("1e-9", "0.25") in str(err.value)


class TestDensityMatrixInvariants:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError) as err:
            DensityMatrix(qubit("S"), np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert str(err.value) == "density matrix is not Hermitian within 1e-12"

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError) as err:
            DensityMatrix(qubit("S"), np.eye(2))
        assert str(err.value) == "density matrix trace (2+0j) != 1 within 1e-12"

    def test_rejects_negative_eigenvalue(self):
        mat = np.array([[1.5, 0.0], [0.0, -0.5]])
        with pytest.raises(ValueError) as err:
            DensityMatrix(qubit("S"), mat)
        assert str(err.value) == "density matrix has negative eigenvalue -0.5"

    def test_eigenvalue_bound_is_minus_1e_10(self):
        """Both sides of the bound are left to eigvalsh: no proof covers them."""
        DensityMatrix(qubit("S"), np.diag([1 + 9e-11, -9e-11]))
        with pytest.raises(ValueError) as err:
            DensityMatrix(qubit("S"), np.diag([1 + 1.1e-10, -1.1e-10]))
        assert str(err.value) == "density matrix has negative eigenvalue -1.1e-10"

    def test_rejects_negative_direction_beside_a_large_pure_state(self):
        """d = 256: (1 + 2e-10)·u0u0† − 2e-10·u1u1†, of unit trace, with an
        eigenvalue of -2e-10 on a vector orthogonal to the pure state."""
        reg = SubsystemRegistry.build([(f"q{i}", ("0", "1")) for i in range(8)])
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.normal(size=(256, 2)) + 1j * rng.normal(size=(256, 2)))
        u0u0, u1u1 = (np.outer(u[:, i], u[:, i].conj()) for i in (0, 1))
        mat = (1 + 2e-10) * u0u0 - 2e-10 * u1u1
        with pytest.raises(ValueError, match="negative eigenvalue -2.0000"):
            DensityMatrix(reg, (mat + mat.conj().T) / 2)

    @pytest.mark.parametrize(
        "where,value,accepted",
        [
            ((5, 200), 2e-12, False),
            ((5, 200), 5e-13, True),
            ((200, 5), math.nan, False),
            ((250, 70), 2e-12, False),
        ],
        ids=["skew-2e-12", "skew-5e-13", "nan-lower-triangle", "skew-2e-12-below-first-row"],
    )
    def test_hermitian_check_reads_pairs_across_row_blocks(self, where, value, accepted):
        """d = 256, rank 1: the entry and its mirror lie in different row blocks."""
        assert where[0] // BLOCK != where[1] // BLOCK
        reg = SubsystemRegistry.build([(f"q{i}", ("0", "1")) for i in range(8)])
        mat = np.zeros((256, 256), dtype=np.complex128)
        mat[0, 0] = 1.0
        mat[where] = value
        if accepted:
            DensityMatrix(reg, mat)
            return
        with pytest.raises(ValueError) as err:
            DensityMatrix(reg, mat)
        assert str(err.value) == "density matrix is not Hermitian within 1e-12"

    def test_no_option_switches_the_trace_check_off(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(qubit("S"), np.diag([0.5, 0.0]))
        with pytest.raises(TypeError):
            DensityMatrix(qubit("S"), np.diag([0.5, 0.0]), subnormalized=True)

    @pytest.mark.parametrize(
        "build,norm_sq",
        [
            (lambda: StateVector(qubit("S"), [0.5, 0.5]), "0.5"),
            (lambda: StateVector.from_terms(qubit("S"), {"0": 1.0, "1": 1.0}), "2.0"),
        ],
        ids=["constructor", "from-terms"],
    )
    def test_unnormalized_state_flag(self, build, norm_sq):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == f"state not normalized: |psi|^2 = {norm_sq}"


def one_factor(d):
    return SubsystemRegistry.build([("S", tuple(str(i) for i in range(d)))])


def from_spectrum(spectrum, seed, skew=0.0, d=None):
    """U diag(spectrum) U† for a random unitary U, on a random set of rows of
    a d×d zero matrix (a memory density leaves most basis rows empty), plus
    an anti-Hermitian part whose off-diagonal entries are at most ``skew``;
    the diagonal stays real, so the trace is the spectrum's sum."""
    rng = np.random.default_rng(seed)
    m = len(spectrum)
    d = m if d is None else d
    z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    u, _ = np.linalg.qr(z)
    block = (u * spectrum) @ u.conj().T
    rows = rng.permutation(d)[:m]
    mat = np.zeros((d, d), dtype=np.complex128)
    mat[np.ix_(rows, rows)] = (block + block.conj().T) / 2
    signs = rng.choice([-1.0, 1.0], size=(d, d))
    return mat + 1j * skew * np.triu(signs, 1) + 1j * skew * np.triu(signs, 1).T


@st.composite
def spectra(draw):
    """(spectrum, seed, skew, d): low rank, full rank, or positive
    semidefinite with one eigenvalue moved to ±k·ATOL_PSD for k in {0.1, 10}.

    Every spectrum sums to 1: a perturbed one scales its positive part to
    1 minus the moved eigenvalue.  A spectrum covers m ≤ d rows, a
    full-rank one all d.  About half the weights are tiny (1e-9 to 1e-6).
    Some draws carry a skew part just inside the 1e-12 Hermitian tolerance."""
    kind = draw(st.sampled_from(("low-rank", "full-rank", "perturbed")))
    least = 2 if kind == "perturbed" else 1
    d = draw(st.integers(least, 64))
    m = d if kind == "full-rank" else draw(st.integers(least, d))
    if kind == "low-rank":
        rank = draw(st.integers(1, max(1, m // 4)))
    elif kind == "full-rank":
        rank = m
    else:
        rank = draw(st.integers(1, m - 1))
    weight = st.one_of(st.floats(0.05, 1.0), st.floats(1e-9, 1e-6)) if rank > 1 else st.just(1.0)
    weights = np.array(draw(st.lists(weight, min_size=rank, max_size=rank)))
    spectrum = np.zeros(m)
    spectrum[:rank] = weights / weights.sum()
    if kind == "perturbed":
        spectrum[-1] = draw(st.sampled_from([-1.0, 1.0])) * draw(st.sampled_from([0.1, 10.0])) * ATOL_PSD
        spectrum[:rank] *= 1 - spectrum[-1]
    seed = draw(st.integers(0, 2**32 - 1))
    skew = draw(st.sampled_from([0.0, 0.0, 4.9e-13]))
    return spectrum, seed, skew, d


def accepts(mat):
    try:
        DensityMatrix(one_factor(len(mat)), mat)
    except ValueError as err:
        assert "negative eigenvalue" in str(err)
        return False
    return True


class TestRawEntriesTakeTheSpectrumsVerdict:
    """Raw entries from a library caller are positive semidefinite exactly
    when ``eigvalsh`` puts no eigenvalue below -ATOL_PSD."""

    BAND = 1e-13  # verdicts this close to -ATOL_PSD may go either way

    @settings(max_examples=300, deadline=None)
    @given(spectra())
    def test_accepts_exactly_when_no_eigenvalue_is_below_the_bound(self, case):
        spectrum, seed, skew, d = case
        mat = from_spectrum(spectrum, seed, skew, d)
        eigmin = float(np.linalg.eigvalsh(mat).min())
        if abs(eigmin + ATOL_PSD) > self.BAND:
            assert accepts(mat) == (eigmin >= -ATOL_PSD)

    @pytest.mark.parametrize("d", [2, 64, 256])
    def test_a_negative_direction_is_rejected(self, d):
        spectrum = np.zeros(d)
        spectrum[0] = 1 + 10 * ATOL_PSD
        spectrum[-1] = -10 * ATOL_PSD
        assert not accepts(from_spectrum(spectrum, seed=d))

    def test_the_message_names_the_least_eigenvalue(self):
        spectrum = np.array([0.5, 0.3, 0.2 + 2 * ATOL_PSD, -2 * ATOL_PSD])
        mat = from_spectrum(spectrum, seed=4)
        eigmin = float(np.min(np.linalg.eigvalsh(mat)))
        assert eigmin == pytest.approx(-2 * ATOL_PSD, abs=1e-15)
        message = f"density matrix has negative eigenvalue {eigmin!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DensityMatrix(one_factor(4), mat)
        assert accepts(from_spectrum(np.array([0.5, 0.3, 0.2, 0.0]), seed=4))

    def test_a_negative_direction_in_the_last_partial_row_block_is_rejected(self):
        """d = 2·BLOCK + 3: a pure state on the first two row blocks, and
        what is wrong only in the last three rows."""
        d = 2 * BLOCK + 3
        rng = np.random.default_rng(16)
        u = np.zeros(d, dtype=np.complex128)
        u[: 2 * BLOCK] = rng.normal(size=2 * BLOCK) + 1j * rng.normal(size=2 * BLOCK)
        u /= np.linalg.norm(u)
        v = np.zeros(d, dtype=np.complex128)
        v[-3:] = np.array([1.0, 1j, -1.0]) / math.sqrt(3)
        assert not accepts((1 + 3e-10) * np.outer(u, u.conj()) - 3e-10 * np.outer(v, v.conj()))


class TestNotANumberRejected:
    """Every bound fails on NaN: no NaN gets through a constructor.

    A state rejects NaN itself, so none reaches a Born probability, a
    measurement basis or a prepared state.  The isometries, distributions,
    tables and rules built on the states reject it too.
    """

    NAN = float("nan")

    def test_state_vector(self):
        with pytest.raises(ValueError, match="state not normalized"):
            StateVector(qubit("S"), [self.NAN, 1.0])

    @pytest.mark.parametrize(
        "entries",
        [[[NAN, 0.0], [0.0, 1.0]], [[0.5, NAN], [NAN, 0.5]], [[0.5, NAN], [0.0, 0.5]]],
        ids=["diagonal", "off-diagonal-pair", "off-diagonal"],
    )
    def test_density_matrix(self, entries):
        with pytest.raises(ValueError, match="not Hermitian within 1e-12"):
            DensityMatrix(qubit("S"), np.array(entries))

    def test_projector(self):
        reg = qubit("S")
        with pytest.raises(ValueError, match="projector is not Hermitian"):
            Projector(("S",), reg, np.array([[self.NAN, 0.0], [0.0, 0.0]]))

    def test_isometry_matrix(self):
        with pytest.raises(ValueError, match="V†V differs from the identity"):
            _checked_isometry(np.full((4, 2), self.NAN), 2, 2)

    def test_joint_distribution(self):
        with pytest.raises(ValueError, match="negative probability nan"):
            JointDistribution(("A",), {"A": ("a", "b")}, np.array([self.NAN, 1.0]), "ism")

    def test_conditional_table_column(self):
        column = {"a": self.NAN, "b": 1.0}
        with pytest.raises(ValueError, match="column 'x' sums to nan"):
            ConditionalTable("A", "B", ("a", "b"), ("x",), {"x": column}, "ism")

    def test_deduction_rule_certainty(self):
        with pytest.raises(ValueError, match="certainty nan below"):
            DeductionRule("A", "o", "F2", "U", "ism", self.NAN)


def hadamard_measurement():
    plus = StateVector(qubit("S"), [SQ2, SQ2])
    minus = StateVector(qubit("S"), [SQ2, -SQ2])
    return build_measurement_isometry("F", qubit("S"), [plus, minus], "F")


def hadamard_isometry(matrix):
    iso = hadamard_measurement()
    return Isometry(iso.agent, iso.domain, iso.appended, matrix, iso.basis)


# (build a value from the caller's array, that array, the value's array, a new content)
OWNED = {
    "state-vector": (
        lambda a: StateVector(qubit("S"), a),
        np.array([1, 0j]),
        lambda v: v.amplitudes,
        [3, 4],
    ),
    "density-matrix": (
        lambda a: DensityMatrix(qubit("S"), a),
        np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
        lambda v: v.entries,
        [[1, 2], [3, 4]],
    ),
    "joint-distribution": (
        lambda a: JointDistribution(("A",), {"A": ("a", "b")}, a, "ism"),
        np.array([0.25, 0.75]),
        lambda v: v.array,
        [0.5, 2.0],
    ),
    "projector": (
        lambda a: Projector(("S",), qubit("S"), a),
        np.array([[1, 0], [0, 0]], dtype=complex),
        lambda v: v.operator,
        [[0, 0], [0, 1]],
    ),
    "isometry": (
        hadamard_isometry,
        np.array(hadamard_measurement().matrix),
        lambda v: v.matrix,
        np.eye(4, 2),
    ),
}


@pytest.mark.parametrize("kind", OWNED)
def test_a_value_keeps_its_own_copy_of_the_callers_array(kind):
    build, given, held, new = OWNED[kind]
    value = build(given)
    before = held(value).copy()
    assert given.flags.writeable and held(value).flags.c_contiguous
    given[...] = new
    assert np.array_equal(held(value), before)
    assert not held(value).flags.writeable


def test_a_gram_density_keeps_the_array_its_caller_built():
    # The answer is the only d×d array a density route allocates: no copy.
    entries = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    rho = DensityMatrix._gram(qubit("S"), entries, 2)
    assert rho.entries is entries and not entries.flags.writeable


def test_debug_printing_sorted_by_multi_index():
    reg = spin_friend()
    psi = StateVector.from_terms(
        reg, {("down", "d"): SQ2, ("up", "u"): SQ2}
    )
    assert str(psi) == "0.70710678 |up,u⟩ + 0.70710678 |down,d⟩"


ROW_COUNTS = (1, 2, 3, 5, 8, 12, 16, 32, 33, 64)
ROW_LENGTHS = (1, 3, 256, 4099, 131072)
ROW_SCALES = (1e-8, 1.0, 1e3)


def test_row_norms_are_the_matmul_on_the_float_view_bit_for_bit():
    # The reference is the (B, 1, 2N) @ (B, 2N, 1) matmul the kernel used
    # before np.vecdot: both make one BLAS dot per row, so every bit agrees.
    rng = np.random.default_rng(23)
    for b, n, scale in itertools.product(ROW_COUNTS, ROW_LENGTHS, ROW_SCALES):
        real = rng.standard_normal((b, 2 * n))
        real *= scale
        rows = real.view(np.complex128).reshape(b, 1, n)
        want = (real[:, None, :] @ real[:, :, None]).reshape(b)
        assert np.array_equal(_row_norms_sq(rows), want), (b, n, scale)
