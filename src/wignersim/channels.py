"""Observer measurements as memory-entangling isometries, plus collapse rules.

An observer's measurement is modeled as an isometry that copies the measured
basis into a fresh memory factor: the i-th measurement-basis vector is mapped
to itself tensored with the i-th memory record.  Collapse, when a model calls
for it, is the projective update rule with renormalization applied at the
point of that agent's measurement; everything else stays unitary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

from .registry import Subsystem, SubsystemRegistry
from .states import StateVector, ZeroProbabilityError

ATOL_ISOMETRY = 1e-12
ATOL_ORTHO = 1e-9
COMPLETION_RESIDUAL = 1e-6


def _complete_basis(vectors: list[np.ndarray], dim: int) -> list[np.ndarray]:
    """Extend an orthonormal family to a full basis.

    Completion is Gram-Schmidt over the computational basis vectors taken in
    index order, so the result is deterministic for a given input family.
    """
    basis = [np.asarray(v, dtype=np.complex128) for v in vectors]
    for k in range(dim):
        residual = np.zeros(dim, dtype=np.complex128)
        residual[k] = 1.0
        for b in basis:
            residual = residual - b * np.vdot(b, residual)
        norm = np.linalg.norm(residual)
        if norm > COMPLETION_RESIDUAL:
            basis.append(residual / norm)
    if len(basis) != dim:
        raise ValueError("basis completion failed to span the measured space")
    return basis


def _checked_isometry(matrix, d: int, k: int) -> np.ndarray:
    """A read-only complex copy of a (d·k)×d matrix V, checked for V†V = 1."""
    mat = np.ascontiguousarray(np.asarray(matrix), dtype=np.complex128)
    if mat.shape != (d * k, d):
        raise ValueError(f"isometry matrix shape {mat.shape}, expected {(d * k, d)}")
    if np.max(np.abs(mat.conj().T @ mat - np.eye(d))) > ATOL_ISOMETRY:
        raise ValueError("V†V differs from the identity beyond 1e-12")
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class MeasurementIsometry:
    """V mapping the measured factor into itself tensored with a memory record."""

    agent: str
    measured_labels: tuple[str, ...]
    measured_registry: SubsystemRegistry
    basis: tuple[StateVector, ...]
    memory: Subsystem
    given_outcomes: int  # basis vectors supplied by the caller, before completion
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        d, k = self.measured_registry.total_dimension, self.memory.dimension
        object.__setattr__(self, "matrix", _checked_isometry(self.matrix, d, k))

    @property
    def memory_label(self) -> str:
        return self.memory.label

    @property
    def outcome_labels(self) -> tuple[str, ...]:
        return self.memory.basis_labels

    # Shared interface with PreparationIsometry for generic application.
    @property
    def domain_labels(self) -> tuple[str, ...]:
        return self.measured_labels

    @property
    def domain_registry(self) -> SubsystemRegistry:
        return self.measured_registry

    @property
    def appended(self) -> Subsystem:
        return self.memory


@dataclass(frozen=True)
class PreparationIsometry:
    """Controlled preparation of a fresh subsystem, one state per control outcome."""

    agent: str
    control_labels: tuple[str, ...]
    control_registry: SubsystemRegistry
    prepared: tuple[tuple[tuple[str, ...], StateVector], ...]
    output: Subsystem
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        d, k = self.control_registry.total_dimension, self.output.dimension
        object.__setattr__(self, "matrix", _checked_isometry(self.matrix, d, k))

    @property
    def domain_labels(self) -> tuple[str, ...]:
        return self.control_labels

    @property
    def domain_registry(self) -> SubsystemRegistry:
        return self.control_registry

    @property
    def appended(self) -> Subsystem:
        return self.output


Isometry = Union[MeasurementIsometry, PreparationIsometry]


@dataclass(frozen=True)
class CollapseModel:
    """Which measurements trigger the projective update rule.

    ``none``       every measurement stays a memory-entangling isometry,
    ``objective``  the update rule fires at every measurement,
    ``subjective`` the update rule fires only at the named agent's measurement.
    """

    kind: str
    agent: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("none", "objective", "subjective"):
            raise ValueError(f"unknown collapse model kind {self.kind!r}")
        if self.kind == "subjective" and not self.agent:
            raise ValueError("subjective collapse requires an agent label")
        if self.kind != "subjective" and self.agent is not None:
            raise ValueError(f"{self.kind!r} collapse takes no agent")

    @classmethod
    def none(cls) -> "CollapseModel":
        return cls("none")

    @classmethod
    def objective(cls) -> "CollapseModel":
        return cls("objective")

    @classmethod
    def subjective(cls, agent: str) -> "CollapseModel":
        return cls("subjective", agent)

    def collapses_at(self, agent: str) -> bool:
        if self.kind == "none":
            return False
        if self.kind == "objective":
            return True
        return agent == self.agent

    @property
    def tag(self) -> str:
        if self.kind == "none":
            return "ism"
        if self.kind == "objective":
            return "objective"
        return f"clps:{self.agent}"


NO_COLLAPSE = CollapseModel.none()
OBJECTIVE_COLLAPSE = CollapseModel.objective()


def build_measurement_isometry(
    agent: str,
    measured: SubsystemRegistry,
    basis: Sequence[StateVector],
    memory: str,
    memory_labels: Sequence[str] | None = None,
) -> MeasurementIsometry:
    """Build the isometry for one agent's projective measurement.

    ``basis`` must be pairwise orthonormal over the measured registry.  If it
    spans only a subspace it is completed deterministically; completion
    outcomes get labels ``perp<i>`` (their probability vanishes on states
    inside the span of the given vectors).
    """
    d = measured.total_dimension
    vecs = []
    for v in basis:
        if v.registry.labels != measured.labels:
            raise ValueError(
                f"basis vector labels {v.registry.labels} do not match the "
                f"measured registry {measured.labels}"
            )
        vecs.append(np.asarray(v.amplitudes, dtype=np.complex128))
    if not vecs or len(vecs) > d:
        raise ValueError(f"need between 1 and {d} basis vectors, got {len(vecs)}")
    gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    if np.max(np.abs(gram - np.eye(len(vecs)))) > ATOL_ORTHO:
        raise ValueError("measurement basis is not orthonormal within 1e-9")

    if memory_labels is None:
        memory_labels = [f"z{i}" for i in range(len(vecs))]
    memory_labels = list(memory_labels)
    if len(memory_labels) != len(vecs):
        raise ValueError(
            f"{len(memory_labels)} memory labels for {len(vecs)} basis vectors"
        )
    given = len(vecs)
    completed = _complete_basis(vecs, d)
    memory_labels += [f"perp{i}" for i in range(given, len(completed))]
    if memory in measured:
        raise ValueError(f"memory label {memory!r} collides with a measured label")

    k = len(completed)
    memory_sub = Subsystem(memory, k, tuple(memory_labels))
    mat = np.zeros((d * k, d), dtype=np.complex128)
    for i, b in enumerate(completed):
        record = np.zeros(k, dtype=np.complex128)
        record[i] = 1.0
        mat += np.outer(np.kron(b, record), b.conj())
    basis_states = tuple(
        StateVector(measured, b, normalized=True) for b in completed
    )
    return MeasurementIsometry(
        agent=agent,
        measured_labels=measured.labels,
        measured_registry=measured,
        basis=basis_states,
        memory=memory_sub,
        given_outcomes=given,
        matrix=mat,
    )


def build_preparation_isometry(
    agent: str,
    control: SubsystemRegistry,
    prepared: Mapping[Union[str, tuple[str, ...]], StateVector],
    output: Subsystem,
) -> PreparationIsometry:
    """Build a controlled preparation: control outcome -> fresh output state."""
    d = control.total_dimension
    k = output.dimension
    table: list[tuple[tuple[str, ...], StateVector]] = []
    mat = np.zeros((d * k, d), dtype=np.complex128)
    seen = set()
    for key, state in prepared.items():
        labels = (key,) if isinstance(key, str) else tuple(key)
        if state.registry.labels != (output.label,):
            raise ValueError(
                f"prepared state for {labels} must live on {output.label!r}"
            )
        if abs(state.norm() - 1.0) > ATOL_ISOMETRY:
            raise ValueError(f"prepared state for {labels} is not normalized")
        idx = control.flat_index(labels)
        if idx in seen:
            raise ValueError(f"duplicate control outcome {labels}")
        seen.add(idx)
        control_vec = np.zeros(d, dtype=np.complex128)
        control_vec[idx] = 1.0
        mat += np.outer(np.kron(control_vec, state.amplitudes), control_vec.conj())
        table.append((labels, state))
    if len(seen) != d:
        raise ValueError(
            f"prepared map covers {len(seen)} of {d} control outcomes"
        )
    if output.label in control:
        raise ValueError(f"output label {output.label!r} collides with a control label")
    return PreparationIsometry(
        agent=agent,
        control_labels=control.labels,
        control_registry=control,
        prepared=tuple(table),
        output=output,
        matrix=mat,
    )


def _check_application(state: StateVector, iso: Isometry) -> None:
    for sub in iso.domain_registry.subsystems:
        if sub.label not in state.registry:
            raise ValueError(
                f"state has no subsystem {sub.label!r} for {iso.agent}'s step"
            )
        host = state.registry.subsystem(sub.label)
        if host.basis_labels != sub.basis_labels:
            raise ValueError(
                f"subsystem {sub.label!r} bases differ between the state and "
                f"{iso.agent}'s step"
            )
    if iso.appended.label in state.registry:
        raise ValueError(
            f"appended label {iso.appended.label!r} already present in the registry"
        )


def apply_isometry(state: StateVector, iso: Isometry) -> StateVector:
    """Apply an isometry; the fresh factor lands at the end of the registry."""
    out = _isometry_image(state, iso).reshape(-1)
    return StateVector(
        state.registry.extended(iso.appended), out, normalized=state.normalized
    )


def _isometry_image(state: StateVector, iso: Isometry) -> np.ndarray:
    """V|state⟩ as an amplitude tensor: the state's axes, then the fresh factor."""
    _check_application(state, iso)
    registry = state.registry
    dims = list(registry.dims)
    n = len(dims)
    domain_axes = [registry.axis(l) for l in iso.domain_labels]
    rest_axes = [i for i in range(n) if i not in domain_axes]
    d_in = math.prod(dims[a] for a in domain_axes)
    k = iso.appended.dimension

    tens = state.tensored().transpose(rest_axes + domain_axes)
    flat = tens.reshape(-1, d_in) @ iso.matrix.T  # rows: rest, cols: (domain, new)
    shaped = flat.reshape(
        [dims[a] for a in rest_axes] + [dims[a] for a in domain_axes] + [k]
    )
    cur_axes = rest_axes + domain_axes
    perm_back = [cur_axes.index(i) for i in range(n)] + [n]
    return shaped.transpose(perm_back)


def _record_slice(
    subsystems: tuple[Subsystem, ...], tens: np.ndarray, axis: int, index: int
) -> tuple[float, StateVector | None]:
    """Project factor ``axis`` of ``tens`` onto basis state ``index``, renormalized.

    ``tens`` is an amplitude tensor over ``subsystems``.  The projected
    factor is kept as a record factor: the one-dimensional
    ``Subsystem(label, 1, (basis_label,))`` at the same axis, so no zero
    slices are stored.  Returns (probability, state), or (0.0, None) below
    probability 1e-12.
    """
    where: list = [slice(None)] * tens.ndim
    where[axis] = index
    projected = tens[tuple(where)]
    p = float(np.sum(np.abs(projected) ** 2))
    if p <= 1e-12:
        return 0.0, None
    sub = subsystems[axis]
    record = Subsystem(sub.label, 1, (sub.basis_labels[index],))
    registry = SubsystemRegistry(subsystems[:axis] + (record,) + subsystems[axis + 1 :])
    return p, StateVector(registry, projected / math.sqrt(p))


def _record_branches(
    state: StateVector, iso: MeasurementIsometry
) -> list[tuple[str, float, StateVector | None]]:
    """Outcome branches of one measurement, each memory kept as a record factor.

    Branch i stores the measurement's memory as the one-dimensional
    ``Subsystem(memory_label, 1, (label_i,))`` at the end of the registry, so
    a collapse adds no axis length and no zero slices.  Probabilities and
    ``None`` branches are as in :func:`branch_decomposition`.
    """
    tens = _isometry_image(state, iso)
    subsystems = state.registry.subsystems + (iso.memory,)
    return [
        (label, *_record_slice(subsystems, tens, tens.ndim - 1, i))
        for i, label in enumerate(iso.outcome_labels)
    ]


def _record_index(held: Subsystem, full: Subsystem) -> slice:
    """Where ``held`` sits inside ``full``: all of it, or one recorded basis state.

    ``held`` is either ``full`` itself or a record factor of it, the
    one-dimensional subsystem that :func:`_record_slice` leaves for a
    collapsed or conditioned memory.
    """
    if held == full:
        return slice(None)
    if (
        held.label != full.label
        or held.dimension != 1
        or held.basis_labels[0] not in full.basis_labels
    ):
        raise ValueError(f"subsystem {held.label!r} is not a record of {full}")
    index = full.basis_index(held.basis_labels[0])
    return slice(index, index + 1)


def _record_rows(held: Sequence[Subsystem], full: SubsystemRegistry) -> np.ndarray:
    """Flat indices, in ``full``, of the basis states that ``held`` spans.

    ``held`` lists one subsystem per factor of ``full``, in order: the factor
    itself or a record factor of it.  A flattened amplitude tensor over
    ``held`` is the vector over ``full`` restricted to these rows.
    """
    where = tuple(_record_index(h, f) for h, f in zip(held, full.subsystems))
    return np.arange(full.total_dimension).reshape(full.dims)[where].reshape(-1)


def _project_record(
    state: StateVector, memory: Subsystem, outcome: str
) -> tuple[float, StateVector | None]:
    """Project ``memory`` onto ``outcome``, renormalized, leaving a record factor.

    Returns (probability, state), or (0.0, None) below probability 1e-12, as
    :func:`_record_slice` does.  A memory already held as a record factor is
    expanded first.
    """
    state = _expand_records(state, [memory])
    return _record_slice(
        state.registry.subsystems,
        state.tensored(),
        state.registry.axis(memory.label),
        memory.basis_index(outcome),
    )


def _expand_records(state: StateVector, full: Sequence[Subsystem]) -> StateVector:
    """Expand the record factors of the ``full`` subsystems back to full length.

    An expanded memory is one-hot at the recorded outcome.  The state is
    returned unchanged when it holds every subsystem of ``full`` already.
    """
    if all(sub in state.registry.subsystems for sub in full):
        return state
    subsystems = list(state.registry.subsystems)
    where: list[slice] = [slice(None)] * len(subsystems)
    for sub in full:
        axis = state.registry.axis(sub.label)
        where[axis] = _record_index(subsystems[axis], sub)
        subsystems[axis] = sub
    expanded = SubsystemRegistry(tuple(subsystems))
    out = np.zeros(expanded.dims, dtype=np.complex128)
    out[tuple(where)] = state.tensored()
    return StateVector(expanded, out, normalized=state.normalized)


def branch_decomposition(
    state: StateVector, iso: MeasurementIsometry
) -> list[tuple[str, float, StateVector | None]]:
    """Outcome branches of one measurement: (label, probability, branch).

    Branches below probability 1e-12 are reported with probability 0.0 and a
    ``None`` branch.  For a normalized input the probabilities sum to 1.
    Every branch lives on the input registry extended by the full memory
    factor, one-hot at the branch's outcome.
    """
    out = []
    for label, p, branch in _record_branches(state, iso):
        if branch is not None:
            branch = _expand_records(branch, [iso.memory])
        out.append((label, p, branch))
    return out


def collapse(
    state: StateVector, iso: MeasurementIsometry, outcome: str
) -> StateVector:
    """Projective update rule: keep the named outcome branch, renormalized.

    Equivalently, the measured factor is replaced by the corresponding
    measurement-basis state with the memory record attached.
    """
    if outcome not in iso.outcome_labels:
        raise KeyError(f"{outcome!r} is not an outcome of {iso.agent}'s measurement")
    for label, p, branch in branch_decomposition(state, iso):
        if label == outcome:
            if branch is None:
                raise ZeroProbabilityError(
                    f"outcome {outcome!r} of {iso.agent}'s measurement has zero "
                    "probability; conditioning on it is meaningless"
                )
            return branch
    raise AssertionError("unreachable")
