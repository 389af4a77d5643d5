"""Observer measurements as memory-entangling isometries, plus collapse rules.

An observer's measurement is modeled as an isometry that copies the measured
basis into a fresh memory factor: the i-th measurement-basis vector is mapped
to itself tensored with the i-th memory record.  A controlled preparation is
the same kind of map, so one :class:`Isometry` describes every step: V from
some domain factors to those factors tensored with one fresh factor.
Collapse, when a model calls for it, is the projective update rule applied
at the point of that agent's measurement; everything else stays unitary.

Both run on one kernel, :class:`_Ensemble`: a weighted branch ensemble
stacked into one array, stepped by one matmul over all its rows as a
:class:`_StepPlan` lays the step out.  A row is carried unnormalized: its
squared norm is its branch probability, so a collapse splits rows without
rescaling them.  ``experiment.evolve`` replays the step program its cone
keeps for the collapse set on a whole ensemble; :func:`branch_decomposition`,
one step on one state, lists a demo's branches.  :func:`apply_isometry` and
:func:`collapse` run on no program path; the benchmark's tracer wraps them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .registry import Subsystem, SubsystemRegistry
from .states import (
    StateVector,
    ZeroProbabilityError,
    _check_norms,
    _freeze,
    _row_norms_sq,
    _spelled,
)

ATOL_ISOMETRY = 1e-12
# A branch this improbable given its parent is dropped: it is rounding noise,
# which a reader normalizing it would blow up into a unit-norm state.
BRANCH_CUT = 1e-12
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
    mat = _freeze(matrix)
    if mat.shape != (d * k, d):
        raise ValueError(f"isometry matrix shape {mat.shape}, expected {(d * k, d)}")
    if not np.max(np.abs(mat.conj().T @ mat - np.eye(d))) <= ATOL_ISOMETRY:
        raise ValueError(
            f"V†V differs from the identity beyond {_spelled(ATOL_ISOMETRY)}"
        )
    return mat


@dataclass(frozen=True)
class Isometry:
    """V from the ``domain`` factors to themselves tensored with a fresh factor.

    A measurement holds its completed ``basis``: V copies it into the fresh
    memory factor.  A controlled preparation holds its ``prepared`` table:
    V maps each control outcome to itself tensored with the state prepared
    for it.  Exactly one of the two is non-empty.
    """

    agent: str
    domain: SubsystemRegistry
    appended: Subsystem
    matrix: np.ndarray = field(repr=False)
    basis: tuple[StateVector, ...] = ()
    prepared: tuple[tuple[tuple[str, ...], StateVector], ...] = ()

    def __post_init__(self) -> None:
        if bool(self.basis) == bool(self.prepared):
            raise ValueError(
                f"{self.agent}'s isometry needs exactly one of a measurement "
                "basis and a preparation table"
            )
        d, k = self.domain.total_dimension, self.appended.dimension
        object.__setattr__(self, "matrix", _checked_isometry(self.matrix, d, k))

    @cached_property
    def outcome_major(self) -> np.ndarray:
        """``matrix`` with its rows reordered from (domain, fresh) to (fresh, domain).

        The layout the stacked kernel multiplies by.
        """
        d, k = self.domain.total_dimension, self.appended.dimension
        return self.matrix.reshape(d, k, d).transpose(1, 0, 2).reshape(k * d, d)

    @property
    def memory(self) -> Subsystem:
        return self.appended

    @property
    def memory_label(self) -> str:
        return self.appended.label

    @property
    def outcome_labels(self) -> tuple[str, ...]:
        return self.appended.basis_labels


@dataclass(frozen=True)
class CollapseModel:
    """The measurements described as collapse, named by their agents.

    ``agents`` holds the agents whose measurements fire the projective update
    rule; every other measurement stays a memory-entangling isometry.  The
    empty set is pure isometry (``ism``) and ``None`` stands for every
    measuring agent (``objective``).
    """

    agents: frozenset[str] | None

    def __post_init__(self) -> None:
        if self.agents is None:
            return
        if isinstance(self.agents, str):
            raise ValueError(f"collapse model takes a set of agents, not {self.agents!r}")
        agents = frozenset(self.agents)
        for agent in agents:
            if not isinstance(agent, str) or not agent:
                raise ValueError(f"collapse model agent {agent!r} is not a label")
        object.__setattr__(self, "agents", agents)

    @classmethod
    def none(cls) -> "CollapseModel":
        return cls(frozenset())

    @classmethod
    def objective(cls) -> "CollapseModel":
        return cls(None)

    @classmethod
    def subjective(cls, agent: str) -> "CollapseModel":
        return cls((agent,))

    def collapses_at(self, agent: str) -> bool:
        return self.agents is None or agent in self.agents

    @property
    def tag(self) -> str:
        if self.agents is None:
            return "objective"
        if not self.agents:
            return "ism"
        return "clps:" + "+".join(sorted(self.agents))


NO_COLLAPSE = CollapseModel.none()
OBJECTIVE_COLLAPSE = CollapseModel.objective()


def build_measurement_isometry(
    agent: str,
    measured: SubsystemRegistry,
    basis: Sequence[StateVector],
    memory: str,
    memory_labels: Sequence[str] | None = None,
) -> Isometry:
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
    if not np.max(np.abs(gram - np.eye(len(vecs)))) <= ATOL_ORTHO:
        raise ValueError(
            f"measurement basis is not orthonormal within {_spelled(ATOL_ORTHO)}"
        )

    if memory_labels is None:
        memory_labels = [f"z{i}" for i in range(len(vecs))]
    memory_labels = list(memory_labels)
    if len(memory_labels) != len(vecs):
        raise ValueError(
            f"{len(memory_labels)} memory labels for {len(vecs)} basis vectors"
        )
    memory_labels += [f"perp{i}" for i in range(len(vecs), d)]
    completed = _complete_basis(vecs, d)
    if memory in measured:
        raise ValueError(f"memory label {memory!r} collides with a measured label")

    k = len(completed)
    memory_sub = Subsystem(memory, k, tuple(memory_labels))
    # Row x·k + i, column y holds b_i[x]·conj(b_i[y]): Σ_i |b_i⟩|i⟩⟨b_i|.
    # Added onto zeros, as the sum of outer products was, so every zero is +0.
    columns = np.array(completed).T
    mat = np.zeros((d, k, d), dtype=np.complex128)
    mat += columns[:, :, None] * columns.conj().T[None, :, :]
    basis_states = tuple(StateVector(measured, b) for b in completed)
    return Isometry(agent, measured, memory_sub, mat.reshape(d * k, d), basis_states)


def build_preparation_isometry(
    agent: str,
    control: SubsystemRegistry,
    prepared: Mapping[str | tuple[str, ...], StateVector],
    output: Subsystem,
) -> Isometry:
    """Build a controlled preparation: control outcome -> fresh output state."""
    d = control.total_dimension
    k = output.dimension
    table: list[tuple[tuple[str, ...], StateVector]] = []
    # Entry (c, j, c) holds the j-th amplitude prepared for control outcome c,
    # added onto zeros as in the sum of outer products, so every zero is +0.
    blocks = np.zeros((d, k, d), dtype=np.complex128)
    seen = set()
    for key, state in prepared.items():
        labels = (key,) if isinstance(key, str) else tuple(key)
        if state.registry.labels != (output.label,):
            raise ValueError(
                f"prepared state for {labels} must live on {output.label!r}"
            )
        idx = control.flat_index(labels)
        if idx in seen:
            raise ValueError(f"duplicate control outcome {labels}")
        seen.add(idx)
        blocks[idx, :, idx] += state.amplitudes
        table.append((labels, state))
    if len(seen) != d:
        raise ValueError(
            f"prepared map covers {len(seen)} of {d} control outcomes"
        )
    if output.label in control:
        raise ValueError(f"output label {output.label!r} collides with a control label")
    matrix = blocks.reshape(d * k, d)
    return Isometry(agent, control, output, matrix, prepared=tuple(table))


@dataclass(frozen=True, eq=False)
class _StepPlan:
    """What one step's place in a circuit fixes, built once and replayed per call.

    Building it is the step's one check: every domain label must be in the
    registry with the same basis, and extending the registry rejects an
    appended label that is already there.  ``perm`` moves a (B, layout
    before…) array to (B, domain…, rest…), with the rest in registry order;
    the image (B, k, domain…, rest…) is laid out as ``layout`` names, and
    ``registry`` is the registry after the step.  ``domain`` holds the
    domain's array axes before the step (the row axis is 0) and
    ``domain_dims`` their lengths.  A plan never holds amplitudes, weights,
    records or anything computed from them, so one plan serves every
    ensemble and every collapse model: a record factor only shortens an
    axis, never moves it.
    """

    iso: Isometry
    matrix: np.ndarray  # the isometry's rows in outcome-major order
    perm: tuple[int, ...]
    domain: tuple[int, ...]
    domain_dims: tuple[int, ...]
    registry: SubsystemRegistry
    layout: SubsystemRegistry

    @classmethod
    def of(
        cls, registry: SubsystemRegistry, layout: SubsystemRegistry, iso: Isometry
    ) -> "_StepPlan":
        """The plan of ``iso`` on arrays laid out as ``layout``.

        ``registry`` lists the same subsystems in registry order.  Raises if
        the step cannot act on that registry.
        """
        for sub in iso.domain.subsystems:
            if sub.label not in registry:
                raise ValueError(f"{iso.agent}'s step reads unknown subsystem {sub.label!r}")
            if registry.subsystem(sub.label).basis_labels != sub.basis_labels:
                raise ValueError(
                    f"subsystem {sub.label!r} bases differ between the state and "
                    f"{iso.agent}'s step"
                )
        domain = tuple(layout.axis(label) + 1 for label in iso.domain.labels)
        rest = [l for l in registry.labels if l not in iso.domain]
        order = domain + tuple(layout.axis(label) + 1 for label in rest)
        return cls(
            iso=iso,
            matrix=iso.outcome_major,
            perm=(0,) + order,
            domain=domain,
            domain_dims=tuple(s.dimension for s in iso.domain.subsystems),
            registry=registry.extended(iso.appended),
            layout=SubsystemRegistry(
                (iso.appended,) + tuple(layout.subsystems[i - 1] for i in order)
            ),
        )


def _isometry_image(amps: np.ndarray, plan: _StepPlan) -> np.ndarray:
    """V applied to every row of ``amps`` at once, laid out as ``plan.layout``.

    ``amps`` has a row axis, then one axis per subsystem of the layout the
    plan was built on.  An axis may be shorter than its subsystem (a record
    factor, see :class:`_Ensemble`), but not on the step's domain.  The
    image has shape (B, k, domain…, rest…): the fresh factor, the step's
    domain, then the other axes in registry order, which keeps the factors a
    readout sums over together.  Nothing is transposed back.  One transpose
    and one matmul per call, whatever the number of rows.
    """
    moved = amps.transpose(plan.perm)
    if moved.shape[1 : len(plan.domain) + 1] != plan.domain_dims:
        held = zip(plan.iso.domain.labels, moved.shape[1:], plan.domain_dims)
        label = next(label for label, length, dim in held if length != dim)
        raise ValueError(
            f"subsystem {label!r} bases differ between the "
            f"state and {plan.iso.agent}'s step: it is held as a record factor"
        )
    image = np.matmul(plan.matrix, moved.reshape(len(amps), plan.matrix.shape[1], -1))
    return image.reshape((len(amps), plan.iso.appended.dimension) + moved.shape[1:])


@dataclass(frozen=True, eq=False)
class _Ensemble:
    """A weighted pure-state ensemble stacked into one array, row b = branch b.

    ``amps`` has a row axis, then one axis per subsystem of ``layout``, in
    ``layout`` order: the order the last step's :class:`_StepPlan` left, not
    registry order, so axes are looked up with ``layout.axis``; a reader
    that needs registry order is handed the plan's ``registry``.  Rows are
    not normalized: |row b|² is branch b's probability, which ``weights[b]``
    must equal, and only :meth:`states` divides by √w.  Each norm is checked
    against its weight, relative to it, once per run of steps: at a collapse
    each parent's children must sum to its weight, and at the cone's end
    each row must match its own.

    A step replays its :class:`_StepPlan`, which supplies the next
    ``layout``, so a step builds no registry.  The plan holds what the
    circuit fixes; the amplitudes, weights and records, and every row-norm
    check and branch cut, stay here and are computed per call.

    ``records`` maps a memory label to each row's recorded outcome index: the
    outcome a collapsed measurement observed, or the one the ensemble was
    conditioned on.  That is what the agent observed at its step; a later
    superobserver step may act coherently on the memory.  Until a step acts
    on it, a recorded memory is a record factor: its axis has length 1 and
    holds the amplitude at the row's outcome, while ``layout`` keeps the full
    subsystem.  So rows carry only the factors that are still quantum, and
    every row shares one layout.
    """

    layout: SubsystemRegistry
    amps: np.ndarray
    weights: np.ndarray
    records: Mapping[str, np.ndarray]

    @classmethod
    def of(cls, state: StateVector) -> "_Ensemble":
        """``state`` as one row of weight 1 with no records, all read-only, so it can be shared."""
        weights = np.ones(1)
        weights.setflags(write=False)
        return cls(state.registry, state.tensored()[None], weights, MappingProxyType({}))

    def _children(
        self, layout: SubsystemRegistry, rows: np.ndarray, p: np.ndarray, label: str,
        outcomes: np.ndarray,
    ) -> "_Ensemble":
        """The children that survive the branch cut, each weighted by its squared norm p.

        ``rows[b, i]``, laid out as ``layout``, is a child of row b that
        records ``outcomes[i]`` on memory ``label``.  A child with p ≤
        BRANCH_CUT times its parent's weight is dropped; a NaN one is kept.
        Rows, weights and records are gathered once; nothing is divided.
        """
        parent, child = np.nonzero(~(p <= BRANCH_CUT * self.weights[:, None]))
        records = {key: r[parent] for key, r in self.records.items()}
        records[label] = outcomes[child]
        return _Ensemble(layout, rows[parent, child], p[parent, child], records)

    def is_record(self, label: str) -> bool:
        axis = self.layout.axis(label)
        return self.amps.shape[axis + 1] != self.layout.subsystems[axis].dimension

    def expanded(self, axes: Iterable[int]) -> "_Ensemble":
        """Record factors on array ``axes`` back at full length, one-hot at the record.

        One scatter over all rows.
        """
        subs = self.layout.subsystems
        axes = [a for a in axes if self.amps.shape[a] != subs[a - 1].dimension]
        if not axes:
            return self
        shape = list(self.amps.shape)
        where: list = [np.arange(len(self.amps))] + [slice(None)] * (len(shape) - 1)
        for axis in axes:
            sub = subs[axis - 1]
            shape[axis] = sub.dimension
            where[axis] = self.records[sub.label]
        out = np.zeros(shape, dtype=np.complex128)
        out[tuple(where)] = self.amps.squeeze(axis=tuple(axes))
        return _Ensemble(self.layout, out, self.weights, self.records)

    def stepped(
        self, plan: _StepPlan, expand: tuple[int, ...], outcomes: np.ndarray | None
    ) -> "_Ensemble":
        """``plan``'s step on every row; with ``outcomes`` it collapses, splitting each row.

        The record factors on array axes ``expand``, those on the step's
        domain (``experiment._Cone._program``), are expanded first.  Only a
        collapse checks a norm: each parent's children must sum to its
        weight before :meth:`_children` cuts and gathers them.
        """
        ens = self.expanded(expand) if expand else self
        image = _isometry_image(ens.amps, plan)
        if outcomes is None:
            return _Ensemble(plan.layout, image, ens.weights, ens.records)
        # Child (b, i) is row b's outcome i; the memory is left a record factor.
        b, k = image.shape[:2]
        p = _row_norms_sq(image.reshape(b * k, -1)).reshape(b, k)
        _check_norms(np.add.reduce(p, axis=1), ens.weights)
        rows = image.reshape((b, k, 1) + image.shape[2:])
        return ens._children(plan.layout, rows, p, plan.iso.appended.label, outcomes)

    def selected(self, mask: np.ndarray) -> "_Ensemble":
        records = {label: r[mask] for label, r in self.records.items()}
        amps, weights = self.amps[mask], self.weights[mask]
        return _Ensemble(self.layout, amps, weights, records)

    def projected(self, label: str, index: int) -> "_Ensemble":
        """Memory ``label`` projected onto basis state ``index``, left a record factor."""
        axis = self.layout.axis(label) + 1
        ens = self.expanded([axis])
        rows = np.take(ens.amps, [index], axis=axis)
        p = _row_norms_sq(rows)[:, None]
        return ens._children(ens.layout, rows[:, None], p, label, np.array([index]))

    def states(self, registry: SubsystemRegistry) -> list[StateVector]:
        """Every row's unit state on the plan's ``registry``: divided by √w, records expanded."""
        full = self.expanded(range(1, self.amps.ndim))
        perm = [0] + [full.layout.axis(label) + 1 for label in registry.labels]
        rows = full.amps / np.sqrt(full.weights).reshape((-1,) + (1,) * (full.amps.ndim - 1))
        return [StateVector(registry, row) for row in rows.transpose(perm)]


def apply_isometry(state: StateVector, iso: Isometry) -> StateVector:
    """Apply an isometry; the fresh factor lands at the end of the registry."""
    plan = _StepPlan.of(state.registry, state.registry, iso)
    image = _isometry_image(state.tensored()[None], plan)
    perm = [plan.layout.axis(label) for label in plan.registry.labels]
    return StateVector(plan.registry, image[0].transpose(perm))


def branch_decomposition(
    state: StateVector, iso: Isometry
) -> list[tuple[str, float, StateVector | None]]:
    """Outcome branches of one measurement: (label, probability, branch).

    Branches of probability ≤ BRANCH_CUT (1e-12) are reported with
    probability 0.0 and a ``None`` branch.  Every state has unit norm, so
    the probabilities sum to 1.  Every branch lives on the input registry
    extended by the full memory factor, one-hot at the branch's outcome.
    """
    plan = _StepPlan.of(state.registry, state.registry, iso)
    ens = _Ensemble.of(state).stepped(plan, (), np.arange(iso.appended.dimension))
    records = ens.records[iso.memory_label].tolist()
    found = dict(zip(records, zip(ens.weights.tolist(), ens.states(plan.registry))))
    return [
        (label, *found.get(i, (0.0, None)))
        for i, label in enumerate(iso.outcome_labels)
    ]


def collapse(
    state: StateVector, iso: Isometry, outcome: str
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
