"""Complete experiments: ordered measurement steps, evolution, distributions.

An experiment is a fixed initial state plus a time-ordered list of isometry
steps (measurements and controlled preparations).  Evolution under a collapse
model yields either a single coherent state (no collapse) or an ensemble of
collapsed branches, and every distribution here is computed by exact branch
and projector enumeration; nothing is ever sampled.

Conditional tables deserve one warning.  "What does agent X know about agent Y"
is evaluated on the circuit truncated at the later of the two measurements:
a superobserver step that comes afterwards acts coherently on the earlier
memories and would alter the answer.  :func:`conditional_table` applies that
truncation; :func:`conditional` itself is plain Bayes on whatever joint
distribution it is given.

Of the truncated circuit, the two pair routes evolve only the backward cone
of the two memories (see ``ExperimentSpec._cone``): a step that acts only on
other labs is a channel on factors the pair never reads, so by no-signalling
it cannot change what X can infer about Y.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .channels import CollapseModel, Isometry, _Ensemble, _StepPlan
from .registry import SubsystemRegistry
from .states import DensityMatrix, StateVector, ZeroProbabilityError, _spelled

ATOL_DIST = 1e-9
SUPPORT_EPS = 1e-15
CONDITION_EPS = 1e-12


@dataclass(frozen=True)
class Step:
    time: int
    iso: Isometry

    @property
    def agent(self) -> str:
        return self.iso.agent

    @property
    def is_measurement(self) -> bool:
        return bool(self.iso.basis)


@dataclass(frozen=True)
class ExperimentSpec:
    """Initial state plus ordered steps, with an optional halting condition.

    Construction builds one :class:`~wignersim.channels._StepPlan` per step
    in one walk: the step's outcome-major matrix, transpose, domain axes and
    the registry and layout after it.  Building a plan is the step's only
    check, so a step on an unknown label, on a factor in another basis or
    appending a registered label fails here.  Every evolution, under any
    collapse model, replays the plans; :meth:`registry_after` reads the
    chain.  A plan is derived from the frozen fields alone, like
    :attr:`measuring_steps`; it holds no amplitudes, weights, records, joints
    or tables, so every answer is still computed in full on every call.  A
    pair's backward cone (:meth:`_cone`) is built on first use and kept.  An
    agent measures at most once, since tables and models name a measurement
    by it.
    """

    name: str
    registry: SubsystemRegistry
    initial: StateVector
    steps: tuple[Step, ...]
    halting: tuple[tuple[str, str], ...] | None = None

    def __post_init__(self) -> None:
        if self.initial.registry.labels != self.registry.labels:
            raise ValueError(
                "initial state registry does not match the experiment registry"
            )
        times = [s.time for s in self.steps]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"step times must be strictly increasing, got {times}")
        plans: list[_StepPlan] = []
        registry = layout = self.registry
        measuring: dict[str, Step] = {}
        for step in self.steps:
            plans.append(_StepPlan.of(registry, layout, step.iso))
            registry, layout = plans[-1].registry, plans[-1].layout
            if step.is_measurement:
                first = measuring.setdefault(step.agent, step)
                if first is not step:
                    raise ValueError(
                        f"agent {step.agent!r} measures at t={first.time} and at "
                        f"t={step.time}; an agent may measure only once"
                    )
        object.__setattr__(self, "_step_plans", tuple(plans))
        object.__setattr__(self, "_measuring", measuring)
        object.__setattr__(self, "_cones", {})
        if self.halting is not None:
            for agent, outcome in self.halting:
                if agent not in measuring:
                    raise ValueError(f"halting condition names non-measuring agent {agent!r}")
                if outcome not in measuring[agent].iso.outcome_labels:
                    raise ValueError(
                        f"halting outcome {outcome!r} is not an outcome of {agent!r}"
                    )

    @cached_property
    def measuring_steps(self) -> tuple[Step, ...]:
        return tuple(self._measuring.values())

    @cached_property
    def measuring_agents(self) -> tuple[str, ...]:
        return tuple(self._measuring)

    def _cone(self, target: str, given: str, through_time: int | None) -> "ExperimentSpec":
        """The steps up to ``through_time`` that the two agents' memories can feel.

        Walking the steps backwards from the two memory labels, a step is
        kept when its domain or its appended factor meets the relevant set,
        and its domain then joins that set.  A step left out acts only on
        factors that no later kept step and neither memory touches; under
        any collapse model it is a channel on those factors, so the pair's
        joint distribution is the same on the cone.  The cone is a spec with
        this spec's name, registry and initial state, the kept steps and no
        halting, to be evolved through ``through_time`` like this one.  When
        no step is left out it is this spec itself, so its plans serve the
        pair.  It is built on first use, keyed by the unordered pair and the
        number of steps run, and published whole; like a plan it holds no
        amplitudes or answers.
        """
        stop = self._stop(through_time)
        key = (frozenset((target, given)), stop)
        cone = self._cones.get(key)
        if cone is None:
            relevant = {self.step_for(a).iso.memory_label for a in (target, given)}
            kept = []
            for step in reversed(self.steps[:stop]):
                iso = step.iso
                if iso.appended.label in relevant or not relevant.isdisjoint(iso.domain.labels):
                    kept.append(step)
                    relevant.update(iso.domain.labels)
            if len(kept) == stop:
                cone = self
            else:
                cone = ExperimentSpec(self.name, self.registry, self.initial, tuple(kept[::-1]))
            cone = self._cones.setdefault(key, cone)
        return cone

    def step_for(self, agent: str) -> Step:
        try:
            return self._measuring[agent]
        except KeyError:
            raise KeyError(f"no measuring agent {agent!r} in experiment {self.name!r}") from None

    def _stop(self, through_time: int | None) -> int:
        """How many steps run by ``through_time`` (all of them for None)."""
        if through_time is None:
            return len(self.steps)
        return bisect_right(self.steps, through_time, key=lambda s: s.time)

    def registry_after(self, through_time: int | None = None) -> SubsystemRegistry:
        stop = self._stop(through_time)
        return self._step_plans[stop - 1].registry if stop else self.registry


@dataclass(frozen=True)
class OutcomeAssignment:
    """One outcome label per measuring agent, in a fixed agent order."""

    outcomes: tuple[tuple[str, str], ...]

    def __getitem__(self, agent: str) -> str:
        for a, outcome in self.outcomes:
            if a == agent:
                return outcome
        raise KeyError(f"no outcome recorded for agent {agent!r}")

    def get(self, agent: str, default: str | None = None) -> str | None:
        try:
            return self[agent]
        except KeyError:
            return default

    def matches(self, condition: Mapping[str, str]) -> bool:
        return all(self.get(a) == o for a, o in condition.items())

    def __str__(self) -> str:
        return ",".join(f"{a}={o}" for a, o in self.outcomes)


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Exact joint outcome distribution with a collapse-model provenance tag.

    ``array`` has one axis per agent, in ``agents`` order, each as long as
    that agent's alphabet, so array order is basis order.  It is read-only.
    """

    agents: tuple[str, ...]
    alphabets: dict[str, tuple[str, ...]]
    array: np.ndarray
    model_tag: str

    def __post_init__(self) -> None:
        array = np.asarray(self.array, dtype=np.float64)
        shape = tuple(len(self.alphabets[agent]) for agent in self.agents)
        if array.shape != shape:
            raise ValueError(f"joint array shape {array.shape}, expected {shape}")
        if array.size and not array.min() >= -CONDITION_EPS:
            raise ValueError(f"negative probability {float(array.min())!r}")
        total = float(array.sum())
        if not abs(total - 1.0) <= ATOL_DIST:
            raise ValueError(f"joint distribution sums to {total!r}, not 1")
        array.setflags(write=False)
        object.__setattr__(self, "array", array)

    @property
    def probs(self) -> Mapping[OutcomeAssignment, float]:
        """Read-only support view: the nonzero cells in basis order."""
        return MappingProxyType(self._support)

    @cached_property
    def _support(self) -> dict[OutcomeAssignment, float]:
        support = {}
        for cell in map(tuple, np.argwhere(self.array)):
            labels = (self.alphabets[a][i] for a, i in zip(self.agents, cell))
            assignment = OutcomeAssignment(tuple(zip(self.agents, labels)))
            support[assignment] = float(self.array[cell])
        return support

    def _cells(self, condition: Mapping[str, str]) -> tuple | None:
        """Index of the cells matching a partial condition; None if none can."""
        unknown = set(condition) - set(self.agents)
        if unknown:
            raise KeyError(f"unknown agents {sorted(unknown)}")
        if any(o not in self.alphabets[a] for a, o in condition.items()):
            return None
        return tuple(
            self.alphabets[a].index(condition[a]) if a in condition else slice(None)
            for a in self.agents
        )

    def probability(self, condition: Mapping[str, str]) -> float:
        """Total probability of all assignments matching a partial condition."""
        cells = self._cells(condition)
        return 0.0 if cells is None else float(self.array[cells].sum())


@dataclass(frozen=True)
class ConditionalTable:
    """P(target outcome | conditioning outcome), one column per condition.

    Columns whose conditioning outcome has zero marginal probability are
    absent, not zero-filled: conditioning on an impossible event is undefined
    rather than impossible-valued.
    """

    target: str
    given: str
    target_alphabet: tuple[str, ...]
    given_alphabet: tuple[str, ...]
    columns: dict[str, dict[str, float]]
    model_tag: str

    def __post_init__(self) -> None:
        for g, column in self.columns.items():
            total = sum(column.values())
            if not abs(total - 1.0) <= ATOL_DIST:
                raise ValueError(
                    f"column {g!r} sums to {total!r}, not 1 within {_spelled(ATOL_DIST)}"
                )

    def probability(self, target_outcome: str, given_outcome: str) -> float:
        if given_outcome not in self.columns:
            raise KeyError(
                f"no column for {self.given}={given_outcome!r} (zero marginal)"
            )
        return self.columns[given_outcome][target_outcome]

    def present_columns(self) -> tuple[str, ...]:
        return tuple(g for g in self.given_alphabet if g in self.columns)


def _evolved_branches(
    spec: ExperimentSpec,
    model: CollapseModel,
    through_time: int | None = None,
) -> _Ensemble:
    """The ensemble after evolving under the model, stacked (see :class:`_Ensemble`).

    The steps replay the plans the spec built (see :class:`ExperimentSpec`),
    one plan per step whatever the model: the plan fixes the axis orders,
    the registries and the outcome-major matrix, and holds nothing computed
    from amplitudes.  Per call, each step expands any record on its domain,
    then makes one transpose and one matmul over all rows, then checks every
    row's norm or splits the rows by outcome.  The output axis order is kept
    (see :func:`~wignersim.channels._isometry_image`): only a result that
    needs registry order, such as ``_Ensemble.states`` or
    :func:`_reduced_density`, permutes.
    Collapsed memories are record factors, so a row scales with the factors
    that are still quantum, not with the full registry; a collapse divides
    every row into its outcome rows.  A step whose domain basis differs from
    the experiment's never gets here: its plan, and so its spec, cannot be
    built.
    """
    _check_model(spec, model)
    return _replayed(spec, model, through_time)


def _check_model(spec: ExperimentSpec, model: CollapseModel) -> None:
    if model.agents is not None and not model.agents.issubset(spec.measuring_agents):
        unknown = min(model.agents.difference(spec.measuring_agents))
        raise ValueError(
            f"collapse model names unknown agent {unknown!r} for {spec.name!r}"
        )


def _replayed(
    spec: ExperimentSpec, model: CollapseModel, through_time: int | None
) -> _Ensemble:
    """The initial state stepped through the spec's plans up to ``through_time``."""
    ens = _Ensemble.of(spec.initial)
    for step, plan in zip(spec.steps[: spec._stop(through_time)], spec._step_plans):
        collapses = step.is_measurement and model.collapses_at(step.agent)
        ens = ens.stepped(plan, collapses)
    return ens


def _pair_branches(
    spec: ExperimentSpec, model: CollapseModel, target: str, given: str
) -> tuple[_Ensemble, ExperimentSpec, int]:
    """The ensemble of the pair's cone at the later of its two measurements.

    Returns the ensemble, the cone and the time of that measurement.

    The agents and the model are checked on the full spec, in the order a
    full evolution checks them; every step passed its own check when the
    spec was built.  Only the cone is evolved; the model passes unchanged
    and its agents outside the cone never appear.
    """
    through = max(spec.step_for(target).time, spec.step_for(given).time)
    _check_model(spec, model)
    cone = spec._cone(target, given, through)
    return _replayed(cone, model, through), cone, through


def _condition_branches(
    ens: _Ensemble, spec: ExperimentSpec, condition: Mapping[str, str]
) -> _Ensemble:
    """Condition the ensemble on memory outcomes, renormalizing the weights.

    A memory holds a record exactly when its agent collapsed: conditioning
    then keeps the rows with the matching record (the outcome was decided at
    the step).  Otherwise the outcome still lives coherently in the memory
    factor and conditioning is a projective update on every row, which
    leaves that memory a record factor too and records the outcome.
    """
    for agent, outcome in condition.items():
        step = spec.step_for(agent)
        if outcome not in step.iso.outcome_labels:
            raise KeyError(f"{outcome!r} is not an outcome of {agent!r}")
        label, index = step.iso.memory_label, step.iso.outcome_labels.index(outcome)
        if label in ens.records:
            ens = ens.selected(ens.records[label] == index)
        else:
            ens = ens.projected(label, index)
    total = float(ens.weights.sum())
    if total <= CONDITION_EPS:
        raise ZeroProbabilityError(
            f"conditioning on {dict(condition)} has zero probability"
        )
    return replace(ens, weights=ens.weights / total)


def _record_keys(records: list[np.ndarray], dims: list[int], rows: int) -> np.ndarray:
    """Each row's records as one flat index into an array of shape ``dims``."""
    key = np.zeros(rows, dtype=np.intp)
    for record, dim in zip(records, dims):
        key = key * dim + record
    return key


def _joint(
    ens: _Ensemble, spec: ExperimentSpec, model_tag: str, through_time: int | None
) -> JointDistribution:
    """Joint distribution of what an ensemble observed by ``through_time``.

    An agent with a record (a collapsed measurement, or an outcome the
    ensemble was conditioned on) contributes that outcome; every other agent
    contributes the diagonal readout of its memory factor.  The readout is
    one |ψ|² reduction over all rows; rows are then summed by record.
    """
    steps = [
        s
        for s in spec.measuring_steps
        if through_time is None or s.time <= through_time
    ]
    agents = tuple(s.agent for s in steps)
    alphabets = {s.agent: s.iso.outcome_labels for s in steps}
    memories = [s.iso.memory_label for s in steps]
    recorded = [i for i, m in enumerate(memories) if m in ens.records]
    # The other agents in axis order, which the readout's axes keep.
    free = sorted(
        (i for i, m in enumerate(memories) if m not in ens.records),
        key=lambda i: ens.layout.axis(memories[i]),
    )
    axes = [ens.layout.axis(memories[i]) + 1 for i in free]
    probs = np.abs(ens.amps) ** 2
    readout = probs.sum(axis=tuple(a for a in range(1, probs.ndim) if a not in axes))
    readout *= ens.weights.reshape((-1,) + (1,) * len(free))
    readout[readout <= SUPPORT_EPS] = 0.0
    # Each row lands on the cells of its records.  No two rows share their
    # records: a collapse gives its outcome rows distinct records, and
    # selecting or projecting rows keeps them distinct.
    dims = [len(alphabets[agents[i]]) for i in recorded]
    array = np.zeros((math.prod(dims),) + readout.shape[1:])
    array[_record_keys([ens.records[memories[i]] for i in recorded], dims, len(readout))] = readout
    array = array.reshape(dims + list(readout.shape[1:]))
    order = recorded + free
    array = array.transpose([order.index(i) for i in range(len(agents))])
    return JointDistribution(agents, alphabets, array.copy(), model_tag)


def evolve(
    spec: ExperimentSpec,
    model: CollapseModel,
    through_time: int | None = None,
) -> JointDistribution:
    """Exact joint distribution of the outcomes observed by ``through_time``."""
    return _joint(_evolved_branches(spec, model, through_time), spec, model.tag, through_time)


def evolved_density(
    spec: ExperimentSpec,
    model: CollapseModel,
    through_time: int | None = None,
) -> DensityMatrix:
    """Density matrix of the evolved (possibly branch-mixed) experiment.

    This is :func:`memory_state` with nothing discarded, so its cost is
    O(B·d·d_keep) with d_keep = d for B branches.  Shape and unit trace are
    checked; the Hermitian and positive semidefinite guarantees come from
    the answer being a Gram product, whose rounding bound
    :meth:`DensityMatrix._gram` checks in O(d), falling back to the full
    checks if it fails.
    """
    ens = _evolved_branches(spec, model, through_time)
    return _reduced_density(ens, spec.registry_after(through_time))


def _summed_to(joint: JointDistribution, agents: tuple[str, ...]) -> np.ndarray:
    """The joint summed over every other agent, axes in ``agents`` order."""
    for agent in agents:
        if agent not in joint.agents:
            raise KeyError(f"unknown agent {agent!r}")
    axes = [joint.agents.index(agent) for agent in agents]
    other = tuple(i for i in range(joint.array.ndim) if i not in axes)
    return joint.array.sum(axis=other).transpose([sorted(axes).index(i) for i in axes])


def marginal(joint: JointDistribution, agent: str) -> dict[str, float]:
    """Distribution of one agent's outcome, summed over everybody else."""
    sums = _summed_to(joint, (agent,))
    return dict(zip(joint.alphabets[agent], sums.tolist()))


def conditional(
    joint: JointDistribution, target: str, given: str
) -> ConditionalTable:
    """Bayes' rule on a joint distribution: P(target | given)."""
    if target == given:
        raise ValueError("target and conditioning agent must differ")
    pair = _summed_to(joint, (target, given))
    columns = {
        g: {t: float(p / pg) for t, p in zip(joint.alphabets[target], pair[:, j])}
        for j, (g, pg) in enumerate(zip(joint.alphabets[given], pair.sum(axis=0)))
        if pg > CONDITION_EPS
    }
    return ConditionalTable(
        target=target,
        given=given,
        target_alphabet=joint.alphabets[target],
        given_alphabet=joint.alphabets[given],
        columns=columns,
        model_tag=joint.model_tag,
    )


def conditional_table(
    spec: ExperimentSpec,
    model: CollapseModel,
    target: str,
    given: str,
) -> ConditionalTable:
    """P(target | given) evaluated at the later of the two measurements.

    Later steps are excluded: a subsequent superobserver measurement acts
    coherently on the earlier memory records, and including it would answer a
    different question than "what can ``given`` infer about ``target``".
    Of the earlier steps only the backward cone of the two memories is
    evolved (``ExperimentSpec._cone``): by no-signalling, a step acting only
    on other labs cannot change the pair's joint distribution.
    """
    ens, cone, through = _pair_branches(spec, model, target, given)
    return conditional(_joint(ens, cone, model.tag, through), target, given)


def conditional_via_renormalized_state(
    spec: ExperimentSpec,
    model: CollapseModel,
    target: str,
    given: str,
    given_outcome: str,
) -> dict[str, float]:
    """Condition the evolved state on one outcome, renormalize, read the target.

    When the model collapses the conditioning agent's measurement this picks
    the collapsed branch at that step (the per-branch prediction); otherwise
    it is a projective update on the final state.  Either way it agrees with
    Bayes' rule on the joint distribution of the same model.  Like
    :func:`conditional_table`, it evolves only the backward cone of the two
    memories, truncated at the later of the two measurements: a step outside
    the cone acts only on other labs, so by no-signalling it cannot change
    the answer.
    """
    ens, cone, through = _pair_branches(spec, model, target, given)
    conditioned = _condition_branches(ens, cone, {given: given_outcome})
    return marginal(_joint(conditioned, cone, model.tag, through), target)


def _reduced_density(ens: _Ensemble, sub_registry: SubsystemRegistry) -> DensityMatrix:
    """Σ_b w_b Ψ_b Ψ_b† over the kept factors, in registry order.

    ``sub_registry`` is the plan chain's registry restricted to the kept
    factors.  Ψ_b is row b with its kept quantum axes moved first, in
    registry order, and reshaped to (kept, discarded), so the discarded
    factors are contracted away and no d×d matrix is ever formed.  With no
    kept record the whole ensemble is one contraction, scaled by √w_b, and
    its Gram product is the answer.  A kept record factor has length 1: row
    b then fills only the block of its recorded outcomes.  The answer is
    then allocated once, in registry order, and each block is one matmul
    over the rows that share its records, written through a view of the
    answer with the kept records' axes fixed at those records.  Discarded
    records cost nothing.  Either way the answer is a Gram product, and
    :meth:`DensityMatrix._gram` bounds its rounding by the longest block's
    contraction length.  Beyond the ensemble and one reordered copy of it,
    the only d_keep×d_keep array is the answer: temporaries that size would
    make the allocator trim the heap and fault it back in on every call.
    """
    layout = ens.layout
    held = [label for label in sub_registry.labels if ens.is_record(label)]
    quantum = [label for label in sub_registry.labels if label not in held]
    axes = [layout.axis(label) + 1 for label in quantum]
    other = [a for a in range(1, ens.amps.ndim) if a not in axes]
    rows = len(ens.amps)
    perm = axes + [0] + other
    scale = np.sqrt(ens.weights).reshape((-1,) + (1,) * (ens.amps.ndim - 1))
    psi = np.multiply(ens.amps.transpose(perm), scale.transpose(perm), order="C")
    quantum_dims = psi.shape[: len(axes)]
    q = math.prod(quantum_dims)
    psi = psi.reshape(q, rows, -1)
    if not held:
        block = psi.reshape(q, -1)
        return DensityMatrix._gram(sub_registry, block @ block.conj().T, block.shape[1])
    d_keep = sub_registry.total_dimension
    rho = np.zeros((d_keep, d_keep), dtype=np.complex128)
    tens = rho.reshape(sub_registry.dims * 2)
    held_axes = [sub_registry.axis(label) for label in held]
    held_dims = [layout.subsystem(label).dimension for label in held]
    records = [ens.records[label] for label in held]
    key = _record_keys(records, held_dims, rows)
    keys, firsts = np.unique(key, return_index=True)
    length = 0
    for k, first in zip(keys.tolist(), firsts.tolist()):
        block = psi[:, key == k].reshape(q, -1)
        length = max(length, block.shape[1])
        where: list = [slice(None)] * len(sub_registry.dims)
        for axis, record in zip(held_axes, records):
            where[axis] = record[first]
        tens[tuple(where * 2)] = (block @ block.conj().T).reshape(quantum_dims * 2)
    return DensityMatrix._gram(sub_registry, rho, length)


def memory_state(
    spec: ExperimentSpec,
    model: CollapseModel,
    discard: Iterable[str],
    given: Mapping[str, str] | None = None,
) -> DensityMatrix:
    """Evolved density matrix with the named subsystems traced out.

    ``given`` optionally conditions on observed outcomes before tracing (for
    a collapsed measurement this selects the branch; otherwise it projects
    and renormalizes), which is how a collapsed observer's conditional
    memory state is produced.

    The reduced state is built from the branch ensemble directly, in
    O(B·d·d_keep) time for B branches over total dimension d.  Beyond the
    ensemble it holds one reordered copy of it, the d_keep×d_keep result and
    block scratch (see :func:`_reduced_density`), so the cost scales with
    the kept factors.  Shape and unit trace are checked; the Hermitian and
    positive semidefinite guarantees come from the answer being a Gram
    product, whose rounding bound :meth:`DensityMatrix._gram` checks in
    O(d_keep) from the longest contraction, B times the discarded dimension
    at most, falling back to the full checks if it fails.
    """
    registry = spec.registry_after()
    discard = set(discard)
    unknown = discard - set(registry.labels)
    if unknown:
        raise KeyError(f"unknown subsystem labels {sorted(unknown)}")
    keep = [l for l in registry.labels if l not in discard]
    if not keep:
        raise ValueError("discard names every subsystem; nothing is left to keep")
    ens = _evolved_branches(spec, model)
    if given:
        ens = _condition_branches(ens, spec, given)
    return _reduced_density(ens, registry.restricted(keep))


def post_select(
    joint: JointDistribution, condition: Mapping[str, str]
) -> JointDistribution:
    """Condition a joint distribution on a partial assignment (halting round)."""
    total = joint.probability(condition)
    if total <= CONDITION_EPS:
        raise ZeroProbabilityError(
            f"post-selection on {dict(condition)} has zero probability"
        )
    cells = joint._cells(condition)
    array = np.zeros_like(joint.array)
    array[cells] = joint.array[cells] / total
    return JointDistribution(joint.agents, joint.alphabets, array, joint.model_tag)
