"""Complete experiments: ordered measurement steps, evolution, distributions.

An experiment is a fixed initial state plus a time-ordered list of isometry
steps (measurements and controlled preparations).  Evolution under a collapse
model yields either a single coherent state (no collapse) or an ensemble of
collapsed branches, each one unnormalized row whose squared norm is its
probability (see ``channels._Ensemble``).  Every distribution here is computed
by exact branch and projector enumeration; nothing is ever sampled.

Conditional tables deserve one warning.  "What does agent X know about agent Y"
is evaluated on the circuit truncated at the later of the two measurements:
a superobserver step that comes afterwards acts coherently on the earlier
memories and would alter the answer.  :func:`conditional_table` applies that
truncation; :func:`conditional` itself is plain Bayes on whatever joint
distribution it is given.

Every question evolves only the backward cone of the factors it reads, up
to its truncation (see ``ExperimentSpec._cone``): the pair routes read the
two memories, :func:`memory_state` its kept factors and the memories it is
given, and :func:`evolve` and :func:`evolved_density` every factor.  A step
outside the cone is a channel on factors the question never reads, so by
no-signalling it cannot change the answer.  A cone is read whole.

Collapse and isometry can only describe a measurement differently when a
later step still acts on its memory.  :func:`evolve` therefore collapses
every measurement its cone *settles* (see ``_Cone._settled``), whatever the
caller's model: the projectors on an untouched memory commute with every
later step, so the joint is the same, and every later step runs on rows
that no longer carry that memory's outcome axis.  The pair routes and the
density routes evolve literally.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .channels import CollapseModel, Isometry, _Ensemble, _StepPlan
from .registry import SubsystemRegistry
from .states import DensityMatrix, StateVector, ZeroProbabilityError, _spelled
from .states import _check_norms, _row_norms_sq

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


def _planned(registry: SubsystemRegistry, steps: Iterable[Step]) -> tuple[_StepPlan, ...]:
    """One plan per step, each on the registry and layout the step before leaves."""
    plans: list[_StepPlan] = []
    layout = registry
    for step in steps:
        plans.append(_StepPlan.of(registry, layout, step.iso))
        registry, layout = plans[-1].registry, plans[-1].layout
    return tuple(plans)


@dataclass(frozen=True)
class ExperimentSpec:
    """Initial state plus ordered steps, with an optional halting condition.

    Construction builds one :class:`~wignersim.channels._StepPlan` per step
    (:func:`_planned`), the step's only check: a step on an unknown label,
    on a factor in another basis or appending a registered label fails
    here.  :meth:`registry_after` reads the plans.  Every question evolves
    a :class:`_Cone` (:meth:`_cone`), which replays plans from the start
    ensemble, the initial state as one row of weight 1 with no records.
    The spec keeps its plans, agents, start and cones, all derived from the
    frozen fields alone and none holding an answer.  An agent measures at
    most once, since tables and models name a measurement by it.
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
        object.__setattr__(self, "_step_plans", _planned(self.registry, self.steps))
        measuring: dict[str, Step] = {}
        for step in self.steps:
            if step.is_measurement:
                first = measuring.setdefault(step.agent, step)
                if first is not step:
                    raise ValueError(
                        f"agent {step.agent!r} measures at t={first.time} and at "
                        f"t={step.time}; an agent may measure only once"
                    )
        object.__setattr__(self, "_measuring", measuring)
        object.__setattr__(self, "_start", _Ensemble.of(self.initial))
        object.__setattr__(self, "_cones", {})
        object.__setattr__(self, "_kept_cones", {})
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

    def _cone(self, reads: frozenset[str], through_time: int | None) -> _Cone:
        """The steps up to ``through_time`` that the factors in ``reads`` can feel.

        Walking the steps backwards from ``reads``, a step is kept when its
        domain or its appended factor meets the relevant set, and its domain
        then joins that set.  A step left out is, under any collapse model, a
        channel on factors that are never read, so the read factors' state
        and their records are the same on the cone.  A prefix of the steps
        shares this spec's plans.  Each (reads, truncation) maps to the
        indices of the kept steps, and each distinct tuple of those to one
        cone; both are built on first use and published whole.
        """
        stop = self._stop(through_time)
        key = (reads, stop)
        cone = self._cones.get(key)
        if cone is None:
            relevant = set(reads)
            kept = []
            for i in range(stop - 1, -1, -1):
                iso = self.steps[i].iso
                if iso.appended.label in relevant or not relevant.isdisjoint(iso.domain.labels):
                    kept.append(i)
                    relevant.update(iso.domain.labels)
            kept = tuple(kept[::-1])
            cone = self._kept_cones.get(kept)
            if cone is None:
                steps = tuple(self.steps[i] for i in kept)
                if kept == tuple(range(len(kept))):
                    plans = self._step_plans[: len(kept)]
                else:
                    plans = _planned(self.registry, steps)
                cone = self._kept_cones.setdefault(kept, _Cone(steps, plans, self._start))
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


@dataclass(frozen=True, eq=False)
class _Cone:
    """The steps a question runs, their plans and the ensemble they start from.

    It runs to its end, so every reader takes it whole.  Its steps are a
    subsequence of a built spec's: their times increase, each agent measures
    once and every domain label is initial or appended by a kept step, so
    nothing is checked again.  The plans chain from ``start.layout``, the
    initial registry.  The :attr:`_settled` set, step programs and readout
    plans are built on first use and kept; like a plan, a cone holds no answers.
    """

    steps: tuple[Step, ...]
    plans: tuple[_StepPlan, ...]
    start: _Ensemble
    _programs: dict = field(default_factory=dict, init=False, repr=False)
    _readouts: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def _settled(self) -> frozenset[str]:
        """The agents whose measurements this cone's steps settle.

        A measurement is settled when at least one later step runs and none
        of those steps has its memory in its domain.  Every later step then
        acts as V ⊗ 1 on that memory, so the projectors on the memory
        commute with it: collapsing the memory at its step gives the joint
        that reading it after the last step gives.  A truncation's settled
        set is that of the cone reading every factor.
        """
        touched: set[str] = set()
        found = set()
        for later, step in enumerate(reversed(self.steps)):
            if later and step.is_measurement and step.iso.memory_label not in touched:
                found.add(step.agent)
            touched.update(step.iso.domain.labels)
        return frozenset(found)

    @cached_property
    def _agents(self) -> frozenset[str]:
        return frozenset(step.agent for step in self.steps if step.is_measurement)

    def _program(self, model: CollapseModel) -> tuple:
        """Each step's arguments to :meth:`_Ensemble.stepped` under ``model``, per collapse set.

        Which record factors a step must expand, and the outcome indices of
        a collapsing step (None otherwise), depend only on the cone and on
        which of its agents collapse; built on first use and published whole.
        """
        collapsing = self._agents if model.agents is None else self._agents & model.agents
        program = self._programs.get(collapsing)
        if program is None:
            held: set[str] = set()
            entries = []
            for step, plan in zip(self.steps, self.plans):
                domain = step.iso.domain.labels
                expand = tuple(a for a, label in zip(plan.domain, domain) if label in held)
                held.difference_update(domain)
                collapses = step.is_measurement and model.collapses_at(step.agent)
                if collapses:
                    held.add(step.iso.memory_label)
                outcomes = np.arange(step.iso.appended.dimension) if collapses else None
                entries.append((plan, expand, outcomes))
            program = self._programs.setdefault(collapsing, tuple(entries))
        return program

    def _readout(self, records: frozenset[str]) -> "_ReadoutPlan":
        """The readout plan of an ensemble holding ``records``, published whole."""
        plan = self._readouts.get(records)
        if plan is None:
            plan = self._readouts.setdefault(records, _ReadoutPlan.of(self, records))
        return plan


@dataclass(frozen=True, eq=False)
class _ReadoutPlan:
    """What a cone fixes about reading out an ensemble after its last step.

    ``agents`` are the cone's measuring agents, in step order, with their
    ``alphabets``.  Agents whose memory is one of the ensemble's records
    contribute their record: ``records`` holds those memories in agent order
    and ``dims`` their alphabet lengths.  The others are read from their
    memory factors: ``summed`` lists every other array axis, the ensemble's
    row axis excluded.  The cells come out with the recorded agents first
    and the free ones in axis order; ``order`` transposes them back to agent
    order.  Like a step plan it holds no amplitudes or answers.
    """

    agents: tuple[str, ...]
    alphabets: dict[str, tuple[str, ...]]
    records: tuple[str, ...]
    dims: tuple[int, ...]
    summed: tuple[int, ...]
    order: tuple[int, ...]

    @classmethod
    def of(cls, cone: _Cone, records: frozenset[str]) -> "_ReadoutPlan":
        layout = cone.plans[-1].layout if cone.plans else cone.start.layout
        steps = [s for s in cone.steps if s.is_measurement]
        memories = [s.iso.memory_label for s in steps]
        recorded = [i for i, m in enumerate(memories) if m in records]
        # The other agents in axis order, which the readout's axes keep.
        free = sorted(
            (i for i, m in enumerate(memories) if m not in records),
            key=lambda i: layout.axis(memories[i]),
        )
        axes = {layout.axis(memories[i]) + 1 for i in free}
        order = recorded + free
        return cls(
            agents=tuple(s.agent for s in steps),
            alphabets={s.agent: s.iso.outcome_labels for s in steps},
            records=tuple(memories[i] for i in recorded),
            dims=tuple(len(steps[i].iso.outcome_labels) for i in recorded),
            summed=tuple(a for a in range(1, len(layout.subsystems) + 1) if a not in axes),
            order=tuple(order.index(i) for i in range(len(steps))),
        )


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
    that agent's alphabet, so array order is basis order.  It is a
    read-only C-ordered copy of the array it was given.
    """

    agents: tuple[str, ...]
    alphabets: dict[str, tuple[str, ...]]
    array: np.ndarray
    model_tag: str

    def __post_init__(self) -> None:
        array = np.array(self.array, dtype=np.float64, order="C")
        shape = tuple(len(self.alphabets[agent]) for agent in self.agents)
        if array.shape != shape:
            raise ValueError(f"joint array shape {array.shape}, expected {shape}")
        if array.size:
            least = np.minimum.reduce(array, axis=None)
            if not least >= -CONDITION_EPS:
                raise ValueError(f"negative probability {float(least)!r}")
        total = float(np.add.reduce(array, axis=None))
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

    def _cells(self, condition: Mapping[str, str]) -> tuple:
        """Index of the cells matching a partial condition.

        An outcome outside its agent's alphabet is no event at all, not an
        impossible one: it raises as every conditioning route does.
        """
        unknown = set(condition) - set(self.agents)
        if unknown:
            raise KeyError(f"unknown agents {sorted(unknown)}")
        for agent, outcome in condition.items():
            if outcome not in self.alphabets[agent]:
                raise KeyError(f"{outcome!r} is not an outcome of {agent!r}")
        return tuple(
            self.alphabets[a].index(condition[a]) if a in condition else slice(None)
            for a in self.agents
        )

    def probability(self, condition: Mapping[str, str]) -> float:
        """Total probability of all assignments matching a partial condition."""
        return float(self.array[self._cells(condition)].sum())


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
    reads: frozenset[str],
    through_time: int | None = None,
) -> tuple[_Ensemble, _Cone]:
    """The cone of ``reads`` (see :meth:`ExperimentSpec._cone`), evolved, and that cone.

    The model is checked on the spec and picks the cone's step program
    (:meth:`_Cone._program`), replayed from the cone's start: per step one
    transpose, one matmul and, at a collapse, one split that checks each
    parent's norm.  Steps after the last collapse are checked at the end.
    The output axis order is kept (see :func:`~wignersim.channels._isometry_image`).
    Collapsed memories are record factors, so a row scales with the factors
    still quantum.
    """
    if model.agents is not None and not spec._measuring.keys() >= model.agents:
        unknown = min(model.agents.difference(spec._measuring))
        raise ValueError(
            f"collapse model names unknown agent {unknown!r} for {spec.name!r}"
        )
    cone = spec._cone(reads, through_time)
    program = cone._program(model)
    ens = cone.start
    for plan, expand, outcomes in program:
        ens = ens.stepped(plan, expand, outcomes)
    if program and outcomes is None:
        _check_norms(_row_norms_sq(ens.amps), ens.weights)
    return ens, cone


def _pair_branches(
    spec: ExperimentSpec, model: CollapseModel, target: str, given: str
) -> tuple[_Ensemble, _Cone]:
    """The cone of two agents' memories at the later of their steps, evolved, and that cone.

    The agents are checked before the model, as a full evolution checks them.
    """
    t, g = spec.step_for(target), spec.step_for(given)
    reads = frozenset((t.iso.memory_label, g.iso.memory_label))
    return _evolved_branches(spec, model, reads, max(t.time, g.time))


def _condition_branches(
    ens: _Ensemble, spec: ExperimentSpec, condition: Mapping[str, str]
) -> _Ensemble:
    """Condition the ensemble on memory outcomes, then rescale it to unit total weight.

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
    return _Ensemble(ens.layout, ens.amps / math.sqrt(total), ens.weights / total, ens.records)


def _record_keys(records: list[np.ndarray], dims: list[int], rows: int) -> np.ndarray:
    """Each row's records as one flat index into an array of shape ``dims``."""
    key = np.zeros(rows, dtype=np.intp)
    for record, dim in zip(records, dims):
        key = key * dim + record
    return key


def _joint(ens: _Ensemble, cone: _Cone, model_tag: str) -> JointDistribution:
    """Joint distribution of what an ensemble observed.

    ``ens`` must come from replaying every step of ``cone``.  An agent with
    a record (a collapsed measurement, or an outcome the ensemble was
    conditioned on) contributes that outcome; every other agent contributes
    the diagonal readout of its memory factor.  What the cone fixes about
    that split is the :class:`_ReadoutPlan` of the recorded memories, built
    once per cone.  A row carries its weight, so per call the readout is one
    |row|² reduction over all rows, squared in place; rows are then summed by record.
    """
    plan = cone._readout(frozenset(ens.records))
    probs = np.abs(ens.amps)
    np.square(probs, out=probs)
    readout = np.add.reduce(probs, axis=plan.summed)
    readout[readout <= SUPPORT_EPS] = 0.0
    # Each row lands on the cells of its records.  No two rows share their
    # records: a collapse gives its outcome rows distinct records, and
    # selecting or projecting rows keeps them distinct.
    records = [ens.records[label] for label in plan.records]
    array = np.zeros((math.prod(plan.dims),) + readout.shape[1:])
    array[_record_keys(records, plan.dims, len(readout))] = readout
    array = array.reshape(plan.dims + readout.shape[1:]).transpose(plan.order)
    return JointDistribution(plan.agents, dict(plan.alphabets), array, model_tag)


def evolve(
    spec: ExperimentSpec,
    model: CollapseModel,
    through_time: int | None = None,
) -> JointDistribution:
    """Exact joint distribution of the outcomes observed by ``through_time``.

    It reads every factor, so its cone is the whole truncated circuit.  A
    measurement that cone settles (see :attr:`_Cone._settled`) is evolved as
    a collapse whatever ``model`` says: no later step acts on its memory, so
    the collapse gives the joint that the coherent readout gives, while
    every later step runs on rows without that memory's outcome axis.  The
    joint keeps the caller's model tag.  Only the branch cut tells the two
    apart: a settled outcome of conditional probability ≤ ``BRANCH_CUT`` is
    dropped at its step, as under any collapse, where a coherent readout
    keeps cells above ``SUPPORT_EPS``.
    """
    reads = frozenset(spec.registry_after(through_time).labels)
    settled = spec._cone(reads, through_time)._settled
    evolved = model
    if model.agents is not None and not settled <= model.agents:
        evolved = CollapseModel(model.agents | settled)
    ens, cone = _evolved_branches(spec, evolved, reads, through_time)
    return _joint(ens, cone, model.tag)


def evolved_density(
    spec: ExperimentSpec,
    model: CollapseModel,
    through_time: int | None = None,
) -> DensityMatrix:
    """Density matrix of the evolved (possibly branch-mixed) experiment.

    This is :func:`memory_state` with nothing discarded: it reads every
    factor, so its cone is the whole truncated circuit and its cost is
    O(B·d·d_keep) with d_keep = d for B branches.  Shape and unit trace are
    checked; the Hermitian and positive semidefinite guarantees come from
    the answer being a Gram product, whose rounding bound
    :meth:`DensityMatrix._gram` checks in O(d), falling back to the full
    checks if it fails.
    """
    registry = spec.registry_after(through_time)
    ens, _ = _evolved_branches(spec, model, frozenset(registry.labels), through_time)
    return _reduced_density(ens, registry)


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
    ens, cone = _pair_branches(spec, model, target, given)
    return conditional(_joint(ens, cone, model.tag), target, given)


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
    ens, cone = _pair_branches(spec, model, target, given)
    conditioned = _condition_branches(ens, spec, {given: given_outcome})
    return marginal(_joint(conditioned, cone, model.tag), target)


def _reduced_density(ens: _Ensemble, sub_registry: SubsystemRegistry) -> DensityMatrix:
    """Σ_b Ψ_b Ψ_b† over the kept factors, in registry order.

    ``sub_registry`` is the plan chain's registry restricted to the kept
    factors.  Ψ_b is row b with its kept quantum axes moved first, in
    registry order, and reshaped to (kept, discarded), so the discarded
    factors are contracted away and no d×d matrix is ever formed; a row
    carries its weight, so nothing is scaled.  With no kept record the whole
    ensemble is one contraction, and its Gram product is the answer.  A kept
    record factor has length 1: row b then fills only the block of its
    recorded outcomes.  The answer is then allocated once, in registry
    order, and each block is one matmul over the rows that share its
    records, written through a view of the answer with the kept records'
    axes fixed at those records.  Discarded records cost nothing.  Either
    way the answer is a Gram product, and :meth:`DensityMatrix._gram` bounds
    its rounding by the longest block's contraction length.  Beyond the
    ensemble and at most one reordered copy of it, the only d_keep×d_keep
    array is the answer: temporaries that size would make the allocator trim
    the heap and fault it back in on every call.
    """
    layout = ens.layout
    held = [label for label in sub_registry.labels if ens.is_record(label)]
    quantum = [label for label in sub_registry.labels if label not in held]
    axes = [layout.axis(label) + 1 for label in quantum]
    other = [a for a in range(1, ens.amps.ndim) if a not in axes]
    rows = len(ens.amps)
    psi = ens.amps.transpose(axes + [0] + other)
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

    Only the backward cone of the kept factors and the given agents'
    memories is evolved (see :meth:`ExperimentSpec._cone`): a step outside
    it is a channel on discarded factors, which commutes with the
    projections on the given memories, so neither the reduced state nor its
    norm changes, though a pruned step may move its last bits.  The cone
    keeps the full initial registry.  The reduced state is built from the
    cone's branch ensemble directly, in O(B·d·d_keep) time for B branches
    over the cone's total dimension d.  Beyond the ensemble it holds one
    reordered copy of it, the d_keep×d_keep result and block scratch (see
    :func:`_reduced_density`), so the cost scales with the kept factors.
    Shape and unit trace are checked; the Hermitian and positive
    semidefinite guarantees come from the answer being a Gram product,
    whose rounding bound :meth:`DensityMatrix._gram` checks in O(d_keep)
    from the longest contraction, B times the discarded dimension at most,
    falling back to the full checks if it fails.
    """
    registry = spec.registry_after()
    discard = set(discard)
    unknown = discard - set(registry.labels)
    if unknown:
        raise KeyError(f"unknown subsystem labels {sorted(unknown)}")
    keep = [l for l in registry.labels if l not in discard]
    if not keep:
        raise ValueError("discard names every subsystem; nothing is left to keep")
    given = given or {}
    # An unknown given agent is named by the conditioning, after the model check.
    memories = (spec._measuring[a].iso.memory_label for a in given if a in spec._measuring)
    ens, _ = _evolved_branches(spec, model, frozenset(keep).union(memories))
    if given:
        ens = _condition_branches(ens, spec, given)
    return _reduced_density(ens, registry.restricted(keep))


def post_select(
    joint: JointDistribution, condition: Mapping[str, str]
) -> JointDistribution:
    """Condition a joint distribution on a partial assignment (halting round)."""
    cells = joint._cells(condition)
    kept = joint.array[cells]
    total = float(kept.sum())
    if total <= CONDITION_EPS:
        raise ZeroProbabilityError(
            f"post-selection on {dict(condition)} has zero probability"
        )
    array = np.zeros_like(joint.array)
    array[cells] = kept / total
    return JointDistribution(joint.agents, joint.alphabets, array, joint.model_tag)
