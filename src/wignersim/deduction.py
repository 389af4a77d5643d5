"""Certainty deductions across agents and machine-checkable contradictions.

The only inference the consistency scenarios need is the delta-function kind:
"given my outcome g, the other agent's outcome is t with probability 1".
Rules of that shape are read off conditional tables, chained across agents,
and turned into deduced plot events; compatibility checking then compares the
deduced events against what the deduced-about agents actually observed.

A certainty scenario is data: the conditional tables each reasoner consults,
each under its collapse set, the record the chain starts from, and the slot
name of each measuring agent's outcome.  The event schema follows from the
spec (time ``t<i>`` for the i-th measuring agent), and one path builds every
agent's plot and checks every pair; Deutsch's reported bits x and y are a
small explicit extension of it.  Every link records the collapse model that
produced it, so when a clash is found the report can say exactly which
modeling assumption manufactured the offending prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import tolerances as tol
from .channels import NO_COLLAPSE, CollapseModel
from .experiment import (
    ConditionalTable,
    ExperimentSpec,
    conditional_table,
    conditional_via_renormalized_state,
    evolve,
    marginal,
)
from .presets import _check_wigner_basis, _shared
from .storyplot import (
    CompatibilityVerdict,
    Deduced,
    EventSetSchema,
    Plot,
    Slot,
    Value,
    _claims,
    check_compatibility,
    make_event,
    plot_from_distribution,
    plot_to_json,
)


class ChainCycleError(ValueError):
    """A certainty chain revisited an agent instead of terminating."""

    def __init__(self, message: str, partial: "DeductionChain"):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class DeductionRule:
    """reasoner, seeing ``given_outcome``, concludes ``target = outcome``."""

    reasoner: str
    given_outcome: str
    target: str
    outcome: str
    model_tag: str
    certainty: float

    def __post_init__(self) -> None:
        if not self.certainty >= 1.0 - tol.CERTAINTY_SLACK:
            raise ValueError(
                f"certainty {self.certainty!r} below the "
                f"1 - {tol._spelled(tol.CERTAINTY_SLACK)} threshold"
            )

    def render(self) -> str:
        return (
            f"{self.reasoner}:{self.given_outcome} => "
            f"{self.target}={self.outcome}  [{self.model_tag}]"
        )


@dataclass(frozen=True)
class DeductionChain:
    """Rules linked head to tail: each conclusion feeds the next premise."""

    start: tuple[str, str]
    rules: tuple[DeductionRule, ...]

    def __post_init__(self) -> None:
        expected = self.start
        for rule in self.rules:
            if (rule.reasoner, rule.given_outcome) != expected:
                raise ValueError(
                    f"broken linkage: rule {rule.render()} does not follow "
                    f"{expected}"
                )
            expected = (rule.target, rule.outcome)

    def __len__(self) -> int:
        return len(self.rules)

    def conclusions(self) -> dict[str, str]:
        return {rule.target: rule.outcome for rule in self.rules}

    def render(self) -> str:
        if not self.rules:
            return f"{self.start[0]}:{self.start[1]} => (no certainty deductions)"
        head = f"{self.start[0]}:{self.start[1]}"
        tail = "".join(
            f" => {r.target}={r.outcome} [{r.model_tag}]" for r in self.rules
        )
        return head + tail


def certainty_deductions(table: ConditionalTable) -> list[DeductionRule]:
    """One rule per conditioning outcome whose column is a point mass."""
    rules = []
    for given_outcome in table.present_columns():
        column = table.columns[given_outcome]
        for target_outcome in table.target_alphabet:
            if column[target_outcome] >= 1.0 - tol.CERTAINTY_SLACK:
                rules.append(
                    DeductionRule(
                        reasoner=table.given,
                        given_outcome=given_outcome,
                        target=table.target,
                        outcome=target_outcome,
                        model_tag=table.model_tag,
                        certainty=column[target_outcome],
                    )
                )
                break
    return rules


def chain(rules: list[DeductionRule], start: tuple[str, str]) -> DeductionChain:
    """Follow certainty links from ``start`` until no rule applies.

    Rules are matched on (reasoner, conditioning outcome); the first match in
    list order wins.  Revisiting an agent raises :class:`ChainCycleError`
    rather than silently truncating.
    """
    visited = {start[0]}
    current = start
    collected: list[DeductionRule] = []
    while True:
        match = next(
            (
                r
                for r in rules
                if (r.reasoner, r.given_outcome) == current
            ),
            None,
        )
        if match is None:
            return DeductionChain(start, tuple(collected))
        collected.append(match)
        if match.target in visited:
            partial = DeductionChain(start, tuple(collected))
            raise ChainCycleError(
                f"deduction chain cycles back to {match.target!r}: "
                f"{partial.render()}",
                partial,
            )
        visited.add(match.target)
        current = (match.target, match.outcome)


def _chain_to_json(the_chain: DeductionChain) -> list[dict]:
    return [
        {
            "reasoner": r.reasoner,
            "given": r.given_outcome,
            "target": r.target,
            "outcome": r.outcome,
            "model": r.model_tag,
            "certainty": r.certainty,
        }
        for r in the_chain.rules
    ]


@dataclass(frozen=True)
class ContradictionReport:
    """A compatibility clash, with the chain and model that produced it."""

    scenario: str
    post_selection: tuple[tuple[str, str], ...]
    clash_time: str
    clash_slot: str
    deduced_value: str
    observed_value: str
    deduced_by: str
    observed_by: str
    offending_model: str
    chain: DeductionChain
    deduced_event: str
    observed_event: str

    def to_text(self) -> str:
        lines = [f"scenario: {self.scenario}"]
        if self.post_selection:
            lines.append(
                "post-selection: "
                + ", ".join(f"{a}={o}" for a, o in self.post_selection)
            )
        lines.append(f"chain: {self.chain.render()}")
        lines.append(
            f"clash !! ({self.clash_time}, {self.clash_slot}): "
            f"deduced {self.clash_slot}={self.deduced_value} by {self.deduced_by} "
            f"[{self.offending_model}] vs observed {self.observed_value} "
            f"by {self.observed_by}"
        )
        lines.append(f"  {self.deduced_by} event: {self.deduced_event}")
        lines.append(f"  {self.observed_by} event: {self.observed_event}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "consistent": False,
            "post_selection": [
                {"agent": a, "outcome": o} for a, o in self.post_selection
            ],
            "constraint": {
                "left": f"s^{self.deduced_by}",
                "right": f"s^{self.observed_by}",
            },
            "clash": {
                "time": self.clash_time,
                "slot": self.clash_slot,
                "deduced": self.deduced_value,
                "observed": self.observed_value,
                "deduced_by": self.deduced_by,
                "observed_by": self.observed_by,
                "model": self.offending_model,
            },
            "chain": _chain_to_json(self.chain),
        }


@dataclass(frozen=True)
class ScenarioOutcome:
    """Everything a scenario run produced, for inspection and printing."""

    scenario: str
    plots: dict[str, Plot]
    chain: DeductionChain
    rules: tuple[DeductionRule, ...]
    verdicts: tuple[tuple[str, str, CompatibilityVerdict], ...]
    report: ContradictionReport | None

    @property
    def consistent(self) -> bool:
        return self.report is None

    def to_json(self) -> dict:
        if self.report is not None:
            raw = self.report.to_json()
        else:
            raw = {
                "scenario": self.scenario,
                "consistent": True,
                "chain": _chain_to_json(self.chain),
            }
        raw["plots"] = {name: plot_to_json(plot) for name, plot in self.plots.items()}
        return raw


def _schema(
    spec: ExperimentSpec, slots: Mapping[str, str], bits: tuple[str, ...] = ()
) -> EventSetSchema:
    """Time ``t<i>`` and slot ``slots[agent]`` for the i-th measuring agent.

    A slot's alphabet is its agent's outcome labels; each name in ``bits``
    adds a slot for a reported bit, with alphabet ("0", "1").
    """
    agents = spec.measuring_agents
    times = tuple(f"t{i}" for i in range(1, len(agents) + 1))
    return EventSetSchema(
        times=times,
        slots=tuple(Slot(slots[a], spec.step_for(a).iso.outcome_labels) for a in agents)
        + tuple(Slot(bit, ("0", "1")) for bit in bits),
        agent_slots=tuple((a, (t, slots[a])) for a, t in zip(agents, times)),
    )


def _report_from_verdicts(
    scenario: str,
    schema: EventSetSchema,
    plots: Mapping[str, Plot],
    verdicts,
    the_chain: DeductionChain,
    rules,
    post_selection: tuple[tuple[str, str], ...],
) -> ContradictionReport | None:
    for left, right, verdict in verdicts:
        if verdict.consistent:
            continue
        violation = verdict.violations[0]
        cell = (violation.time, violation.slot)
        # Orient the clash: the side whose entry is a deduction produced the
        # offending prediction.  Each side's first claim in value order is
        # the one the violation lists first.
        deduced_side, observed_side = left, right
        deduced, observed = _claims(plots[left], *cell), _claims(plots[right], *cell)
        if not any(isinstance(e, Deduced) for e in deduced.values()):
            deduced_side, observed_side = right, left
            deduced, observed = observed, deduced
        deduced_entry = deduced[min(deduced)]
        observed_entry = observed[min(observed)]
        deduced_value, observed_value = deduced_entry.v, observed_entry.v

        def rule_targets_clash(rule: DeductionRule) -> bool:
            if rule.outcome != deduced_value:
                return False
            if rule.target == violation.slot:
                return True
            try:
                return schema.agent_cell(rule.target) == cell
            except KeyError:
                return False

        offending = next(
            (r.model_tag for r in rules if rule_targets_clash(r)),
            the_chain.rules[-1].model_tag if the_chain.rules else "n/a",
        )

        def event_render(plot: Plot, claim) -> str:
            return next(
                event.render(plot.schema)
                for event in plot.at_time(violation.time)
                if event.entry(plot.schema, violation.slot) == claim
            )

        return ContradictionReport(
            scenario=scenario,
            post_selection=post_selection,
            clash_time=violation.time,
            clash_slot=violation.slot,
            deduced_value=deduced_value,
            observed_value=observed_value,
            deduced_by=deduced_side,
            observed_by=observed_side,
            offending_model=offending,
            chain=the_chain,
            deduced_event=event_render(plots[deduced_side], deduced_entry),
            observed_event=event_render(plots[observed_side], observed_entry),
        )
    return None


def _outcome(
    scenario: str,
    schema: EventSetSchema,
    plots: dict[str, Plot],
    the_chain: DeductionChain,
    rules: tuple[DeductionRule, ...],
    post_selection: tuple[tuple[str, str], ...],
) -> ScenarioOutcome:
    """Check every pair of plots on all slots and report the first clash."""
    names = list(plots)
    verdicts = tuple(
        (left, right, check_compatibility(plots[left], plots[right], schema.slot_names))
        for i, left in enumerate(names)
        for right in names[i + 1:]
    )
    report = _report_from_verdicts(
        scenario, schema, plots, verdicts, the_chain, rules, post_selection
    )
    return ScenarioOutcome(scenario, plots, the_chain, rules, verdicts, report)


def _certainty_scenario(
    scenario: str,
    spec: ExperimentSpec,
    schema: EventSetSchema,
    tables: tuple[tuple[str, str, CollapseModel], ...],
    start: tuple[str, str],
    post_selection: tuple[tuple[str, str], ...],
) -> ScenarioOutcome:
    """One plot per measuring agent from consulted tables and a start record.

    Each ``(target, given, model)`` table gives the ``given`` agent's
    certainty rules under that collapse set.  With post-selection the rules
    are chained from ``start``; a rule about the start agent is left out of
    the chain, since that record is given, not deduced.  Each agent's plot
    then holds its record (post-selected, else concluded by the chain), the
    conclusion of every rule it fires on that record, and the post-selected
    records of the agents that measured before it.  Without post-selection
    nothing is chained and each plot lists its agent's possible outcomes.
    """
    rules = tuple(
        rule
        for target, given, model in tables
        for rule in certainty_deductions(conditional_table(spec, model, target, given))
    )
    joint = evolve(spec, NO_COLLAPSE)
    agents = spec.measuring_agents
    if not post_selection:
        plots = {
            agent: plot_from_distribution(schema, joint, {}, alternatives=(agent,))
            for agent in agents
        }
        return _outcome(scenario, schema, plots, DeductionChain(start, ()), rules, ())

    the_chain = chain([r for r in rules if r.target != start[0]], start)
    records = {**the_chain.conclusions(), **dict(post_selection)}
    plots = {}
    for i, agent in enumerate(agents):
        own = {agent: records[agent]} if agent in records else {}
        known = [
            (r.target, r.outcome)
            for r in rules
            if r.reasoner == agent and r.given_outcome == records.get(agent)
        ] + [(a, o) for a, o in post_selection if a in agents[:i]]
        deductions = [(*schema.agent_cell(a), o) for a, o in known]
        plots[agent] = plot_from_distribution(schema, joint, own, deductions)
    return _outcome(scenario, schema, plots, the_chain, rules, post_selection)


def build_fr_scenario(
    model_for_f1: CollapseModel | None = None,
    post_select: bool = True,
) -> ScenarioOutcome:
    """Assemble the four nested-lab plots and check them against each other.

    The assistant's and F2's certainty rules always come from the
    no-collapse tables; ``model_for_f1`` (default: F1 applies the update rule
    to his own measurement) controls how F1 predicts Wigner's result.  With
    post-selection on the halting round {A: o, W: O} the chain from A's
    record fixes every agent's outcome, and W learns A's result; without it
    the plots carry OR-alternatives and nothing clashes.
    """
    if model_for_f1 is None:
        model_for_f1 = CollapseModel.subjective("F1")
    spec = _shared("fr")
    tables = (
        ("F2", "A", NO_COLLAPSE),
        ("F1", "F2", NO_COLLAPSE),
        ("W", "F1", model_for_f1),
    )
    schema = _schema(spec, {"F1": "r", "F2": "z", "A": "a", "W": "w"})
    return _certainty_scenario(
        "fr", spec, schema, tables, spec.halting[0],
        spec.halting if post_select else (),
    )


def build_deutsch_scenario(
    friend_assumes_collapse: bool = True,
    wigner_basis: str = "superposition",
    friend_outcome: str = "u",
) -> ScenarioOutcome:
    """One friend, one Wigner, and the two reported bits of Deutsch's variant.

    The friend reports x=0 (a definite outcome was observed; this is fixed
    under every model here) and answers the question "can Wigner's phi-
    outcome occur" with the bit y, read off P(W | own record) under the
    friend's collapse set.  Applying the update rule to his own measurement
    he finds probability 1/2 for phi- and answers y=1; treating his
    measurement as an isometry, as Wigner does, gives probability 0 and
    answer y=0.  Both answers are definite consequences of the respective
    model, so the y slot must satisfy the biconditional and the reports can
    be compared directly.
    """
    _check_wigner_basis(wigner_basis)
    spec = _shared("deutsch" if wigner_basis == "superposition" else "wigner-product")
    if friend_outcome not in spec.step_for("F").iso.outcome_labels:
        raise KeyError(f"{friend_outcome!r} is not an outcome of 'F'")
    schema = _schema(spec, {"F": "z", "W": "w"}, bits=("x", "y"))
    if wigner_basis == "product":
        # No coherence probe, no y question: both directions are certainty
        # deductions of actual records and the accounts agree.
        tables = (("W", "F", NO_COLLAPSE), ("F", "W", NO_COLLAPSE))
        record = ("F", friend_outcome)
        return _certainty_scenario("deutsch", spec, schema, tables, record, (record,))

    friend_model = (
        CollapseModel.subjective("F") if friend_assumes_collapse else NO_COLLAPSE
    )
    p_friend = conditional_via_renormalized_state(
        spec, friend_model, "W", "F", friend_outcome
    )
    p_wigner = marginal(evolve(spec, NO_COLLAPSE), "W")
    friend_answer, wigner_answer = (
        "1" if p["phi-"] > tol.POSSIBILITY else "0" for p in (p_friend, p_wigner)
    )
    wigner_record = max(p_wigner, key=p_wigner.get)  # phi+ with certainty
    friend_rule = DeductionRule(
        "F", friend_outcome, "y", friend_answer, friend_model.tag, 1.0
    )
    plots = {
        "F": Plot(
            schema,
            (
                make_event(schema, "t1", {"x": Value("0")}),
                make_event(schema, "t2", {"y": Deduced(friend_answer)}),
            ),
        ),
        "W": Plot(
            schema,
            (
                make_event(schema, "t1", {"x": Deduced("0")}),
                make_event(
                    schema,
                    "t2",
                    {"w": Value(wigner_record), "y": Value(wigner_answer)},
                ),
            ),
        ),
    }
    the_chain = DeductionChain(("F", friend_outcome), (friend_rule,))
    return _outcome("deutsch", schema, plots, the_chain, (friend_rule,), ())
