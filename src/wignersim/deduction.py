"""Certainty deductions across agents and machine-checkable contradictions.

The only inference the consistency scenarios need is the delta-function kind:
"given my outcome g, the other agent's outcome is t with probability 1".
Rules of that shape are read off conditional tables, chained across agents,
and turned into deduced plot events; compatibility checking then compares the
deduced events against what the deduced-about agents actually observed.

Both scenario builders work the same way.  Every link records the collapse
model that produced it, so when a clash is found the report can say exactly
which modeling assumption manufactured the offending prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .channels import NO_COLLAPSE, CollapseModel
from .experiment import (
    ConditionalTable,
    conditional_table,
    conditional_via_renormalized_state,
    evolve,
    marginal,
)
from .presets import deutsch_variant, frauchiger_renner, wigner_friend
from .storyplot import (
    CompatibilityConstraint,
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

CERTAINTY = 1.0 - 1e-9
# A Deutsch answer bit reads 1 when P(phi-) exceeds this: far above the
# float noise of an exact zero, far below every possible outcome's weight.
POSSIBILITY = 1e-9


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
        if self.certainty < CERTAINTY:
            raise ValueError(
                f"certainty {self.certainty!r} below the 1 - 1e-9 threshold"
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
            if column[target_outcome] >= CERTAINTY:
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
    constraint: CompatibilityConstraint
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
                "left": self.constraint.left_name,
                "right": self.constraint.right_name,
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


def fr_event_schema() -> EventSetSchema:
    """Times t1..t4, slots r (F1), z (F2), a (assistant), w (Wigner)."""
    return EventSetSchema(
        times=("t1", "t2", "t3", "t4"),
        slots=(
            Slot("r", ("H", "T")),
            Slot("z", ("U", "D")),
            Slot("a", ("o", "f", "perp2", "perp3")),
            Slot("w", ("O", "F", "perp2", "perp3")),
        ),
        agent_slots=(
            ("F1", ("t1", "r")),
            ("F2", ("t2", "z")),
            ("A", ("t3", "a")),
            ("W", ("t4", "w")),
        ),
    )


def deutsch_event_schema(wigner_basis: str = "superposition") -> EventSetSchema:
    """Times t1/t2; slots z (friend), w (Wigner), plus reported bits x and y.

    x encodes "the friend observed a definite outcome" (0 = definite) and y
    encodes the friend's answer to "can Wigner's second outcome occur".
    """
    if wigner_basis == "superposition":
        w_alphabet = ("phi+", "phi-", "perp2", "perp3")
    else:
        w_alphabet = ("U", "D", "perp2", "perp3")
    return EventSetSchema(
        times=("t1", "t2"),
        slots=(
            Slot("z", ("u", "d")),
            Slot("w", w_alphabet),
            Slot("x", ("0", "1")),
            Slot("y", ("0", "1")),
        ),
        agent_slots=(("F", ("t1", "z")), ("W", ("t2", "w"))),
    )


def _pairwise_verdicts(
    schema: EventSetSchema, plots: Mapping[str, Plot]
) -> tuple[tuple[str, str, CompatibilityVerdict], ...]:
    names = list(plots)
    out = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            constraint = CompatibilityConstraint(
                f"s^{names[i]}", f"s^{names[j]}", schema.slot_names
            )
            out.append(
                (
                    names[i],
                    names[j],
                    check_compatibility(constraint, plots[names[i]], plots[names[j]]),
                )
            )
    return tuple(out)


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
            constraint=CompatibilityConstraint(
                f"s^{deduced_side}", f"s^{observed_side}", (violation.slot,)
            ),
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


def build_fr_scenario(
    model_for_f1: CollapseModel | None = None,
    post_select: bool = True,
) -> ScenarioOutcome:
    """Assemble the four nested-lab plots and check them against each other.

    The assistant's and F2's certainty rules always come from the
    no-collapse tables; ``model_for_f1`` (default: F1 applies the update rule
    to his own measurement) controls how F1 predicts Wigner's result.  With
    post-selection on the halting round {A: o, W: O} the chain fixes every
    agent's observed outcome; without it the plots carry OR-alternatives and
    nothing clashes.
    """
    if model_for_f1 is None:
        model_for_f1 = CollapseModel.subjective("F1")
    spec = frauchiger_renner()
    schema = fr_event_schema()

    table_a = conditional_table(spec, NO_COLLAPSE, "F2", "A")
    table_f2 = conditional_table(spec, NO_COLLAPSE, "F1", "F2")
    table_f1 = conditional_table(spec, model_for_f1, "W", "F1")
    rules = tuple(
        certainty_deductions(table_a)
        + certainty_deductions(table_f2)
        + certainty_deductions(table_f1)
    )
    joint = evolve(spec, NO_COLLAPSE)

    if not post_select:
        the_chain = DeductionChain(("A", "o"), ())
        plots = {
            agent: plot_from_distribution(
                schema, joint, {}, alternatives=(agent,)
            )
            for agent in ("F1", "F2", "A", "W")
        }
        verdicts = _pairwise_verdicts(schema, plots)
        report = _report_from_verdicts(
            "fr", schema, plots, verdicts, the_chain, rules, ()
        )
        return ScenarioOutcome("fr", plots, the_chain, rules, verdicts, report)

    halting = dict(spec.halting)
    the_chain = chain(list(rules), ("A", halting["A"]))
    conclusions = the_chain.conclusions()

    observed = {
        "A": halting["A"],
        "W": halting["W"],
        "F2": conclusions.get("F2"),
        "F1": conclusions.get("F1"),
    }
    observed = {k: v for k, v in observed.items() if v is not None}

    def deductions_for(agent: str) -> list[tuple[str, str, str]]:
        out = []
        for rule in the_chain.rules:
            if rule.reasoner == agent:
                time, slot = schema.agent_cell(rule.target)
                out.append((time, slot, rule.outcome))
        return out

    plots = {}
    for agent in ("F1", "F2", "A", "W"):
        own = {agent: observed[agent]} if agent in observed else {}
        deductions = deductions_for(agent)
        if agent == "W":
            # In the halting round W learns A's result by direct comparison.
            time, slot = schema.agent_cell("A")
            deductions.append((time, slot, halting["A"]))
        plots[agent] = plot_from_distribution(schema, joint, own, deductions)

    verdicts = _pairwise_verdicts(schema, plots)
    report = _report_from_verdicts(
        "fr", schema, plots, verdicts, the_chain, rules, tuple(spec.halting)
    )
    return ScenarioOutcome("fr", plots, the_chain, rules, verdicts, report)


def run_fr_contradiction(
    model_for_f1: CollapseModel | None = None,
    post_select: bool = True,
) -> ContradictionReport | None:
    """Report of the nested-lab clash, or None when the accounts agree."""
    return build_fr_scenario(model_for_f1, post_select).report


def build_deutsch_scenario(
    friend_assumes_collapse: bool = True,
    wigner_basis: str = "superposition",
    friend_outcome: str = "u",
) -> ScenarioOutcome:
    """One friend, one Wigner, and the two reported bits of Deutsch's variant.

    The friend reports x=0 (a definite outcome was observed; this is fixed
    under every model here) and answers the question "can Wigner's phi-
    outcome occur" with the bit y.  Applying the update rule to his own
    measurement he finds probability 1/2 for phi- and answers y=1; treating
    his measurement as an isometry, as Wigner does, gives probability 0 and
    answer y=0.  Both answers are definite consequences of the respective
    model, so the y slot must satisfy the biconditional and the reports can
    be compared directly.
    """
    if wigner_basis == "superposition":
        spec = deutsch_variant()
    else:
        spec = wigner_friend(wigner_basis)
    schema = deutsch_event_schema(wigner_basis)
    joint = evolve(spec, NO_COLLAPSE)

    if wigner_basis == "product":
        # No coherence probe, no y question: both directions are certainty
        # deductions of actual records and the accounts agree.
        table_w_given_f = conditional_table(spec, NO_COLLAPSE, "W", "F")
        table_f_given_w = conditional_table(spec, NO_COLLAPSE, "F", "W")
        rules = tuple(
            certainty_deductions(table_w_given_f)
            + certainty_deductions(table_f_given_w)
        )
        the_chain = chain(
            [r for r in rules if r.reasoner == "F"], ("F", friend_outcome)
        )
        wigner_outcome = the_chain.conclusions()["W"]
        plots = {
            "F": plot_from_distribution(
                schema,
                joint,
                {"F": friend_outcome},
                deductions=[("t2", "w", wigner_outcome)],
            ),
            "W": plot_from_distribution(
                schema,
                joint,
                {"W": wigner_outcome},
                deductions=[("t1", "z", friend_outcome)],
            ),
        }
        verdicts = _pairwise_verdicts(schema, plots)
        report = _report_from_verdicts(
            "deutsch", schema, plots, verdicts, the_chain, rules,
            (("F", friend_outcome),),
        )
        return ScenarioOutcome("deutsch", plots, the_chain, rules, verdicts, report)

    collapse_model = CollapseModel.subjective("F")
    p_clps = conditional_via_renormalized_state(
        spec, collapse_model, "W", "F", friend_outcome
    )
    p_ism = marginal(joint, "W")
    if friend_assumes_collapse:
        friend_answer = "1" if p_clps["phi-"] > POSSIBILITY else "0"
        friend_tag = collapse_model.tag
    else:
        friend_answer = "1" if p_ism["phi-"] > POSSIBILITY else "0"
        friend_tag = NO_COLLAPSE.tag
    wigner_answer = "1" if p_ism["phi-"] > POSSIBILITY else "0"
    wigner_record = max(p_ism, key=lambda k: p_ism[k])  # phi+ with certainty

    friend_rule = DeductionRule(
        reasoner="F",
        given_outcome=friend_outcome,
        target="y",
        outcome=friend_answer,
        model_tag=friend_tag,
        certainty=1.0,
    )
    the_chain = DeductionChain(("F", friend_outcome), (friend_rule,))

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
    verdicts = _pairwise_verdicts(schema, plots)
    report = _report_from_verdicts(
        "deutsch", schema, plots, verdicts, the_chain, (friend_rule,), ()
    )
    return ScenarioOutcome("deutsch", plots, the_chain, (friend_rule,), verdicts, report)


def run_deutsch_contradiction(
    friend_assumes_collapse: bool = True,
    wigner_basis: str = "superposition",
) -> ContradictionReport | None:
    """Report of the reported-bit clash, or None when the accounts agree."""
    return build_deutsch_scenario(friend_assumes_collapse, wigner_basis).report
