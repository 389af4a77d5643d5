import hashlib
import json

import pytest

from wignersim.channels import NO_COLLAPSE, OBJECTIVE_COLLAPSE, CollapseModel
from wignersim.deduction import (
    ChainCycleError,
    DeductionChain,
    DeductionRule,
    _outcome,
    build_deutsch_scenario,
    build_fr_scenario,
    certainty_deductions,
    chain,
    run_deutsch_contradiction,
    run_fr_contradiction,
)
from wignersim.experiment import conditional_table
from wignersim.presets import frauchiger_renner
from wignersim.storyplot import Deduced, EventSetSchema, Plot, Slot, Value, make_event


class TestCertaintyDeductions:
    def test_assistant_rule(self):
        table = conditional_table(frauchiger_renner(), NO_COLLAPSE, "F2", "A")
        rules = certainty_deductions(table)
        assert len(rules) == 1
        rule = rules[0]
        assert (rule.reasoner, rule.given_outcome) == ("A", "o")
        assert (rule.target, rule.outcome) == ("F2", "U")
        assert rule.model_tag == "ism"

    def test_f2_rule_only_from_up_record(self):
        table = conditional_table(frauchiger_renner(), NO_COLLAPSE, "F1", "F2")
        rules = certainty_deductions(table)
        assert [(r.given_outcome, r.outcome) for r in rules] == [("U", "T")]

    def test_f1_rule_only_under_subjective_collapse(self):
        clps = conditional_table(
            frauchiger_renner(), CollapseModel.subjective("F1"), "W", "F1"
        )
        rules = certainty_deductions(clps)
        assert [(r.given_outcome, r.outcome) for r in rules] == [("T", "F")]
        assert rules[0].model_tag == "clps:F1"
        ism = conditional_table(frauchiger_renner(), NO_COLLAPSE, "W", "F1")
        assert certainty_deductions(ism) == []

    def test_rule_certainty_threshold(self):
        with pytest.raises(ValueError):
            DeductionRule("A", "o", "F2", "U", "ism", 0.9)


class TestChain:
    def fr_rules(self):
        spec = frauchiger_renner()
        rules = []
        rules += certainty_deductions(conditional_table(spec, NO_COLLAPSE, "F2", "A"))
        rules += certainty_deductions(conditional_table(spec, NO_COLLAPSE, "F1", "F2"))
        rules += certainty_deductions(
            conditional_table(spec, CollapseModel.subjective("F1"), "W", "F1")
        )
        return rules

    def test_full_chain_from_halting_outcome(self):
        got = chain(self.fr_rules(), ("A", "o"))
        assert [(r.target, r.outcome) for r in got.rules] == [
            ("F2", "U"),
            ("F1", "T"),
            ("W", "F"),
        ]
        assert got.render() == (
            "A:o => F2=U [ism] => F1=T [ism] => W=F [clps:F1]"
        )

    def test_empty_rule_list(self):
        assert len(chain([], ("A", "o"))) == 0

    def test_no_certainty_from_down_record(self):
        assert len(chain(self.fr_rules(), ("F2", "D"))) == 0

    def test_cycle_detection(self):
        loop = [
            DeductionRule("A", "x", "B", "y", "ism", 1.0),
            DeductionRule("B", "y", "A", "x", "ism", 1.0),
        ]
        with pytest.raises(ChainCycleError) as err:
            chain(loop, ("A", "x"))
        assert len(err.value.partial) == 2

    def test_linkage_validated(self):
        with pytest.raises(ValueError):
            DeductionChain(
                ("A", "o"),
                (DeductionRule("F2", "U", "F1", "T", "ism", 1.0),),
            )


class TestFrContradiction:
    def test_subjective_collapse_clash(self):
        report = run_fr_contradiction(CollapseModel.subjective("F1"))
        assert report is not None
        assert (report.clash_time, report.clash_slot) == ("t4", "w")
        assert report.deduced_value == "F"
        assert report.observed_value == "O"
        assert report.deduced_by == "F1"
        assert report.observed_by == "W"
        assert report.offending_model == "clps:F1"
        assert report.post_selection == (("A", "o"), ("W", "O"))

    def test_no_collapse_is_consistent(self):
        assert run_fr_contradiction(NO_COLLAPSE) is None

    def test_objective_collapse_is_consistent(self):
        # Oracle: in the sequential collapse tree the assistant's step
        # scrambles F1's record, so P(w | f1) is uniform and F1 has no
        # certainty rule; the chain stops before Wigner.
        outcome = build_fr_scenario(OBJECTIVE_COLLAPSE)
        assert outcome.consistent
        assert [(r.target, r.outcome) for r in outcome.chain.rules] == [
            ("F2", "U"),
            ("F1", "T"),
        ]

    def test_scenario_plots_follow_the_chain(self):
        outcome = build_fr_scenario(CollapseModel.subjective("F1"))
        schema = outcome.plots["F1"].schema
        f1_events = {e.render(schema) for e in outcome.plots["F1"].events}
        assert "(t1, T, ⋆, ⋆, ⋆)" in f1_events
        assert "(t4, ⋆, ⋆, ⋆, w=F)" in f1_events
        w_events = {e.render(schema) for e in outcome.plots["W"].events}
        assert "(t4, ⋆, ⋆, ⋆, O)" in w_events
        assert "(t3, ⋆, ⋆, a=o, ⋆)" in w_events

    def test_exactly_one_violated_pair(self):
        outcome = build_fr_scenario(CollapseModel.subjective("F1"))
        bad = [(l, r) for l, r, v in outcome.verdicts if not v.consistent]
        assert bad == [("F1", "W")]

    def test_without_post_selection_consistent_with_alternatives(self):
        outcome = build_fr_scenario(
            CollapseModel.subjective("F1"), post_select=False
        )
        assert outcome.consistent
        # Plots carry OR-alternatives over each agent's possible outcomes.
        f1_plot = outcome.plots["F1"]
        values = {
            e.entry(f1_plot.schema, "r")
            for e in f1_plot.at_time("t1")
        }
        assert values == {Value("H"), Value("T")}

    def test_report_serialization(self):
        report = run_fr_contradiction()
        raw = report.to_json()
        assert raw["clash"] == {
            "time": "t4",
            "slot": "w",
            "deduced": "F",
            "observed": "O",
            "deduced_by": "F1",
            "observed_by": "W",
            "model": "clps:F1",
        }
        text = report.to_text()
        assert "clash !!" in text and "clps:F1" in text


def test_clash_is_oriented_by_entry_kind_not_by_label_text():
    # An observed label that contains "=" must not pass for a deduction.
    schema = EventSetSchema(times=("t1",), slots=(Slot("z", ("u=1", "d")),))
    plots = {
        "F": Plot(schema, (make_event(schema, "t1", {"z": Value("u=1")}),)),
        "W": Plot(schema, (make_event(schema, "t1", {"z": Deduced("d")}),)),
    }
    report = _outcome("toy", schema, plots, DeductionChain(("W", "d"), ()), (), ()).report
    assert (report.deduced_by, report.deduced_value) == ("W", "d")
    assert (report.observed_by, report.observed_value) == ("F", "u=1")
    assert report.deduced_event == "(t1, z=d)"
    assert report.observed_event == "(t1, u=1)"


class TestDeutschContradiction:
    def test_default_run_clashes_on_y(self):
        report = run_deutsch_contradiction()
        assert report is not None
        assert (report.clash_time, report.clash_slot) == ("t2", "y")
        assert report.deduced_value == "1"
        assert report.observed_value == "0"
        assert report.offending_model == "clps:F"

    def test_friend_assuming_unitarity_is_consistent(self):
        assert run_deutsch_contradiction(friend_assumes_collapse=False) is None

    def test_product_basis_has_no_conflict(self):
        outcome = build_deutsch_scenario(wigner_basis="product")
        assert outcome.consistent
        # Record-copy basis: each side deduces the other's result exactly.
        f_plot = outcome.plots["F"]
        assert f_plot.at_time("t2")[0].entry(f_plot.schema, "w") == Deduced("U")
        w_plot = outcome.plots["W"]
        assert w_plot.at_time("t1")[0].entry(w_plot.schema, "z") == Deduced("u")

    @pytest.mark.parametrize("basis", ["superposition", "product"])
    def test_unknown_friend_outcome_raises_before_any_evolution(self, monkeypatch, basis):
        def evolved(*args, **kwargs):
            pytest.fail("the scenario evolved before checking friend_outcome")

        for name in ("evolve", "conditional_table", "conditional_via_renormalized_state"):
            monkeypatch.setattr(f"wignersim.deduction.{name}", evolved)
        with pytest.raises(KeyError) as caught:
            build_deutsch_scenario(wigner_basis=basis, friend_outcome="x")
        assert caught.value.args == ("'x' is not an outcome of 'F'",)

    def test_unknown_basis_raises_value_error(self):
        with pytest.raises(ValueError, match="wigner_basis must be one of"):
            build_deutsch_scenario(wigner_basis="nope")

    def test_definiteness_bit_agrees_under_all_runs(self):
        outcome = build_deutsch_scenario()
        x_verdicts = [
            v
            for _, _, verdict in outcome.verdicts
            for v in verdict.violations
            if v.slot == "x"
        ]
        assert x_verdicts == []


# Scenarios the CLI cannot reach: FR without post-selection and Deutsch from
# the friend's d record.  Each digest covers the JSON form (every plot entry,
# the chain, any clash), the rules and the pairwise verdicts.
LIBRARY_SCENARIO_DIGESTS = {
    ("fr", "ism"): "e9cbeb887942c627127610c023ccb3e07ffb2ca284a37b834f279d216cb69b72",
    ("fr", "objective"): "e9cbeb887942c627127610c023ccb3e07ffb2ca284a37b834f279d216cb69b72",
    ("fr", "clps:F1"): "78d0b4c98abd4ce89a33c10937df6edeed24b97f38bfd915d9f1c8d6c4ba702b",
    (True, "superposition"): "a2b036c895889bb04adb08e96a19822d0a880fc277505ef266316e2de7176d0b",
    (True, "product"): "0240c41668cfeb11a22a3b08075ce31e275494ad5b00ec2fc83d00b093a25ac0",
    (False, "superposition"): "a6a7e1b53cd49b03b937c63e21bfac0bdc59549424988c390a55d8cb84d41ff1",
    (False, "product"): "0240c41668cfeb11a22a3b08075ce31e275494ad5b00ec2fc83d00b093a25ac0",
}


def _scenario_digest(outcome) -> str:
    raw = {
        "outcome": outcome.to_json(),
        "rules": [r.render() for r in outcome.rules],
        "verdicts": [
            [left, right, [v.render() for v in verdict.violations]]
            for left, right, verdict in outcome.verdicts
        ],
    }
    return hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("key", list(LIBRARY_SCENARIO_DIGESTS), ids=str)
def test_library_scenarios_match_their_digests(key):
    first, second = key
    if first == "fr":
        model = {
            "ism": NO_COLLAPSE,
            "objective": OBJECTIVE_COLLAPSE,
            "clps:F1": CollapseModel.subjective("F1"),
        }[second]
        outcome = build_fr_scenario(model, post_select=False)
    else:
        outcome = build_deutsch_scenario(first, second, friend_outcome="d")
    assert _scenario_digest(outcome) == LIBRARY_SCENARIO_DIGESTS[key]


def test_single_consistent_model_never_contradicts():
    for model in (NO_COLLAPSE, OBJECTIVE_COLLAPSE):
        assert run_fr_contradiction(model) is None
