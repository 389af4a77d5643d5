from dataclasses import fields

import pytest

from wignersim.channels import NO_COLLAPSE
from wignersim.experiment import evolve
from wignersim.presets import frauchiger_renner, wigner_friend
from wignersim.states import ZeroProbabilityError
from wignersim.storyplot import (
    CompatibilityVerdict,
    Deduced,
    EventSetSchema,
    Plot,
    Slot,
    Value,
    Violation,
    check_compatibility,
    make_event,
    plot_from_distribution,
)


def two_slot_schema():
    return EventSetSchema(
        times=("t1", "t2"),
        slots=(Slot("z", ("0", "1")), Slot("w", ("0", "1"))),
    )


def fr_schema():
    """Four observers, four slots: r (F1), z (F2), a (A), w (W)."""
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


def test_event_entry_on_an_unknown_slot_names_it():
    schema = two_slot_schema()
    event = make_event(schema, "t1", {"z": Value("0")})
    assert event.entry(schema, "z") == Value("0")
    with pytest.raises(KeyError, match="unknown slot 'zz'"):
        event.entry(schema, "zz")


def test_a_verdict_is_consistent_exactly_when_it_has_no_violations():
    assert [f.name for f in fields(CompatibilityVerdict)] == ["violations"]
    assert CompatibilityVerdict().consistent
    clash = Violation(time="t2", slot="y", left=("y=1",), right=("0",))
    assert not CompatibilityVerdict((clash,)).consistent


class TestCheckCompatibility:
    def test_disagreeing_answers_clash(self):
        schema = EventSetSchema(
            times=("t1", "t2"), slots=(Slot("x", ("0", "1")), Slot("y", ("0", "1")))
        )
        friend = Plot(schema, (make_event(schema, "t2", {"y": Deduced("1")}),))
        wigner = Plot(schema, (make_event(schema, "t2", {"y": Value("0")}),))
        verdict = check_compatibility(friend, wigner, ("x", "y"))
        assert not verdict.consistent
        assert len(verdict.violations) == 1
        v = verdict.violations[0]
        assert (v.time, v.slot) == ("t2", "y")
        assert v.left == ("y=1",)
        assert v.right == ("0",)

    def test_identical_plots_consistent(self):
        schema = two_slot_schema()
        plot = Plot(
            schema,
            (
                make_event(schema, "t1", {"z": Value("0")}),
                make_event(schema, "t2", {"w": Deduced("1")}),
            ),
        )
        verdict = check_compatibility(plot, plot, schema.slot_names)
        assert verdict.consistent

    def test_deduced_outcome_against_observed_outcome(self):
        schema = fr_schema()
        f1 = Plot(
            schema,
            (
                make_event(schema, "t1", {"r": Value("T")}),
                make_event(schema, "t4", {"w": Deduced("F")}),
            ),
        )
        w = Plot(
            schema,
            (
                make_event(schema, "t4", {"w": Value("O")}),
                make_event(schema, "t3", {"a": Deduced("o")}),
            ),
        )
        verdict = check_compatibility(f1, w, schema.slot_names)
        assert not verdict.consistent
        v = verdict.violations[0]
        assert (v.time, v.slot, v.left, v.right) == ("t4", "w", ("w=F",), ("O",))

    def test_symmetry(self):
        schema = two_slot_schema()
        a = Plot(
            schema,
            (
                make_event(schema, "t1", {"z": Value("0")}),
                make_event(schema, "t2", {"w": Value("1")}),
            ),
        )
        b = Plot(
            schema,
            (
                make_event(schema, "t1", {"z": Value("1")}),
                make_event(schema, "t2", {"w": Value("1")}),
            ),
        )
        ab = check_compatibility(a, b, schema.slot_names)
        ba = check_compatibility(b, a, schema.slot_names)
        assert {(v.time, v.slot) for v in ab.violations} == {
            (v.time, v.slot) for v in ba.violations
        }
        assert [(v.left, v.right) for v in ab.violations] == [
            (v.right, v.left) for v in ba.violations
        ]

    def test_matching_value_sets_with_or_alternatives(self):
        schema = two_slot_schema()
        a = Plot(
            schema,
            (
                make_event(schema, "t1", {"z": Value("0")}),
                make_event(schema, "t1", {"z": Value("1")}),
            ),
        )
        b = Plot(
            schema,
            (
                make_event(schema, "t1", {"z": Value("1")}),
                make_event(schema, "t1", {"z": Value("0")}),
            ),
        )
        verdict = check_compatibility(a, b, ("z",))
        assert verdict.consistent

    def test_silence_on_one_side_is_not_a_violation(self):
        schema = two_slot_schema()
        a = Plot(schema, (make_event(schema, "t1", {"z": Value("0")}),))
        b = Plot(schema, ())
        verdict = check_compatibility(a, b, schema.slot_names)
        assert verdict.consistent

    def test_alphabet_mismatch(self):
        s1 = EventSetSchema(times=("t1",), slots=(Slot("z", ("0", "1")),))
        s2 = EventSetSchema(times=("t1",), slots=(Slot("z", ("a", "b")),))
        with pytest.raises(ValueError):
            check_compatibility(Plot(s1, ()), Plot(s2, ()), ("z",))

    def test_no_shared_slot_rejected(self):
        schema = two_slot_schema()
        with pytest.raises(ValueError, match="at least one shared slot"):
            check_compatibility(Plot(schema, ()), Plot(schema, ()), ())


class TestPlotFromDistribution:
    def wf_schema(self):
        return EventSetSchema(
            times=("t1", "t2"),
            slots=(Slot("z", ("u", "d")), Slot("w", ("U", "D", "perp2", "perp3"))),
            agent_slots=(("F", ("t1", "z")), ("W", ("t2", "w"))),
        )

    def test_single_observation(self):
        joint = evolve(wigner_friend("product"), NO_COLLAPSE)
        plot = plot_from_distribution(self.wf_schema(), joint, {"F": "u"})
        assert len(plot.events) == 1
        assert plot.events[0].render(plot.schema) == "(t1, u, ⋆)"

    def test_wigner_observation(self):
        joint = evolve(wigner_friend("product"), NO_COLLAPSE)
        plot = plot_from_distribution(self.wf_schema(), joint, {"W": "U"})
        assert plot.events[0].render(plot.schema) == "(t2, ⋆, U)"

    def test_observation_with_deduction(self):
        schema = fr_schema()
        joint = evolve(frauchiger_renner(), NO_COLLAPSE)
        plot = plot_from_distribution(
            schema, joint, {"F1": "T"}, deductions=[("t4", "w", "F")]
        )
        rendered = {e.render(schema) for e in plot.events}
        assert rendered == {
            "(t1, T, ⋆, ⋆, ⋆)",
            "(t4, ⋆, ⋆, ⋆, w=F)",
        }

    def test_impossible_observation_rejected(self):
        joint = evolve(wigner_friend("product"), NO_COLLAPSE)
        with pytest.raises(ZeroProbabilityError):
            plot_from_distribution(
                self.wf_schema(), joint, {"F": "u", "W": "D"}
            )

    def test_degenerate_alternative_becomes_deduction(self):
        joint = evolve(wigner_friend("product"), NO_COLLAPSE)
        plot = plot_from_distribution(
            self.wf_schema(), joint, {"F": "u"}, alternatives=("W",)
        )
        w_events = plot.at_time("t2")
        assert len(w_events) == 1
        assert w_events[0].entry(plot.schema, "w") == Deduced("U")

    def test_nondegenerate_alternatives_fan_out(self):
        joint = evolve(wigner_friend("product"), NO_COLLAPSE)
        plot = plot_from_distribution(
            self.wf_schema(), joint, {}, alternatives=("F",)
        )
        values = {e.entry(plot.schema, "z") for e in plot.at_time("t1")}
        assert values == {Value("u"), Value("d")}


def test_event_rendering_conventions():
    schema = two_slot_schema()
    event = make_event(schema, "t1", {"z": Value("0"), "w": Deduced("1")})
    assert event.render(schema) == "(t1, 0, w=1)"
