import pytest

from wignersim.channels import NO_COLLAPSE
from wignersim.experiment import evolve
from wignersim.presets import frauchiger_renner, wigner_friend
from wignersim.states import ZeroProbabilityError
from wignersim.storyplot import (
    WILDCARD,
    CompatibilityConstraint,
    Deduced,
    EventSetSchema,
    Plot,
    RelationGroup,
    Slot,
    Story,
    Value,
    check_compatibility,
    make_event,
    plot_from_distribution,
    project,
    validate_relations,
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


class TestProject:
    def test_direct_restriction(self):
        schema = two_slot_schema()
        plot = Plot(
            schema,
            (make_event(schema, "t1", {"z": Value("0"), "w": WILDCARD}),),
        )
        projected = project(plot, {"z"})
        assert projected.schema.slot_names == ("z",)
        assert projected.events[0].entries == (Value("0"),)

    def test_shared_slot_projection_keeps_deduction(self):
        # The friend's three-event account projected onto the record slot
        # leaves only the friend's own observation.
        schema = EventSetSchema(
            times=("t0", "t1", "t2"),
            slots=(Slot("e", ("src",)), Slot("z", ("u", "d")), Slot("w", ("0", "1"))),
        )
        plot = Plot(
            schema,
            (
                make_event(schema, "t0", {"e": Value("src")}),
                make_event(schema, "t1", {"z": Value("u")}),
                make_event(schema, "t2", {"w": Deduced("0")}),
            ),
        )
        projected = project(plot, {"z"})
        claims = [
            e for e in projected.events if not e.entries == (WILDCARD,)
        ]
        assert len(claims) == 1
        assert claims[0].time == "t1"
        assert claims[0].entries == (Value("u"),)

    def test_projection_onto_all_slots_is_identity(self):
        schema = two_slot_schema()
        plot = Plot(
            schema,
            (
                make_event(schema, "t1", {"z": Value("0")}),
                make_event(schema, "t2", {"w": Deduced("1")}),
            ),
        )
        assert project(plot, schema.slot_names) == plot

    def test_idempotent(self):
        schema = two_slot_schema()
        plot = Plot(
            schema,
            (
                make_event(schema, "t1", {"z": Value("0"), "w": Value("1")}),
                make_event(schema, "t2", {"z": Value("1")}),
            ),
        )
        once = project(plot, {"z"})
        twice = project(once, {"z"})
        assert once == twice

    def test_unknown_slot(self):
        schema = two_slot_schema()
        with pytest.raises(KeyError):
            project(Plot(schema, ()), {"nope"})


def test_event_entry_on_an_unknown_slot_names_it():
    schema = two_slot_schema()
    event = make_event(schema, "t1", {"z": Value("0")})
    assert event.entry(schema, "z") == Value("0")
    with pytest.raises(KeyError, match="unknown slot 'zz'"):
        event.entry(schema, "zz")


class TestCheckCompatibility:
    def test_disagreeing_answers_clash(self):
        schema = EventSetSchema(
            times=("t1", "t2"), slots=(Slot("x", ("0", "1")), Slot("y", ("0", "1")))
        )
        friend = Plot(schema, (make_event(schema, "t2", {"y": Deduced("1")}),))
        wigner = Plot(schema, (make_event(schema, "t2", {"y": Value("0")}),))
        verdict = check_compatibility(
            CompatibilityConstraint("s^F", "s^W", ("x", "y")), friend, wigner
        )
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
        verdict = check_compatibility(
            CompatibilityConstraint("a", "b", schema.slot_names), plot, plot
        )
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
        verdict = check_compatibility(
            CompatibilityConstraint("s^F1", "s^W", schema.slot_names), f1, w
        )
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
        c = CompatibilityConstraint("a", "b", schema.slot_names)
        ab = check_compatibility(c, a, b)
        ba = check_compatibility(c, b, a)
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
        verdict = check_compatibility(
            CompatibilityConstraint("a", "b", ("z",)), a, b
        )
        assert verdict.consistent

    def test_silence_on_one_side_is_not_a_violation(self):
        schema = two_slot_schema()
        a = Plot(schema, (make_event(schema, "t1", {"z": Value("0")}),))
        b = Plot(schema, ())
        verdict = check_compatibility(
            CompatibilityConstraint("a", "b", schema.slot_names), a, b
        )
        assert verdict.consistent

    def test_alphabet_mismatch(self):
        s1 = EventSetSchema(times=("t1",), slots=(Slot("z", ("0", "1")),))
        s2 = EventSetSchema(times=("t1",), slots=(Slot("z", ("a", "b")),))
        with pytest.raises(ValueError):
            check_compatibility(
                CompatibilityConstraint("a", "b", ("z",)),
                Plot(s1, ()),
                Plot(s2, ()),
            )


class TestValidateRelations:
    def schema(self):
        return EventSetSchema(
            times=("t",),
            slots=(Slot("alice", ("0", "1")), Slot("bob", ("0", "1"))),
        )

    def test_and_same_measurement_different_values_rejected(self):
        schema = self.schema()
        e0 = make_event(schema, "t", {"alice": Value("0")})
        e1 = make_event(schema, "t", {"alice": Value("1")})
        story = Story(
            Plot(schema, (e0, e1)), (RelationGroup("and", (e0, e1)),)
        )
        verdict = validate_relations(
            story, {("t", "alice"): "M_alice", ("t", "bob"): "M_bob"}
        )
        assert not verdict.accepted
        assert "M_alice" in verdict.rejections[0]

    def test_and_across_distinct_measurements_accepted(self):
        schema = self.schema()
        e0 = make_event(schema, "t", {"alice": Value("0")})
        e1 = make_event(schema, "t", {"bob": Value("1")})
        story = Story(Plot(schema, (e0, e1)), (RelationGroup("and", (e0, e1)),))
        verdict = validate_relations(
            story, {("t", "alice"): "M_alice", ("t", "bob"): "M_bob"}
        )
        assert verdict.accepted

    def test_or_same_measurement_accepted(self):
        schema = self.schema()
        e0 = make_event(schema, "t", {"alice": Value("0")})
        e1 = make_event(schema, "t", {"alice": Value("1")})
        story = Story(Plot(schema, (e0, e1)), (RelationGroup("or", (e0, e1)),))
        verdict = validate_relations(
            story, {("t", "alice"): "M_alice", ("t", "bob"): "M_bob"}
        )
        assert verdict.accepted

    def test_unmapped_slot_raises(self):
        schema = self.schema()
        e0 = make_event(schema, "t", {"alice": Value("0")})
        e1 = make_event(schema, "t", {"alice": Value("1")})
        story = Story(Plot(schema, (e0, e1)), (RelationGroup("and", (e0, e1)),))
        with pytest.raises(KeyError):
            validate_relations(story, {("t", "bob"): "M_bob"})

    def test_story_requires_complete_annotation(self):
        schema = self.schema()
        e0 = make_event(schema, "t", {"alice": Value("0")})
        e1 = make_event(schema, "t", {"alice": Value("1")})
        with pytest.raises(ValueError):
            Story(Plot(schema, (e0, e1)), ())


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
