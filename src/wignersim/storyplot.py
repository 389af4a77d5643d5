"""Events, plots, stories, and compatibility checking between observer accounts.

An event set is a grid of time labels times a tuple of named finite-alphabet
slots.  A plot is a finite set of events; each event fixes some slots to
values, marks others as deduced equalities, and leaves the rest as wildcards.
Plots are what different observers' accounts of one experiment project down
to, and the compatibility condition demands that any two accounts of the same
run agree on every slot they both speak about.

Two same-time events in a plot can mean "both happened" or "one of these
happened"; the plot alone cannot tell.  A story carries that missing
information as an explicit AND/OR annotation, and :func:`validate_relations`
enforces the one discipline a single measurement imposes: two different
values for the same measurement's outcome can only ever be OR-related.

Rendering conventions: a deduced entry prints as ``slot=value``, an observed
entry prints as the bare value, a wildcard prints as ``⋆``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

from .experiment import (
    CONDITION_EPS,
    JointDistribution,
    OutcomeAssignment,
    marginal,
    post_select,
)

WILDCARD_GLYPH = "⋆"


@dataclass(frozen=True)
class Value:
    """An observed quantity, represented by its value."""

    v: str

    def render(self, slot: str) -> str:
        return self.v


@dataclass(frozen=True)
class Deduced:
    """A deduction, written as an equality."""

    v: str

    def render(self, slot: str) -> str:
        return f"{slot}={self.v}"


@dataclass(frozen=True)
class Wildcard:
    def render(self, slot: str) -> str:
        return WILDCARD_GLYPH


WILDCARD = Wildcard()
Entry = Union[Value, Deduced, Wildcard]


@dataclass(frozen=True)
class Slot:
    name: str
    alphabet: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.alphabet:
            raise ValueError(f"slot {self.name!r} has an empty alphabet")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError(f"slot {self.name!r} has duplicate alphabet entries")


@dataclass(frozen=True)
class EventSetSchema:
    """Ordered time labels and named slots; optionally, who observes what.

    ``agent_slots`` maps an agent label to the (time, slot) cell holding that
    agent's own measurement outcome; it is construction metadata for
    :func:`plot_from_distribution` and does not take part in serialization.
    """

    times: tuple[str, ...]
    slots: tuple[Slot, ...]
    agent_slots: tuple[tuple[str, tuple[str, str]], ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.times)) != len(self.times):
            raise ValueError("time labels must be unique")
        names = [s.name for s in self.slots]
        if len(set(names)) != len(names):
            raise ValueError("slot names must be unique")
        for agent, (time, slot) in self.agent_slots:
            if time not in self.times:
                raise ValueError(f"agent {agent!r} mapped to unknown time {time!r}")
            self.slot(slot)

    @property
    def slot_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.slots)

    def slot(self, name: str) -> Slot:
        for s in self.slots:
            if s.name == name:
                return s
        raise KeyError(f"unknown slot {name!r}")

    def time_index(self, time: str) -> int:
        try:
            return self.times.index(time)
        except ValueError:
            raise KeyError(f"unknown time label {time!r}") from None

    def agent_cell(self, agent: str) -> tuple[str, str]:
        for a, cell in self.agent_slots:
            if a == agent:
                return cell
        raise KeyError(f"schema carries no (time, slot) cell for agent {agent!r}")

    def restricted(self, keep_slots: Iterable[str]) -> "EventSetSchema":
        keep = set(keep_slots)
        unknown = keep - set(self.slot_names)
        if unknown:
            raise KeyError(f"unknown slots {sorted(unknown)}")
        slots = tuple(s for s in self.slots if s.name in keep)
        agent_slots = tuple(
            (a, cell) for a, cell in self.agent_slots if cell[1] in keep
        )
        return EventSetSchema(self.times, slots, agent_slots)


@dataclass(frozen=True)
class Event:
    """One (time, tuple) element; entries are aligned with the schema slots."""

    time: str
    entries: tuple[Entry, ...]

    def entry(self, schema: EventSetSchema, slot: str) -> Entry:
        try:
            return self.entries[schema.slot_names.index(slot)]
        except ValueError:
            raise KeyError(f"unknown slot {slot!r}") from None

    def render(self, schema: EventSetSchema) -> str:
        parts = [self.time]
        for slot, entry in zip(schema.slots, self.entries):
            parts.append(entry.render(slot.name))
        return "(" + ", ".join(parts) + ")"


def make_event(
    schema: EventSetSchema, time: str, entries: Mapping[str, Entry]
) -> Event:
    """Build an event from sparse slot entries; unnamed slots become wildcards."""
    schema.time_index(time)
    row: list[Entry] = []
    for slot in schema.slots:
        entry = entries.get(slot.name, WILDCARD)
        if isinstance(entry, (Value, Deduced)) and entry.v not in slot.alphabet:
            raise ValueError(
                f"value {entry.v!r} is outside slot {slot.name!r}'s alphabet"
            )
        row.append(entry)
    unknown = set(entries) - set(schema.slot_names)
    if unknown:
        raise KeyError(f"unknown slots {sorted(unknown)}")
    return Event(time, tuple(row))


@dataclass(frozen=True)
class Plot:
    """A finite event set over one schema, normalized to a canonical order."""

    schema: EventSetSchema
    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        for event in self.events:
            self.schema.time_index(event.time)
            if len(event.entries) != len(self.schema.slots):
                raise ValueError(
                    f"event at {event.time!r} has {len(event.entries)} entries "
                    f"for {len(self.schema.slots)} slots"
                )
            for slot, entry in zip(self.schema.slots, event.entries):
                if isinstance(entry, (Value, Deduced)) and entry.v not in slot.alphabet:
                    raise ValueError(
                        f"value {entry.v!r} is outside slot {slot.name!r}'s alphabet"
                    )
        ordered = tuple(
            sorted(
                set(self.events),
                key=lambda e: (self.schema.time_index(e.time), e.render(self.schema)),
            )
        )
        object.__setattr__(self, "events", ordered)

    def at_time(self, time: str) -> tuple[Event, ...]:
        return tuple(e for e in self.events if e.time == time)

    def render(self) -> str:
        return "{" + ", ".join(e.render(self.schema) for e in self.events) + "}"


@dataclass(frozen=True)
class RelationGroup:
    """Same-time events related by AND (all happened) or OR (alternatives)."""

    kind: str
    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("and", "or"):
            raise ValueError(f"relation kind must be 'and' or 'or', got {self.kind!r}")


@dataclass(frozen=True)
class Story:
    """A plot plus the same-time relation annotation the plot itself loses."""

    plot: Plot
    groups: tuple[RelationGroup, ...] = ()
    account: str = ""

    def __post_init__(self) -> None:
        # Every same-time event pair must be covered by exactly one group.
        for time in self.plot.schema.times:
            events = self.plot.at_time(time)
            for i in range(len(events)):
                for j in range(i + 1, len(events)):
                    covering = [
                        g
                        for g in self.groups
                        if events[i] in g.events and events[j] in g.events
                    ]
                    if len(covering) != 1:
                        raise ValueError(
                            f"same-time events at {time!r} must belong to exactly "
                            f"one relation group, found {len(covering)}"
                        )


@dataclass(frozen=True)
class CompatibilityConstraint:
    """Biconditional agreement on a shared slot subset between two accounts."""

    left_name: str
    right_name: str
    shared_slots: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.shared_slots:
            raise ValueError("a compatibility constraint needs at least one shared slot")


@dataclass(frozen=True)
class Violation:
    time: str
    slot: str
    left: tuple[str, ...]
    right: tuple[str, ...]

    def render(self) -> str:
        return (
            f"({self.time}, {self.slot}): "
            f"{'/'.join(self.left)} vs {'/'.join(self.right)}"
        )


@dataclass(frozen=True)
class CompatibilityVerdict:
    consistent: bool
    violations: tuple[Violation, ...] = ()


@dataclass(frozen=True)
class RelationVerdict:
    accepted: bool
    rejections: tuple[str, ...] = ()


def project(plot: Plot, keep_slots: Iterable[str]) -> Plot:
    """Restrict every event to the named slots; duplicate projections merge."""
    schema = plot.schema.restricted(keep_slots)
    keep = set(schema.slot_names)
    events = []
    for event in plot.events:
        entries = tuple(
            entry
            for slot, entry in zip(plot.schema.slots, event.entries)
            if slot.name in keep
        )
        events.append(Event(event.time, entries))
    return Plot(schema, tuple(events))


def _claims(plot: Plot, time: str, slot: str) -> dict[str, Entry]:
    """Non-wildcard entries a plot makes about one (time, slot) cell."""
    out: dict[str, Entry] = {}
    for event in plot.at_time(time):
        entry = event.entry(plot.schema, slot)
        if isinstance(entry, (Value, Deduced)):
            # A deduced and an observed claim of the same value coincide.
            out.setdefault(entry.v, entry)
    return out


def check_compatibility(
    constraint: CompatibilityConstraint, a: Plot, b: Plot
) -> CompatibilityVerdict:
    """Check biconditional agreement on every shared (time, slot) cell.

    For each time and shared slot, the set of values claimed by one plot
    (via any completion of its other slots) must equal the set claimed by
    the other, whenever both plots claim anything there at all.  A deduced
    entry matches an observed entry of the same value.
    """
    for slot in constraint.shared_slots:
        sa = a.schema.slot(slot)
        sb = b.schema.slot(slot)
        if sa.alphabet != sb.alphabet:
            raise ValueError(
                f"schema mismatch on shared slot {slot!r}: "
                f"{sa.alphabet} vs {sb.alphabet}"
            )
    times = [t for t in a.schema.times if t in b.schema.times]
    violations = []
    for time in times:
        for slot in constraint.shared_slots:
            left = _claims(a, time, slot)
            right = _claims(b, time, slot)
            if not left or not right:
                continue
            if set(left) != set(right):
                violations.append(
                    Violation(
                        time=time,
                        slot=slot,
                        left=tuple(
                            left[v].render(slot) for v in sorted(left)
                        ),
                        right=tuple(
                            right[v].render(slot) for v in sorted(right)
                        ),
                    )
                )
    return CompatibilityVerdict(not violations, tuple(violations))


def validate_relations(
    story: Story, measurement_map: Mapping[tuple[str, str], str]
) -> RelationVerdict:
    """Enforce the definiteness discipline on a story's AND groups.

    Rejects any AND group in which two events assign different values to the
    same single measurement's outcome slot: one run of one measurement has
    exactly one result.  AND groups spanning distinct measurements and OR
    groups listing alternatives pass.
    """
    schema = story.plot.schema
    rejections = []
    for g_index, group in enumerate(story.groups):
        if group.kind != "and":
            continue
        per_measurement: dict[tuple[str, str, str], set[str]] = {}
        for event in group.events:
            for slot, entry in zip(schema.slots, event.entries):
                if not isinstance(entry, (Value, Deduced)):
                    continue
                cell = (event.time, slot.name)
                if cell not in measurement_map:
                    raise KeyError(
                        f"measurement_map does not cover observed cell {cell}"
                    )
                key = (event.time, measurement_map[cell], slot.name)
                per_measurement.setdefault(key, set()).add(entry.v)
        for (time, measurement, slot_name), values in sorted(per_measurement.items()):
            if len(values) > 1:
                rejections.append(
                    f"AND group {g_index}: measurement {measurement!r} at {time} "
                    f"cannot yield {sorted(values)} on slot {slot_name!r} in one run"
                )
    return RelationVerdict(not rejections, tuple(rejections))


def plot_from_distribution(
    schema: EventSetSchema,
    joint: JointDistribution,
    observed: Union[OutcomeAssignment, Mapping[str, str]],
    deductions: Sequence[tuple[str, str, str]] = (),
    alternatives: Sequence[str] = (),
) -> Plot:
    """Assemble an agent's plot from a joint distribution.

    ``observed`` places Value entries at the observing agents' schema cells
    (it must have nonzero probability under the joint).  ``deductions`` are
    explicit (time, slot, value) equalities.  For each agent named in
    ``alternatives`` the conditional distribution given ``observed`` is
    consulted: a degenerate conditional contributes a Deduced entry, a
    non-degenerate one contributes one Value event per possible outcome
    (OR-alternatives).
    """
    observed_map = (
        observed.as_dict() if isinstance(observed, OutcomeAssignment) else dict(observed)
    )
    # post_select raises ZeroProbabilityError on an impossible observation.
    seen = post_select(joint, observed_map) if observed_map else joint

    per_time: dict[str, dict[str, Entry]] = {}

    def place(time: str, slot: str, entry: Entry) -> None:
        entries = per_time.setdefault(time, {})
        if slot in entries and entries[slot] != entry:
            raise ValueError(
                f"conflicting entries for ({time}, {slot}): "
                f"{entries[slot]} vs {entry}"
            )
        entries[slot] = entry

    for agent, outcome in observed_map.items():
        time, slot = schema.agent_cell(agent)
        place(time, slot, Value(outcome))
    for time, slot, value in deductions:
        place(time, slot, Deduced(value))

    events = [make_event(schema, t, entries) for t, entries in per_time.items()]

    for agent in alternatives:
        if agent in observed_map:
            continue
        time, slot = schema.agent_cell(agent)
        support = [o for o, p in marginal(seen, agent).items() if p > CONDITION_EPS]
        if len(support) == 1:
            events.append(make_event(schema, time, {slot: Deduced(support[0])}))
        else:
            for outcome in support:
                events.append(make_event(schema, time, {slot: Value(outcome)}))

    return Plot(schema, tuple(events))


# JSON forms ------------------------------------------------------------------

def schema_to_json(schema: EventSetSchema) -> dict:
    return {
        "times": list(schema.times),
        "slots": [{"name": s.name, "alphabet": list(s.alphabet)} for s in schema.slots],
    }


def plot_to_json(plot: Plot) -> dict:
    return {
        "schema": schema_to_json(plot.schema),
        "events": [
            {
                "t": e.time,
                "entries": {
                    slot.name: {"v": entry.v}
                    if isinstance(entry, Value)
                    else {"deduced": entry.v}
                    for slot, entry in zip(plot.schema.slots, e.entries)
                    if not isinstance(entry, Wildcard)
                },
            }
            for e in plot.events
        ],
    }
