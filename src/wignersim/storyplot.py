"""Events, plots, and compatibility checking between observer accounts.

An event set is a grid of time labels times a tuple of named finite-alphabet
slots.  A plot is a finite set of events; each event fixes some slots to
values, marks others as deduced equalities, and leaves the rest as wildcards.
Plots are what different observers' accounts of one experiment project down
to, and the compatibility condition demands that any two accounts of the same
run agree on every slot they both speak about.

Rendering conventions: a deduced entry prints as ``slot=value``, an observed
entry prints as the bare value, a wildcard prints as ``⋆``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .experiment import (
    CONDITION_EPS,
    JointDistribution,
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
    violations: tuple[Violation, ...] = ()

    @property
    def consistent(self) -> bool:
        return not self.violations


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
    a: Plot, b: Plot, shared_slots: Sequence[str]
) -> CompatibilityVerdict:
    """Check biconditional agreement on every shared (time, slot) cell.

    For each time and shared slot, the set of values claimed by one plot
    (via any completion of its other slots) must equal the set claimed by
    the other, whenever both plots claim anything there at all.  A deduced
    entry matches an observed entry of the same value.
    """
    if not shared_slots:
        raise ValueError("a compatibility constraint needs at least one shared slot")
    for slot in shared_slots:
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
        for slot in shared_slots:
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
    return CompatibilityVerdict(tuple(violations))


def plot_from_distribution(
    schema: EventSetSchema,
    joint: JointDistribution,
    observed: Mapping[str, str],
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
    # post_select raises ZeroProbabilityError on an impossible observation.
    seen = post_select(joint, observed) if observed else joint

    per_time: dict[str, dict[str, Entry]] = {}

    def place(time: str, slot: str, entry: Entry) -> None:
        entries = per_time.setdefault(time, {})
        if slot in entries and entries[slot] != entry:
            raise ValueError(
                f"conflicting entries for ({time}, {slot}): "
                f"{entries[slot]} vs {entry}"
            )
        entries[slot] = entry

    for agent, outcome in observed.items():
        time, slot = schema.agent_cell(agent)
        place(time, slot, Value(outcome))
    for time, slot, value in deductions:
        place(time, slot, Deduced(value))

    events = [make_event(schema, t, entries) for t, entries in per_time.items()]

    for agent in alternatives:
        if agent in observed:
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
