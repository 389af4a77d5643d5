"""Every question comes from the backward cone of the factors it reads.

``conditional_table`` and ``conditional_via_renormalized_state`` evolve only
the steps that the two memories can feel.  These tests pin that nothing else
changes: on every preset and three GHZ circuits, under pure isometry,
objective collapse, every one-agent and every two-agent collapse set, each
ordered pair's table equals Bayes' rule on the full truncated circuit, with
the same columns and model tag, and so does every renormalized column.  A
mechanism pin checks that GHZ(4,4)'s ``W3|F3`` replays two steps in a few
KiB instead of the whole 65,536-amplitude state.

``memory_state`` evolves the cone of its kept factors and its given
memories: one lab of GHZ(n,n), n = 8 and 12, is checked against a per-site
closed form in plain numpy, under a memory bound that grows as 2^n, the
size of the initial registry every cone keeps.  The full circuit holds
4^(2n) amplitudes per row.  Every kept pair of GHZ(6,6)'s labels shares one
cone per set of kept steps, with the bytes a fresh spec gives.  A cone whose
steps are a prefix of the circuit's runs the spec's own step plans, so
``evolve`` at every truncation under every collapse set plans no step
beyond the spec's build.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from circuits import ghz_spec, site_tables
from wignersim.channels import (
    NO_COLLAPSE,
    OBJECTIVE_COLLAPSE,
    CollapseModel,
    _Ensemble,
    _StepPlan,
)
from wignersim.experiment import (
    conditional,
    conditional_table,
    conditional_via_renormalized_state,
    evolve,
    evolved_density,
    memory_state,
)
from wignersim.presets import presets
from wignersim.states import ZeroProbabilityError

ATOL = 1e-12
ALPHA = math.sqrt(0.35)
BETA = math.sqrt(0.65) * complex(math.cos(1.1), math.sin(1.1))
THETAS = (0.3, 1.1, 0.7, 0.2)

BUILDERS = dict(sorted(presets().items()))
for _n, _m in [(2, 2), (3, 3), (3, 2)]:
    BUILDERS[f"ghz-{_n}-{_m}"] = lambda n=_n, m=_m: ghz_spec(n, m, ALPHA, BETA, THETAS[:m])


def pair_cone(spec, target, given, through):
    """The cone a pair route evolves: the one that reads the two memories."""
    reads = frozenset(spec.step_for(a).iso.memory_label for a in (target, given))
    return spec._cone(reads, through)


def collapse_sets(spec):
    agents = spec.measuring_agents
    return [NO_COLLAPSE, OBJECTIVE_COLLAPSE] + [
        CollapseModel(frozenset(s)) for r in (1, 2) for s in itertools.combinations(agents, r)
    ]


@pytest.mark.parametrize("name", BUILDERS)
def test_every_pair_answers_as_the_full_truncated_circuit(name):
    spec = BUILDERS[name]()
    pruned = 0
    for model in collapse_sets(spec):
        for target, given in itertools.permutations(spec.measuring_agents, 2):
            through = max(spec.step_for(target).time, spec.step_for(given).time)
            want = conditional(evolve(spec, model, through), target, given)
            got = conditional_table(spec, model, target, given)
            case = (model.tag, target, given)
            assert got.model_tag == want.model_tag, case
            assert got.present_columns() == want.present_columns(), case
            for g in want.columns:
                for t, p in want.columns[g].items():
                    assert abs(got.columns[g][t] - p) <= ATOL, case + (g, t)
                renormalized = conditional_via_renormalized_state(spec, model, target, given, g)
                assert renormalized.keys() == want.columns[g].keys(), case + (g,)
                for t, p in want.columns[g].items():
                    assert abs(renormalized[t] - p) <= ATOL, case + (g, t)
            pruned += len(pair_cone(spec, target, given, through).steps) < spec._stop(through)
    if name.startswith("ghz"):
        assert pruned > 0  # the comparison above covers cones that leave steps out


def counted_steps(monkeypatch):
    calls = []
    stepped = _Ensemble.stepped

    def counting(self, plan, collapses):
        calls.append(plan.iso.agent)
        return stepped(self, plan, collapses)

    monkeypatch.setattr(_Ensemble, "stepped", counting)
    return calls


@pytest.mark.parametrize(
    "model",
    [NO_COLLAPSE, CollapseModel.subjective("F0"), OBJECTIVE_COLLAPSE],
    ids=lambda m: m.tag,
)
def test_a_pair_table_on_ghz_4_4_replays_its_two_steps_in_a_few_kib(model, monkeypatch):
    spec = ghz_spec(4, 4, ALPHA, BETA, THETAS)
    assert spec._stop(spec.step_for("W3").time) == 8
    calls = counted_steps(monkeypatch)
    table = conditional_table(spec, model, "W3", "F3")
    assert calls == ["F3", "W3"]
    assert table.model_tag == model.tag
    tracemalloc.start()
    try:
        conditional_table(spec, model, "W3", "F3")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The full truncated circuit holds 65,536 amplitudes (1 MiB) per copy.
    assert peak < 64 * 1024, peak


def test_the_cone_keeps_what_the_memories_can_feel_and_is_shared_by_both_orders():
    spec = ghz_spec(3, 3, ALPHA, BETA, THETAS[:3])
    through = spec.step_for("W2").time
    cone = pair_cone(spec, "W2", "F1", through)
    # W1 acts on F1's memory after F1's step; F0 and W0 touch neither memory.
    assert [s.agent for s in cone.steps] == ["F1", "F2", "W1", "W2"]
    assert cone.start is spec._start
    assert pair_cone(spec, "F1", "W2", through) is cone
    # W1 comes before W2 but reads only Q1 and F1.
    assert [s.agent for s in pair_cone(spec, "W0", "W2", through).steps] == ["F0", "F2", "W0", "W2"]
    # A truncated cone that leaves no earlier step out still ends at its
    # truncation, on the spec's own plans of those steps.
    first = pair_cone(spec, "F1", "F0", spec.step_for("F1").time)
    assert [s.agent for s in first.steps] == ["F0", "F1"]
    assert list(map(id, first.plans)) == list(map(id, spec._step_plans[:2]))
    # memory_state keeping F0 and W0 given F1: W1 acts on F1 after its step.
    kept = spec._cone(frozenset({"F0", "W0", "F1"}), None)
    assert [s.agent for s in kept.steps] == ["F0", "F1", "W0", "W1"]
    # Reading every label, as evolve and evolved_density do, prunes nothing:
    # the cone is every step by the truncation, and the whole circuit's
    # cone shares the spec's plans.
    whole = spec._cone(frozenset(spec.registry_after().labels), None)
    assert list(map(id, whole.plans)) == list(map(id, spec._step_plans))
    for through in [0] + [s.time for s in spec.steps]:
        cone = spec._cone(frozenset(spec.registry_after(through).labels), through)
        assert list(map(id, cone.steps)) == [id(s) for s in spec.steps if s.time <= through]


def ask_every_route_at_every_truncation(spec):
    for model in (NO_COLLAPSE, OBJECTIVE_COLLAPSE):
        for through in [None, 0] + [s.time for s in spec.steps]:
            evolve(spec, model, through)
            # It reads what evolve reads, so it builds the same cones; it
            # runs wherever its answer is at most 1024 wide.
            if spec.registry_after(through).total_dimension <= 1024:
                evolved_density(spec, model, through)
        for target, given in itertools.permutations(spec.measuring_agents, 2):
            conditional_table(spec, model, target, given)
            for g in spec.step_for(given).iso.outcome_labels:
                try:
                    conditional_via_renormalized_state(spec, model, target, given, g)
                except ZeroProbabilityError:
                    pass
        labels = spec.registry_after().labels
        for keep in labels:
            memory_state(spec, model, set(labels) - {keep})


@pytest.mark.parametrize("name", BUILDERS)
def test_every_cone_runs_to_its_end_on_plans_of_its_own_steps(name):
    spec = BUILDERS[name]()
    ask_every_route_at_every_truncation(spec)
    cones = vars(spec)["_cones"]
    assert {stop for _, stop in cones} == set(range(len(spec.steps) + 1))
    for (reads, stop), cone in cones.items():
        run = {id(step) for step in spec.steps[:stop]}
        # Every step the cone holds is one its truncation runs, so the cone
        # is read whole.
        assert all(id(step) in run for step in cone.steps), (reads, stop)
        assert [p.iso for p in cone.plans] == [s.iso for s in cone.steps], (reads, stop)
        assert cone.start is spec._start, (reads, stop)
        # A cone that keeps every step by its truncation runs the spec's plans.
        if len(cone.steps) == stop:
            own = list(map(id, spec._step_plans[:stop]))
            assert list(map(id, cone.plans)) == own, (reads, stop)


def plan_calls(monkeypatch):
    calls = []
    of = _StepPlan.of.__func__

    def counting(cls, registry, layout, iso):
        calls.append(iso.agent)
        return of(cls, registry, layout, iso)

    monkeypatch.setattr(_StepPlan, "of", classmethod(counting))
    return calls


PLANNED = {"fr": BUILDERS["fr"], "ghz-4-4": lambda: ghz_spec(4, 4, ALPHA, BETA, THETAS)}


@pytest.mark.parametrize("name", PLANNED)
def test_evolve_at_every_truncation_plans_no_step_beyond_the_specs_own(name, monkeypatch):
    calls = plan_calls(monkeypatch)
    spec = PLANNED[name]()
    assert len(calls) == len(spec.steps)
    agents = spec.measuring_agents
    models = [OBJECTIVE_COLLAPSE] + [
        CollapseModel(frozenset(s)) for r in range(len(agents) + 1)
        for s in itertools.combinations(agents, r)
    ]
    for model in models:
        for through in [None, 0] + [s.time for s in spec.steps]:
            evolve(spec, model, through)
    assert len(calls) == len(spec.steps)
    # Each truncation's cone is a prefix, which takes the spec's own plans.
    cones = vars(spec)["_cones"]
    assert len({id(cone) for cone in cones.values()}) == len(spec.steps) + 1
    for cone in cones.values():
        own = list(map(id, spec._step_plans[: len(cone.steps)]))
        assert list(map(id, cone.plans)) == own


def test_every_kept_pair_of_ghz_6_6_shares_one_cone_per_set_of_kept_steps():
    def build():
        return ghz_spec(6, 6, ALPHA, BETA, (0.3, 1.1, 0.7, 0.2, 0.5, 0.9))

    spec = build()
    labels = spec.registry_after().labels
    assert len(labels) == 18
    for keep in itertools.combinations(labels, 2):
        discard = set(labels) - set(keep)
        got = memory_state(spec, NO_COLLAPSE, discard).entries
        want = memory_state(build(), NO_COLLAPSE, discard).entries
        assert np.array_equal(got, want), keep
    cones, shared = vars(spec)["_cones"], vars(spec)["_kept_cones"]
    assert len(cones) == 153
    # One cone per lab (its friend's and superobserver's steps) and one per
    # two labs; every (reads, truncation) entry refers to one of them.
    assert sorted(len(kept) for kept in shared) == [2] * 6 + [4] * 15
    assert {id(cone) for cone in cones.values()} == {id(cone) for cone in shared.values()}
    for kept, cone in shared.items():
        assert all(step is spec.steps[i] for step, i in zip(cone.steps, kept, strict=True))


def one_lab_closed_form(alpha, beta, thetas, tag):
    """ρ on (F0, W0) given F1 = a on GHZ(n, n), one site at a time: O(n).

    ρ is Σ_xy c_x c_y* (site 0's block) Π_i⩾1 ⟨site i of y | site i of x⟩.
    A collapsed friend leaves no x ≠ y term, and a collapsed W0 no
    off-diagonal W0 term.  Given F1 = a, a collapsed F1 recorded its branch,
    so only x = y = 0 is left; a coherent F1 is projected onto a at the end.
    """
    sites = [site_tables(theta) for theta in thetas]
    coefficients = (alpha, beta)
    friends_collapse = tag != "ism"
    w0 = np.eye(4) if tag == "objective" else np.ones((4, 4))
    rho = np.zeros((2, 4, 2, 4), dtype=complex)
    for x, y in itertools.product((0, 1), repeat=2):
        if friends_collapse and x != y:
            continue
        if tag == "objective":
            overlap = float(x == y == 0)
        else:
            overlap = np.vdot(sites[1][y][0], sites[1][x][0])
        for site in sites[2:]:
            overlap *= np.vdot(site[y], site[x])
        # Tracing out Q0, which equals F0's record, keeps f = g.
        block = np.einsum("fw,gv,fg,wv->fwgv", sites[0][x], sites[0][y], np.eye(2), w0)
        rho += coefficients[x] * np.conj(coefficients[y]) * overlap * block
    rho = rho.reshape(8, 8)
    return rho / np.trace(rho).real


ONE_LAB_MODELS = {
    "ism": NO_COLLAPSE,
    "objective": OBJECTIVE_COLLAPSE,
    "clps:F0": CollapseModel.subjective("F0"),
}


@pytest.mark.parametrize("tag", ONE_LAB_MODELS)
@pytest.mark.parametrize("n", [8, 12])
def test_one_lab_of_ghz_n_n_is_its_closed_form_in_memory_of_order_2_to_the_n(n, tag):
    thetas = tuple(np.linspace(0.3, 1.2, n).tolist())
    spec = ghz_spec(n, n, ALPHA, BETA, thetas)
    model = ONE_LAB_MODELS[tag]
    discard = set(spec.registry_after().labels) - {"F0", "W0"}
    given = {"F1": "a"}
    # Four steps whatever n: the full circuit would hold 4^(2n) amplitudes a row.
    cone = spec._cone(frozenset({"F0", "W0", "F1"}), None)
    assert [s.agent for s in cone.steps] == ["F0", "F1", "W0", "W1"]
    memory_state(spec, model, discard, given)
    tracemalloc.start()
    try:
        rho = memory_state(spec, model, discard, given)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho.registry.labels == ("F0", "W0")
    want = one_lab_closed_form(ALPHA, BETA, thetas, tag)
    assert np.max(np.abs(rho.entries - want)) <= ATOL
    assert peak < 8 * 1024 * 2**n, peak
