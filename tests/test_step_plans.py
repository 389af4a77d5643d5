"""The step plans an experiment builds with itself and every evolution replays.

A plan holds only what the spec's structure fixes, so these tests pin what
must not change when plans are reused: a step that cannot be planned fails
when its spec is built, inside or outside a pair's cone, one spec serves
every collapse model in any order (against the plain-numpy oracle, and
equal to a fresh spec), every plan exists as soon as the spec does and
chains the registries, and a plan holds no amplitudes.  The readout plans
a cone keeps per set of recorded memories give ``evolve`` and the pair
tables the bytes a fresh spec gives, whichever question built them, and
threads sharing one spec build exactly the plans and settled sets their
questions use.  The step programs a cone keeps per collapse set stay small
when GHZ(4,4) is asked under every collapse set at every truncation.
"""

import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import numpy_oracle as oracle
from circuits import ghz_spec, models_for, read_model, truncated_cone
from wignersim.channels import (
    NO_COLLAPSE,
    OBJECTIVE_COLLAPSE,
    CollapseModel,
    build_measurement_isometry,
)
from wignersim.experiment import (
    ExperimentSpec,
    Step,
    conditional_table,
    conditional_via_renormalized_state,
    evolve,
    memory_state,
)
from wignersim.presets import presets
from wignersim.registry import Subsystem, SubsystemRegistry
from wignersim.states import StateVector

ORACLE_ATOL = 1e-12
GHZ_ALPHA = math.sqrt(0.35)
GHZ_BETA = math.sqrt(0.65) * complex(math.cos(1.1), math.sin(1.1))

BUILDERS = dict(sorted(presets().items()))
BUILDERS["ghz-2-2"] = lambda: ghz_spec(2, 2, math.sqrt(0.35), 1j * math.sqrt(0.65), (0.3, 1.1))


def flipped_step(spec, time):
    """W0's step reading (Q0, F0) with F0's outcome labels in the other order.

    Its plan cannot be built, so neither can a spec holding it.
    """
    flipped = SubsystemRegistry(
        (spec.registry.subsystem("Q0"), Subsystem("F0", 2, ("b", "a")))
    )
    basis = [
        StateVector.basis_state(flipped, ("0", "a")),
        StateVector.basis_state(flipped, ("1", "b")),
    ]
    return Step(time, build_measurement_isometry("W0", flipped, basis, memory="W0"))


def flipped_spec():
    """A friend's step, then a step that reads the friend's memory in another basis."""
    spec = ghz_spec(1, 1, GHZ_ALPHA, GHZ_BETA, (0.5,))
    steps = (spec.steps[0], flipped_step(spec, 2))
    return ExperimentSpec("flipped", spec.registry, spec.initial, steps)


def ghz_2_2():
    return ghz_spec(2, 2, GHZ_ALPHA, GHZ_BETA, (0.5, 0.9))


def flipped_outside_the_cone_spec():
    """GHZ(2,2) with W0's step flipped: it comes before W1's, outside the cone of W1|F1."""
    spec = ghz_2_2()
    f0, f1, w0, w1 = spec.steps
    steps = (f0, f1, flipped_step(spec, w0.time), w1)
    return ExperimentSpec("flipped-outside", spec.registry, spec.initial, steps)


@pytest.mark.parametrize("build", [flipped_spec, flipped_outside_the_cone_spec])
def test_a_step_in_another_basis_fails_when_the_spec_is_built(build):
    with pytest.raises(ValueError, match="^subsystem 'F0' bases differ between the state and W0's step$"):
        build()


@pytest.mark.parametrize(
    "target,given,kept",
    [("W1", "F1", ["F1", "W1"]), ("W0", "F0", ["F0", "W0"])],
)
def test_a_pairs_cone_leaves_out_the_steps_of_other_labs_and_is_planned(target, given, kept):
    spec = ghz_2_2()
    through = max(spec.step_for(target).time, spec.step_for(given).time)
    # A GHZ memory bears its agent's name, so the pair reads those two labels.
    cone = spec._cone(frozenset((target, given)), through)
    assert [s.agent for s in cone.steps] == kept
    assert [p.iso for p in cone.plans] == [s.iso for s in cone.steps]


def joint_cases(spec):
    """Every (model, truncation time) pair, in an order that mixes prefixes."""
    times = [None, 0] + [s.time for s in spec.steps]
    cases = list(itertools.product(models_for(spec), times))
    np.random.default_rng(7).shuffle(cases)
    return cases


@pytest.mark.parametrize("name", BUILDERS)
def test_one_spec_serves_every_model_as_a_fresh_spec_does(name):
    shared = BUILDERS[name]()
    for model, through in joint_cases(shared):
        labels, dims, branches = oracle.ensemble(shared, model, through)
        want = oracle.joint(shared, model, labels, dims, branches, through)
        got = evolve(shared, model, through)
        fresh = evolve(BUILDERS[name](), model, through)
        assert np.max(np.abs(got.array - want), initial=0.0) < ORACLE_ATOL, (model.tag, through)
        assert np.array_equal(got.array, fresh.array), (model.tag, through)


@pytest.mark.parametrize("name", BUILDERS)
def test_plans_are_built_with_the_spec_and_hold_no_amplitudes(name):
    spec = BUILDERS[name]()
    plans = vars(spec)["_step_plans"]
    assert len(plans) == len(spec.steps)
    registry = spec.registry
    assert spec.steps[0].time > 0 and spec.registry_after(0) == registry
    for step, plan in zip(spec.steps, plans):
        assert plan.iso is step.iso
        arrays = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is step.iso.outcome_major
        registry = registry.extended(step.iso.appended)
        assert plan.registry == registry
        assert spec.registry_after(step.time) is plan.registry
    assert spec.registry_after() is plans[-1].registry
    evolve(spec, OBJECTIVE_COLLAPSE)
    evolve(spec, NO_COLLAPSE, through_time=spec.steps[0].time)
    assert vars(spec)["_step_plans"] is plans


def ghz_3_3():
    return ghz_spec(3, 3, GHZ_ALPHA, GHZ_BETA, (0.3, 1.1, 0.7))


def evolve_answer(spec, case):
    model, through = case
    return evolve(spec, model, through).array


def table_answer(spec, case):
    model, (target, given) = case
    return conditional_table(spec, model, target, given).columns


def renormalized_answer(spec, case):
    model, (target, given) = case
    g = spec.step_for(given).iso.outcome_labels[0]
    return conditional_via_renormalized_state(spec, model, target, given, g)


def pair_cases(spec):
    """Every (model, ordered agent pair), in a shuffled order."""
    pairs = itertools.permutations(spec.measuring_agents, 2)
    cases = list(itertools.product(models_for(spec), pairs))
    np.random.default_rng(11).shuffle(cases)
    return cases


def memory_answer(spec, case):
    model, keep = case
    discard = set(spec.registry_after().labels) - set(keep)
    return memory_state(spec, model, discard, {"F1": "a"}).entries


def kept_cases(spec):
    """Every (model, kept pair) over one- and two-lab pairs, in a shuffled order."""
    kept = [("F0", "W0"), ("F1", "W1"), ("F0", "F2"), ("Q1", "W2"), ("W0", "W1")]
    cases = list(itertools.product(models_for(spec), kept))
    np.random.default_rng(13).shuffle(cases)
    return cases


ROUTES = {
    "evolve": (BUILDERS["fr"], joint_cases, evolve_answer),
    "conditional_table": (ghz_3_3, pair_cases, table_answer),
    "renormalized": (ghz_3_3, pair_cases, renormalized_answer),
    "memory_state": (ghz_3_3, kept_cases, memory_answer),
}


def same(a, b):
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("route", ROUTES)
def test_threads_sharing_one_fresh_spec_get_the_answers_of_one_thread(route):
    build, cases_of, answer = ROUTES[route]
    cases = cases_of(build())
    want = [answer(build(), case) for case in cases]
    for _ in range(5):
        spec = build()
        failures = []

        def work(offset):
            try:
                for i in list(range(offset, len(cases))) + list(range(offset)):
                    if not same(answer(spec, cases[i]), want[i]):
                        failures.append(cases[i])
            except Exception as err:  # report it from the main thread
                failures.append(repr(err))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(vars(spec)["_step_plans"]) == len(spec.steps)
        if route != "evolve":
            pruned = [c for c in vars(spec)["_cones"].values() if len(c.steps) < len(spec.steps)]
            assert pruned
        used = {}
        for case in cases:
            found = readout_key(spec, route, case)
            if found is not None:
                used.setdefault(id(found[0]), set()).add(found[1])
        cones = {id(c): c for c in vars(spec)["_kept_cones"].values()}
        for key, cone in cones.items():
            assert set(vars(cone)["_readouts"]) == used.get(key, set())
        # Only evolve settles, once per truncated cone its cases run.
        settling = {id(truncated_cone(spec, t)) for _, t in cases} if route == "evolve" else set()
        assert {key for key, cone in cones.items() if "_settled" in vars(cone)} == settling


def readout_key(spec, route, case):
    """The cone an answer is read out on, and the key of its readout plan.

    None for ``memory_state``, which reads out no joint.  The key is the
    memories recorded: each collapsed measurement's (for ``evolve``, each
    settled one's too), and the given agent's for the renormalized route.
    """
    if route == "memory_state":
        return None
    model, question = case
    recorded = set()
    if route == "evolve":
        cone = truncated_cone(spec, question)
        model = read_model(spec, model, question)
    else:
        steps = [spec.step_for(agent) for agent in question]
        reads = frozenset(step.iso.memory_label for step in steps)
        cone = spec._cone(reads, max(step.time for step in steps))
        if route == "renormalized":
            recorded.add(steps[1].iso.memory_label)
    recorded.update(
        s.iso.memory_label
        for s in cone.steps
        if s.is_measurement and model.collapses_at(s.agent)
    )
    return cone, frozenset(recorded)


def joint_bytes(spec, case):
    model, through = case
    joint = evolve(spec, model, through)
    return joint.agents, joint.alphabets, joint.array.shape, joint.array.tobytes(), joint.model_tag


def table_bytes(spec, case):
    model, (target, given) = case
    table = conditional_table(spec, model, target, given)
    columns = {g: [v.hex() for v in column.values()] for g, column in table.columns.items()}
    return table.target_alphabet, table.given_alphabet, columns, table.model_tag


def readout_questions(spec):
    """``evolve`` at every truncation and every ordered pair's table, under every model."""
    questions = []
    for model in models_for(spec):
        times = [None] + [s.time for s in spec.steps]
        questions += [(joint_bytes, (model, through)) for through in times]
        pairs = itertools.permutations(spec.measuring_agents, 2)
        questions += [(table_bytes, (model, pair)) for pair in pairs]
    return questions


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "backward"])
@pytest.mark.parametrize("name", BUILDERS)
def test_readout_plans_give_every_answer_the_bytes_of_a_fresh_spec(name, order):
    shared = BUILDERS[name]()
    for answer, case in readout_questions(shared)[::order]:
        assert answer(shared, case) == answer(BUILDERS[name](), case), case
    assert any(vars(cone)["_readouts"] for cone in vars(shared)["_kept_cones"].values())


def test_the_step_programs_of_every_collapse_set_hold_little_memory():
    # Warm GHZ(4,4) with one question, then run evolve under all 256
    # collapse sets at every truncation: each cone keeps one step program
    # per collapse set of its own agents and one readout plan per set of
    # records, and nothing per call.
    spec = ghz_spec(4, 4, GHZ_ALPHA, GHZ_BETA, (0.3, 0.6, 0.9, 1.2))
    evolve(spec, NO_COLLAPSE)
    agents = spec.measuring_agents
    models = [
        CollapseModel(frozenset(s)) for r in range(len(agents) + 1) for s in itertools.combinations(agents, r)
    ]
    assert len(models) == 256
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for model in models:
            for through in [None, 0] + [s.time for s in spec.steps]:
                evolve(spec, model, through)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # A truncation's cone keeps one program per set of its agents that
    # collapse: the caller's set plus the settled ones.
    runs = {}
    for through in [0] + [s.time for s in spec.steps]:
        ran = frozenset(s.agent for s in spec.measuring_steps if s.time <= through)
        runs[through] = {read_model(spec, m, through).agents & ran for m in models}
    programs = sum(len(cone._programs) for cone in spec._kept_cones.values())
    assert programs == sum(map(len, runs.values())) == 69
    assert held < 0.5 * 2**20, held
