"""The step plans an experiment builds once and every evolution replays.

A plan holds only what the spec's structure fixes, so these tests pin what
must not change when plans are reused: a truncated evolution still answers
when a later step cannot be applied, that later step fails on every call,
one spec serves every collapse model in any order (against the plain-numpy
oracle, and equal to a fresh spec), plans are built lazily and published
whole, and a plan holds no amplitudes.  The pair routes evolve only a pair's
backward cone, yet still build and check every plan up to the later of the
two measurements, so a bad step outside the cone fails them too.
"""

import itertools
import math
import sys
import threading

import numpy as np
import pytest

import numpy_oracle as oracle
from dense_ensemble import ghz_spec, models_for
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
    marginal,
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

    A spec checks only labels, so a spec holding it builds; its plan cannot.
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


def flipped_outside_the_cone_spec():
    """GHZ(2,2) with W0's step flipped: it comes before W1's, outside the cone of W1|F1."""
    spec = ghz_spec(2, 2, GHZ_ALPHA, GHZ_BETA, (0.5, 0.9))
    f0, f1, w0, w1 = spec.steps
    steps = (f0, f1, flipped_step(spec, w0.time), w1)
    return ExperimentSpec("flipped-outside", spec.registry, spec.initial, steps)


@pytest.mark.parametrize(
    "model", [NO_COLLAPSE, CollapseModel.subjective("F0")], ids=lambda m: m.tag
)
@pytest.mark.parametrize("full_first", [False, True], ids=["truncated-first", "full-first"])
def test_truncated_before_a_bad_step_answers_and_the_bad_step_always_fails(model, full_first):
    spec = flipped_spec()
    friend_time = spec.steps[0].time
    calls = ["full", "truncated", "full", "truncated"]
    if not full_first:
        calls = calls[1:] + calls[:1]
    for call in calls:
        if call == "full":
            with pytest.raises(ValueError, match="bases differ"):
                evolve(spec, model)
            continue
        got = marginal(evolve(spec, model, through_time=friend_time), "F0")
        assert got == pytest.approx({"a": 0.35, "b": 0.65}, abs=1e-12)


def test_the_bad_step_fails_on_every_route_that_reaches_it():
    spec = flipped_spec()
    for _ in range(2):
        with pytest.raises(ValueError, match="bases differ"):
            conditional_via_renormalized_state(spec, NO_COLLAPSE, "W0", "F0", "a")
        with pytest.raises(ValueError, match="bases differ"):
            memory_state(spec, OBJECTIVE_COLLAPSE, ["Q0"])


@pytest.mark.parametrize(
    "model", [NO_COLLAPSE, CollapseModel.subjective("F1"), OBJECTIVE_COLLAPSE], ids=lambda m: m.tag
)
def test_a_bad_step_outside_the_pairs_cone_still_fails_both_pair_routes(model):
    spec = flipped_outside_the_cone_spec()
    w1 = spec.step_for("W1")
    assert [s.agent for s in spec._cone("W1", "F1", w1.time).steps] == ["F1", "W1"]
    for _ in range(2):
        with pytest.raises(ValueError, match="bases differ"):
            conditional_table(spec, model, "W1", "F1")
        with pytest.raises(ValueError, match="bases differ"):
            conditional_via_renormalized_state(spec, model, "W1", "F1", "a")
    # A pair whose later measurement comes before the bad step still answers.
    table = conditional_table(spec, model, "F1", "F0")
    assert table.present_columns() == ("a", "b")


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
def test_plans_are_built_lazily_as_a_prefix_and_hold_no_amplitudes(name):
    spec = BUILDERS[name]()
    assert "_step_plans" not in vars(spec)
    first = spec.steps[0].time
    evolve(spec, NO_COLLAPSE, through_time=first)
    assert len(vars(spec)["_step_plans"]) == 1
    evolve(spec, OBJECTIVE_COLLAPSE)
    plans = vars(spec)["_step_plans"]
    assert len(plans) == len(spec.steps)
    evolve(spec, NO_COLLAPSE, through_time=first)
    assert vars(spec)["_step_plans"] is plans
    for step, plan in zip(spec.steps, plans):
        assert plan.iso is step.iso
        arrays = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is step.iso.outcome_major
    assert plans[-1].registry == spec.registry_after()


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


ROUTES = {
    "evolve": (BUILDERS["fr"], joint_cases, evolve_answer),
    "conditional_table": (ghz_3_3, pair_cases, table_answer),
    "renormalized": (ghz_3_3, pair_cases, renormalized_answer),
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
