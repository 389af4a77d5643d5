"""The step plans an experiment builds once and every evolution replays.

A plan holds only what the spec's structure fixes, so these tests pin what
must not change when plans are reused: a truncated evolution still answers
when a later step cannot be applied, that later step fails on every call,
one spec serves every collapse model in any order (against the plain-numpy
oracle, and equal to a fresh spec), plans are built lazily and published
whole, and a plan holds no amplitudes.
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


def flipped_spec():
    """A friend's step, then a step that reads the friend's memory in another basis.

    The spec checks only labels, so it builds; the second step's plan cannot.
    """
    spec = ghz_spec(1, 1, GHZ_ALPHA, GHZ_BETA, (0.5,))
    friend = spec.steps[0]
    flipped = SubsystemRegistry(
        (spec.registry.subsystem("Q0"), Subsystem("F0", 2, ("b", "a")))
    )
    basis = [
        StateVector.basis_state(flipped, ("0", "a")),
        StateVector.basis_state(flipped, ("1", "b")),
    ]
    iso = build_measurement_isometry("W0", flipped, basis, memory="W0")
    return ExperimentSpec("flipped", spec.registry, spec.initial, (friend, Step(2, iso)))


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


def test_threads_sharing_one_fresh_spec_get_the_answers_of_one_thread():
    cases = joint_cases(BUILDERS["fr"]())
    want = {(m.tag, t): evolve(BUILDERS["fr"](), m, t).array for m, t in cases}
    for _ in range(5):
        spec = BUILDERS["fr"]()
        failures = []

        def work(offset):
            try:
                for model, through in cases[offset:] + cases[:offset]:
                    got = evolve(spec, model, through).array
                    if not np.array_equal(got, want[(model.tag, through)]):
                        failures.append((model.tag, through))
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
