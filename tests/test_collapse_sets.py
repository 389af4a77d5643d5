"""A collapse model is the set of agents whose measurements collapse.

The FR and Deutsch clashes come from two reasoners giving one measurement two
descriptions, collapse and isometry.  The two theorems below state this for
the presets over every assignment of collapse sets to reasoners.

The two descriptions can differ only for a memory that a later step still
acts on.  ``evolve`` collapses every other measurement of the truncation
(the *settled* ones), so on every preset and GHZ(2,2) it is checked, under
every collapse set and at every truncation, against the plain-numpy
oracle's literal evolution, which never settles.  A scan of the steps gives
the settled sets, and GHZ(5,5), whose coherent evolution holds 4^10
amplitudes a row, is checked against a per-site closed form in a few MiB.
"""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import numpy_oracle as oracle
from circuits import ghz_spec, settled, site_tables, truncated_cone
from wignersim.channels import NO_COLLAPSE, OBJECTIVE_COLLAPSE, CollapseModel
from wignersim.deduction import POSSIBILITY, certainty_deductions, chain
from wignersim.experiment import (
    conditional_table,
    conditional_via_renormalized_state,
    evolve,
    marginal,
)
from wignersim.presets import deutsch_variant, frauchiger_renner, presets

ORACLE_ATOL = 1e-12


def subsets(agents):
    return [
        frozenset(c) for r in range(len(agents) + 1) for c in itertools.combinations(agents, r)
    ]


def test_fr_clash_is_a_mixed_description_of_f1s_measurement():
    """W's outcome is deduced as other than O exactly when F1 ∈ S_F1,
    F1 ∉ S_A and F2 ∉ S_F1: F1 reads their own measurement as a collapse that
    A reads as an isometry, and F1 reads F2's measurement as an isometry."""
    spec = frauchiger_renner()
    sets = subsets(spec.measuring_agents)
    assert len(sets) == 16

    def rules(target, given):
        return {
            s: certainty_deductions(conditional_table(spec, CollapseModel(s), target, given))
            for s in sets
        }

    by_a, by_f2, by_f1 = rules("F2", "A"), rules("F1", "F2"), rules("W", "F1")
    start = ("A", dict(spec.halting)["A"])
    clashes = 0
    for s_a, s_f2, s_f1 in itertools.product(sets, repeat=3):
        wigner = chain(by_a[s_a] + by_f2[s_f2] + by_f1[s_f1], start).conclusions().get("W")
        clash = wigner not in (None, "O")
        assert clash == ("F1" in s_f1 and "F1" not in s_a and "F2" not in s_f1), (
            sorted(s_a), sorted(s_f2), sorted(s_f1)
        )
        if clash:
            assert ("F1" in s_a) != ("F1" in s_f1)
        clashes += clash
    assert clashes == 512


def test_deutsch_answers_differ_exactly_when_the_friend_is_described_twice():
    spec = deutsch_variant()
    differ = 0
    for s_f, s_w in itertools.product(subsets(spec.measuring_agents), repeat=2):
        friend = conditional_via_renormalized_state(spec, CollapseModel(s_f), "W", "F", "u")
        wigner = marginal(evolve(spec, CollapseModel(s_w)), "W")
        y_friend = friend["phi-"] > POSSIBILITY
        y_wigner = wigner["phi-"] > POSSIBILITY
        assert (y_friend != y_wigner) == (("F" in s_f) != ("F" in s_w)), (s_f, s_w)
        differ += y_friend != y_wigner
    assert differ == 8


def test_unknown_agents_are_named_first_in_sorted_order():
    spec = frauchiger_renner()
    with pytest.raises(ValueError) as one:
        evolve(spec, CollapseModel({"F1", "nobody"}))
    assert str(one.value) == (
        f"collapse model names unknown agent 'nobody' for {spec.name!r}"
    )
    with pytest.raises(ValueError, match="unknown agent 'Zed'"):
        evolve(spec, CollapseModel({"nobody", "Zed", "W"}))


def test_the_pair_routes_name_an_unknown_agent_before_an_unknown_model_agent():
    spec = frauchiger_renner()
    model = CollapseModel({"nobody"})
    with pytest.raises(KeyError, match="no measuring agent 'Q'"):
        conditional_table(spec, model, "Q", "F1")
    with pytest.raises(KeyError, match="no measuring agent 'Q'"):
        conditional_via_renormalized_state(spec, model, "W", "Q", "x")
    with pytest.raises(ValueError, match="unknown agent 'nobody'"):
        conditional_via_renormalized_state(spec, model, "W", "F1", "x")


ALPHA = math.sqrt(0.35)
BETA = math.sqrt(0.65) * complex(math.cos(1.1), math.sin(1.1))
SETTLING = dict(sorted(presets().items()))
SETTLING["ghz-2-2"] = lambda: ghz_spec(2, 2, ALPHA, BETA, (0.3, 1.1))
SETTLING_CASES = [
    (name, model)
    for name, build in SETTLING.items()
    for model in [OBJECTIVE_COLLAPSE] + [CollapseModel(s) for s in subsets(build().measuring_agents)]
]


def through_times(spec):
    return [None, 0] + [s.time for s in spec.steps]


@pytest.mark.parametrize(
    "name,model", SETTLING_CASES, ids=[f"{n}-{m.tag}" for n, m in SETTLING_CASES]
)
def test_evolve_is_the_literal_evolution_whatever_it_settles(name, model):
    spec = SETTLING[name]()
    for through in through_times(spec):
        labels, dims, branches = oracle.ensemble(spec, model, through)
        want = oracle.joint(spec, model, labels, dims, branches, through)
        got = evolve(spec, model, through)
        assert got.model_tag == model.tag
        assert np.max(np.abs(got.array - want), initial=0.0) < ORACLE_ATOL, through


SCANNED = dict(SETTLING)
SCANNED["ghz-3-2"] = lambda: ghz_spec(3, 2, ALPHA, BETA, (0.3, 1.1))
SCANNED["ghz-3-3"] = lambda: ghz_spec(3, 3, ALPHA, BETA, (0.3, 1.1, 0.7))


@pytest.mark.parametrize("name", SCANNED)
def test_the_spec_settles_what_a_scan_of_its_steps_settles(name):
    spec = SCANNED[name]()
    for target, given in itertools.permutations(spec.measuring_agents, 2):
        conditional_table(spec, NO_COLLAPSE, target, given)
    # Only evolve settles: a spec built and asked only pair tables holds no set.
    cones = [spec, *vars(spec)["_cone_specs"].values()]
    assert not any("_settled" in vars(cone) for cone in cones)
    for through in through_times(spec):
        assert truncated_cone(spec, through)._settled == settled(spec, through), through


def test_on_the_full_circuits_only_frs_a_and_the_ghz_superobservers_settle():
    specs = {name: build() for name, build in SCANNED.items()}
    full = {name: spec._settled for name, spec in specs.items()}
    assert full == {
        "deutsch": frozenset(),
        "fr": {"A"},
        "wigner-product": frozenset(),
        "wigner-superposition": frozenset(),
        "ghz-2-2": {"W0"},
        "ghz-3-2": {"F2", "W0"},
        "ghz-3-3": {"W0", "W1"},
    }
    # Truncated after A's step, FR also settles F2: W, who reads F2, has not run.
    fr = frauchiger_renner()
    assert truncated_cone(fr, fr.step_for("A").time)._settled == {"F2"}


def ghz_joint_closed_form(alpha, beta, thetas, friends_collapse):
    """The joint of GHZ(n, n)'s F0…F{n-1}, W0…W{n-1}, one site at a time.

    Branch x of the GHZ state is a product over the sites of
    ``site_tables(theta)[x]``.  Without collapse the two branches add
    coherently.  A friend in ``friends_collapse`` records x at its step, so
    its record is x and its site's W outcome is read from branch x alone;
    any collapse of a friend picks the branch, so the branches mix.  A W
    collapse changes nothing: no later step acts on W's memory.
    """
    coefficients = (alpha, beta)
    sites = [site_tables(theta) for theta in thetas]
    n = len(sites)
    if not friends_collapse:
        amps = sum(
            c * functools.reduce(np.multiply.outer, [site[x] for site in sites])
            for x, c in enumerate(coefficients)
        )
        probs = np.abs(amps) ** 2
    else:
        probs = 0
        for x, c in enumerate(coefficients):
            per_site = []
            for i, site in enumerate(sites):
                p = site[x] ** 2
                if f"F{i}" in friends_collapse:
                    p = np.outer(np.arange(2) == x, p.sum(axis=0))
                per_site.append(p)
            probs = probs + abs(c) ** 2 * functools.reduce(np.multiply.outer, per_site)
    # Axes (f0, w0, f1, w1, …) to the agents' step order (f0, …, w0, …).
    return probs.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)))


GHZ_5_5 = {
    "ism": (NO_COLLAPSE, ()),
    "objective": (OBJECTIVE_COLLAPSE, ("F0", "F1", "F2", "F3", "F4")),
    "clps:F0": (CollapseModel.subjective("F0"), ("F0",)),
}


@pytest.mark.parametrize("tag", GHZ_5_5)
def test_ghz_5_5_evolves_to_its_closed_form_in_a_few_mib(tag):
    thetas = tuple(np.linspace(0.3, 1.2, 5).tolist())
    spec = ghz_spec(5, 5, ALPHA, BETA, thetas)
    model, friends_collapse = GHZ_5_5[tag]
    # Every superobserver but the last is settled; the coherent evolution
    # would hold 4^10 amplitudes a row (16 MiB a copy).
    assert spec._settled == {"W0", "W1", "W2", "W3"}
    tracemalloc.start()
    try:
        joint = evolve(spec, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert joint.model_tag == tag
    assert joint.agents == tuple(f"F{i}" for i in range(5)) + tuple(f"W{i}" for i in range(5))
    want = ghz_joint_closed_form(ALPHA, BETA, thetas, friends_collapse)
    assert np.max(np.abs(joint.array - want)) <= ORACLE_ATOL
    assert peak < 8 * 2**20, peak
