"""A collapse model is the set of agents whose measurements collapse.

The FR and Deutsch clashes come from two reasoners giving one measurement two
descriptions, collapse and isometry.  The two theorems below state this for
the presets over every assignment of collapse sets to reasoners.  The last
tests check sets of several agents against the plain-numpy oracle.
"""

import itertools

import numpy as np
import pytest

import numpy_oracle as oracle
from wignersim.channels import CollapseModel
from wignersim.deduction import POSSIBILITY, certainty_deductions, chain
from wignersim.experiment import (
    conditional_table,
    conditional_via_renormalized_state,
    evolve,
    marginal,
)
from wignersim.presets import deutsch_variant, frauchiger_renner

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


FR_SETS = [s for s in subsets(frauchiger_renner().measuring_agents) if len(s) >= 2]


@pytest.mark.parametrize("agents", FR_SETS, ids=lambda s: "+".join(sorted(s)))
def test_sets_of_several_agents_match_the_oracle(agents):
    spec = frauchiger_renner()
    model = CollapseModel(agents)
    for through in [None] + [s.time for s in spec.steps]:
        labels, dims, branches = oracle.ensemble(spec, model, through)
        want = oracle.joint(spec, model, labels, dims, branches, through)
        got = evolve(spec, model, through)
        assert got.model_tag == "clps:" + "+".join(sorted(agents))
        assert np.max(np.abs(got.array - want), initial=0.0) < ORACLE_ATOL, through


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
