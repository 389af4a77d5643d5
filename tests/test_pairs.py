"""``tools/pairs.py``: its summary of one metric over alternating pairs of runs,
and the shape of its interleaved comparison."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

RATE = {"name": "answers_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


def run(value, failed=0):
    return {"failed": failed, "metrics": {"answers_per_s": value}}


def runs(parent, change, parent_failed=0, change_failed=0):
    return [
        {"pair": i, "parent": run(p, parent_failed), "change": run(c, change_failed)}
        for i, (p, c) in enumerate(zip(parent, change))
    ]


PARENT = [100.0 + i for i in range(10)]
FASTER = [200.0 + i for i in range(10)]


def test_a_gain_in_every_pair_beyond_the_parents_iqr_meets_the_claim():
    s = pairs.summarize(runs(PARENT, FASTER), RATE)
    assert s["pairs_won"] == 10 and s["verdict"] == "ok" and s["claim_met"]


def test_more_failed_operations_than_the_parent_void_the_claim():
    assert not pairs.summarize(runs(PARENT, FASTER, change_failed=1), RATE)["claim_met"]
    assert pairs.summarize(runs(PARENT, FASTER, parent_failed=1, change_failed=1), RATE)["claim_met"]


def test_eight_pairs_won_of_ten_do_not_meet_the_claim():
    change = FASTER[:8] + [50.0, 50.0]
    s = pairs.summarize(runs(PARENT, change), RATE)
    assert s["pairs_won"] == 8 and not s["claim_met"]


def test_a_median_worse_beyond_the_bound_is_worse():
    slower = [70.0 + i for i in range(10)]
    assert pairs.summarize(runs(PARENT, slower), RATE)["verdict"] == "worse"


def test_the_interleaved_run_gives_each_question_kind_its_ratio():
    # Both sides are this checkout; a short run still makes one timed pass.
    block = pairs.interleaved(ROOT, ROOT, "fr-questions", seconds=0.05)
    assert set(block) == {"seed", "seconds", "passes", "rate", "new_over_old", "kinds", "failed"}
    assert block["seed"] == pairs.PAIRS + 1 and block["passes"] >= 1 and block["failed"] == 0
    assert set(block["rate"]) == {"old", "new"} and block["new_over_old"] > 0
    assert {"conditional_table", "evolve", "memory_state"} <= set(block["kinds"])
    assert all(isinstance(ratio, float) and ratio > 0 for ratio in block["kinds"].values())
    report = {"parent_ref": "0000000", "pairs": 10, "seconds": 30.0, "workloads": {},
              "interleave": {"fr-questions": block}}
    assert "fr-questions interleaved (0.05 s, seed 11): new/old x" in pairs.paragraph(report)
