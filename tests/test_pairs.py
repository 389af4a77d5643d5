"""``tools/pairs.py``'s summary of one metric over alternating pairs of runs."""

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
