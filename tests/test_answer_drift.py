"""``tools/answer_drift.py``: how it counts two sides' answers, route by route."""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("answer_drift", ROOT / "tools" / "answer_drift.py")
drift = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(drift)

LABELS = (("A", "W"), "ism")


def test_each_answer_counts_once_as_equal_moved_reshaped_or_erring():
    old = {
        ("evolve", 1): (LABELS, np.array([0.5, 0.5, 0.0])),
        ("evolve", 2): (LABELS, np.array([0.5, 0.5, 0.0])),
        ("evolve", 3): (LABELS, np.array([0.5, 0.5, 0.0])),
        ("evolve", 4): (LABELS, np.array([1.0])),
        ("memory_state", 1): ("error", "KeyError: 'x'"),
        ("memory_state", 2): ("error", "KeyError: 'x'"),
        ("memory_state", 3): (("S",), np.array([1.0 + 0j])),
    }
    new = {
        ("evolve", 1): (LABELS, np.array([0.5, 0.5, 0.0])),
        ("evolve", 2): (LABELS, np.array([0.5, 0.5 - 2.0**-53, 0.0])),
        ("evolve", 3): (LABELS, np.array([0.5, 0.5 - 2.0**-54, 2.0**-54])),
        ("evolve", 4): (LABELS, np.array([1.0, 0.0])),
        ("memory_state", 1): ("error", "KeyError: 'x'"),
        ("memory_state", 2): ("error", "KeyError: 'y'"),
        ("memory_state", 3): ("error", "ValueError: z"),
    }
    rows = drift.compare(old, new)
    assert rows["evolve"] == {
        "answers": 4, "bitwise": 1, "max_delta": 2.0**-53, "support": 2, "errors": 0,
    }
    assert rows["memory_state"] == {
        "answers": 3, "bitwise": 1, "max_delta": 0.0, "support": 0, "errors": 2,
    }
    assert rows["conditional_table"]["answers"] == 0


def test_an_answer_is_its_labels_and_one_flat_array():
    assert drift.answer(lambda: {"O": 0.25, "F": 0.75})[0] == ("O", "F")
    assert drift.answer(lambda: {}["nobody"]) == ("error", "KeyError: 'nobody'")
