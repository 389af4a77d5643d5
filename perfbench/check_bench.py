"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench/check_bench.py``.
The file name keeps the repository's default test collection from picking
these up: together they run the benchmark eleven times (about two minutes).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ghz  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def ask_one_pass(name):
    """Build the workload in this process and ask its deck once after the warm-up."""
    import wignersim as ws
    import wignersim.cli  # noqa: F401

    rng = np.random.default_rng(5)
    workload = workloads.WORKLOADS[name]
    questions = workload.build_questions(ws, workload.build_specs(ws, rng))
    return worker.run_loop(questions, rng, 0.0, None, np)


def test_unperturbed_oracles_pass():
    assert ask_one_pass("ghz-evolve")["failed"] == 0


def test_perturbed_paper_value_is_reported(monkeypatch):
    monkeypatch.setattr(workloads, "HALTING_PROBABILITY", 1 / 11)
    out = ask_one_pass("fr-questions")
    assert out["failed"] > 0
    assert any("halting probability" in e for e in out["errors"])


def test_perturbed_closed_form_joint_is_reported(monkeypatch):
    joint = ghz.joint
    monkeypatch.setattr(ghz, "joint", lambda *a, **k: joint(*a, **k) * (1 + 1e-6))
    out = ask_one_pass("ghz-evolve")
    assert out["failed"] > 0
    assert any("oracle" in e for e in out["errors"])


def test_perturbed_closed_form_memory_state_is_reported(monkeypatch):
    memory_state = ghz.memory_state
    monkeypatch.setattr(ghz, "memory_state", lambda *a, **k: memory_state(*a, **k) + 1e-7)
    out = ask_one_pass("ghz-density")
    assert out["failed"] > 0
    assert all("entries differ from the oracle" in e for e in out["errors"])


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "fr-questions", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
