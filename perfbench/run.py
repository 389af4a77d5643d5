"""wignersim benchmark: one closed-loop client asking exact questions.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fr-questions --seed 1 --seconds 20 --trace 0

Workloads: ``fr-questions``, ``ghz-evolve``, ``ghz-density`` (see NOTES.md).
Every workload runs in fresh interpreters with one BLAS thread, started with
``PYTHONPATH`` pointing at this checkout's ``src``; nothing is installed.

``--trace 0`` reports the end-to-end metrics: set-up time (median over
several fresh interpreters), answers per second and answer latency p50/p90
(each question at its best latency over the run), peak RSS and the share of
answers that matched their oracle.  ``--trace 1`` runs
the workload twice, untraced and then with timing wrappers around the
program's public functions, each for half of ``--seconds``, and reports the
per-layer metrics and the tracing overhead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records where
the numbers come from.  Full results and the spans of the traced run are
written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("fr-questions", "ghz-evolve", "ghz-density")
SETUP_PROBES = 6  # fresh interpreters timed before the run, and as many after it
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str]) -> dict:
    spawned = time.monotonic_ns()
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--spawned-ns", str(spawned), *args],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_probes(workload: str, seed: int, first: bool) -> list[dict]:
    """Set-up of fresh interpreters.  The very first, which may compile
    bytecode, is dropped; half the probes run before the timed run and half
    after it, so that the median spans more than one state of a shared host."""
    probe = ["--workload", workload, "--seed", str(seed), "--setup-only"]
    drop = 1 if first else 0
    return [run_worker(probe) for _ in range(SETUP_PROBES + drop)][drop:]


def end_to_end(run: dict, probes: list[dict]) -> dict:
    attempted, failed = run["attempted"], run["failed"]
    best = run["best_per_question"]
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "answers_per_s": (best["answers_per_s"], "1/s"),
        "answer_ms.p50": (best["p50_ms"], "ms"),
        "answer_ms.p90": (best["p90_ms"], "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(traced: dict, untraced: dict, probes: list[dict]) -> dict:
    """Per-pass (one pass asks every question of the deck once) layer metrics."""
    decks = traced["decks"]
    trace = traced["trace"]["loop"]
    setup = traced["setup_trace"]
    calls, self_ns, counts = trace["calls"], trace["self_ns"], trace["counts"]

    def per_deck(value):
        value = value / decks
        return int(value) if float(value).is_integer() else value

    def self_ms(name):
        return (self_ns.get(name, 0) / 1e6 / decks, "ms")

    def n_calls(name):
        return (per_deck(calls.get(name, 0)), "count")

    def ratio(num, den):
        return (counts.get(num, 0) / counts[den] if counts.get(den) else 0.0, "ratio")

    attributed_ns = sum(v for k, v in self_ns.items() if k != "bench.question")
    busy_ms = traced["busy_s"] * 1e3 / decks
    untraced_rate = untraced["best_per_question"]["answers_per_s"]
    traced_rate = traced["best_per_question"]["answers_per_s"]
    metrics = {
        "setup.import_s": (statistics.median(p["import_s"] for p in probes), "s"),
        "presets.build.self_ms": (setup["self_ns"].get("presets.build", 0) / 1e6, "ms"),
        "channels.build_isometry.self_ms": (setup["self_ns"].get("channels.build_isometry", 0) / 1e6, "ms"),
        "states.density.self_ms": self_ms("states.density"),
        "states.density.calls": n_calls("states.density"),
        "states.density.bytes": (per_deck(counts.get("states.density.bytes", 0)), "B"),
        "states.partial_trace.self_ms": self_ms("states.partial_trace"),
        "states.statevector.self_ms": self_ms("states.statevector"),
        "states.statevector.calls": n_calls("states.statevector"),
        "channels.apply_isometry.self_ms": self_ms("channels.apply_isometry"),
        "channels.apply_isometry.calls": n_calls("channels.apply_isometry"),
        "channels.apply_isometry.amps_out": (per_deck(counts.get("channels.apply_isometry.amps_out", 0)), "count"),
        "channels.branch_decomposition.self_ms": self_ms("channels.branch_decomposition"),
        "channels.branch_decomposition.calls": n_calls("channels.branch_decomposition"),
        "channels.branch_decomposition.outcomes": (per_deck(counts.get("channels.branch_decomposition.outcomes", 0)), "count"),
        "channels.branch_decomposition.useful": (per_deck(counts.get("channels.branch_decomposition.useful", 0)), "count"),
        "channels.branch_decomposition.useful_ratio": ratio(
            "channels.branch_decomposition.useful", "channels.branch_decomposition.outcomes"),
        "experiment.evolve.self_ms": self_ms("experiment.evolve"),
        "experiment.readout.cells": (per_deck(counts.get("experiment.readout.cells", 0)), "count"),
        "experiment.readout.support": (per_deck(counts.get("experiment.readout.support", 0)), "count"),
        "experiment.readout.support_ratio": ratio("experiment.readout.support", "experiment.readout.cells"),
        "experiment.joint.probability.calls": n_calls("experiment.joint.probability"),
        "experiment.conditional.self_ms": self_ms("experiment.conditional"),
        "experiment.memory_state.self_ms": self_ms("experiment.memory_state"),
        "deduction.scenario.self_ms": self_ms("deduction.scenario"),
        "deduction.certainty_deductions.calls": n_calls("deduction.certainty_deductions"),
        "deduction.chain.calls": n_calls("deduction.chain"),
        "storyplot.plot_from_distribution.self_ms": self_ms("storyplot.plot_from_distribution"),
        "storyplot.check_compatibility.self_ms": self_ms("storyplot.check_compatibility"),
        "cli.main.self_ms": self_ms("cli.main"),
        "serialize.roundtrip.self_ms": self_ms("serialize.roundtrip"),
    }
    for module in MODULES:
        ns = sum(v for k, v in self_ns.items() if k.split(".", 1)[0] == module)
        metrics[f"layer.{module}.self_ms"] = (ns / 1e6 / decks, "ms")
    metrics.update({
        "deck.questions": (traced["questions_per_deck"], "count"),
        "trace.busy_ms": (busy_ms, "ms"),
        "trace.attributed_ms": (attributed_ns / 1e6 / decks, "ms"),
        "trace.unattributed_ms": (busy_ms - attributed_ns / 1e6 / decks, "ms"),
        "trace.untraced_answers_per_s": (untraced_rate, "1/s"),
        "trace.traced_answers_per_s": (traced_rate, "1/s"),
        "trace.overhead_pct": (100.0 * (untraced_rate - traced_rate) / untraced_rate, "%"),
    })
    return metrics


MODULES = ("registry", "states", "channels", "experiment", "presets",
           "serialize", "deduction", "storyplot", "cli")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wignersim" / "__init__.py").is_file():
        print(f"error: no wignersim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    probes = setup_probes(args.workload, args.seed, first=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 0:
        run = run_worker(common + ["--seconds", str(args.seconds)])
        runs = {"untraced": run}
    else:
        half = str(args.seconds / 2)
        untraced = run_worker(common + ["--seconds", half])
        run = run_worker(common + ["--seconds", half, "--trace-out", str(OUT / f"spans-{tag}.json")])
        runs = {"untraced": untraced, "traced": run}
    probes += setup_probes(args.workload, args.seed, first=False)
    metrics = end_to_end(run, probes) if args.trace == 0 else per_layer(run, untraced, probes)

    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "one closed-loop client",
        "provenance": run["provenance"],
        "setup_probes": probes,
        "errors": [e for r in runs.values() for e in r["errors"]][:10],
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"info": info, "runs": runs, "result": result}, fh, indent=1)
    print(json.dumps({"info": {k: info[k] for k in ("workload", "seed", "provenance", "errors")}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
