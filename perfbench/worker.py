"""One workload in one fresh interpreter: set up, warm up, then ask for a fixed time.

Started by ``run.py`` with the BLAS thread settings and ``PYTHONPATH`` of the
benchmark's environment.  Prints one JSON object on its last stdout line.

Set-up runs from the parent's spawn timestamp (``--spawned-ns``, a
``CLOCK_MONOTONIC`` reading shared by all processes on the machine) to the
moment ``wignersim`` is imported and the workload's specs are built.  With
``--setup-only`` the worker stops there.  Otherwise it builds the question
deck and its oracles, asks every question once as a warm-up, and then asks
the deck again and again, in a fresh seeded order each pass, until
``--seconds`` have passed; only whole passes are run, so every pass asks the
same questions.

The reported rate and latency percentiles come from each question's best
(lowest) latency over the run's passes, in the spirit of timeit's best-of.
On the shared 2-vCPU machine this benchmark was built on, each vCPU switches
between a fast and a roughly 1.3-1.7x slower state, sometimes within 0.1 s
and sometimes for tens of seconds, because other work shares the host.  A
question asked many times over a run usually meets the fast state at least
once, so its best latency repeats from run to run where a mean or median over
the run does not.  Rate and percentiles over all answers are kept in the output too.
"""

import time

STARTED_NS = time.monotonic_ns()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", help="trace the run and write its spans here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    import numpy as np

    import wignersim as ws
    import wignersim.cli  # noqa: F401  (the CLI questions call ws.cli.main)

    imported_ns = time.monotonic_ns()

    import tracing
    from workloads import WORKLOADS

    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer()
        tracing.install(tracer, ws)
    rng = np.random.default_rng(args.seed)
    workload = WORKLOADS[args.workload]
    specs = workload.build_specs(ws, rng)
    ready_ns = time.monotonic_ns()
    setup = {
        "setup_s": (ready_ns - args.spawned_ns) / 1e9,
        "import_s": (imported_ns - STARTED_NS) / 1e9,
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    out = {"setup": setup, "provenance": provenance(np)}
    if tracer is not None:
        out["setup_trace"] = tracer.snapshot()
        tracer.reset()
    questions = workload.build_questions(ws, specs)
    out.update(run_loop(questions, rng, args.seconds, tracer, np))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        write_spans(Path(args.trace_out), tracer, questions)
    print(json.dumps(out))
    return 0


def ask(question, tracer) -> tuple[int, str | None]:
    """Latency in ns and the failure message (None when the answer is right)."""
    start = time.perf_counter_ns()
    try:
        if tracer is None:
            answer = question.ask()
        else:
            answer = tracer.span("bench.question", question.ask)
    except Exception as err:  # a question that raises is a failed question
        return time.perf_counter_ns() - start, f"{question.label}: {type(err).__name__}: {err}"
    elapsed = time.perf_counter_ns() - start
    try:
        message = question.check(answer)
    except Exception as err:  # so is an answer the oracle cannot read
        message = f"{type(err).__name__} while checking: {err}"
    return elapsed, None if message is None else f"{question.label}: {message}"


def run_loop(questions, rng, seconds: float, tracer, np) -> dict:
    errors: list[str] = []
    for i in rng.permutation(len(questions)):
        _, message = ask(questions[i], tracer)
        if message:
            errors.append(message)
    warmup_failed = len(errors)
    if tracer is not None:
        tracer.reset()
        tracer.keep_spans = True

    passes: list[list[int]] = []  # latencies in ns, one list per pass
    by_kind: dict[str, list[int]] = {}
    best = [None] * len(questions)  # each question's lowest latency in ns
    decks = 0
    first_deck = None
    start = time.perf_counter()
    while decks == 0 or time.perf_counter() - start < seconds:
        passes.append([])
        for i in rng.permutation(len(questions)):
            elapsed, message = ask(questions[i], tracer)
            passes[-1].append(elapsed)
            best[i] = elapsed if best[i] is None else min(best[i], elapsed)
            by_kind.setdefault(questions[i].kind, []).append(elapsed)
            if message:
                errors.append(message)
        decks += 1
        if tracer is not None and first_deck is None:
            tracer.keep_spans = False
            first_deck = tracer.snapshot()
    wall = time.perf_counter() - start

    out = {
        "questions_per_deck": len(questions),
        "decks": decks,
        "attempted": len(questions) + decks * len(questions),
        "failed": len(errors),
        "warmup_failed": warmup_failed,
        "errors": errors[:10],
        "loop_wall_s": wall,
        "busy_s": sum(map(sum, passes)) / 1e9,
        "pass_busy_s": [sum(p) / 1e9 for p in passes],
        "best_per_question": answer_stats([best], np),
        "best_per_question_ms": [b / 1e6 for b in best],
        "all_passes": answer_stats(passes, np),
        "by_kind": {
            kind: {"n": len(v), "per_deck": len(v) // decks,
                   "p50_ms": float(np.percentile(v, 50) / 1e6),
                   "total_ms_per_deck": float(sum(v) / 1e6 / decks)}
            for kind, v in sorted(by_kind.items())
        },
    }
    if tracer is not None:
        loop = tracer.snapshot()
        out["trace"] = {
            "loop": loop,
            "first_deck": first_deck,
            "counts_repeat_exactly": all(
                loop[group].get(name, 0) == value * decks
                for group in ("calls", "counts")
                for name, value in first_deck[group].items()
            ),
        }
    return out


def answer_stats(passes: list[list[int]], np) -> dict:
    """Answers per second of answering time, and latency percentiles in ms.

    With ``[best]`` this is one answer per question of the deck at its best
    latency: the rate a pass would have if every question ran at its best,
    and the percentiles over the deck's questions.
    """
    lat_ms = np.concatenate([np.asarray(p, dtype=float) for p in passes]) / 1e6
    return {
        "passes": len(passes),
        "answers": len(lat_ms),
        "answers_per_s": float(len(lat_ms) / (lat_ms.sum() / 1e3)),
        "p50_ms": float(np.percentile(lat_ms, 50)),
        "p90_ms": float(np.percentile(lat_ms, 90)),
    }


def write_spans(path: Path, tracer, questions) -> None:
    """The spans of the first timed pass, kept in memory until the run ends."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "fields": ["id", "parent", "name", "start_ns", "end_ns"],
            "questions_per_deck": len(questions),
            "spans": tracer.spans,
        }, fh)


def provenance(np) -> dict:
    root = Path(__file__).resolve().parent.parent
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_sha": _git_sha(root),
        "src_sha256": digest.hexdigest(),
    }


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() or "unavailable"


if __name__ == "__main__":
    sys.exit(main())
