"""Two wignersim source trees in one interpreter, asked the same questions back to back.

Usage, from the root of a checkout::

    python3 tools/interleave.py OLD_ROOT NEW_ROOT --workload fr-questions --seed 1 --seconds 20 [--json]

``OLD_ROOT`` and ``NEW_ROOT`` are checkouts (each with ``src/wignersim``).
Each tree is imported under its own package name, ``old_wignersim`` and
``new_wignersim``, with its ``cli`` module, and each side builds its own
deck from ``perfbench/workloads.py`` of this checkout with the same seed.
After one warm-up pass per side, every pass asks the questions in a fresh
random order, and question i of both sides back to back, in random order
within the pair.  Every answer is checked against its oracle.

It prints each side's best-of rate (each question at its lowest latency, as
``perfbench/worker.py`` reports it) and, per question kind, the sum of the
best latencies of both sides and their ratio; ``--json`` prints the same
figures as one JSON object instead, as ``tools/pairs.py`` reads them.  Two
separate processes can
land on different speed states of a shared host; back-to-back questions in
one process meet the same state, so the ratio repeats where separate runs do
not.  This measures only: it is not a gate, and the benchmark's end-to-end
numbers come from ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("old", "new")


def load(alias: str, root: Path):
    """Import ``root/src/wignersim`` as package ``alias``, with ``alias.cli``."""
    package = root / "src" / "wignersim"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no wignersim package under {root / 'src'}")
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    importlib.import_module(alias + ".cli")
    return module


def ask(question) -> tuple[int, str | None]:
    """Latency in ns and the failure message (None when the answer is right)."""
    start = time.perf_counter_ns()
    try:
        answer = question.ask()
    except Exception as err:  # a question that raises is a failed question
        return time.perf_counter_ns() - start, f"{type(err).__name__}: {err}"
    elapsed = time.perf_counter_ns() - start
    try:
        return elapsed, question.check(answer)
    except Exception as err:  # so is an answer the oracle cannot read
        return elapsed, f"{type(err).__name__} while checking: {err}"


def measure(old_root: Path, new_root: Path, workload_name: str, seed: int, seconds: float) -> dict:
    """Both trees' best-of rates and, per question kind, their best latencies.

    BLAS threads must be set before numpy is first imported, as :func:`main`
    does.
    """
    import numpy as np

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    if workload_name not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload_name!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[workload_name]
    decks = {}
    for side, root in zip(SIDES, (old_root, new_root)):
        ws = load(f"{side}_wignersim", root.resolve())
        specs = workload.build_specs(ws, np.random.default_rng(seed))
        decks[side] = workload.build_questions(ws, specs)
    old, new = decks["old"], decks["new"]
    if [q.label for q in old] != [q.label for q in new]:
        raise SystemExit("error: the two sides built different decks")

    rng = np.random.default_rng(seed)
    best = {side: [None] * len(old) for side in SIDES}
    errors: list[str] = []
    passes = -1  # the first pass is the warm-up and is not timed
    start = time.perf_counter()
    while passes < 1 or time.perf_counter() - start < seconds:
        for i in rng.permutation(len(old)):
            for side in (SIDES if rng.random() < 0.5 else SIDES[::-1]):
                elapsed, message = ask(decks[side][i])
                if message:
                    errors.append(f"{side} {decks[side][i].label}: {message}")
                if passes >= 0:
                    b = best[side][i]
                    best[side][i] = elapsed if b is None else min(b, elapsed)
        if passes < 0:
            start = time.perf_counter()
        passes += 1

    kinds = {}
    for kind in sorted({q.kind for q in old}):
        index = [i for i, q in enumerate(old) if q.kind == kind]
        ms = {side: sum(best[side][i] for i in index) / 1e6 for side in SIDES}
        kinds[kind] = {"n": len(index), "old_ms": ms["old"], "new_ms": ms["new"],
                       "old_over_new": ms["old"] / ms["new"]}
    rate = {side: len(old) / (sum(best[side]) / 1e9) for side in SIDES}
    return {"workload": workload_name, "seed": seed, "seconds": seconds, "passes": passes,
            "questions": len(old), "rate": rate, "new_over_old": rate["new"] / rate["old"],
            "kinds": kinds, "failed": len(errors), "errors": errors[:10]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--json", action="store_true", help="print the figures as one JSON object")
    args = parser.parse_args(argv)
    # One BLAS thread, as the benchmark runs; this must precede numpy's import.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    result = measure(args.old, args.new, args.workload, args.seed, args.seconds)
    if args.json:
        print(json.dumps(result))
        return 1 if result["failed"] else 0
    rate = result["rate"]
    print(f"workload {args.workload}, seed {args.seed}, {result['passes']} passes of "
          f"{result['questions']} questions")
    print(f"best-of rate: old {rate['old']:.0f}/s, new {rate['new']:.0f}/s, "
          f"new/old x{result['new_over_old']:.3f}")
    print(f"{'kind':40} {'n':>4} {'old ms':>9} {'new ms':>9} {'old/new':>8}")
    for kind, k in result["kinds"].items():
        print(f"{kind:40} {k['n']:>4} {k['old_ms']:>9.3f} {k['new_ms']:>9.3f} "
              f"{k['old_over_new']:>8.3f}")
    print(f"failed answers: {result['failed']}")
    for message in result["errors"]:
        print(f"  {message}")
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
