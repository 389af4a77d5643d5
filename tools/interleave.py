"""Two wignersim source trees in one interpreter, asked the same questions back to back.

Usage, from the root of a checkout::

    python3 tools/interleave.py OLD_ROOT NEW_ROOT --workload fr-questions --seed 1 --seconds 20

``OLD_ROOT`` and ``NEW_ROOT`` are checkouts (each with ``src/wignersim``).
Each tree is imported under its own package name, ``old_wignersim`` and
``new_wignersim``, with its ``cli`` module, and each side builds its own
deck from ``perfbench/workloads.py`` of this checkout with the same seed.
After one warm-up pass per side, every pass asks the questions in a fresh
random order, and question i of both sides back to back, in random order
within the pair.  Every answer is checked against its oracle.

It prints each side's best-of rate (each question at its lowest latency, as
``perfbench/worker.py`` reports it) and, per question kind, the sum of the
best latencies of both sides and their ratio.  Two separate processes can
land on different speed states of a shared host; back-to-back questions in
one process meet the same state, so the ratio repeats where separate runs do
not.  This measures only: it is not a gate, and the benchmark's end-to-end
numbers come from ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    # One BLAS thread, as the benchmark runs; this must precede numpy's import.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import numpy as np

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    decks = {}
    for side, root in zip(SIDES, (args.old, args.new)):
        ws = load(f"{side}_wignersim", root.resolve())
        specs = workload.build_specs(ws, np.random.default_rng(args.seed))
        decks[side] = workload.build_questions(ws, specs)
    old, new = decks["old"], decks["new"]
    if [q.label for q in old] != [q.label for q in new]:
        raise SystemExit("error: the two sides built different decks")

    rng = np.random.default_rng(args.seed)
    best = {side: [None] * len(old) for side in SIDES}
    errors: list[str] = []
    passes = -1  # the first pass is the warm-up and is not timed
    start = time.perf_counter()
    while passes < 1 or time.perf_counter() - start < args.seconds:
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

    kinds = sorted({q.kind for q in old})
    print(f"workload {args.workload}, seed {args.seed}, {passes} passes of {len(old)} questions")
    rate = {side: len(old) / (sum(best[side]) / 1e9) for side in SIDES}
    print(f"best-of rate: old {rate['old']:.0f}/s, new {rate['new']:.0f}/s, "
          f"new/old x{rate['new'] / rate['old']:.3f}")
    print(f"{'kind':40} {'n':>4} {'old ms':>9} {'new ms':>9} {'old/new':>8}")
    for kind in kinds:
        index = [i for i, q in enumerate(old) if q.kind == kind]
        ms = {side: sum(best[side][i] for i in index) / 1e6 for side in SIDES}
        print(f"{kind:40} {len(index):>4} {ms['old']:>9.3f} {ms['new']:>9.3f} "
              f"{ms['old'] / ms['new']:>8.3f}")
    print(f"failed answers: {len(errors)}")
    for message in errors[:10]:
        print(f"  {message}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
