"""The benchmark run in alternating pairs against a parent commit, written as one JSON file.

Usage, from the root of a checkout::

    python3 tools/pairs.py PARENT_REF --out BENCH_<n>.json

``PARENT_REF`` is unpacked with ``git archive`` into a temporary directory;
the other side is this checkout's working tree.  For every workload of
``BENCHMARK.json``, pair i = 0…9 runs ``perfbench/run.py --trace 0`` for the
file's ``run_seconds`` once on each side with seed i + 1, parent first when i
is even and change first when it is odd, so that drift of a shared host
falls on both sides alike.

The file holds every run (its metrics, ``attempted`` and wall time) and, per
workload and end-to-end metric: each side's median and interquartile range,
the relative change of the medians (positive is better), the pairs the
change won, and a verdict against the metric's bound:

* ``worse``: the median is worse than the parent's by more than the bound;
* ``unresolved``: not worse, but one side's IQR over its median exceeds the
  bound, so the runs spread too widely to tell, unless every run of the
  change is better than every run of the parent;
* ``ok``: otherwise.

``claim_met`` says whether the change is better in at least nine of ten
pairs, its median beats the parent's by more than the parent's IQR, and its
runs failed no more operations in all than the parent's.

After the pairs, ``tools/interleave.py`` asks every workload's deck of both
trees in one process for 20 s, with seed 11, which no pair uses.  Its
figures go under the file's ``interleave`` key, per workload: the best-of
rates, their ratio and each question kind's old/new ratio of best
latencies.  They measure only; the verdicts come from the pairs.  The
runner prints a summary paragraph as it finishes.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
INTERLEAVE_SECONDS = 20.0


def unpack(ref: str, into: Path) -> Path:
    """The tree of ``ref`` as committed, extracted into ``into``."""
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfbench/run.py exited with {done.returncode} in {tree}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "wall_s": round(time.monotonic() - start, 1),
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def interleaved(parent: Path, change: Path, workload: str,
                seconds: float = INTERLEAVE_SECONDS) -> dict:
    """``tools/interleave.py`` on the two trees: best-of rates and per-kind ratios."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "interleave.py"), str(parent), str(change),
         "--workload", workload, "--seed", str(PAIRS + 1), "--seconds", str(seconds), "--json"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode not in (0, 1) or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        raise SystemExit(f"tools/interleave.py exited with {done.returncode} on {workload}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "seed": result["seed"],
        "seconds": result["seconds"],
        "passes": result["passes"],
        "rate": result["rate"],
        "new_over_old": result["new_over_old"],
        "kinds": {kind: k["old_over_new"] for kind, k in result["kinds"].items()},
        "failed": result["failed"],
    }


def summarize(runs: list[dict], metric: dict) -> dict:
    """Medians, IQRs, pairs won and the verdict of one metric on one workload."""
    name, sign = metric["name"], (1.0 if metric["better"] == "higher" else -1.0)
    values = {side: [r[side]["metrics"][name] for r in runs] for side in SIDES}
    stats = {side: statistics.quantiles(values[side], n=4, method="inclusive") for side in SIDES}
    median = {side: stats[side][1] for side in SIDES}
    iqr = {side: stats[side][2] - stats[side][0] for side in SIDES}
    gain = sign * (median["change"] - median["parent"])
    relative = gain / abs(median["parent"]) if median["parent"] else 0.0
    won = sum(sign * (r["change"]["metrics"][name] - r["parent"]["metrics"][name]) > 0 for r in runs)
    spread = max(iqr[side] / abs(median[side]) if median[side] else 0.0 for side in SIDES)
    failed = {side: sum(r[side]["failed"] for r in runs) for side in SIDES}
    dominates = min(sign * v for v in values["change"]) > max(sign * v for v in values["parent"])
    if -relative > metric["bound"]:
        verdict = "worse"
    elif spread > metric["bound"] and not dominates:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "median": median,
        "iqr": iqr,
        "relative_gain": relative,
        "pairs_won": won,
        "pairs": len(runs),
        "claim_met": (won >= 0.9 * len(runs) and gain > iqr["parent"]
                      and failed["change"] <= failed["parent"]),
        "verdict": verdict,
    }


def paragraph(report: dict) -> str:
    lines = [f"Pairs against {report['parent_ref']}: {report['pairs']} alternating pairs of "
             f"{report['seconds']:g} s per workload."]
    for workload, block in report["workloads"].items():
        parts = []
        for name, s in block["metrics"].items():
            parts.append(f"{name} {s['median']['parent']:.4g} -> {s['median']['change']:.4g} "
                         f"({100 * s['relative_gain']:+.1f}%, won {s['pairs_won']}/{s['pairs']}, "
                         f"{s['verdict']})")
        lines.append(f"{workload}: " + "; ".join(parts) + ".")
    for workload, block in report["interleave"].items():
        kinds = ", ".join(f"{kind} {ratio:.3f}" for kind, ratio in block["kinds"].items())
        lines.append(f"{workload} interleaved ({block['seconds']:g} s, seed {block['seed']}): "
                     f"new/old x{block['new_over_old']:.3f}; old/new per kind: {kinds}.")
    return "\n".join(lines)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_ref")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seconds = float(spec["run_seconds"])
    parent = subprocess.run(["git", "rev-parse", "--short", args.parent_ref], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    report = {"parent_ref": parent, "pairs": PAIRS, "seconds": seconds,
              "python": sys.version.split()[0], "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {"parent": unpack(parent, Path(tmp)), "change": ROOT}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = []
            for i in range(PAIRS):
                pair = {"pair": i}
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    pair[side] = run_once(trees[side], workload, i + 1, seconds)
                    m = pair[side]["metrics"]
                    print(f"{workload} pair {i} {side}: answers_per_s {m['answers_per_s']:.0f}, "
                          f"peak_rss_mb {m['peak_rss_mb']:.2f}, attempted {pair[side]['attempted']}",
                          file=sys.stderr, flush=True)
                runs.append(pair)
            report["workloads"][workload] = {
                "runs": runs,
                "metrics": {m["name"]: summarize(runs, m) for m in spec["end_to_end"]},
            }
        report["interleave"] = {
            workload: interleaved(trees["parent"], trees["change"], workload)
            for workload in report["workloads"]
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(paragraph(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
