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
runs failed no more operations in all than the parent's.  The runner prints
a summary paragraph as it finishes.
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
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(paragraph(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
