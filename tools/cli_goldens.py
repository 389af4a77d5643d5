"""Exit code and stdout digest of a fixed set of CLI commands, run in-process.

Usage::

    PYTHONPATH=src python3 tools/cli_goldens.py [--digits N] > digest.txt

Prints one line per command: the exit code, the SHA-256 of its stdout, and
the command.  Comparing the output of two checkouts shows which commands
changed their bytes.  The set is:

* the five acceptance-criterion-12 commands and ``tables --preset fr --joint``;
* ``check fr`` under each ``--f1-model``, as text and as JSON;
* on every preset under ``ism``, ``objective`` and every ``clps:<agent>``:
  ``tables --joint``, and ``tables --target T --given G --given-outcome O``
  for every ordered agent pair (T == G included), every outcome O of G and
  the outcome ``bogus``;
* ``check deutsch`` under each ``--friend-model`` and ``--wigner-basis``, as
  text and as JSON;
* on every preset under ``ism`` and ``objective``: ``tables --target T`` (the
  marginal) in text for every agent; in ``--format csv`` and ``--format json``,
  every ``tables`` mode: ``--joint``, the marginal of every agent, the
  conditional table of every ordered agent pair (T == G included) and
  ``--given-outcome O`` for every outcome O of G; and
  ``sample --seed 7 --shots 500``;
* ``export-preset`` of every preset.

``--digits N`` adds ``--digits N`` to every ``tables`` command; without it
the tables print at the default digits.  ``tests/cli_goldens.txt`` holds the
default-digit digest, which ``tests/test_cli_goldens.py`` recomputes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys

from wignersim.cli import main as cli_main
from wignersim.presets import presets

CRITERION_12 = (
    ("tables", "--preset", "fr", "--model", "ism", "--target", "f2", "--given", "a"),
    ("tables", "--preset", "fr", "--model", "clps:F1", "--target", "w", "--given", "f1"),
    ("check", "fr", "--f1-model", "clps"),
    ("check", "deutsch"),
    ("sample", "--preset", "fr", "--shots", "20000", "--seed", "7"),
    ("tables", "--preset", "fr", "--joint"),
)


def commands(digits: int | None = None) -> list[tuple[str, ...]]:
    digit_args = () if digits is None else ("--digits", str(digits))
    out = list(CRITERION_12)
    for f1_model in ("ism", "clps", "objective"):
        for output_format in ("text", "json"):
            out.append(("check", "fr", "--f1-model", f1_model, "--format", output_format))
    for name, build in sorted(presets().items()):
        spec = build()
        agents = spec.measuring_agents
        for model in ("ism", "objective") + tuple(f"clps:{a}" for a in agents):
            source = ("tables", "--preset", name, "--model", model)
            out.append(source + ("--joint",) + digit_args)
            for target in agents:
                for given in agents:
                    outcomes = spec.step_for(given).iso.outcome_labels + ("bogus",)
                    for outcome in outcomes:
                        table = ("--target", target, "--given", given, "--given-outcome", outcome)
                        out.append(source + table + digit_args)
    for friend_model in ("ism", "clps"):
        for basis in ("superposition", "product"):
            for output_format in ("text", "json"):
                out.append(("check", "deutsch", "--friend-model", friend_model,
                            "--wigner-basis", basis, "--format", output_format))
    for name, build in sorted(presets().items()):
        spec = build()
        agents = spec.measuring_agents
        for model in ("ism", "objective"):
            source = ("tables", "--preset", name, "--model", model)
            for target in agents:
                out.append(source + ("--target", target) + digit_args)
            for output_format in ("csv", "json"):
                tail = ("--format", output_format) + digit_args
                out.append(source + ("--joint",) + tail)
                for target in agents:
                    out.append(source + ("--target", target) + tail)
                    for given in agents:
                        out.append(source + ("--target", target, "--given", given) + tail)
                        for outcome in spec.step_for(given).iso.outcome_labels:
                            table = ("--target", target, "--given", given, "--given-outcome", outcome)
                            out.append(source + table + tail)
            out.append(("sample", "--preset", name, "--model", model, "--seed", "7", "--shots", "500"))
        out.append(("export-preset", "--preset", name))
    return out


def golden(argv: tuple[str, ...]) -> str:
    """``exit-code sha256(stdout)`` of one in-process CLI run; stderr is dropped."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(list(argv))
    digest = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
    return f"{code} {digest}"


def digest_lines(digits: int | None = None) -> list[str]:
    return [f"{golden(argv)} {' '.join(argv)}" for argv in commands(digits)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--digits", type=int, help="digits for every tables command")
    args = parser.parse_args(argv)
    for line in digest_lines(args.digits):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
