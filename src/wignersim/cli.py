"""Command-line front end.

Subcommands: ``tables`` (joint/marginal/conditional distributions),
``check`` (consistency scenarios), ``sample`` (seeded demonstration runs of
the exact joint), ``export-preset`` (experiment JSON).

Exit codes: 0 success or consistent, 1 contradiction found, 2 usage or
config error, 3 conditioning on a zero-probability event, 4 internal failure
(any other exception, such as running out of memory).

Output is deterministic: same inputs, byte-identical bytes.  Tables are
ordered by memory-basis position, never alphabetically, and floats use a
fixed number of decimal digits (default 5).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .channels import NO_COLLAPSE, OBJECTIVE_COLLAPSE, CollapseModel
from .deduction import build_deutsch_scenario, build_fr_scenario
from .experiment import (
    ExperimentSpec,
    conditional_table,
    conditional_via_renormalized_state,
    evolve,
    marginal,
)
from .presets import _shared, presets
from .serialize import dumps_canonical, experiment_to_document, load_experiment
from .states import ZeroProbabilityError

EXIT_OK = 0
EXIT_CONTRADICTION = 1
EXIT_USAGE = 2
EXIT_IMPOSSIBLE = 3
EXIT_INTERNAL = 4


class UsageError(ValueError):
    pass


def _load_spec(config: argparse.Namespace) -> ExperimentSpec:
    if config.preset is not None:
        names = presets()
        if config.preset not in names:
            raise UsageError(
                f"unknown preset {config.preset!r}; choose from "
                f"{', '.join(sorted(names))}"
            )
        return _shared(config.preset)
    try:
        return load_experiment(config.config_path)
    except (OSError, ValueError) as err:  # a JSONDecodeError is a ValueError
        raise UsageError(f"cannot load experiment config: {err}") from err


def _parse_model(text: str, spec: ExperimentSpec) -> CollapseModel:
    if text == "ism":
        return NO_COLLAPSE
    if text == "objective":
        return OBJECTIVE_COLLAPSE
    if text.startswith("clps:"):
        names = text[5:].split("+")
        return CollapseModel(frozenset(_resolve_agent(name, spec) for name in names))
    raise UsageError(
        f"unknown model {text!r}; use ism, objective, or clps:<agent>[+<agent>...]"
    )


def _resolve_agent(name: str, spec: ExperimentSpec) -> str:
    for agent in spec.measuring_agents:
        if agent.lower() == name.lower():
            return agent
    raise UsageError(
        f"unknown agent {name!r}; measuring agents are "
        f"{', '.join(spec.measuring_agents)}"
    )


def _fmt(p: float, digits: int) -> str:
    return f"{p + 0.0:.{digits}f}"


def _text_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(header[c]), *(len(r[c]) for r in rows)) if rows else len(header[c])
        for c in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _emit(config: argparse.Namespace, spec: ExperimentSpec, tag: str, what: str,
          header: list[str], rows: list[list[str]], payload: dict) -> int:
    """Print one ``tables`` result in the chosen format: JSON, CSV or a text table."""
    if config.output_format == "json":
        doc = {"experiment": spec.name, "model": tag, **payload}
        print(json.dumps(doc, sort_keys=True, ensure_ascii=False))
    elif config.output_format == "csv":
        print("\n".join([",".join(header)] + [",".join(r) for r in rows]))
    else:
        print(f"P({what})  model={tag}  experiment={spec.name}\n" + _text_table(header, rows))
    return EXIT_OK


def cmd_tables(config: argparse.Namespace) -> int:
    spec = _load_spec(config)
    model = _parse_model(config.model, spec)
    digits = config.digits

    if config.joint:
        if (config.target, config.given, config.given_outcome) != (None, None, None):
            raise UsageError("--joint takes no --target, --given or --given-outcome")
        joint = evolve(spec, model)
        items = [(str(a), p) for a, p in joint.probs.items()]
        return _emit(
            config, spec, joint.model_tag, ",".join(joint.agents), ["assignment", "p"],
            [[a, _fmt(p, digits)] for a, p in items],
            {"agents": list(joint.agents),
             "probabilities": [{"assignment": a, "p": round(p, digits)} for a, p in items]},
        )

    if config.target is None:
        raise UsageError("tables needs --target (with optional --given) or --joint")
    target = _resolve_agent(config.target, spec)
    if config.given is None and config.given_outcome is not None:
        raise UsageError("--given-outcome needs --given")
    alphabet = spec.step_for(target).iso.outcome_labels

    if config.given is None:
        dist = marginal(evolve(spec, model), target)
        return _emit(
            config, spec, model.tag, target, [target, "p"],
            [[o, _fmt(dist[o], digits)] for o in alphabet],
            {"target": target, "marginal": {o: round(dist[o], digits) for o in alphabet}},
        )

    given = _resolve_agent(config.given, spec)
    outcome = config.given_outcome
    if outcome is not None:
        dist = conditional_via_renormalized_state(spec, model, target, given, outcome)
        return _emit(
            config, spec, model.tag, f"{target} | {given}={outcome}",
            [target, f"{given}={outcome}"], [[o, _fmt(dist[o], digits)] for o in alphabet],
            {"target": target, "given": {given: outcome},
             "distribution": {o: round(dist[o], digits) for o in alphabet}},
        )

    if given == target:
        raise UsageError("--target and --given name the same agent; add --given-outcome")
    table = conditional_table(spec, model, target, given)
    columns = table.present_columns()
    return _emit(
        config, spec, table.model_tag, f"{target} | {given}",
        [target] + [f"{given}={g}" for g in columns],
        [[t] + [_fmt(table.columns[g][t], digits) for g in columns]
         for t in table.target_alphabet],
        {"target": target, "given": given,
         "columns": {g: {t: round(table.columns[g][t], digits) for t in table.target_alphabet}
                     for g in columns}},
    )


# The flags each scenario reads, with their defaults.  The parser leaves
# every flag at None, so one given to the other scenario shows.
_CHECK_FLAGS = {
    "fr": {"f1_model": "clps"},
    "deutsch": {"friend_model": "clps", "wigner_basis": "superposition"},
}


def cmd_check(config: argparse.Namespace) -> int:
    if config.scenario not in _CHECK_FLAGS:
        raise UsageError(f"unknown scenario {config.scenario!r}; use fr or deutsch")
    reads = _CHECK_FLAGS[config.scenario]
    for dest in ("f1_model", "friend_model", "wigner_basis"):
        if getattr(config, dest) is None:
            setattr(config, dest, reads.get(dest))
        elif dest not in reads:
            flag = "--" + dest.replace("_", "-")
            raise UsageError(f"check {config.scenario} does not read {flag}")
    if config.scenario == "fr":
        if config.f1_model == "ism":
            model = NO_COLLAPSE
        elif config.f1_model == "clps":
            model = CollapseModel.subjective("F1")
        elif config.f1_model == "objective":
            model = OBJECTIVE_COLLAPSE
        else:
            raise UsageError(f"unknown --f1-model {config.f1_model!r}")
        outcome = build_fr_scenario(model)
    else:
        if config.friend_model not in ("ism", "clps"):
            raise UsageError(f"unknown --friend-model {config.friend_model!r}")
        outcome = build_deutsch_scenario(
            friend_assumes_collapse=config.friend_model == "clps",
            wigner_basis=config.wigner_basis,
        )

    if config.output_format == "json":
        print(json.dumps(outcome.to_json(), sort_keys=True, ensure_ascii=False))
    else:
        if outcome.consistent:
            print(
                f"scenario: {outcome.scenario}\n"
                f"chain: {outcome.chain.render()}\n"
                "consistent: all compatibility constraints hold"
            )
        else:
            print(outcome.report.to_text())
    return EXIT_OK if outcome.consistent else EXIT_CONTRADICTION


def cmd_sample(config: argparse.Namespace) -> int:
    if config.seed is None:
        raise UsageError("sample requires --seed for reproducibility")
    if not 0 <= config.seed < 2**128:
        raise UsageError(f"--seed must be in [0, 2**128), got {config.seed}")
    if config.shots is None or config.shots < 0:
        raise UsageError("sample requires --shots >= 0")
    spec = _load_spec(config)
    model = _parse_model(config.model, spec)
    joint = evolve(spec, model)
    entries = list(joint.probs.items())

    rng = np.random.Generator(np.random.Philox(key=config.seed))
    cdf = np.cumsum([p for _, p in entries])
    cdf[-1] = 1.0
    draws = np.searchsorted(cdf, rng.random(config.shots), side="right")
    counts = np.bincount(draws, minlength=len(entries))

    lines = [
        f"experiment={spec.name}  model={model.tag}  "
        f"seed={config.seed}  shots={config.shots}"
    ]
    if spec.halting:
        halting = dict(spec.halting)
        halted = sum(
            int(c)
            for (assignment, _), c in zip(entries, counts)
            if assignment.matches(halting)
        )
        exact = joint.probability(halting)
        freq = halted / config.shots if config.shots else 0.0
        lines.append(
            "halting "
            + ",".join(f"{a}={o}" for a, o in spec.halting)
            + f": frequency={_fmt(freq, config.digits)}"
            + f" exact={_fmt(exact, config.digits)}"
        )
    lines.append("assignment,count")
    if config.shots:
        for (assignment, _), count in zip(entries, counts):
            lines.append(f"{assignment},{int(count)}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_export_preset(config: argparse.Namespace) -> int:
    spec = _load_spec(config)
    text = dumps_canonical(experiment_to_document(spec))
    if config.out_path:
        try:
            with open(config.out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise UsageError(f"cannot write {config.out_path}: {err}") from err
    else:
        sys.stdout.write(text)
    return EXIT_OK


@functools.cache  # parse_args leaves the parser as it found it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignersim",
        description="Exact encapsulated-observer experiments and consistency checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("--preset", help="preset name (fr, deutsch, wigner-product, wigner-superposition)")
        p.add_argument("--config", dest="config_path", help="experiment JSON path")

    tables = sub.add_parser("tables", help="print distribution tables")
    add_source(tables)
    tables.add_argument("--model", default="ism",
                        help="ism | objective | clps:<agent>[+<agent>...]")
    tables.add_argument("--target", help="agent whose outcomes are tabulated")
    tables.add_argument("--given", help="conditioning agent")
    tables.add_argument(
        "--given-outcome",
        help="single conditioning outcome (renormalized-state route)",
    )
    tables.add_argument("--joint", action="store_true", help="print the full joint")
    tables.add_argument("--format", dest="output_format", default="text",
                        choices=("text", "csv", "json"))
    tables.add_argument("--digits", type=int, default=5)

    check = sub.add_parser("check", help="run a consistency scenario")
    check.add_argument("scenario", help="fr | deutsch")
    check.add_argument("--f1-model", dest="f1_model",
                       help="fr only: ism | clps (default) | objective")
    check.add_argument("--friend-model", dest="friend_model",
                       help="deutsch only: ism | clps (default)")
    check.add_argument("--wigner-basis", dest="wigner_basis",
                       choices=("superposition", "product"),
                       help="deutsch only (default: superposition)")
    check.add_argument("--format", dest="output_format", default="text",
                       choices=("text", "json"))

    sample = sub.add_parser("sample", help="seeded sampling from the exact joint")
    add_source(sample)
    sample.add_argument("--model", default="ism")
    sample.add_argument("--shots", type=int)
    sample.add_argument("--seed", type=int)
    sample.add_argument("--digits", type=int, default=5)

    export = sub.add_parser("export-preset", help="emit the experiment JSON")
    add_source(export)
    export.add_argument("--out", dest="out_path")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code) if err.code else EXIT_OK
    handlers = {
        "tables": cmd_tables,
        "check": cmd_check,
        "sample": cmd_sample,
        "export-preset": cmd_export_preset,
    }
    try:
        if "preset" in args and (args.preset is None) == (args.config_path is None):
            raise UsageError("exactly one of --preset / --config is required")
        if "digits" in args and not 1 <= args.digits <= 17:
            raise UsageError(f"--digits must be in [1, 17], got {args.digits}")
        return handlers[args.command](args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except KeyError as err:  # str(KeyError) would quote its message
        print(f"error: {err.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except ZeroProbabilityError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IMPOSSIBLE
    except Exception as err:  # a fault, never a verdict: exit 1 means a contradiction
        message = " ".join(str(err).split())
        print(f"error: {type(err).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
