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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class RunConfig:
    command: str
    preset: str | None = None
    config_path: str | None = None
    model: str = "ism"
    target: str | None = None
    given: str | None = None
    given_outcome: str | None = None
    joint: bool = False
    output_format: str = "text"
    digits: int = 5
    seed: int | None = None
    shots: int | None = None
    scenario: str | None = None
    f1_model: str = "clps"
    friend_model: str = "clps"
    wigner_basis: str = "superposition"
    out_path: str | None = None

    def __post_init__(self) -> None:
        if self.command in ("tables", "sample", "export-preset"):
            if (self.preset is None) == (self.config_path is None):
                raise UsageError("exactly one of --preset / --config is required")
        if not 1 <= self.digits <= 17:
            raise UsageError(f"--digits must be in [1, 17], got {self.digits}")


def _load_spec(config: RunConfig) -> ExperimentSpec:
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
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as err:
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


def cmd_tables(config: RunConfig) -> int:
    spec = _load_spec(config)
    model = _parse_model(config.model, spec)
    digits = config.digits
    out: list[str] = []

    if config.joint:
        if (config.target, config.given, config.given_outcome) != (None, None, None):
            raise UsageError("--joint takes no --target, --given or --given-outcome")
        joint = evolve(spec, model)
        title = f"P({','.join(joint.agents)})  model={joint.model_tag}  experiment={spec.name}"
        if config.output_format == "json":
            payload = {
                "experiment": spec.name,
                "model": joint.model_tag,
                "agents": list(joint.agents),
                "probabilities": [
                    {"assignment": str(a), "p": round(p, digits)}
                    for a, p in joint.probs.items()
                ],
            }
            print(json.dumps(payload, sort_keys=True, ensure_ascii=False))
            return EXIT_OK
        rows = [[str(a), _fmt(p, digits)] for a, p in joint.probs.items()]
        if config.output_format == "csv":
            out.append("assignment,p")
            out.extend(",".join(r) for r in rows)
        else:
            out.append(title)
            out.append(_text_table(["assignment", "p"], rows))
        print("\n".join(out))
        return EXIT_OK

    if config.target is None:
        raise UsageError("tables needs --target (with optional --given) or --joint")
    target = _resolve_agent(config.target, spec)
    if config.given is None and config.given_outcome is not None:
        raise UsageError("--given-outcome needs --given")

    if config.given is None:
        dist = marginal(evolve(spec, model), target)
        alphabet = spec.step_for(target).iso.outcome_labels
        rows = [[o, _fmt(dist[o], digits)] for o in alphabet]
        if config.output_format == "json":
            payload = {
                "experiment": spec.name,
                "model": model.tag,
                "target": target,
                "marginal": {o: round(dist[o], digits) for o in alphabet},
            }
            print(json.dumps(payload, sort_keys=True, ensure_ascii=False))
        elif config.output_format == "csv":
            print("\n".join([f"{target},p"] + [",".join(r) for r in rows]))
        else:
            print(
                f"P({target})  model={model.tag}  experiment={spec.name}\n"
                + _text_table([target, "p"], rows)
            )
        return EXIT_OK

    given = _resolve_agent(config.given, spec)
    target_alphabet = spec.step_for(target).iso.outcome_labels

    if config.given_outcome is not None:
        dist = conditional_via_renormalized_state(
            spec, model, target, given, config.given_outcome
        )
        rows = [[o, _fmt(dist[o], digits)] for o in target_alphabet]
        if config.output_format == "json":
            payload = {
                "experiment": spec.name,
                "model": model.tag,
                "target": target,
                "given": {given: config.given_outcome},
                "distribution": {o: round(dist[o], digits) for o in target_alphabet},
            }
            print(json.dumps(payload, sort_keys=True, ensure_ascii=False))
        elif config.output_format == "csv":
            print(
                "\n".join(
                    [f"{target},{given}={config.given_outcome}"]
                    + [",".join(r) for r in rows]
                )
            )
        else:
            print(
                f"P({target} | {given}={config.given_outcome})  model={model.tag}"
                f"  experiment={spec.name}\n"
                + _text_table([target, f"{given}={config.given_outcome}"], rows)
            )
        return EXIT_OK

    if given == target:
        raise UsageError("--target and --given name the same agent; add --given-outcome")
    table = conditional_table(spec, model, target, given)
    columns = table.present_columns()
    header = [target] + [f"{given}={g}" for g in columns]
    rows = [
        [t] + [_fmt(table.columns[g][t], digits) for g in columns]
        for t in table.target_alphabet
    ]
    if config.output_format == "json":
        payload = {
            "experiment": spec.name,
            "model": table.model_tag,
            "target": target,
            "given": given,
            "columns": {
                g: {t: round(table.columns[g][t], digits) for t in table.target_alphabet}
                for g in columns
            },
        }
        print(json.dumps(payload, sort_keys=True, ensure_ascii=False))
    elif config.output_format == "csv":
        print("\n".join([",".join(header)] + [",".join(r) for r in rows]))
    else:
        print(
            f"P({target} | {given})  model={table.model_tag}  experiment={spec.name}\n"
            + _text_table(header, rows)
        )
    return EXIT_OK


def cmd_check(config: RunConfig) -> int:
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
    elif config.scenario == "deutsch":
        if config.friend_model not in ("ism", "clps"):
            raise UsageError(f"unknown --friend-model {config.friend_model!r}")
        outcome = build_deutsch_scenario(
            friend_assumes_collapse=config.friend_model == "clps",
            wigner_basis=config.wigner_basis,
        )
    else:
        raise UsageError(f"unknown scenario {config.scenario!r}; use fr or deutsch")

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


def cmd_sample(config: RunConfig) -> int:
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


def cmd_export_preset(config: RunConfig) -> int:
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
    check.add_argument("--f1-model", dest="f1_model", default="clps",
                       help="fr only: ism | clps | objective")
    check.add_argument("--friend-model", dest="friend_model", default="clps",
                       help="deutsch only: ism | clps")
    check.add_argument("--wigner-basis", dest="wigner_basis", default="superposition",
                       choices=("superposition", "product"))
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
        config = RunConfig(
            command=args.command,
            **{
                k: v
                for k, v in vars(args).items()
                if k != "command" and v is not None
            },
        )
        return handlers[args.command](config)
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
