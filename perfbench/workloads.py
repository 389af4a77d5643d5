"""Question decks for the three workloads, each question with its oracle.

A workload is a fixed multiset of questions (a deck) asked of the public
``wignersim`` API by one client in a closed loop: ask, wait for the answer,
check it, ask the next.  The seed draws the GHZ amplitudes and angles and
the order in which each pass over the deck asks its questions; the deck's
composition never depends on the seed, so per-deck counts repeat exactly.

Every check compares against an oracle that does not run ``wignersim`` code:
the literal circuits of :mod:`reference`, the closed forms of :mod:`ghz`, or
numbers stated in the paper.  The two exceptions are labelled where they are
made: the command line and the experiment JSON must reproduce their own first
answer byte for byte, and the two conditioning routes must agree.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import ghz
import reference

TOL = 1e-9


@dataclass(frozen=True)
class Question:
    kind: str
    label: str
    ask: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the answer is right


@dataclass(frozen=True)
class Workload:
    """``build_specs`` is the set-up a script pays before its first question;
    ``build_questions`` wraps those specs into the deck with its oracles."""

    build_specs: Callable[[Any, np.random.Generator], dict]
    build_questions: Callable[[Any, dict], list[Question]]


def _model(ws, tag: str):
    if tag == "ism":
        return ws.NO_COLLAPSE
    if tag == "objective":
        return ws.OBJECTIVE_COLLAPSE
    return ws.CollapseModel.subjective(tag[len("clps:"):])


def _lazy(compute: Callable[[], Any]) -> Callable[[], Any]:
    """Compute an oracle value once, on first use (during the warm-up pass)."""
    box: list = []

    def get():
        if not box:
            box.append(compute())
        return box[0]

    return get


def _columns_error(got: dict, want: dict, what: str) -> str | None:
    if set(got) != set(want):
        return f"{what}: columns {sorted(got)} != {sorted(want)}"
    for g, column in want.items():
        for t, p in column.items():
            if abs(got[g][t] - p) > TOL:
                return f"{what}: P({t}|{g}) = {got[g][t]!r}, oracle {p!r}"
    return None


def _dense(joint, agents, alphabets) -> np.ndarray:
    """The program's dict-backed joint as a dense array in the oracle's layout."""
    if tuple(joint.agents) != tuple(agents):
        raise ValueError(f"agents {joint.agents} != {agents}")
    out = np.zeros(tuple(len(a) for a in alphabets))
    for assignment, p in joint.probs.items():
        out[tuple(alphabets[i].index(assignment[a]) for i, a in enumerate(agents))] += p
    return out


def _joint_error(joint, agents, alphabets, want: np.ndarray, what: str) -> str | None:
    total = sum(joint.probs.values())
    if abs(total - 1.0) > TOL:
        return f"{what}: joint sums to {total!r}"
    err = float(np.max(np.abs(_dense(joint, agents, alphabets) - want)))
    if err > TOL:
        return f"{what}: joint differs from the oracle by {err:.3g}"
    return None


def _matrix_error(rho, want: np.ndarray, what: str) -> str | None:
    trace = complex(np.trace(rho.entries))
    if abs(trace - 1.0) > TOL:
        return f"{what}: trace {trace!r}"
    if rho.entries.shape != want.shape:
        return f"{what}: shape {rho.entries.shape} != {want.shape}"
    err = float(np.max(np.abs(rho.entries - want)))
    if err > TOL:
        return f"{what}: entries differ from the oracle by {err:.3g}"
    return None


def _same_as_first(static: Callable[[Any], str | None]) -> Callable[[Any], str | None]:
    """Byte-determinism oracle: every answer must equal the first one."""
    first: list = []

    def check(answer):
        msg = static(answer)
        if msg:
            return msg
        if not first:
            first.append(answer)
            return None
        return None if answer == first[0] else "output differs from the first call"

    return check


# --- fr-questions ---------------------------------------------------------------

PRESETS = ("fr", "deutsch", "wigner-product", "wigner-superposition")

# Criteria 1-4 and 7: exact fractions stated for the nested-lab and
# single-lab setups, keyed by (preset, model, target, given).
EXACT_TABLES = {
    ("fr", "ism", "F2", "A"): {"o": {"U": 1.0, "D": 0.0}, "f": {"U": 1 / 5, "D": 4 / 5}},
    ("fr", "ism", "F1", "F2"): {"U": {"T": 1.0, "H": 0.0}, "D": {"T": 0.5, "H": 0.5}},
    ("fr", "ism", "W", "F1"): {"H": {"F": 5 / 6, "O": 1 / 6}, "T": {"F": 5 / 6, "O": 1 / 6}},
    ("fr", "clps:F1", "W", "F1"): {"T": {"F": 1.0, "O": 0.0}, "H": {"F": 0.5, "O": 0.5}},
    ("wigner-superposition", "clps:F", "W", "F"): {"u": {"phi+": 0.5, "phi-": 0.5}},
}
HALTING_PROBABILITY = 1 / 12

# The paper's clashes: F1, reasoning with his own collapse, deduces W = F at
# (t4, w) while W observes O; in Deutsch's variant the friend answers y = 1
# and Wigner's record says 0.
FR_CLASH = {"time": "t4", "slot": "w", "deduced": "F", "observed": "O",
            "deduced_by": "F1", "observed_by": "W", "model": "clps:F1"}
FR_CHAIN = {"F2": "U", "F1": "T"}
DEUTSCH_CLASH = {"slot": "y", "deduced": "1", "observed": "0",
                 "deduced_by": "F", "observed_by": "W"}

CLI_COMMANDS = (
    (("tables", "--preset", "fr", "--model", "ism", "--target", "f2", "--given", "a"), 0),
    (("tables", "--preset", "fr", "--model", "clps:F1", "--target", "w", "--given", "f1"), 0),
    (("check", "fr", "--f1-model", "clps"), 1),
    (("check", "deutsch"), 1),
    (("sample", "--preset", "fr", "--shots", "20000", "--seed", "7"), 0),
    (("tables", "--preset", "fr", "--joint"), 0),
)


def fr_specs(ws, rng: np.random.Generator) -> dict:
    return {name: ctor() for name, ctor in ws.presets().items()}


def fr_questions(ws, specs: dict) -> list[Question]:
    circuits = {name: reference.CIRCUITS[name]() for name in PRESETS}
    answered_tables: dict = {}  # program answers, for the route-agreement check
    questions: list[Question] = []

    for name in PRESETS:
        spec, circuit = specs[name], circuits[name]
        agents = spec.measuring_agents
        for tag in ["ism", "objective"] + [f"clps:{a}" for a in agents]:
            model = _model(ws, tag)
            for target, given in itertools.permutations(agents, 2):
                key = (name, tag, target, given)
                want = _lazy(lambda c=circuit, t=tag, a=target, b=given: reference.conditional(c, t, a, b))
                questions.append(Question(
                    "conditional_table", "/".join(key),
                    lambda s=spec, m=model, a=target, b=given: ws.conditional_table(s, m, a, b),
                    _table_check(key, want, answered_tables),
                ))
                for g in want():
                    questions.append(Question(
                        "conditional_via_renormalized_state", "/".join(key) + f"={g}",
                        lambda s=spec, m=model, a=target, b=given, o=g:
                            ws.conditional_via_renormalized_state(s, m, a, b, o),
                        _route_check(key, g, want, answered_tables),
                    ))
            questions.append(Question(
                "evolve", f"{name}/{tag}",
                lambda s=spec, m=model: _evolve_marginals(ws, s, m),
                _evolve_check(name, tag, circuit),
            ))

    for tag in ("clps:F1", "ism", "objective"):
        questions.append(Question(
            "build_fr_scenario", tag,
            lambda m=_model(ws, tag): ws.build_fr_scenario(m),
            _fr_scenario_check(tag),
        ))
    for basis in ("superposition", "product"):
        questions.append(Question(
            "build_deutsch_scenario", basis,
            lambda b=basis: ws.build_deutsch_scenario(wigner_basis=b),
            _deutsch_scenario_check(basis),
        ))

    for name, tag, discard, given, exact in (
        ("wigner-product", "ism", {"S"}, None, _criterion_5()),
        ("wigner-superposition", "ism", {"S"}, None, _criterion_6()),
        ("wigner-superposition", "clps:F", {"S"}, {"F": "u"}, None),
        ("fr", "ism", {"C", "S"}, None, None),
        ("fr", "clps:F1", {"C", "S"}, {"F1": "T"}, None),
    ):
        want = _lazy(lambda c=circuits[name], t=tag, d=discard, g=given: reference.memory_state(c, t, d, g))
        questions.append(Question(
            "memory_state", f"{name}/{tag}/given={given}",
            lambda s=specs[name], m=_model(ws, tag), d=discard, g=given: ws.memory_state(s, m, d, g),
            _memory_check(f"{name}/{tag}", want, exact),
        ))

    for name in PRESETS:
        questions.append(Question(
            "serialize_roundtrip", name,
            lambda s=specs[name]: _roundtrip(ws, s),
            _same_as_first(lambda texts: None if texts[0] == texts[1] else "round trip changed the document"),
        ))

    for argv, code in CLI_COMMANDS:
        questions.append(Question(
            "cli", " ".join(argv),
            lambda a=argv: _run_cli(ws, a),
            _same_as_first(lambda out, c=code: None if out[0] == c else f"exit code {out[0]}, expected {c}"),
        ))
    return questions


def _table_check(key, want, answered):
    exact = EXACT_TABLES.get(key)

    def check(table):
        got = {g: dict(table.columns[g]) for g in table.present_columns()}
        answered[key] = got
        msg = _columns_error(got, want(), "/".join(key))
        if msg is None and exact is not None:
            sub = {g: {t: got[g][t] for t in col} for g, col in got.items() if g in exact}
            msg = _columns_error(sub, exact, "/".join(key) + " (paper)")
        return msg

    return check


def _route_check(key, given_outcome, want, answered):
    exact = EXACT_TABLES.get(key, {}).get(given_outcome)

    def check(dist):
        msg = _columns_error({given_outcome: dist}, {given_outcome: want()[given_outcome]}, "/".join(key))
        if msg is None and exact is not None:
            sub = {t: dist[t] for t in exact}
            msg = _columns_error({given_outcome: sub}, {given_outcome: exact}, "/".join(key) + " (paper)")
        if msg is None and key in answered:
            # Bayes on the joint and the renormalized state must agree.
            msg = _columns_error(
                {given_outcome: dist}, {given_outcome: answered[key][given_outcome]},
                "/".join(key) + " (routes)",
            )
        return msg

    return check


def _evolve_marginals(ws, spec, model):
    joint = ws.evolve(spec, model)
    marginals = {a: ws.marginal(joint, a) for a in joint.agents}
    halted = None
    if spec.halting:
        halting = dict(spec.halting)
        halted = (joint.probability(halting), ws.post_select(joint, halting))
    return joint, marginals, halted


def _evolve_check(name, tag, circuit):
    want = _lazy(lambda: reference.joint(circuit, tag))

    def check(answer):
        joint, marginals, halted = answer
        agents, alphabets, probs = want()
        what = f"{name}/{tag}"
        msg = _joint_error(joint, agents, alphabets, probs, what)
        if msg:
            return msg
        for i, agent in enumerate(agents):
            expect = probs.sum(axis=tuple(a for a in range(len(agents)) if a != i))
            for j, outcome in enumerate(alphabets[i]):
                if abs(marginals[agent][outcome] - expect[j]) > TOL:
                    return f"{what}: marginal of {agent} at {outcome}"
        if halted is None:
            return None
        p_halt, post = halted
        halting = dict(circuit.halting)
        index = tuple(
            alphabets[i].index(halting[a]) if a in halting else slice(None)
            for i, a in enumerate(agents)
        )
        mask = np.zeros_like(probs)
        mask[index] = probs[index]
        if abs(p_halt - mask.sum()) > TOL:
            return f"{what}: halting probability {p_halt!r}"
        if tag == "ism":
            oracle = reference.halting_probability_einsum()
            if abs(p_halt - oracle) > TOL or abs(oracle - HALTING_PROBABILITY) > TOL:
                return f"{what}: halting probability {p_halt!r}, einsum {oracle!r}"
        return _joint_error(post, agents, alphabets, mask / mask.sum(), what + " post-selected")

    return check


def _fr_scenario_check(tag):
    def check(outcome):
        report = outcome.to_json()
        conclusions = outcome.chain.conclusions()
        if tag == "clps:F1":
            if outcome.consistent or report.get("clash") != FR_CLASH:
                return f"fr/{tag}: expected the (t4, w) clash, got {report.get('clash')}"
            want = dict(FR_CHAIN, W="F")
        else:
            if not outcome.consistent:
                return f"fr/{tag}: expected consistent accounts"
            want = FR_CHAIN
        if conclusions != want:
            return f"fr/{tag}: chain {conclusions} != {want}"
        return None

    return check


def _deutsch_scenario_check(basis):
    def check(outcome):
        if basis == "product":
            return None if outcome.consistent else "deutsch/product: expected consistent accounts"
        clash = outcome.to_json().get("clash") or {}
        got = {k: clash.get(k) for k in DEUTSCH_CLASH}
        return None if got == DEUTSCH_CLASH else f"deutsch: clash {clash} != {DEUTSCH_CLASH}"

    return check


def _criterion_5() -> np.ndarray:
    want = np.zeros((8, 8), dtype=complex)  # (F, W) with F in u, d and W in U, D, perp2, perp3
    want[0, 0] = want[5, 5] = 0.5
    return want


def _criterion_6() -> np.ndarray:
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    return np.kron(np.eye(2) / 2, pure)


def _memory_check(what, want, exact):
    def check(rho):
        msg = _matrix_error(rho, want(), what)
        if msg is None and exact is not None:
            msg = _matrix_error(rho, exact, what + " (paper)")
        return msg

    return check


def _roundtrip(ws, spec) -> tuple[str, str]:
    text = ws.dumps_canonical(ws.experiment_to_document(spec))
    again = ws.document_to_experiment(json.loads(text))
    return text, ws.dumps_canonical(ws.experiment_to_document(again))


def _run_cli(ws, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ws.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


# --- GHZ workloads ---------------------------------------------------------------

def _ghz_joint_question(ws, spec, p, tag):
    want = _lazy(lambda: ghz.joint(p, tag))
    return Question(
        "evolve", f"{spec.name}/{tag}",
        lambda: ws.evolve(spec, _model(ws, tag)),
        lambda joint: _joint_error(joint, ghz.agents(p), ghz.alphabets(p), want(), f"{spec.name}/{tag}"),
    )


def _ghz_table_question(ws, spec, p, tag, target, given):
    what = f"{spec.name}/{tag}/{target}|{given}"
    want = _lazy(lambda: ghz.conditional(p, tag, target, given))
    return Question(
        "conditional_table", what,
        lambda: ws.conditional_table(spec, _model(ws, tag), target, given),
        lambda table: _columns_error(
            {g: dict(table.columns[g]) for g in table.present_columns()}, want(), what
        ),
    )


# Conditional tables as (model, target, given), site -1 meaning the last
# superobserver's site.  Every rung asks GHZ_EVOLVE_TABLES; the largest rung
# also asks GHZ_EVOLVE_EXTRA.  That makes 25 questions per pass, five of them
# the expensive objective reads of the whole d = 65536 circuit, so p90 of
# the questions' best latencies falls inside that cluster (position 21.6 of
# 0..24) and p50 among the cheap ones; see NOTES.md.
GHZ_EVOLVE_TABLES = (
    ("ism", "W", 0, "F", 0),
    ("objective", "F", 1, "W", 1),
    ("ism", "W", -1, "F", -1),
    ("clps:F0", "W", -1, "F", -1),
    ("objective", "W", -1, "F", -1),
    ("objective", "F", -1, "W", -1),
    ("objective", "W", -1, "F", 0),
)
GHZ_EVOLVE_EXTRA = (
    ("objective", "W", -1, "W", 0),
    ("ism", "F", 0, "W", 0),
    ("clps:F0", "F", 1, "W", 1),
    ("ism", "W", 1, "F", 1),
    ("clps:F0", "W", 0, "F", 0),
)
GHZ_EVOLVE_RUNGS = ((3, 3), (4, 4))
GHZ_DENSITY_RUNGS = ((2, 2), (3, 2))


def ghz_specs(rungs):
    def build(ws, rng: np.random.Generator) -> dict:
        out = {}
        for n, m in rungs:
            p = ghz.draw_params(rng, n, m)
            out[(n, m)] = (p, ghz.build_spec(ws, p))
        return out

    return build


def ghz_evolve(ws, specs: dict) -> list[Question]:
    questions = []
    largest = max(specs)
    for key, (p, spec) in specs.items():
        for tag in ("ism", "objective", "clps:F0"):
            questions.append(_ghz_joint_question(ws, spec, p, tag))
        tables = GHZ_EVOLVE_TABLES + (GHZ_EVOLVE_EXTRA if key == largest else ())
        for tag, t_kind, t_site, g_kind, g_site in tables:
            target = f"{t_kind}{t_site % p.m}"
            given = f"{g_kind}{g_site % p.m}"
            questions.append(_ghz_table_question(ws, spec, p, tag, target, given))
    return questions


def _ghz_memory_question(ws, spec, p, tag, keep_w, given):
    discard = {f"Q{i}" for i in range(p.n)}
    if not keep_w:
        discard |= {f"W{i}" for i in range(p.m)}
    what = f"{spec.name}/{tag}/keep={'FW' if keep_w else 'F'}/given={given}"
    want = _lazy(lambda: ghz.memory_state(p, tag, keep_w, given))
    return Question(
        "memory_state", what,
        lambda: ws.memory_state(spec, _model(ws, tag), discard, given),
        lambda rho: _matrix_error(rho, want(), what),
    )


# (model, keep superobserver memories, given) for the small and large rungs:
# 6 memory states and 2 evolved densities at d = 256, 2 memory states at
# d = 1024.  Four small questions per large one; pure (ism) and mixed
# (objective) ensembles, friend or friend plus superobserver memories kept,
# with and without ``given=``.  A pass of 10 questions is short (about 1 s),
# so a run asks each large question 25 times or more; p50 falls among the
# small questions and p90 between the two large ones; see NOTES.md.
GHZ_DENSITY_SMALL = (
    ("ism", False, None),
    ("ism", True, {"F0": "a"}),
    ("ism", True, {"F1": "b", "W0": "p"}),
    ("objective", False, {"W0": "m"}),
    ("objective", True, None),
    ("objective", False, {"F0": "b", "W1": "m"}),
)
GHZ_DENSITY_LARGE = (
    ("ism", True, {"W0": "p"}),
    ("objective", False, {"F0": "b"}),
)


def ghz_density(ws, specs: dict) -> list[Question]:
    (p, spec), (p_large, spec_large) = specs.values()
    questions = []
    for args in GHZ_DENSITY_SMALL:
        questions.append(_ghz_memory_question(ws, spec, p, *args))
    for tag in ("ism", "objective"):
        want = _lazy(lambda t=tag: ghz.evolved_density(p, t))
        questions.append(Question(
            "evolved_density", f"{spec.name}/{tag}",
            lambda t=tag: ws.evolved_density(spec, _model(ws, t)),
            lambda rho, w=want, t=tag: _matrix_error(rho, w(), f"{spec.name}/{t}"),
        ))
    for args in GHZ_DENSITY_LARGE:
        questions.append(_ghz_memory_question(ws, spec_large, p_large, *args))
    return questions


WORKLOADS = {
    "fr-questions": Workload(fr_specs, fr_questions),
    "ghz-evolve": Workload(ghz_specs(GHZ_EVOLVE_RUNGS), ghz_evolve),
    "ghz-density": Workload(ghz_specs(GHZ_DENSITY_RUNGS), ghz_density),
}
