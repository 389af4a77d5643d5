"""Failure contract of the CLI, fuzzed in-process.

Every run of ``cli.main`` must end in a documented exit code (0 ok, 1
contradiction, 2 usage or config error, 3 impossible conditioning, 4 internal
failure) and never print a traceback.  Exit 1 is a verdict, so only ``check``
may return it, and every other nonzero exit explains itself on stderr.

The inputs are the exported presets with one mutation each (a value
replaced by junk or a number by another number, a key or element removed, an
element duplicated, a value moved from elsewhere in the document) and random
flag sets for every subcommand.  Lists
and numbers drawn here stay small, and ``--shots`` at most 1000, so that no
example allocates much memory.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from wignersim import cli
from wignersim.presets import presets
from wignersim.serialize import experiment_to_document

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

PRESETS = sorted(presets())
DOCS = {
    name: json.loads(json.dumps(experiment_to_document(build())))
    for name, build in presets().items()
}
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-1, 2), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)


def paths(value, prefix=()):
    """Every path into a JSON document, the root excluded."""
    children = (
        value.items() if isinstance(value, dict)
        else enumerate(value) if isinstance(value, list)
        else ()
    )
    for key, child in children:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def mutated(doc, data):
    doc = json.loads(json.dumps(doc))
    every = list(paths(doc))
    path = data.draw(st.sampled_from(every))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    how = data.draw(st.sampled_from(["replace", "remove", "duplicate", "move", "number"]))
    if how == "number" and isinstance(parent[key], (int, float)):
        parent[key] = data.draw(st.sampled_from([0, 1, -1, 0.5, 1e-300, 1e300]))
    elif how == "replace":
        parent[key] = data.draw(JUNK)
    elif how == "remove":
        del parent[key]
    elif how == "duplicate" and isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(parent[key])))
    elif how == "move":
        source = data.draw(st.sampled_from(every))
        value = doc
        for k in source:
            value = value[k]
        parent[key] = json.loads(json.dumps(value))
    return doc


def measured(doc):
    """The measuring agents of a preset document and all their outcomes."""
    steps = [s for s in doc["steps"] if s["type"] == "measure"]
    return [s["agent"] for s in steps], [o for s in steps for o in s["memory_basis_labels"]]


def pick(data, valid, junk):
    """Mostly a valid value, one draw in four a junk one."""
    pool = junk if data.draw(st.integers(0, 3)) == 0 else valid
    return data.draw(st.sampled_from(pool))


def flags(data, command, doc, workdir):
    """A flag set for one subcommand: mostly well formed, with junk mixed in."""
    agents, outcomes = measured(doc)
    args = []

    def maybe(flag, valid, junk):
        if data.draw(st.integers(0, 3)) > 0:
            args.extend([flag, pick(data, valid, junk)])

    if command == "check":
        args.append(pick(data, ["fr", "deutsch"], ["ghz", "", "FR"]))
        maybe("--f1-model", ["ism", "clps", "objective"], ["clps:F1", "x"])
        maybe("--friend-model", ["ism", "clps"], ["objective", "x"])
        maybe("--wigner-basis", ["superposition", "product"], ["x"])
        maybe("--format", ["text", "json"], ["csv"])
        return args
    if command == "export-preset":
        if data.draw(st.booleans()):
            name = pick(data, ["out.json"], ["missing/out.json"])
            args += ["--out", os.path.join(workdir, name)]
        return args
    models = ["ism", "objective", "clps:" + "+".join(agents[:2])]
    models += [f"clps:{a.lower()}" for a in agents]
    maybe("--model", models, ["clps:", "clps:nobody", "nope", "clps:F1+"])
    maybe("--digits", ["1", "5", "17"], ["-1", "0", "18", "x"])
    if command == "sample":
        args += ["--seed", pick(data, ["0", "7", str(2**128 - 1)], ["-1", str(2**128), "x"])]
        args += ["--shots", pick(data, ["0", "1", "1000"], ["-1", "1.5"])]
        return args
    shape = data.draw(st.sampled_from(["joint", "marginal", "table", "renormalized"]))
    if shape == "joint":
        args.append("--joint")
    if shape != "joint" or data.draw(st.integers(0, 3)) == 0:
        args += ["--target", pick(data, agents, ["nobody", ""])]
    if shape in ("table", "renormalized"):
        args += ["--given", pick(data, agents, ["nobody", ""])]
    if shape == "renormalized":
        args += ["--given-outcome", pick(data, outcomes, ["x", ""])]
    maybe("--format", ["text", "csv", "json"], ["xml"])
    return args


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def assert_contract(argv):
    code, err = run(argv)
    assert code in (0, 1, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 1:
        assert argv[0] == "check", (argv, err)
    if code in (2, 3, 4):
        assert "error:" in err, (argv, code, err)


COMMANDS = st.sampled_from(["tables", "check", "sample", "export-preset"])


@FUZZ
@given(st.data())
def test_flags_on_presets_keep_the_failure_contract(data):
    command = data.draw(COMMANDS)
    preset = data.draw(st.sampled_from(PRESETS))
    with tempfile.TemporaryDirectory() as workdir:
        argv = [command]
        if command != "check":
            source = pick(data, ["preset"], ["none", "both", "unknown"])
            if source in ("preset", "both"):
                argv += ["--preset", preset]
            if source == "both":
                argv += ["--config", os.path.join(workdir, "absent.json")]
            if source == "unknown":
                argv += ["--preset", "ghz"]
        assert_contract(argv + flags(data, command, DOCS[preset], workdir))


@FUZZ
@given(st.data())
def test_mutated_documents_keep_the_failure_contract(data):
    name = data.draw(st.sampled_from(PRESETS))
    doc = mutated(DOCS[name], data)
    command = data.draw(st.sampled_from(["tables", "sample", "export-preset"]))
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = [command, "--config", path] + flags(data, command, DOCS[name], workdir)
        assert_contract(argv)
