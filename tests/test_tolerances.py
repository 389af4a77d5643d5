"""The numerical contract lives in one module, ``wignersim.tolerances``.

No other source file of the package writes a tolerance as a literal or
binds one to a name of its own, and every value there is read by another
module through the module object, at call time.  That setting a value
there moves the verdicts and messages is checked where they are tested:
``test_states.py`` (messages) and ``test_record_factors.py`` (the branch
cut).
"""

import ast
from pathlib import Path

import wignersim.tolerances as tolerances

PACKAGE = Path(tolerances.__file__).parent
OTHERS = sorted(p for p in PACKAGE.glob("*.py") if p.name != "tolerances.py")
CONSTANT = (ast.BinOp, ast.UnaryOp, ast.Constant, ast.operator, ast.unaryop)


def parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def small_constants(tree):
    """(line, value) of every constant expression, literal or arithmetic,
    that is a float of magnitude below 1e-3 but not 0."""
    for node in ast.walk(tree):
        if isinstance(node, CONSTANT[:3]) and all(isinstance(n, CONSTANT) for n in ast.walk(node)):
            value = eval(compile(ast.Expression(node), "<constant>", "eval"))
            if isinstance(value, float) and 0 < abs(value) < 1e-3:
                yield node.lineno, value


def contract_names():
    tree = parsed(PACKAGE / "tolerances.py")
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets)
        elif isinstance(node, ast.FunctionDef):
            names.add(node.name)
    return names


def tolerance_aliases(tree):
    """Names under which a module binds ``wignersim.tolerances`` itself."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
        if alias.name == "tolerances"
    }


def test_no_tolerance_is_written_outside_the_module():
    found = {path.name: list(small_constants(parsed(path))) for path in OTHERS}
    assert {name: hits for name, hits in found.items() if hits} == {}
    # The scan sees every value the module names, 2.0**-53 included.
    seen = {value for _, value in small_constants(parsed(PACKAGE / "tolerances.py"))}
    named = {getattr(tolerances, name) for name in contract_names()} - {tolerances._spelled}
    assert seen == named


def test_the_module_is_read_through_and_never_copied():
    names = contract_names()
    read = set()
    for path in OTHERS:
        tree = parsed(path)
        aliases = tolerance_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.module not in ("tolerances", "wignersim.tolerances"), path.name
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases:
                    read.add(node.attr)
        bound = {
            target.id
            for node in tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        assert not bound & names, path.name
    assert names - read == set(), "named in tolerances but read by no other module"
    assert read - names == set(), "read from tolerances but not named there"
