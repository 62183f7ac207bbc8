"""Static checks on the package source.

Every import a module makes is used, package-relative imports sit at
module top (a function-level import hides a dependency and is re-run on
every call), and every private definition is used somewhere in the
package (a copy left behind by a fold reads as live code), and every
parameter of a package function is read in its body (an argument that is
accepted and ignored reads as a choice the caller makes), and no module
defines a generator or advances one by hand (lanes advance as rows of
arrays in plain loops, not as coroutines that a round loop drives).  No linter runs on this code, so
these checks stand in.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tweezer_ising"
MODULES = sorted(PACKAGE.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # quoted annotations name their types inside a string
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


# __init__ imports to re-export: its __all__ is every public name it binds
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _parse(path)
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_relative_import_inside_a_function(path):
    tree = _parse(path)
    hidden = [
        f"{fn.name} (line {node.lineno})"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    ]
    assert not hidden, f"{path.name} imports package modules inside functions: {', '.join(hidden)}"


def test_checks_see_the_package():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "coupling.py", "optimizer.py"}


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree):
    """Module-level private functions, classes and constants, and private methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _private(node.name):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _private(item.name):
                        yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and _private(target.id):
                    yield target.id, node


def _references(trees):
    """name -> ids of the nodes that read it: names, attributes and imports."""
    refs = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                refs.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, set()).add(id(node))
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    refs.setdefault(alias.name, set()).add(id(alias))
    return refs


def test_every_private_definition_is_used():
    trees = {path.name: _parse(path) for path in MODULES}
    refs = _references(trees.values())
    unused = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            own = {id(n) for n in ast.walk(node)}
            if not refs.get(name.rpartition(".")[2], set()) - own:
                unused.append(f"{module}: {name} (line {node.lineno})")
    assert not unused, f"private definitions nothing in the package uses: {', '.join(unused)}"


#: parameters kept although their function never reads them: public, and
#: documented as unread
UNREAD_PARAMETERS = {"sensitivity.py: coupling_gradient_adjoint(hessian)"}


def _unread_parameters(tree):
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
        read = {
            node.id
            for stmt in fn.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        for param in params:
            # a method's receiver is fixed by the call protocol, not chosen
            if param.arg not in read and param.arg not in ("self", "cls"):
                yield f"{fn.name}({param.arg})"


def test_every_parameter_is_read():
    unread = [
        f"{path.name}: {name}"
        for path in MODULES
        for name in _unread_parameters(_parse(path))
    ]
    unexpected = sorted(set(unread) - UNREAD_PARAMETERS)
    assert not unexpected, f"parameters their function never reads: {', '.join(unexpected)}"
    assert set(unread) >= UNREAD_PARAMETERS, "an exempt parameter is read now; drop its exemption"


def _generator_steps(tree):
    """What makes or drives a generator: ``yield`` and ``yield from``, which
    make their function one, and ``.send(``, ``.throw(`` and ``next(``,
    which advance one by hand."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Yield):
            yield f"yield (line {node.lineno})"
        elif isinstance(node, ast.YieldFrom):
            yield f"yield from (line {node.lineno})"
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in ("send", "throw"):
                yield f".{func.attr}( (line {node.lineno})"
            elif isinstance(func, ast.Name) and func.id == "next":
                yield f"next( (line {node.lineno})"


def test_the_generator_check_sees_every_form():
    source = "def lane():\n    x = yield 1\n    return (yield from [x])\n\ng = lane()\nnext(g)\ng.send(2)\ng.throw(KeyError)\n"
    assert set(_generator_steps(ast.parse(source))) == {
        "yield (line 2)", "yield from (line 3)", "next( (line 6)", ".send( (line 7)", ".throw( (line 8)",
    }


def test_no_module_makes_or_drives_a_generator():
    found = [f"{path.name}: {step}" for path in MODULES for step in _generator_steps(_parse(path))]
    assert not found, f"generators in the package: {', '.join(found)}"
