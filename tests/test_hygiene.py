"""Static checks on the package source.

Every import a module makes is used, package-relative imports sit at
module top (a function-level import hides a dependency and is re-run on
every call), and every private definition is used somewhere in the
package (a copy left behind by a fold reads as live code), and every
parameter of a package function is read in its body (an argument that is
accepted and ignored reads as a choice the caller makes), and no module
defines a generator or advances one by hand (lanes advance as rows of
arrays in plain loops, not as coroutines that a round loop drives), and
every default of a package function, method or dataclass field is
overridden by some call in the package, its tests or the benchmark (a
value no call sets reads as a choice nobody makes), and every field of a
package dataclass or NamedTuple is read somewhere in those (a field that
is only set, or only copied into a new record of its class, is a value
carried for nobody), and every backticked dotted name in a package
docstring that starts with a package module or class names an attribute
that exists (a name left behind by a rename sends the reader to code that
is gone), and no module imports scipy by an ``import`` statement (scipy's
packages load hundreds of modules; the package reaches the two compiled
ones it calls through `compiled.scipy_extension`).  No linter runs on
this code, so these checks stand in.
"""

import ast
import importlib
import re
from pathlib import Path
from types import SimpleNamespace

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
    assert not unread, f"parameters their function never reads: {', '.join(unread)}"


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


#: where calls that pass a value may sit: the package, its tests and the benchmark
CALLERS = [p for d in ("src", "tests", "perfbench") for p in sorted((PACKAGE.parents[1] / d).rglob("*.py"))]


def _is_dataclass(node):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _field_call(value):
    """The keywords of a ``field(...)`` default, or None for a plain default."""
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id == "field":
        return {kw.arg: kw.value for kw in value.keywords}
    return None


def _settable_defaults(tree):
    """(callee, parameter, positional index or None, label) of every
    defaulted parameter of a function or method, and of every defaulted
    init field of a dataclass.  A method's index leaves out its receiver,
    and ``__init__`` is called by its class name."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
            index = 0
            for item in cls.body:
                if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
                    continue
                keywords = _field_call(item.value)
                if keywords is not None:
                    init = keywords.get("init")
                    if isinstance(init, ast.Constant) and init.value is False:
                        continue
                    defaulted = "default" in keywords or "default_factory" in keywords
                else:
                    defaulted = item.value is not None
                if defaulted:
                    yield cls.name, item.target.id, index, f"{cls.name}.{item.target.id}"
                index += 1
    methods = {
        id(item): cls.name
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for item in cls.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner = methods.get(id(fn))
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
        callee = owner if fn.name == "__init__" else fn.name
        label = f"{owner}.{fn.name}" if owner else fn.name
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        skip = 1 if owner and not static else 0
        for i, arg in enumerate(positional[first:], first):
            yield callee, arg.arg, i - skip, f"{label}({arg.arg})"
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield callee, arg.arg, None, f"{label}({arg.arg})"


def _passed(trees):
    """callee name -> (keywords passed, most positional arguments) over
    every call; ``*args`` and ``**kwargs`` pass nothing, and no positional
    argument counts past the first ``*args``."""
    passed = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            count = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)), len(node.args))
            keywords, most = passed.get(name, (set(), 0))
            passed[name] = (keywords | {kw.arg for kw in node.keywords if kw.arg}, max(most, count))
    return passed


def _unset_defaults(definitions, callers):
    passed = _passed(callers)
    unset = []
    for tree in definitions:
        for callee, param, index, label in _settable_defaults(tree):
            keywords, most = passed.get(callee, (set(), 0))
            if param not in keywords and (index is None or most <= index):
                unset.append(label)
    return unset


def test_the_default_check_sees_every_form():
    source = (
        "@dataclass\nclass Box:\n    a: int\n    b: int = 1\n    c: list = field(default_factory=list)\n"
        "    d: int = field(init=False)\n    e: int = 2\n\n"
        "class Solver:\n    def __init__(self, x, y=1):\n        pass\n\n"
        "    def run(self, n=3, *, tol=1e-8, fixed):\n        pass\n\n"
        "def f(p, q=0, r=0):\n    pass\n\n"
        "Box(1, 2, e=3)\nSolver(0)\nSolver(0).run(5)\nf(1, *rest)\nf(**options)\n"
    )
    tree = ast.parse(source)
    assert sorted(_unset_defaults([tree], [tree])) == [
        "Box.c", "Solver.__init__(y)", "Solver.run(tol)", "f(q)", "f(r)",
    ]


def test_every_default_is_set_somewhere():
    unset = _unset_defaults([_parse(p) for p in MODULES], [_parse(p) for p in CALLERS])
    assert not unset, f"defaults no call in src/, tests/ or perfbench/ sets: {', '.join(sorted(unset))}"


def _record_fields(tree):
    """(class, field) of every annotated field of a dataclass or NamedTuple."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        if _is_dataclass(cls) or any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in cls.bases):
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield cls.name, item.target.id


def _unread_fields(definitions, callers):
    """The fields of `definitions` that no ``x.field`` in `callers` reads.
    A field copied into the same-named keyword of its own class, as in
    ``Box(size=other.size)``, is not read by that copy."""
    fields = [(cls, name) for tree in definitions for cls, name in _record_fields(tree)]
    owned = set(fields)
    read = set()
    for tree in callers:
        copies = {
            id(kw.value)
            for call in ast.walk(tree) if isinstance(call, ast.Call)
            for kw in call.keywords
            if isinstance(kw.value, ast.Attribute) and kw.value.attr == kw.arg
            and (getattr(call.func, "id", None) or getattr(call.func, "attr", None), kw.arg) in owned
        }
        read |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in copies
        }
    return [f"{cls}.{name}" for cls, name in fields if name not in read]


def test_the_field_check_sees_every_form():
    source = (
        "@dataclass(frozen=True)\nclass Box:\n    size: int\n    color: str = 'red'\n    lid: bool = True\n"
        "    label: str = ''\n    tag: str = ''\n\n"
        "class Pair(NamedTuple):\n    left: int\n    right: int\n\n"
        "def grow(box, pair):\n    box.lid = False\n    print(pair.left, box.label)\n"
        "    send(color=box.color)\n    return Box(size=box.size + 1, label=box.label, tag=box.tag)\n"
    )
    tree = ast.parse(source)
    assert sorted(_unread_fields([tree], [tree])) == ["Box.lid", "Box.tag", "Pair.right"]


def test_every_field_is_read():
    unread = _unread_fields([_parse(p) for p in MODULES], [_parse(p) for p in CALLERS])
    assert not unread, f"fields nothing in src/, tests/ or perfbench/ reads: {', '.join(unread)}"


#: a backticked dotted name, single or double backticks, possibly called: `a.b`, ``a.b.c``, `a.b(x)`
_DOTTED = re.compile(r"`{1,2}([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`{1,2}")


def _unresolved_references(tree, heads):
    """The dotted names in the docstrings of ``tree`` (its module, classes
    and functions) whose first part is a key of ``heads`` and whose other
    parts are not a chain of attributes of that head's object."""
    documented = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in [tree] + [n for n in ast.walk(tree) if isinstance(n, documented)]:
        doc = ast.get_docstring(node, clean=False)
        for ref in _DOTTED.findall(doc or ""):
            head, *tail = ref.split(".")
            obj = heads.get(head)
            if obj is None:
                continue
            for name in tail:
                if not hasattr(obj, name):
                    yield f"{ref} (line {node.body[0].lineno})"
                    break
                obj = getattr(obj, name)


def test_the_reference_check_sees_every_form():
    source = (
        '"""`box.Crate.size`, ``box.Crate.gone``, `box.missing(x)` and `box.Crate.lid.weight`."""\n\n'
        "class Thing:\n"
        '    """`Crate.open(key)`, ``Crate.lid.color``; `np.gone` and ``self.gone`` are not the package\'s."""\n\n'
        "    def f(self):\n"
        '        """Uses `Crate.shut` and `box.Crate`."""\n'
    )
    crate = SimpleNamespace(size=1, lid=SimpleNamespace(weight=2), open=len)
    heads = {"box": SimpleNamespace(Crate=crate), "Crate": crate}
    assert sorted(_unresolved_references(ast.parse(source), heads)) == [
        "Crate.lid.color (line 4)", "Crate.shut (line 7)", "box.Crate.gone (line 1)", "box.missing (line 1)",
    ]


def test_every_docstring_reference_resolves():
    modules = {p.stem: importlib.import_module(f"tweezer_ising.{p.stem}") for p in MODULES if p.stem != "__init__"}
    classes = {
        name: value
        for module in modules.values()
        for name, value in vars(module).items()
        if isinstance(value, type) and value.__module__ == module.__name__
    }
    heads = {**classes, **modules}
    broken = [f"{path.name}: {ref}" for path in MODULES for ref in _unresolved_references(_parse(path), heads)]
    assert not broken, f"docstring names that do not resolve: {', '.join(broken)}"


def _scipy_imports(tree):
    """The ``import scipy...`` and ``from scipy... import`` statements of a
    module, at module level or inside a function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name == "scipy" or name.startswith("scipy."):
                yield f"{name} (line {node.lineno})"


def test_the_scipy_import_check_sees_every_form():
    source = (
        "import scipy\nimport numpy, scipy.linalg as la\nfrom scipy.optimize import milp\n"
        "from . import scipy_extension\nimport scipyx\n\n"
        "def f():\n    from scipy import sparse\n"
    )
    assert sorted(_scipy_imports(ast.parse(source))) == [
        "scipy (line 1)", "scipy (line 8)", "scipy.linalg (line 2)", "scipy.optimize (line 3)",
    ]


def test_no_module_imports_scipy():
    found = [f"{path.name}: {imp}" for path in MODULES for imp in _scipy_imports(_parse(path))]
    assert not found, f"scipy imports outside compiled.scipy_extension: {', '.join(found)}"
