"""Checks over the package source: no function takes a parameter that its
body never reads, every function, class, method and module-level
constant is read somewhere in the package, the tools or the demos, no
docstring or comment names another module's private definition, and only
graphsym calls ``validate``."""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "medial"

#: The definitions that nothing in the package, the tools or the demos
#: names, each with the reason it stays.
UNREAD = {
    "_Parser.error": "argparse calls it",
    "admissible_subgroups": "the Eisenstein census of ROADMAP item 6",
    "vertex_count": "the Eisenstein census of ROADMAP item 6",
    "MatrixGroup.coset_action": "bench/tracing.py wraps it (ROADMAP item 1)",
    "PermutationGroup": "the tests' oracle (ROADMAP item 9)",
    "PermutationGroup.prefix_stabilizer_orders":
        "bench/tracing.py wraps it (ROADMAP item 1)",
    "PermutationGroup.transporter":
        "bench/tracing.py wraps it (ROADMAP item 1)",
    "Permutation.from_cycles": "only tests read it (ROADMAP item 9)",
    "toroidal_map": "only tests read it (ROADMAP item 9)",
    "simplex_toroidal_1296": "only tests read it (ROADMAP item 9)",
}


def unread_parameters(source: str) -> list[str]:
    """``function(parameter)`` for each parameter other than self or cls
    that no name in the function's body reads, nested functions included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs \
            + [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        found += [f"{name}({a.arg})" for a in params
                  if a.arg not in ("self", "cls") and a.arg not in read]
    return found


def test_check_finds_an_unread_parameter():
    source = ("def f(self, a, b, *rest, c=1, **extra):\n"
              "    def g():\n"
              "        return a + rest[0]\n"
              "    return g() + (lambda x, y: y)(c, 2)\n")
    assert unread_parameters(source) == ["f(b)", "f(extra)", "lambda(x)"]


def names_in(node: ast.AST) -> Counter:
    """How often each name occurs under ``node``, as a Name, as the
    attribute of an Attribute or as an imported name."""
    return Counter(n.id if isinstance(n, ast.Name)
                   else n.attr if isinstance(n, ast.Attribute) else n.name
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute, ast.alias)))


def definitions(tree: ast.Module):
    """``(qualified, name, node)`` for each top-level function and class,
    ``(Class.method, method, node)`` for each method other than a dunder,
    and ``(name, name, node)`` for each name a module-level assignment
    binds."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item.name, item)
                        for item in node.body if isinstance(item, functions)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__")))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            yield from ((n.id, n.id, node) for target in targets
                        for n in ast.walk(target) if isinstance(n, ast.Name))


def unread_definitions(package: list[str], readers: list[str]) -> list[str]:
    """The definitions in the ``package`` sources whose name occurs
    nowhere outside their own body or assignment, in the package or in
    ``readers``."""
    trees = [ast.parse(source) for source in package]
    total = sum((names_in(tree) for tree in trees), Counter())
    total += sum((names_in(ast.parse(source)) for source in readers),
                 Counter())
    return [qualified for tree in trees
            for qualified, name, node in definitions(tree)
            if total[name] == names_in(node)[name]]


def test_check_finds_an_unread_definition():
    source = ("import os as alias\n"
              "class A:\n"
              "    def __init__(self):\n"
              "        self.used()\n"
              "    def used(self):\n"
              "        return alias\n"
              "    def recursive(self):\n"
              "        return self.recursive()\n"
              "def f():\n"
              "    return g\n"
              "def g():\n"
              "    return f()\n"
              "class B:\n"
              "    pass\n")
    assert unread_definitions([source], []) == ["A", "A.recursive", "B"]
    assert unread_definitions([source], ["from package import A, B\n"]) \
        == ["A.recursive"]


def test_check_finds_an_unread_constant():
    source = ("LIMIT = 3\n"
              "PLANTED: tuple = (LIMIT, 4)\n"
              "_TABLE = {LIMIT: 1}\n"
              "LOW, HIGH = 0, 1\n"
              "def f():\n"
              "    return _TABLE[HIGH]\n")
    assert unread_definitions([source], ["f()\n"]) == ["PLANTED", "LOW"]
    assert unread_definitions([source], ["f(PLANTED)\n"]) == ["LOW"]


def test_every_definition_is_read():
    package = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    readers = [path.read_text() for folder in ("tools", "demos")
               for path in sorted((ROOT / folder).glob("*.py"))]
    assert len(package) > 8 and len(readers) >= 5
    assert sorted(unread_definitions(package, readers)) == sorted(UNREAD)


def test_every_parameter_is_read():
    modules = sorted(SRC.glob("*.py"))
    assert "graphsym.py" in [path.name for path in modules]
    unread = {path.name: unread_parameters(path.read_text())
              for path in modules}
    assert {name: found for name, found in unread.items() if found} == {}


def prose(source: str) -> str:
    """The docstrings and comments of a module, one after another."""
    tree = ast.parse(source)
    docstrings = [ast.get_docstring(node, clean=False) or ""
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))]
    comments = [token.string for token in
                tokenize.generate_tokens(io.StringIO(source).readline)
                if token.type == tokenize.COMMENT]
    return "\n".join(docstrings + comments)


def foreign_private_names(modules: dict[str, str]) -> list[str]:
    """``module: name`` for each private definition (a leading underscore)
    of another module that a module's docstrings or comments name and
    that the module does not define itself."""
    private = {module: {name for _, name, _ in
                        definitions(ast.parse(source))
                        if name.startswith("_")}
               for module, source in modules.items()}
    found = []
    for module, source in modules.items():
        words = set(re.findall(r"\b_\w+", prose(source)))
        others = set().union(*(names for other, names in private.items()
                               if other != module))
        found += [f"{module}: {name}"
                  for name in sorted(words & others - private[module])]
    return found


def test_check_finds_a_foreign_private_name():
    modules = {
        "a": ('"""See ``b._helper`` and ``_own``."""\n'
              "def _own():\n"
              "    # b._LIMIT and _shared bound it\n"
              "    return 1\n"
              "def _shared():\n"
              "    pass\n"),
        "b": ("_LIMIT = 3\n"
              "def _helper():\n"
              "    'Not a _helper of a, nor a_helper.'\n"
              "def _shared():\n"
              "    pass\n"),
    }
    assert foreign_private_names(modules) == ["a: _LIMIT", "a: _helper"]


def test_no_module_names_another_modules_private_definition():
    modules = {path.stem: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    assert "polytope" in modules
    assert foreign_private_names(modules) == []


def validate_calls(modules: dict[str, str]) -> list[str]:
    """``module:line`` for each call of a ``validate``, by name or as an
    attribute, in a module other than graphsym: an edge list becomes a
    graph through ``graphsym.from_edges``, which validates it."""
    return [f"{module}:{node.lineno}"
            for module, source in modules.items() if module != "graphsym"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and "validate" in (getattr(node.func, "id", None),
                               getattr(node.func, "attr", None))]


def test_check_finds_a_validate_call():
    modules = {
        "graphsym": "def from_edges():\n    return validate([], [])\n",
        "polytope": ("from . import graphsym\n"
                     "def graph():\n"
                     "    return graphsym.validate([], [])\n"
                     "def check(validate_string_cgroup):\n"
                     "    return validate_string_cgroup()\n"),
        "cli": "from .graphsym import validate\nvalidate([], [])\n",
    }
    assert validate_calls(modules) == ["polytope:3", "cli:2"]


def test_only_graphsym_calls_validate():
    modules = {path.stem: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    assert "graphsym" in modules and "polytope" in modules
    assert validate_calls(modules) == []
