"""Checks over the package source: no function takes a parameter that its
body never reads."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "medial"


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


def test_every_parameter_is_read():
    modules = sorted(SRC.glob("*.py"))
    assert "graphsym.py" in [path.name for path in modules]
    unread = {path.name: unread_parameters(path.read_text())
              for path in modules}
    assert {name: found for name, found in unread.items() if found} == {}
