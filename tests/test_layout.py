"""Module layout rules for the graphcorr package, checked on the source.

Every relative import sits at module top level and names only public
objects, so each module's dependencies show in its header and no module
reaches into another's private helpers.  Private helpers read every
parameter they take, so no argument is passed only to be ignored.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "graphcorr"
MODULES = sorted(SRC.glob("*.py"))


def _relative_imports(tree):
    """(node, at top level) for every ``from .x import ...`` in the module."""
    top = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            yield node, id(node) in top


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"graphs", "detect", "moments", "experiments", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_relative_imports_are_top_level_and_public(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = []
    for node, top_level in _relative_imports(tree):
        where = f"{path.name}:{node.lineno}"
        if not top_level:
            bad.append(f"{where}: relative import inside a function or block")
        private = [a.name for a in node.names if a.name.startswith("_")]
        if private:
            bad.append(f"{where}: private import {', '.join(private)} from .{node.module or ''}")
    assert not bad, "\n".join(bad)


def _unread_parameters(func):
    """Parameters of ``func`` that no expression in its body loads."""
    a = func.args
    params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    read = {
        n.id
        for stmt in func.body
        for n in ast.walk(stmt)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return [p for p in params if p not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_private_functions_read_every_parameter(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not node.name.startswith("_") or node.name.endswith("__"):
            continue
        unread = _unread_parameters(node)
        if unread:
            bad.append(f"{path.name}:{node.lineno}: {node.name} never reads {', '.join(unread)}")
    assert not bad, "\n".join(bad)


def test_unread_parameter_rule_catches_one():
    tree = ast.parse("def _f(a, b, *args, c=1, **kw):\n    return a + c + len(kw)\n")
    assert _unread_parameters(tree.body[0]) == ["b", "args"]
