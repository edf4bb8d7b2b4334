"""Module layout rules for the graphcorr package, checked on the source.

Every relative import sits at module top level and names only public
objects, so each module's dependencies show in its header and no module
reaches into another's private helpers.  Private helpers read every
parameter they take, so no argument is passed only to be ignored.  No
handler in the package or its tests catches ``Exception``,
``BaseException`` or everything, so no fallback hides a bug.  Every public
top-level function and class is read by the package, or is a paper object
named in ``PAPER_OBJECTS``, so no helper lives on for its own test only.
Every name a test module imports is read in it, so no import outlives the
code that used it.  Only ``orbits`` assigns through a ``parent[...]``
subscript, so ``orbits.components`` stays the package's one union-find.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "graphcorr"
MODULES = sorted(SRC.glob("*.py"))
TEST_FILES = sorted(Path(__file__).resolve().parent.glob("*.py"))
BROAD = {"Exception", "BaseException"}

# Public names that no package module reads, kept because the paper defines them.
PAPER_OBJECTS = {
    "detect.kernel_gaussian": "the Gaussian likelihood-ratio kernel; perfbench's exact-LR oracle reads it",
    "detect.statistic_given_pi": "T_pi at one alignment; perfbench's local-search quality pass reads it",
    "orbits.complete_orbits": "the short orbits that lie wholly inside the intersection graph",
    "orbits.reconstruct_orbit_graph": "the inverse of the backbone map",
    "moments.incomplete_orbit_moment_er": "the orbit factor given that the orbit is not complete",
}


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


def _broad_handlers(tree):
    """Line numbers of bare ``except:`` and of handlers naming a type in BROAD."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or isinstance(t, ast.Name) and t.id in BROAD for t in types):
                yield node.lineno


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_no_broad_except(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = [f"{path.name}:{no}: broad exception handler" for no in _broad_handlers(tree)]
    assert not bad, "\n".join(bad)


def test_broad_except_rule_catches_each_form():
    src = "\n".join(
        f"try:\n    pass\nexcept {t}:\n    pass"
        for t in ("", "Exception", "BaseException as e", "(ValueError, Exception)", "ValueError")
    )
    assert list(_broad_handlers(ast.parse(src))) == [3, 7, 11, 15]


def _sibling_reads(tree):
    """(module, name) of each name taken from a sibling module.

    That is ``from .m import name``, or ``m.name`` after ``from . import m``.
    """
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules.update((a.asname or a.name, a.name) for a in node.names)
            else:
                reads.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            reads.add((modules[node.value.id], node.attr))
    return reads


def _unreached(trees):
    """``module.name`` of each public top-level function or class that no other module reads.

    A read by another part of its own module counts; one inside its own body does not.
    """
    read = set().union(*map(_sibling_reads, trees.values()))
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            own = (
                n.id
                for stmt in tree.body
                if stmt is not node
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            )
            if (module, node.name) not in read and node.name not in own:
                out.append(f"{module}.{node.name}")
    return out


def test_every_public_name_is_reached():
    unreached = _unreached({p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES})
    bad = [f"{name}: read by no package module" for name in unreached if name not in PAPER_OBJECTS]
    bad += [f"{name}: in PAPER_OBJECTS but undefined or now read" for name in PAPER_OBJECTS if name not in unreached]
    assert not bad, "\n".join(bad)


def test_reachability_rule_catches_one():
    trees = {
        "a": ast.parse("def imported(): pass\ndef unread(): pass\ndef own(): pass\nclass Attr: pass\nX = own()\n"),
        "b": ast.parse("from . import a\nfrom .a import imported\ndef unread(): return unread()\nY = a.Attr\n"),
    }
    assert _unreached(trees) == ["a.unread", "b.unread"]


def _unused_imports(tree):
    """(line, name) of each name an import binds that the module never loads; ``__future__`` is exempt."""
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                name = a.asname or a.name.split(".")[0]
                if name not in loaded:
                    yield node.lineno, name


@pytest.mark.parametrize("path", TEST_FILES, ids=lambda p: p.stem)
def test_test_modules_read_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = [f"{path.name}:{no}: {name} imported but never read" for no, name in _unused_imports(tree)]
    assert not bad, "\n".join(bad)


def test_unused_import_rule_catches_one():
    tree = ast.parse("import os, sys as system\nfrom math import pi, tau\nprint(system.argv, pi)\n")
    assert list(_unused_imports(tree)) == [(1, "os"), (2, "tau")]


def _parent_writes(tree):
    """Line numbers of stores through a ``parent[...]`` subscript, the mark of a union-find."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            if ast.unparse(node.value).split(".")[-1] == "parent":
                yield node.lineno


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "orbits"], ids=lambda p: p.stem)
def test_one_union_find(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = [f"{path.name}:{no}: a parent[...] write outside orbits.components" for no in _parent_writes(tree)]
    assert not bad, "\n".join(bad)


def test_union_find_rule_catches_each_form():
    src = "parent[v] = u\nparent[a], size[b] = b, 1\nself.parent[v] += 1\nx = parent[v]\nparents[v] = parent[u]\n"
    assert sorted(_parent_writes(ast.parse(src))) == [1, 2, 3]
