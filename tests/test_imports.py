"""Every name a program module imports is read somewhere in that module,
every module-level private function or class is read somewhere in the
package, and importing the program loads no networkx or scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "atomc"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of the import that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def read_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, in quoted annotations, or listed in __all__."""
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for annotation in _annotations(tree):
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                quoted = ast.parse(const.value, mode="eval")
                read |= {n.id for n in ast.walk(quoted)
                         if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return read


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in read_names(tree)}
    assert not unused, f"{path.name}: imported and never read: {unused}"


def test_guard_sees_quoted_annotations_and_all():
    tree = ast.parse(
        "from a import B, C, D, E\n"
        "__all__ = ['C']\n"
        "def f(x: 'B') -> 'list[D]': pass\n")
    assert set(imported_names(tree)) - read_names(tree) == {"E"}


def unread_private_definitions(trees: dict[str, ast.Module]) -> set[str]:
    """module:name for each module-level private def or class that no tree
    reads, as a name or as an attribute."""
    read = set()
    for tree in trees.values():
        read |= read_names(tree)
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return {f"{module}:{node.name}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")
            and node.name not in read}


def test_no_unread_private_definitions():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    unread = unread_private_definitions(trees)
    assert not unread, f"defined and never read: {sorted(unread)}"


def test_private_guard_sees_names_and_attributes():
    trees = {
        "a.py": ast.parse("def _used(): pass\n"
                          "def _unused(): pass\n"
                          "class _Reached: pass\n"
                          "def __getattr__(name): pass\n"),
        "b.py": ast.parse("from . import a\n"
                          "a._used(a._Reached)\n"),
    }
    assert unread_private_definitions(trees) == {"a.py:_unused"}


@pytest.mark.parametrize("module", ["atomc", "atomc.compiler",
                                    "atomc.orchestrator", "atomc.cli"])
def test_import_leaves_heavy_packages_unloaded(module):
    """networkx is only the tests' oracle and `scipy.optimize` loads at the
    first HiGHS call, so importing the program loads neither; the package
    alone, without the solver back end, loads no numpy either."""
    unloaded = {"networkx", "scipy"} | ({"numpy"} if module == "atomc"
                                        else set())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    loaded = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; print(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert {name.split(".")[0] for name in loaded} & unloaded == set()
