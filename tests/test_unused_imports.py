"""Every name a module imports is used.

The scan covers ``src/repro`` and the repository's ``tests/``,
``benchmarks/``, ``tools/`` and ``examples/``.  ``perfbench/`` is left out:
the benchmark harness changes only together with the benchmark.

A name counts as used when the module reads it, lists it in ``__all__``,
or names it inside a string annotation (``"SolvePipeline"`` under a
``TYPE_CHECKING`` import).  Docstring cross-references do not count.
"""

import ast
import os

import pytest

import repro

PACKAGE = os.path.dirname(os.path.abspath(repro.__file__))
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OTHER_DIRECTORIES = ("tests", "benchmarks", "tools", "examples")


def _python_files(root):
    return {
        os.path.relpath(os.path.join(directory, name), root): os.path.join(directory, name)
        for directory, _, names in os.walk(root)
        for name in names
        if name.endswith(".py")
    }


#: Test id -> file: package modules by their path inside ``src/repro``,
#: the others by their path from the repository root.
PATHS = _python_files(PACKAGE)
for _directory in OTHER_DIRECTORIES:
    PATHS.update(
        (os.path.join(_directory, module), path)
        for module, path in _python_files(os.path.join(REPO, _directory)).items()
    )
MODULES = sorted(PATHS)


def _imported(tree: ast.Module):
    """Name bound by each import in the module -> line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for argument in (
                arguments.posonlyargs
                + arguments.args
                + arguments.kwonlyargs
                + [arguments.vararg, arguments.kwarg]
            ):
                if argument is not None and argument.annotation is not None:
                    yield argument.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module):
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant)
            )
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used.update(
                    name.id for name in ast.walk(parsed) if isinstance(name, ast.Name)
                )
    return used


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    with open(PATHS[module], encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), module)
    used = _used(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported(tree).items()
        if name not in used
    )
    assert not unused, f"{module} imports names it never uses: {', '.join(unused)}"


def test_scan_covers_every_directory():
    scanned = {module.split(os.sep)[0] for module in MODULES}
    assert set(OTHER_DIRECTORIES) <= scanned
    assert "core" in scanned and "perfbench" not in scanned


def test_scan_sees_string_annotations_and_all():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "from a import Exported, Hinted, Unused\n"
        "__all__ = ['Exported']\n"
        "def f(x: 'Hinted') -> None: ...\n"
    )
    assert set(_imported(tree)) - _used(tree) == {"TYPE_CHECKING", "Unused"}
