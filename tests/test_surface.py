"""What the package holds, read from its source.

`pvae.autodiff` is the tape the models run: each public function and class
it defines is used by name in another module of the package. Ops and checks
that only tests need live under `tests/` (`tape_reference`, `gradcheck`,
`oracles`). And `pvae.parallel` is the one module that starts a thread or a
process.
"""

import ast
from pathlib import Path

import pytest

import pvae

PACKAGE = Path(pvae.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}

# names through which a module starts a thread or a process
CONCURRENCY = {"Thread", "ThreadPoolExecutor", "ProcessPoolExecutor", "Process", "Popen",
               "fork", "register_at_fork", "concurrent", "multiprocessing", "subprocess"}


def _public_definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def _autodiff_names_used(tree: ast.Module) -> set[str]:
    """Names a module takes from autodiff: `from .autodiff import X`, and
    `alias.X` for each alias bound to the autodiff module."""
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").endswith("autodiff"):
                names.update(a.name for a in node.names)
            else:
                aliases.update(a.asname or a.name for a in node.names if a.name == "autodiff")
        elif isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names if a.name == "pvae.autodiff" and a.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


def _names(tree: ast.Module) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Import):
            found.update(part for a in node.names for part in a.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            found.update((node.module or "").split("."))
            found.update(a.name for a in node.names)
    return found


@pytest.mark.parametrize("name", _public_definitions(MODULES["autodiff"]))
def test_autodiff_name_has_a_caller_in_the_package(name):
    users = [stem for stem, tree in MODULES.items()
             if stem != "autodiff" and name in _autodiff_names_used(tree)]
    assert users, f"autodiff.{name} is used by no other module of pvae; move it under tests/"


@pytest.mark.parametrize("stem", [stem for stem in MODULES if stem != "parallel"])
def test_only_parallel_starts_threads_or_processes(stem):
    assert sorted(_names(MODULES[stem]) & CONCURRENCY) == []
