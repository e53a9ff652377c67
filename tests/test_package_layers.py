"""Package ``__init__`` files re-export nothing.

Each ``src/repro/**/__init__.py`` holds its docstring, the code it
defines itself, and the imports that code or a registry needs.  Every
``from repro... import`` in the program, the tests, the benchmarks and
the examples names the module that defines the name, so importing one
layer never runs another layer's imports.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Iterator, List, Set

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_INITS = sorted((SRC / "repro").rglob("__init__.py"))
IMPORTERS = ("src", "tests", "benchmarks", "examples")


def _path_of(module: str) -> Path:
    return SRC.joinpath(*module.split("."))


def _is_package(module: str) -> bool:
    return (_path_of(module) / "__init__.py").is_file()


def _is_submodule(package: str, name: str) -> bool:
    path = _path_of(package) / name
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@lru_cache(maxsize=None)
def _defined(package: str) -> Set[str]:
    """Names the package ``__init__``'s own top-level code binds."""
    names: Set[str] = set()
    for node in _parse(_path_of(package) / "__init__.py").body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(
                    n.id for n in ast.walk(target) if isinstance(n, ast.Name)
                )
    return names


def _provides(package: str, name: str) -> bool:
    return name in _defined(package) or _is_submodule(package, name)


def _sources() -> Iterator[Path]:
    for top in IMPORTERS:
        yield from sorted((ROOT / top).rglob("*.py"))


def _repro_package(node: ast.ImportFrom) -> bool:
    module = node.module or ""
    return (
        node.level == 0
        and (module == "repro" or module.startswith("repro."))
        and _is_package(module)
    )


@pytest.mark.parametrize(
    "init", PACKAGE_INITS, ids=lambda p: str(p.relative_to(SRC))
)
def test_package_init_reexports_nothing(init):
    tree = _parse(init)
    names = [n for n in ast.walk(tree) if isinstance(n, ast.Name)]
    assert "__all__" not in {n.id for n in names}
    used = {n.id for n in names if isinstance(n.ctx, ast.Load)}
    unused: List[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            unused += [
                a.name for a in node.names
                if (a.asname or a.name.split(".")[0]) not in used
            ]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            # A submodule imported for its side effect fills a registry.
            unused += [
                f"{node.module}.{a.name}" for a in node.names
                if (a.asname or a.name) not in used
                and not _is_submodule(node.module, a.name)
            ]
    assert unused == []


def test_imports_name_the_defining_module():
    wrong: List[str] = []
    for path in _sources():
        tree = _parse(path)
        where = path.relative_to(ROOT)
        # Local names bound to a package: ``from repro import obs``.
        packages = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not _repro_package(node):
                continue
            for alias in node.names:
                if _is_package(f"{node.module}.{alias.name}"):
                    packages[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
                elif not _provides(node.module, alias.name):
                    wrong.append(
                        f"{where}:{node.lineno}: {alias.name} from {node.module}"
                    )
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in packages
                and not node.attr.startswith("__")
                and not _provides(packages[node.value.id], node.attr)
            ):
                wrong.append(
                    f"{where}:{node.lineno}: {node.value.id}.{node.attr}"
                )
    assert wrong == []
