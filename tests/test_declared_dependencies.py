"""Every third-party module the package imports is a declared dependency.

An install from ``pyproject.toml`` (``pip install -e .``) must bring
everything ``src/repro`` imports.  An import guarded by ``try``/``except
ImportError`` (or ``ModuleNotFoundError``) is optional: the module has
a fallback, so it need not be declared.  Import names are compared with
distribution names as they are, which holds for numpy.

scipy is a test dependency only: ``repro.stats.normal.ndtri`` stands in
for ``scipy.special.ndtri`` at run time, and the tests hold the two to
the same bits.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Optional, Set

import pytest

ROOT = Path(__file__).resolve().parent.parent

_IMPORT_ERRORS = frozenset({"ImportError", "ModuleNotFoundError"})

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="reads pyproject.toml with tomllib (3.11+)",
)


def _guarded(handlers) -> bool:
    for handler in handlers:
        names = handler.type
        caught = names.elts if isinstance(names, ast.Tuple) else [names]
        if any(
            isinstance(n, ast.Name) and n.id in _IMPORT_ERRORS for n in caught
        ):
            return True
    return False


def _required_imports(tree: ast.AST) -> Set[str]:
    """Top-level names of the absolute imports not guarded by a
    ``try`` that catches an import error."""
    optional = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and _guarded(node.handlers):
            for statement in node.body:
                optional.update(id(n) for n in ast.walk(statement))
    names = set()
    for node in ast.walk(tree):
        if id(node) in optional:
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _third_party_imports() -> Set[str]:
    names: Set[str] = set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        names |= _required_imports(ast.parse(path.read_text("utf-8")))
    return {
        name
        for name in names
        if name not in sys.stdlib_module_names
        and name not in ("repro", "__future__")
    }


def _declared(extra: Optional[str] = None) -> Set[str]:
    """The distributions ``pyproject.toml`` requires, or those of one of
    its extras."""
    import tomllib

    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text("utf-8")
    )["project"]
    requirements = (
        project["dependencies"]
        if extra is None
        else project["optional-dependencies"][extra]
    )
    return {
        re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower()
        for requirement in requirements
    }


def test_third_party_imports_are_declared():
    imported = _third_party_imports()
    assert imported, "found no third-party imports; is src/repro there?"
    missing = {name for name in imported if name.lower() not in _declared()}
    assert not missing, (
        f"imported under src/repro but not in pyproject.toml's "
        f"dependencies: {sorted(missing)}"
    )


def test_scipy_is_a_test_dependency_only():
    assert "scipy" not in _third_party_imports()
    assert "scipy" not in _declared()
    assert "scipy" in _declared("test")


def test_guarded_imports_are_optional():
    tree = ast.parse(
        "try:\n    import tomli\nexcept ModuleNotFoundError:\n    pass\n"
        "import numpy\n"
    )
    assert _required_imports(tree) == {"numpy"}
