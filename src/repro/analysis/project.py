"""Whole-program model: modules, symbols, functions, classes.

This is the first of repgraph's three layers (project -> call graph ->
effect/taint analyses).  :func:`load_project` reads and parses every
``.py`` file under the configured paths exactly once, through the one
reader the per-file rules share (:func:`repro.lint.engine.read_sources`),
and builds:

* a **module table** mapping dotted module names to parsed ASTs,
* a per-module **symbol table** resolving local names through
  ``import`` / ``from ... import`` (including aliases and relative
  imports) to fully-qualified dotted targets,
* a **function index** over every ``def`` (module-level, methods, and
  named nested functions),
* a **class index** with resolved base classes, feeding the
  class-hierarchy pass that binds ``self.method()`` calls, and
* a **node list per scope** (each function body and each module's
  import-time ``<module>`` body), walked once here and shared by the
  call graph and every effect pass.

Everything downstream keys on *qualnames*: ``repro.figures.fig2a``,
``repro.synthesis.sessions.SessionSampler.snapshot_records``.  Files
that cannot be read or parsed become structured RPL000 findings
rather than aborting the run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.config import LintConfig
from repro.lint.engine import (
    SourceFile, collect_files, parse_source, read_sources,
)
from repro.lint.findings import Finding, finding_at
from repro.lint.registry import get_rule
from repro.lint.rules.common import dotted_name

#: Path components stripped from the front of a relative file path
#: before it is turned into a dotted module name (``src/repro/x.py``
#: -> ``repro.x``).
SOURCE_ROOTS: Tuple[str, ...] = ("src",)

#: The pseudo-function holding each module's import-time code.
MODULE_FN = "<module>"


def module_name_for(path: str) -> str:
    """Dotted module name for a relative posix ``.py`` path."""
    parts = path.split("/")
    if parts and parts[0] in SOURCE_ROOTS:
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


@dataclass
class FunctionInfo:
    """One ``def`` anywhere in the project."""

    qualname: str
    module: str
    name: str
    path: str
    lineno: int
    node: ast.AST
    cls: Optional[str] = None  # enclosing class qualname, if a method
    parent: Optional[str] = None  # enclosing function qualname, if nested
    decorators: Tuple[str, ...] = ()
    nodes: List[ast.AST] = field(default_factory=list)  # see scope_nodes


@dataclass
class ClassInfo:
    """One ``class`` statement plus its resolved bases and methods."""

    qualname: str
    module: str
    name: str
    path: str
    lineno: int
    bases: Tuple[str, ...] = ()
    methods: Dict[str, str] = field(default_factory=dict)


@dataclass
class RngGlobal:
    """A module-level name bound to an RNG object at import time."""

    symbol: str  # module-qualified, e.g. demo.rng_pool.RNG
    ctor: str  # resolved constructor, e.g. random.Random
    lineno: int
    seeded: bool


@dataclass
class ModuleInfo:
    """One parsed source file and its name-resolution context."""

    name: str
    path: str
    tree: Optional[ast.Module]
    lines: List[str]
    symbols: Dict[str, str] = field(default_factory=dict)
    global_names: Dict[str, int] = field(default_factory=dict)
    mutable_globals: Dict[str, int] = field(default_factory=dict)
    rng_globals: Dict[str, RngGlobal] = field(default_factory=dict)
    nodes: List[ast.AST] = field(default_factory=list)  # the <module> scope


#: Nodes that open a scope of their own; a scope's walk stops at them.
_SCOPE_BOUNDARIES = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda,
)


def scope_nodes(root: ast.AST) -> List[ast.AST]:
    """Every node of one scope's body, breadth first.

    The walk yields nested ``def``/``class``/``lambda`` nodes but does
    not enter them.  Its order is part of the analyzer's output (RNG
    origins are listed in it), so it must stay the order of a FIFO
    queue seeded with ``root``'s children: the list is its own queue.
    Children are read field by field, as :func:`ast.iter_child_nodes`
    does, without its two generator layers per node.
    """
    nodes = list(ast.iter_child_nodes(root))
    index = 0
    while index < len(nodes):
        node = nodes[index]
        index += 1
        if isinstance(node, _SCOPE_BOUNDARIES):
            continue
        for name in node._fields:
            value = getattr(node, name, None)
            if isinstance(value, ast.AST):
                nodes.append(value)
            elif isinstance(value, list):
                nodes.extend(v for v in value if isinstance(v, ast.AST))
    return nodes


_MUTABLE_CTORS = frozenset(
    {"list", "dict", "set", "collections.defaultdict", "defaultdict",
     "collections.OrderedDict", "OrderedDict", "collections.deque", "deque"}
)

#: Constructors producing RNG stream objects (resolved dotted names).
RNG_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "random.SystemRandom",
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.RandomState",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.MT19937",
    }
)

#: Import aliases normalized before constructor lookup.
_MODULE_ALIASES = {"np": "numpy"}


def normalize_dotted(dotted: str) -> str:
    """Rewrite conventional aliases (``np.`` -> ``numpy.``)."""
    head, _, rest = dotted.partition(".")
    alias = _MODULE_ALIASES.get(head)
    if alias is not None:
        return f"{alias}.{rest}" if rest else alias
    return dotted


class Project:
    """All analyzed modules plus whole-program indexes."""

    def __init__(self) -> None:
        self.sources: List[SourceFile] = []
        self.modules: Dict[str, ModuleInfo] = {}
        self.modules_by_path: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: One RPL000 per file that could not be read or parsed.
        self.parse_findings: List[Finding] = []
        self._subclasses: Dict[str, List[str]] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def from_sources(cls, sources: Sequence[Tuple[str, str]]) -> "Project":
        """Build a project from ``(relative_path, source_text)`` pairs.

        Used directly by tests; :func:`load_project` reads files instead.
        """
        parsed = [parse_source(path, text) for path, text in sorted(sources)]
        return cls.from_parsed(
            [source for source, _ in parsed],
            [failure for _, failure in parsed if failure is not None],
        )

    @classmethod
    def from_parsed(
        cls,
        sources: Sequence[SourceFile],
        failures: Sequence[Finding],
    ) -> "Project":
        """Index sources the one reader has already parsed."""
        project = cls()
        project.sources = list(sources)
        project.parse_findings = list(failures)
        for source in project.sources:
            name = module_name_for(source.path)
            module = ModuleInfo(
                name=name, path=source.path, tree=source.tree,
                lines=source.lines,
            )
            project.modules[name] = module
            project.modules_by_path[source.path] = module
        for module in project.modules.values():
            if module.tree is not None:
                project._index_module(module)
        project._bind_class_methods()
        project._index_subclasses()
        return project

    # -- per-module indexing --------------------------------------------

    def _index_module(self, module: ModuleInfo) -> None:
        assert module.tree is not None
        module.nodes = scope_nodes(module.tree)
        package = module.name.rpartition(".")[0]
        for node in module.tree.body:
            self._index_statement(module, node, package)
        # Walk the whole tree for defs (methods, nested functions).
        self._index_defs(module, module.tree, prefix=module.name, cls=None,
                         parent=None)

    def _index_statement(
        self, module: ModuleInfo, node: ast.stmt, package: str
    ) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                module.symbols[bound] = target
        elif isinstance(node, ast.ImportFrom):
            base = self._resolve_from_base(module, node, package)
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                module.symbols[bound] = (
                    f"{base}.{alias.name}" if base else alias.name
                )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            value = node.value
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                module.global_names[target.id] = node.lineno
                if value is None:
                    continue
                self._classify_global(module, target.id, value, node.lineno)
        elif isinstance(node, (ast.If, ast.Try)):
            # Conditional imports (tomllib fallbacks and the like).
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._index_statement(module, child, package)

    def _classify_global(
        self, module: ModuleInfo, name: str, value: ast.AST, lineno: int
    ) -> None:
        symbol = f"{module.name}.{name}"
        if isinstance(value, (ast.List, ast.Dict, ast.Set)):
            module.mutable_globals[name] = lineno
            return
        if isinstance(value, ast.Call):
            dotted = dotted_name(value.func)
            if dotted is None:
                return
            resolved = normalize_dotted(self.resolve(module, dotted))
            if resolved in _MUTABLE_CTORS or dotted in _MUTABLE_CTORS:
                module.mutable_globals[name] = lineno
            elif resolved in RNG_CONSTRUCTORS:
                module.rng_globals[name] = RngGlobal(
                    symbol=symbol,
                    ctor=resolved,
                    lineno=lineno,
                    seeded=bool(value.args or value.keywords),
                )

    def _resolve_from_base(
        self, module: ModuleInfo, node: ast.ImportFrom, package: str
    ) -> str:
        if not node.level:
            return node.module or ""
        # Relative import: level 1 is this module's own package; each
        # further dot climbs one package higher.  A package's own name
        # (``__init__.py``) already *is* its package.
        parts = module.name.split(".")
        if not module.path.endswith("__init__.py"):
            parts = parts[:-1]
        drop = node.level - 1
        parts = parts[: max(0, len(parts) - drop)]
        base = ".".join(parts)
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base

    def _index_defs(
        self,
        module: ModuleInfo,
        node: ast.AST,
        prefix: str,
        cls: Optional[str],
        parent: Optional[str],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{child.name}"
                decorators = tuple(
                    normalize_dotted(self.resolve(module, d))
                    for d in (
                        dotted_name(
                            dec.func if isinstance(dec, ast.Call) else dec
                        )
                        for dec in child.decorator_list
                    )
                    if d is not None
                )
                info = FunctionInfo(
                    qualname=qualname,
                    module=module.name,
                    name=child.name,
                    path=module.path,
                    lineno=child.lineno,
                    node=child,
                    cls=cls,
                    parent=parent,
                    decorators=decorators,
                    nodes=scope_nodes(child),
                )
                self.functions[qualname] = info
                if cls is not None and parent is None:
                    self.classes[cls].methods.setdefault(child.name, qualname)
                self._index_defs(
                    module, child, prefix=qualname, cls=None, parent=qualname
                )
            elif isinstance(child, ast.ClassDef):
                qualname = f"{prefix}.{child.name}"
                bases = tuple(
                    normalize_dotted(self.resolve(module, b))
                    for b in (dotted_name(base) for base in child.bases)
                    if b is not None
                )
                self.classes[qualname] = ClassInfo(
                    qualname=qualname,
                    module=module.name,
                    name=child.name,
                    path=module.path,
                    lineno=child.lineno,
                    bases=bases,
                )
                self._index_defs(
                    module, child, prefix=qualname, cls=qualname, parent=parent
                )
            elif isinstance(child, (ast.If, ast.Try, ast.With)):
                self._index_defs(module, child, prefix, cls, parent)

    def _bind_class_methods(self) -> None:
        """Inherit methods down the project-local class hierarchy."""
        for qualname in sorted(self.classes):
            info = self.classes[qualname]
            for base in self.mro(qualname)[1:]:
                base_info = self.classes.get(base)
                if base_info is None:
                    continue
                for method, target in base_info.methods.items():
                    info.methods.setdefault(method, target)

    def _index_subclasses(self) -> None:
        """Map each class to its project-local (transitive) subclasses."""
        self._subclasses = {}
        for qualname in sorted(self.classes):
            for base in self.mro(qualname)[1:]:
                self._subclasses.setdefault(base, []).append(qualname)

    # -- queries --------------------------------------------------------

    def resolve(self, module: ModuleInfo, dotted: str) -> str:
        """Fully qualify ``dotted`` as seen from ``module``.

        Local imports win, then module-level definitions, then the name
        is returned unchanged (an external/builtin reference).
        """
        head, _, rest = dotted.partition(".")
        target = module.symbols.get(head)
        if target is not None:
            return f"{target}.{rest}" if rest else target
        candidate = f"{module.name}.{head}"
        if (
            candidate in self.functions
            or candidate in self.classes
            or head in module.global_names
        ):
            return f"{candidate}.{rest}" if rest else candidate
        return dotted

    def mro(self, class_qualname: str) -> List[str]:
        """Depth-first linearization over project-local bases."""
        out: List[str] = []
        seen = set()

        def visit(name: str) -> None:
            if name in seen:
                return
            seen.add(name)
            out.append(name)
            info = self.classes.get(name)
            if info is None:
                return
            for base in info.bases:
                visit(base)

        visit(class_qualname)
        return out

    def subclasses(self, class_qualname: str) -> List[str]:
        """Project-local classes that (transitively) inherit from it."""
        return list(self._subclasses.get(class_qualname, ()))

    def lookup_method(
        self, class_qualname: str, method: str
    ) -> Optional[str]:
        info = self.classes.get(class_qualname)
        if info is None:
            return None
        return info.methods.get(method)

    def path_of(self, qualname: str) -> Optional[str]:
        """The file defining a function, a module or its ``<module>``."""
        if qualname.endswith(f".{MODULE_FN}"):
            module = self.modules.get(qualname[: -len(f".{MODULE_FN}")])
        else:
            info = self.functions.get(qualname)
            if info is not None:
                return info.path
            module = self.modules.get(qualname)
        return module.path if module else None

    def finding(
        self, code: str, path: str, line: int, message: str
    ) -> Finding:
        """A whole-program finding at ``path:line``, graded as registered."""
        module = self.modules_by_path.get(path)
        return finding_at(
            path, module.lines if module else (), line, 0, code,
            get_rule(code).severity, message,
        )

    def rng_symbols(self) -> Dict[str, RngGlobal]:
        """Every module-global RNG stream, keyed by qualified symbol."""
        out: Dict[str, RngGlobal] = {}
        for module in self.modules.values():
            for rng in module.rng_globals.values():
                out[rng.symbol] = rng
        return out


def load_project(
    root: str,
    paths: Sequence[str],
    exclude: Sequence[str] = (),
) -> Project:
    """Read, parse and index every ``.py`` file under ``paths`` once.

    ``paths`` are relative to ``root``.
    """
    config = LintConfig(root=root, exclude=list(exclude))
    sources, failures = read_sources(root, collect_files(list(paths), config))
    return Project.from_parsed(sources, failures)
