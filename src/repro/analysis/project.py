"""Whole-program model: modules, symbols, functions, classes.

This is the first of repgraph's three layers (project -> call graph ->
effect/taint analyses).  ``Project.load`` parses every ``.py`` file
under the configured paths exactly once and builds:

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
that do not parse become structured RPL000 findings rather than
aborting the run, mirroring the per-file lint engine.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.findings import Finding, Severity

#: Path components stripped from the front of a relative file path
#: before it is turned into a dotted module name (``src/repro/x.py``
#: -> ``repro.x``).
DEFAULT_SOURCE_ROOTS: Tuple[str, ...] = ("src",)

PARSE_ERROR_CODE = "RPL000"


def module_name_for(path: str, source_roots: Sequence[str]) -> str:
    """Dotted module name for a relative posix ``.py`` path."""
    parts = path.split("/")
    if parts and parts[0] in source_roots:
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

    @property
    def is_method(self) -> bool:
        return self.cls is not None


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
    parse_finding: Optional[Finding] = None
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


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


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

    def __init__(self, source_roots: Sequence[str] = DEFAULT_SOURCE_ROOTS):
        self.source_roots: Tuple[str, ...] = tuple(source_roots)
        self.modules: Dict[str, ModuleInfo] = {}
        self.modules_by_path: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.parse_findings: List[Finding] = []
        self._subclasses: Dict[str, List[str]] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def from_sources(
        cls,
        sources: Sequence[Tuple[str, str]],
        source_roots: Sequence[str] = DEFAULT_SOURCE_ROOTS,
    ) -> "Project":
        """Build a project from ``(relative_path, source_text)`` pairs.

        Used directly by tests; :func:`load_project` feeds it from disk.
        """
        project = cls(source_roots)
        for path, text in sorted(sources):
            project._add_file(path, text)
        for module in project.modules.values():
            if module.tree is not None:
                project._index_module(module)
        project._bind_class_methods()
        project._index_subclasses()
        return project

    def _add_file(self, path: str, text: str) -> None:
        norm = path.replace("\\", "/")
        name = module_name_for(norm, self.source_roots)
        lines = text.splitlines()
        try:
            tree: Optional[ast.Module] = ast.parse(text, filename=norm)
            finding = None
        except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
            tree = None
            lineno = getattr(exc, "lineno", None) or 1
            offset = getattr(exc, "offset", None) or 1
            msg = getattr(exc, "msg", None) or str(exc) or type(exc).__name__
            finding = Finding(
                path=norm,
                line=lineno,
                col=offset - 1,
                code=PARSE_ERROR_CODE,
                severity=Severity.ERROR,
                message=f"file does not parse: {msg}",
                source_line=(lines[lineno - 1].strip()
                             if 0 < lineno <= len(lines) else ""),
            )
            self.parse_findings.append(finding)
        module = ModuleInfo(
            name=name, path=norm, tree=tree, lines=lines,
            parse_finding=finding,
        )
        self.modules[name] = module
        self.modules_by_path[norm] = module

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
    source_roots: Sequence[str] = DEFAULT_SOURCE_ROOTS,
) -> Project:
    """Parse every ``.py`` file under ``paths`` (relative to ``root``)."""
    import os

    from repro.lint.config import LintConfig
    from repro.lint.engine import collect_files

    cfg = LintConfig(root=root, paths=list(paths), exclude=list(exclude))
    sources: List[Tuple[str, str]] = []
    for rel in collect_files(list(paths), cfg):
        abs_path = os.path.join(os.path.abspath(root), rel)
        try:
            with open(abs_path, "r", encoding="utf-8") as fh:
                sources.append((rel, fh.read()))
        except (OSError, UnicodeDecodeError):
            continue
    return Project.from_sources(sources, source_roots=source_roots)
