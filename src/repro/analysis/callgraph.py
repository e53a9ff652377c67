"""Project-wide call graph with lightweight method binding.

Layer two of repgraph.  For every function (plus a ``<module>``
pseudo-function per file for import-time code) the builder records the
calls it can resolve statically:

* dotted references through each module's symbol table
  (``cal.validate()`` with ``import ...calibration as cal``),
* ``self.method()`` / ``cls.method()`` bound through the class
  hierarchy, **plus** edges to every override in project-local
  subclasses (conservative dynamic dispatch),
* ``obj.method()`` where ``obj`` is a local constructed from a known
  class (``sampler = SessionSampler(...)``) — a one-level local type
  inference, which is enough for the pipeline's builder style,
* constructor calls, which edge into ``__init__`` when it exists.

The builder also records every **fan-out site**: a call that ships a
callable to a process/thread pool (``pool.map``, ``executor.submit``,
``multiprocessing.Pool`` methods, or any ``parallel_map``-style
helper), with ``functools.partial`` unwrapped.  The RNG-stream and
purity analyses hang off these sites.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.project import (
    MODULE_FN,
    FunctionInfo,
    ModuleInfo,
    Project,
    normalize_dotted,
)
from repro.lint.rules.common import dotted_name

#: Pool constructors recognized for fan-out tracking.
POOL_CONSTRUCTORS = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
        "concurrent.futures.thread.ThreadPoolExecutor",
        "multiprocessing.Pool",
        "multiprocessing.pool.Pool",
    }
)

#: Pool methods that take a callable as their first argument.
POOL_METHODS = frozenset(
    {"map", "submit", "imap", "imap_unordered", "starmap", "apply",
     "apply_async", "map_async", "starmap_async"}
)

#: Free functions that fan a callable out over units of work.
FANOUT_HELPERS = ("parallel_map",)

_PARTIAL = frozenset({"functools.partial", "partial"})


@dataclass(frozen=True)
class Edge:
    """One resolved call: caller -> callee at a source line."""

    caller: str
    callee: str
    line: int


@dataclass
class FanoutSite:
    """A callable crossing a parallel fan-out boundary."""

    caller: str
    path: str
    line: int
    pool: str  # resolved pool kind or helper name
    worker: Optional[str]  # function qualname, "<lambda>", or None
    lambda_node: Optional[ast.Lambda] = None


class CallGraph:
    """Adjacency over function qualnames, with deterministic iteration."""

    def __init__(self) -> None:
        self._edges: Dict[str, Set[Tuple[str, int]]] = {}
        self._reverse: Dict[str, Set[str]] = {}
        self.fanouts: List[FanoutSite] = []
        self.unresolved_calls: int = 0
        self.resolved_calls: int = 0

    def add_edge(self, caller: str, callee: str, line: int) -> None:
        self._edges.setdefault(caller, set()).add((callee, line))
        self._reverse.setdefault(callee, set()).add(caller)
        self.resolved_calls += 1

    def callees(self, qualname: str) -> List[str]:
        return sorted({c for c, _ in self._edges.get(qualname, ())})

    def callers(self, qualname: str) -> List[str]:
        return sorted(self._reverse.get(qualname, ()))

    def edges(self) -> List[Edge]:
        out = [
            Edge(caller, callee, line)
            for caller, targets in self._edges.items()
            for callee, line in targets
        ]
        return sorted(out, key=lambda e: (e.caller, e.callee, e.line))

    def nodes(self) -> List[str]:
        names = set(self._edges)
        names.update(self._reverse)
        return sorted(names)

    def reachable_from(self, roots: Sequence[str]) -> Set[str]:
        """Every function transitively called from ``roots``."""
        seen: Set[str] = set()
        stack = sorted(set(roots))
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(c for c in self.callees(current) if c not in seen)
        return seen

    def shortest_path(
        self, root: str, target: str
    ) -> Optional[List[str]]:
        """Deterministic BFS path ``root -> ... -> target``."""
        if root == target:
            return [root]
        parents: Dict[str, str] = {}
        queue = [root]
        seen = {root}
        while queue:
            current = queue.pop(0)
            for callee in self.callees(current):
                if callee in seen:
                    continue
                parents[callee] = current
                if callee == target:
                    path = [callee]
                    while path[-1] != root:
                        path.append(parents[path[-1]])
                    return list(reversed(path))
                seen.add(callee)
                queue.append(callee)
        return None

    def to_dict(self) -> Dict[str, object]:
        """Deterministic JSON-ready shape for ``--graph-out``."""
        return {
            "nodes": self.nodes(),
            "edges": [
                {"caller": e.caller, "callee": e.callee, "line": e.line}
                for e in self.edges()
            ],
            "fanouts": [
                {
                    "caller": site.caller,
                    "path": site.path,
                    "line": site.line,
                    "pool": site.pool,
                    "worker": site.worker,
                }
                for site in sorted(
                    self.fanouts,
                    key=lambda s: (s.path, s.line, s.pool, s.worker or ""),
                )
            ],
            "stats": {
                "resolved_calls": self.resolved_calls,
                "unresolved_calls": self.unresolved_calls,
            },
        }


@dataclass
class _FunctionScope:
    """Per-function context while collecting calls."""

    info: Optional[FunctionInfo]
    module: ModuleInfo
    qualname: str
    local_types: Dict[str, str] = field(default_factory=dict)
    pool_vars: Dict[str, str] = field(default_factory=dict)


def build_call_graph(project: Project) -> CallGraph:
    """Resolve every call and fan-out site in the project."""
    graph = CallGraph()
    for name in sorted(project.modules):
        module = project.modules[name]
        if module.tree is None:
            continue
        scope = _FunctionScope(
            info=None, module=module, qualname=f"{name}.{MODULE_FN}"
        )
        _collect(project, graph, scope, module.nodes)
    for qualname in sorted(project.functions):
        info = project.functions[qualname]
        module = project.modules[info.module]
        scope = _FunctionScope(info=info, module=module, qualname=qualname)
        _infer_param_types(project, scope)
        _collect(project, graph, scope, info.nodes)
    return graph


def _infer_param_types(project: Project, scope: _FunctionScope) -> None:
    info = scope.info
    if info is None or not isinstance(
        info.node, (ast.FunctionDef, ast.AsyncFunctionDef)
    ):
        return
    args = info.node.args
    if info.cls is not None and args.args:
        scope.local_types[args.args[0].arg] = info.cls
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        if arg.annotation is None:
            continue
        dotted = dotted_name(arg.annotation)
        if dotted is None:
            continue
        resolved = normalize_dotted(project.resolve(scope.module, dotted))
        if resolved in project.classes:
            scope.local_types.setdefault(arg.arg, resolved)


def _collect(
    project: Project,
    graph: CallGraph,
    scope: _FunctionScope,
    nodes: Iterable[ast.AST],
) -> None:
    """Record the calls of one scope, given its nodes in walk order."""
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            _track_assignment(project, scope, node)
        elif isinstance(node, ast.withitem):
            _track_withitem(project, scope, node)
        elif isinstance(node, ast.Call):
            _handle_call(project, graph, scope, node)


def _value_type(
    project: Project, scope: _FunctionScope, value: ast.AST
) -> Tuple[Optional[str], Optional[str]]:
    """(class qualname, pool kind) a value expression constructs."""
    if not isinstance(value, ast.Call):
        return None, None
    dotted = dotted_name(value.func)
    if dotted is None:
        return None, None
    resolved = normalize_dotted(project.resolve(scope.module, dotted))
    if resolved in POOL_CONSTRUCTORS:
        return None, resolved
    if resolved in project.classes:
        return resolved, None
    return None, None


def _track_assignment(
    project: Project, scope: _FunctionScope, node: ast.AST
) -> None:
    targets: List[ast.expr]
    if isinstance(node, ast.Assign):
        targets = node.targets
        value = node.value
    else:
        targets = [node.target]
        value = node.value
    if value is None:
        return
    cls, pool = _value_type(project, scope, value)
    for target in targets:
        if not isinstance(target, ast.Name):
            continue
        if cls is not None:
            scope.local_types[target.id] = cls
        elif pool is not None:
            scope.pool_vars[target.id] = pool
        else:
            scope.local_types.pop(target.id, None)
            scope.pool_vars.pop(target.id, None)


def _track_withitem(
    project: Project, scope: _FunctionScope, node: ast.withitem
) -> None:
    if node.optional_vars is None or not isinstance(
        node.optional_vars, ast.Name
    ):
        return
    cls, pool = _value_type(project, scope, node.context_expr)
    if cls is not None:
        scope.local_types[node.optional_vars.id] = cls
    elif pool is not None:
        scope.pool_vars[node.optional_vars.id] = pool


def _handle_call(
    project: Project,
    graph: CallGraph,
    scope: _FunctionScope,
    node: ast.Call,
) -> None:
    fanout = _fanout_for(project, scope, node)
    if fanout is not None:
        graph.fanouts.append(fanout)
        if fanout.worker and fanout.worker != "<lambda>":
            graph.add_edge(scope.qualname, fanout.worker, node.lineno)
        return
    targets = _resolve_callable(project, scope, node.func)
    if not targets:
        graph.unresolved_calls += 1
        return
    for target in targets:
        graph.add_edge(scope.qualname, target, node.lineno)


def _resolve_callable(
    project: Project, scope: _FunctionScope, func: ast.AST
) -> List[str]:
    """Possible project-local targets of a call expression."""
    dotted = dotted_name(func)
    if dotted is None:
        return []
    # obj.method() through the one-level local type environment
    # (includes self/cls via the seeded parameter types).
    head, _, rest = dotted.partition(".")
    if rest and head in scope.local_types and "." not in rest:
        return _bind_method(project, scope.local_types[head], rest)
    resolved = normalize_dotted(project.resolve(scope.module, dotted))
    if resolved in project.functions:
        return [resolved]
    if resolved in project.classes:
        init = project.lookup_method(resolved, "__init__")
        return [init] if init else []
    # Attribute call whose base is a project class (Class.method(...)).
    base, _, attr = resolved.rpartition(".")
    if base in project.classes:
        return _bind_method(project, base, attr)
    return []


def _bind_method(
    project: Project, cls: str, method: str
) -> List[str]:
    """Bind through the MRO, then add subclass overrides."""
    targets: List[str] = []
    bound = project.lookup_method(cls, method)
    if bound is not None:
        targets.append(bound)
    for sub in project.subclasses(cls):
        info = project.classes.get(sub)
        if info is None:
            continue
        own = info.methods.get(method)
        if own is not None and own not in targets:
            # Only true overrides defined on the subclass itself.
            if own.startswith(sub + "."):
                targets.append(own)
    return sorted(targets)


def _fanout_for(
    project: Project, scope: _FunctionScope, node: ast.Call
) -> Optional[FanoutSite]:
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    pool: Optional[str] = None
    callable_expr: Optional[ast.AST] = None
    head, _, rest = dotted.partition(".")
    if rest and head in scope.pool_vars and rest in POOL_METHODS:
        pool = scope.pool_vars[head]
        if node.args:
            callable_expr = node.args[0]
    else:
        resolved = normalize_dotted(project.resolve(scope.module, dotted))
        if resolved.rpartition(".")[2] in FANOUT_HELPERS or any(
            resolved.endswith(h) for h in FANOUT_HELPERS
        ):
            pool = resolved
            if node.args:
                callable_expr = node.args[0]
    if pool is None:
        return None
    worker, lambda_node = _worker_target(project, scope, callable_expr)
    return FanoutSite(
        caller=scope.qualname,
        path=scope.module.path,
        line=node.lineno,
        pool=pool,
        worker=worker,
        lambda_node=lambda_node,
    )


def _worker_target(
    project: Project, scope: _FunctionScope, expr: Optional[ast.AST]
) -> Tuple[Optional[str], Optional[ast.Lambda]]:
    if expr is None:
        return None, None
    if isinstance(expr, ast.Lambda):
        return "<lambda>", expr
    if isinstance(expr, ast.Call):
        dotted = dotted_name(expr.func)
        if dotted is not None:
            resolved = normalize_dotted(project.resolve(scope.module, dotted))
            if resolved in _PARTIAL or dotted in _PARTIAL:
                if expr.args:
                    return _worker_target(project, scope, expr.args[0])
        return None, None
    targets = _resolve_callable(project, scope, expr)
    if targets:
        return targets[0], None
    return None, None
