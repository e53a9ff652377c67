"""Effect and taint inference over the call graph.

Layer three of repgraph.  Two passes run over every function (and over
each module's import-time ``<module>`` pseudo-function):

1. **Direct effects** — one pass over each scope's node list (built
   once by :class:`~repro.analysis.project.Project`) records
   * writes to module globals (``global`` rebinding, attribute or
     subscript stores, and mutating method calls like ``.append`` on a
     module-level name),
   * mutation of closure-captured state (``nonlocal`` or mutating
     calls on names bound in an enclosing function),
   * wall-clock reads (``time.time``, ``datetime.now`` &c., resolved
     through the symbol table so ``from time import time as _t`` still
     counts),
   * uses of module-global RNG streams, and RNG constructions with
     their seededness.

2. **Summaries** — a fixpoint over the call graph unions callee
   effects into callers, so "does this worker touch shared state?"
   is answerable at any fan-out site.  Calls into :mod:`repro.obs`
   and :mod:`logging` are *not* propagated: the obs layer is
   determinism-neutral by construction (output is byte-identical with
   observability on or off), which keeps instrumented code from being
   flagged for its instrumentation.

A separate fixpoint computes **clock return-taint**: whether a
function's return value derives from a wall-clock read, directly or
through calls to other clock-tainted functions, plus any flows of
tainted values into ``json.dump``/``json.dumps`` arguments.  Its
rounds run a small program compiled once per scope, never the tree.
Every recorded site is a ``(path, line, detail)`` triple so analyses
can report at the offending source line with a provenance chain.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.analysis.callgraph import CallGraph, MODULE_FN
from repro.analysis.project import (
    FunctionInfo,
    ModuleInfo,
    Project,
    RNG_CONSTRUCTORS,
    normalize_dotted,
)
from repro.lint.rules.common import dotted_name

#: Wall-clock reads (monotonic clocks are interval-only and stay legal).
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "datetime.now",
        "datetime.utcnow",
        "date.today",
    }
)

#: Callees whose effects are never propagated to callers.
NEUTRAL_PREFIXES: Tuple[str, ...] = ("repro.obs", "logging")

_MUTATING_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "clear", "remove", "discard", "sort",
        "reverse", "appendleft", "extendleft",
    }
)

_JSON_SINKS = frozenset({"json.dump", "json.dumps"})

Site = Tuple[str, int, str]  # (function qualname, line, detail)


@dataclass
class Effects:
    """Effect set of one function (direct or summarized)."""

    writes_global: Set[Tuple[str, str]] = field(default_factory=set)
    mutates_capture: Set[Tuple[str, str]] = field(default_factory=set)
    clock_sites: Set[Site] = field(default_factory=set)
    rng_uses: Set[Tuple[str, str]] = field(default_factory=set)
    rng_origins: List[Tuple[int, str, bool]] = field(default_factory=list)

    def merge_propagated(self, other: "Effects") -> bool:
        """Union the propagatable parts of ``other``; True if grown."""
        before = (
            len(self.writes_global),
            len(self.mutates_capture),
            len(self.clock_sites),
            len(self.rng_uses),
        )
        self.writes_global |= other.writes_global
        self.mutates_capture |= other.mutates_capture
        self.clock_sites |= other.clock_sites
        self.rng_uses |= other.rng_uses
        return before != (
            len(self.writes_global),
            len(self.mutates_capture),
            len(self.clock_sites),
            len(self.rng_uses),
        )


def _bound_names(root: ast.AST, nodes: Sequence[ast.AST]) -> Set[str]:
    """Names bound locally in one scope, given its nodes."""
    bound: Set[str] = set()
    if isinstance(root, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = root.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            bound.add(arg.arg)
        if args.vararg:
            bound.add(args.vararg.arg)
        if args.kwarg:
            bound.add(args.kwarg.arg)
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            bound.add(node.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for name_node in ast.walk(node.target):
                if isinstance(name_node, ast.Name):
                    bound.add(name_node.id)
        elif isinstance(node, ast.withitem) and node.optional_vars:
            for name_node in ast.walk(node.optional_vars):
                if isinstance(name_node, ast.Name):
                    bound.add(name_node.id)
        elif isinstance(node, ast.comprehension):
            for name_node in ast.walk(node.target):
                if isinstance(name_node, ast.Name):
                    bound.add(name_node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
    return bound


@dataclass(frozen=True)
class _TaintExpr:
    """What decides whether an expression carries a wall-clock value."""

    loads: FrozenSet[str]  # names it loads
    clock: bool  # it calls a wall clock itself
    callees: FrozenSet[str]  # analyzed functions it calls


@dataclass
class _TaintProgram:
    """One scope's clock-taint statements, compiled once."""

    assigns: List[Tuple[FrozenSet[str], _TaintExpr]]
    returns: Optional[_TaintExpr]  # every return value, merged
    sinks: List[Tuple[int, _TaintExpr]]  # json.dump(s) line, its arguments


class EffectAnalysis:
    """Direct + summarized effects, and clock return-taint."""

    def __init__(self, project: Project, graph: CallGraph) -> None:
        self.project = project
        self.graph = graph
        self.direct: Dict[str, Effects] = {}
        self.summary: Dict[str, Effects] = {}
        self.returns_clock: Dict[str, bool] = {}
        self.json_sink_sites: List[Site] = []
        self._rng_symbols = project.rng_symbols()
        # What the direct pass saw of each scope's calls, for the taint
        # pass: resolved callee names, and the scopes holding a lambda
        # (whose calls the scope walk does not enter).
        self._calls: Dict[str, Set[str]] = {}
        self._opaque: Set[str] = set()
        self.run()

    # -- entry ----------------------------------------------------------

    def run(self) -> None:
        functions = self.project.functions
        bound = {
            qualname: _bound_names(info.node, info.nodes)
            for qualname, info in functions.items()
        }
        for qualname, module, nodes, info in self._scopes():
            # A module scope's checks never consult its local names.
            local: Set[str] = set()
            enclosing: Set[str] = set()  # names of enclosing functions
            if info is not None:
                local = bound[qualname]
                parent = info.parent
                while parent in functions:
                    enclosing |= bound[parent]
                    parent = functions[parent].parent
            self.direct[qualname] = self._direct_effects(
                module, nodes, qualname, local, enclosing
            )
        self._fixpoint_summaries()
        self._fixpoint_clock_taint()

    def _scopes(
        self,
    ) -> Iterator[
        Tuple[str, ModuleInfo, List[ast.AST], Optional[FunctionInfo]]
    ]:
        """``(qualname, module, nodes, info)`` of every module body,
        then of every function (``info`` None for a module body).
        """
        for name in sorted(self.project.modules):
            module = self.project.modules[name]
            if module.tree is not None:
                yield f"{name}.{MODULE_FN}", module, module.nodes, None
        for qualname in sorted(self.project.functions):
            info = self.project.functions[qualname]
            module = self.project.modules[info.module]
            yield qualname, module, info.nodes, info

    def effects_of(self, qualname: str) -> Effects:
        """Summarized effects; empty for unknown functions."""
        return self.summary.get(qualname, Effects())

    # -- direct pass ----------------------------------------------------

    def _direct_effects(
        self,
        module: ModuleInfo,
        nodes: Sequence[ast.AST],
        qualname: str,
        local: Set[str],
        enclosing_bound: Set[str],
    ) -> Effects:
        effects = Effects()
        declared_global: Set[str] = set()
        declared_nonlocal: Set[str] = set()
        module_names = (
            set(module.global_names)
            | set(module.mutable_globals)
            | set(module.rng_globals)
        )

        def is_module_global(name: str) -> bool:
            if name in declared_global:
                return True
            if qualname.endswith(f".{MODULE_FN}"):
                return name in module_names
            return name in module_names and name not in local

        def is_capture(name: str) -> bool:
            if name in declared_nonlocal:
                return True
            return (
                name in enclosing_bound
                and name not in local
                and name not in module_names
            )

        for node in nodes:
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Nonlocal):
                declared_nonlocal.update(node.names)

        calls = self._calls[qualname] = set()
        for node in nodes:
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    self._record_store(
                        module, qualname, effects, target,
                        is_module_global, is_capture,
                    )
            elif isinstance(node, ast.Call):
                resolved = self._record_call(
                    module, qualname, effects, node,
                    is_module_global, is_capture,
                )
                if resolved is not None:
                    calls.add(resolved)
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                node.ctx, ast.Load
            ):
                self._record_rng_use(
                    module, qualname, effects, node, local
                )
            elif isinstance(node, ast.Lambda):
                self._opaque.add(qualname)
        return effects

    def _record_rng_use(
        self,
        module: ModuleInfo,
        qualname: str,
        effects: Effects,
        node: ast.AST,
        local: Set[str],
    ) -> None:
        """Record loads of module-global RNG streams.

        Covers the stream's home module (bare ``RNG``) and every
        import shape — ``streams.RNG``, ``from .streams import RNG``
        — by resolving the dotted chain through the symbol table, so
        a worker defined two modules away from the stream still
        carries the use in its summary.
        """
        base = node
        while isinstance(base, ast.Attribute):
            base = base.value
        if not isinstance(base, ast.Name):
            return
        if base.id in local and not qualname.endswith(f".{MODULE_FN}"):
            return
        dotted = dotted_name(node)
        if dotted is None:
            return
        resolved = normalize_dotted(self.project.resolve(module, dotted))
        rng = self._rng_symbols.get(resolved)
        if rng is None and isinstance(node, ast.Name):
            rng = module.rng_globals.get(node.id)
        if rng is not None:
            effects.rng_uses.add((rng.symbol, qualname))

    def _record_store(
        self,
        module: ModuleInfo,
        qualname: str,
        effects: Effects,
        target: ast.AST,
        is_module_global,
        is_capture,
    ) -> None:
        base = target
        while isinstance(base, (ast.Subscript, ast.Attribute)):
            base = base.value
        if not isinstance(base, ast.Name):
            return
        name = base.id
        if isinstance(target, ast.Name):
            # A plain rebinding only writes shared state with an
            # explicit ``global`` declaration (otherwise it creates a
            # local); module-level rebinding is definition, not
            # mutation.
            if not qualname.endswith(f".{MODULE_FN}") and is_module_global(
                name
            ):
                effects.writes_global.add(
                    (f"{module.name}.{name}", qualname)
                )
            return
        # Attribute/subscript store through a shared or captured base.
        if is_module_global(name):
            effects.writes_global.add((f"{module.name}.{name}", qualname))
        elif is_capture(name):
            effects.mutates_capture.add((name, qualname))

    def _record_call(
        self,
        module: ModuleInfo,
        qualname: str,
        effects: Effects,
        node: ast.Call,
        is_module_global,
        is_capture,
    ) -> Optional[str]:
        """Record one call's effects; returns its resolved callee."""
        dotted = dotted_name(node.func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if rest and "." not in rest and rest in _MUTATING_METHODS:
            if is_module_global(head):
                effects.writes_global.add((f"{module.name}.{head}", qualname))
            elif is_capture(head):
                effects.mutates_capture.add((head, qualname))
        resolved = normalize_dotted(self.project.resolve(module, dotted))
        if resolved in WALL_CLOCK_CALLS or dotted in WALL_CLOCK_CALLS:
            effects.clock_sites.add((qualname, node.lineno, resolved))
        if resolved in RNG_CONSTRUCTORS:
            effects.rng_origins.append(
                (node.lineno, resolved, bool(node.args or node.keywords))
            )
        return resolved

    # -- summaries ------------------------------------------------------

    def _neutral(self, qualname: str) -> bool:
        return any(
            qualname == p or qualname.startswith(p + ".")
            for p in NEUTRAL_PREFIXES
        )

    def _fixpoint_summaries(self) -> None:
        self.summary = {}
        for qualname, eff in self.direct.items():
            copy = Effects()
            copy.merge_propagated(eff)
            copy.rng_origins = list(eff.rng_origins)
            self.summary[qualname] = copy
        changed = True
        while changed:
            changed = False
            for qualname in sorted(self.summary):
                mine = self.summary[qualname]
                for callee in self.graph.callees(qualname):
                    if self._neutral(callee):
                        continue
                    other = self.summary.get(callee)
                    if other is None:
                        continue
                    if mine.merge_propagated(other):
                        changed = True

    # -- clock return-taint ---------------------------------------------

    def _fixpoint_clock_taint(self) -> None:
        """Clock return-taint and tainted json sinks, to a fixpoint.

        A scope is compiled (:meth:`_compile_taint`) only once it could
        hold a tainted value: it reads a wall clock, holds a lambda, or
        calls a function already found to return a clock value.  Until
        then it returns no clock value and reaches no sink.
        """
        scopes = {
            qualname: (module, nodes)
            for qualname, module, nodes, _ in self._scopes()
        }
        programs: Dict[str, _TaintProgram] = {}
        self.returns_clock = {q: False for q in self.direct}
        sink_sites: Set[Site] = set()
        changed = True
        while changed:
            changed = False
            for qualname in sorted(scopes):
                program = programs.get(qualname)
                if program is None:
                    if not self._may_taint(qualname):
                        continue
                    program = self._compile_taint(*scopes[qualname])
                    programs[qualname] = program
                returns, sinks = self._run_taint(qualname, program)
                if returns and not self.returns_clock[qualname]:
                    self.returns_clock[qualname] = True
                    changed = True
                new_sinks = sinks - sink_sites
                if new_sinks:
                    sink_sites |= new_sinks
                    changed = True
        self.json_sink_sites = sorted(sink_sites)

    def _may_taint(self, qualname: str) -> bool:
        return (
            qualname in self._opaque
            or bool(self.direct[qualname].clock_sites)
            or any(self.returns_clock.get(c) for c in self._calls[qualname])
        )

    def _compile_taint(
        self, module: ModuleInfo, nodes: Sequence[ast.AST]
    ) -> _TaintProgram:
        """Reduce a scope to the statements the taint rounds evaluate."""

        def compile_expr(exprs: Sequence[ast.AST]) -> _TaintExpr:
            loads: Set[str] = set()
            clock = False
            callees: Set[str] = set()
            for expr in exprs:
                for sub in ast.walk(expr):
                    if isinstance(sub, ast.Name) and isinstance(
                        sub.ctx, ast.Load
                    ):
                        loads.add(sub.id)
                    elif isinstance(sub, ast.Call):
                        dotted = dotted_name(sub.func)
                        if dotted is None:
                            continue
                        resolved = normalize_dotted(
                            self.project.resolve(module, dotted)
                        )
                        if (
                            resolved in WALL_CLOCK_CALLS
                            or dotted in WALL_CLOCK_CALLS
                        ):
                            clock = True
                        if resolved in self.direct:
                            callees.add(resolved)
            return _TaintExpr(frozenset(loads), clock, frozenset(callees))

        program = _TaintProgram(assigns=[], returns=None, sinks=[])
        returns: List[ast.AST] = []
        for node in nodes:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                if node.value is None:
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                names = frozenset(
                    name_node.id
                    for target in targets
                    for name_node in ast.walk(target)
                    if isinstance(name_node, ast.Name)
                )
                program.assigns.append((names, compile_expr([node.value])))
            elif isinstance(node, ast.Return):
                if node.value is not None:
                    returns.append(node.value)
            elif isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is None:
                    continue
                resolved = normalize_dotted(
                    self.project.resolve(module, dotted)
                )
                if resolved in _JSON_SINKS or dotted in _JSON_SINKS:
                    args = list(node.args) + [
                        kw.value for kw in node.keywords
                    ]
                    program.sinks.append((node.lineno, compile_expr(args)))
        if returns:
            program.returns = compile_expr(returns)
        return program

    def _run_taint(
        self, qualname: str, program: _TaintProgram
    ) -> Tuple[bool, Set[Site]]:
        """Whether the scope returns a clock value, and its tainted sinks.

        Local taint is flow-insensitive: assignments run until the
        tainted names stop growing, then returns and sinks are judged
        against that set, so statement order never hides a flow.
        """
        tainted: Set[str] = set()

        def expr_tainted(expr: _TaintExpr) -> bool:
            return (
                expr.clock
                or not expr.loads.isdisjoint(tainted)
                or any(self.returns_clock[c] for c in expr.callees)
            )

        grown = True
        while grown:
            grown = False
            for names, expr in program.assigns:
                if not names <= tainted and expr_tainted(expr):
                    tainted |= names
                    grown = True
        returns = program.returns is not None and expr_tainted(program.returns)
        sinks = {
            (qualname, line, "json payload")
            for line, expr in program.sinks
            if expr_tainted(expr)
        }
        return returns, sinks
