"""Phase 1 of the two-phase analyzer: the whole-program index.

The per-module rules (lock-discipline, determinism, …) only ever see
one AST at a time.  The global lock-order rule needs to see *every*
module at once.  This module builds that view:

* a **symbol table** — every class and function in the scanned tree,
  keyed by module-relative path and qualname, with per-module import
  maps so dotted references resolve across modules;
* a **call graph with lock summaries** — per function: the calls it
  makes, the locks it acquires (``with <lock>:``, ``.acquire()``, and
  the ``# holds-lock:`` pragmas), and every ``await`` together with
  the thread locks held around it.

Resolution is deliberately best-effort and *under*-approximating:
a call or lock the index cannot resolve contributes nothing, so the
lock-order rule never hallucinates an edge — the cost is that exotic
indirection (dynamic dispatch tables, getattr) is invisible to it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.rules.base import dotted_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import ModuleUnit

__all__ = [
    "Acquisition",
    "AwaitSite",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "LockEdge",
    "LockKey",
    "ModuleInfo",
    "ProgramIndex",
    "build_program_index",
]


#: Constructors that produce *thread* locks — holding one of these
#: across an ``await`` stalls every other event-loop task.
THREAD_LOCK_CTORS = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "multiprocessing.Lock",
    "multiprocessing.RLock",
}

#: Constructors that produce *asyncio* locks — cooperative, safe to
#: hold across ``await``, but still deadlock-prone under a cycle.
ASYNC_LOCK_CTORS = {
    "asyncio.Lock",
    "asyncio.Condition",
    "asyncio.Semaphore",
    "asyncio.BoundedSemaphore",
}


@dataclass(frozen=True)
class LockKey:
    """Class-scoped identity of one lock attribute.

    Two instances of the same class share a key: classic lock-order
    analysis works on lock *classes*, which is exactly the granularity
    the deadlock argument needs (any two instances acquired in
    conflicting orders by two threads can deadlock).
    """

    module: str  #: relpath of the module declaring the lock
    owner: str   #: declaring class name, or "" for a module-level lock
    attr: str    #: attribute / variable name of the lock object
    kind: str    #: "thread" | "async"

    @property
    def label(self) -> str:
        where = self.owner if self.owner else self.module
        return f"{where}.{self.attr}"


@dataclass(frozen=True)
class Acquisition:
    """One ``with <lock>:`` (or ``.acquire()``) site inside a function."""

    lock: LockKey
    line: int
    held: Tuple[LockKey, ...]  #: locks already held at this site


@dataclass(frozen=True)
class CallSite:
    """One call expression plus the locks held around it."""

    target: str  #: dotted callee text, e.g. "self.planner.evaluate"
    line: int
    held: Tuple[LockKey, ...]


@dataclass(frozen=True)
class AwaitSite:
    """One ``await`` plus the *thread* locks held around it."""

    line: int
    thread_locks: Tuple[LockKey, ...]


@dataclass
class FunctionInfo:
    """Phase-1 summary of one function or method."""

    module: str
    qualname: str          #: "Class.method" or "function"
    name: str
    owner: str             #: enclosing class name, "" for module level
    is_async: bool
    lineno: int
    calls: List[CallSite] = field(default_factory=list)
    acquisitions: List[Acquisition] = field(default_factory=list)
    awaits: List[AwaitSite] = field(default_factory=list)
    #: Locks declared held on entry via ``# holds-lock:`` pragmas.
    holds: Tuple[LockKey, ...] = ()
    #: Local variables assigned from a resolvable constructor call.
    local_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ClassInfo:
    """Phase-1 summary of one class."""

    module: str
    name: str
    lineno: int
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` → dotted constructor / annotation text.
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: ``self.<attr>`` → "thread" | "async" for lock-typed attributes.
    lock_attrs: Dict[str, str] = field(default_factory=dict)

    def lock_key(self, attr: str) -> Optional[LockKey]:
        kind = self.lock_attrs.get(attr)
        if kind is None:
            return None
        return LockKey(self.module, self.name, attr, kind)


@dataclass
class ModuleInfo:
    """Phase-1 summary of one module."""

    relpath: str
    dotted: str  #: import path, e.g. "repro.service.state"
    #: local name → dotted target ("repro.service.state" or
    #: "repro.service.state.ServiceState" or "threading").
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level lock variables → "thread" | "async".
    module_locks: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class LockEdge:
    """Directed "acquired-while-holding" evidence between two locks."""

    src: LockKey
    dst: LockKey
    module: str
    line: int
    via: str = ""  #: callee qualname when the edge is interprocedural

    def render(self) -> str:
        site = f"{self.module}:{self.line}"
        if self.via:
            return (f"{self.src.label} -> {self.dst.label} "
                    f"(via call to {self.via} at {site})")
        return f"{self.src.label} -> {self.dst.label} (at {site})"


def _module_dotted(relpath: str) -> str:
    parts = relpath[:-3].split("/") if relpath.endswith(".py") else \
        relpath.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class ProgramIndex:
    """The cross-module view the project-scoped rules consume."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        #: dotted module path → relpath, for import resolution.
        self.by_dotted: Dict[str, str] = {}
        #: class name → every ClassInfo with that name (project-wide).
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}

    # -- symbol lookups --------------------------------------------------
    def functions(self) -> List[FunctionInfo]:
        out: List[FunctionInfo] = []
        for module in self.modules.values():
            out.extend(module.functions.values())
            for cls in module.classes.values():
                out.extend(cls.methods.values())
        return out

    def function_at(self, relpath: str, qualname: str) -> Optional[FunctionInfo]:
        module = self.modules.get(relpath)
        if module is None:
            return None
        if qualname in module.functions:
            return module.functions[qualname]
        if "." in qualname:
            cls_name, _, meth = qualname.partition(".")
            cls = module.classes.get(cls_name)
            if cls is not None:
                return cls.methods.get(meth)
        return None

    def resolve_module(self, dotted: str) -> Optional[ModuleInfo]:
        relpath = self.by_dotted.get(dotted)
        return self.modules.get(relpath) if relpath is not None else None

    def expand(self, module: ModuleInfo, dotted: str) -> str:
        """Rewrite the leading import alias of ``dotted`` to its target."""
        head, _, rest = dotted.partition(".")
        target = module.imports.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def resolve_class(self, name: str,
                      module: ModuleInfo) -> Optional[ClassInfo]:
        """Best-effort class resolution for ``name`` seen in ``module``."""
        dotted = self.expand(module, name)
        if "." in dotted:
            mod_path, _, cls_name = dotted.rpartition(".")
            target = self.resolve_module(mod_path)
            if target is not None:
                found = target.classes.get(cls_name)
                if found is not None:
                    return found
        else:
            found = module.classes.get(dotted)
            if found is not None:
                return found
        # Unique project-wide name as a last resort: good enough for
        # the small, flat class namespace this codebase keeps.
        tail = dotted.rpartition(".")[2]
        candidates = self.classes_by_name.get(tail, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def resolve_call(self, fn: FunctionInfo,
                     call: CallSite) -> Optional[FunctionInfo]:
        """Resolve one call site to a project function, or ``None``."""
        module = self.modules.get(fn.module)
        if module is None:
            return None
        target = call.target
        if target.startswith("self."):
            if not fn.owner:
                return None
            cls = module.classes.get(fn.owner)
            if cls is None:
                return None
            rest = target[len("self."):]
            if "." not in rest:
                return cls.methods.get(rest)
            attr, _, meth = rest.partition(".")
            if "." in meth:
                return None  # deeper chains are out of scope
            attr_type = cls.attr_types.get(attr)
            if attr_type is None:
                return None
            attr_cls = self.resolve_class(attr_type, module)
            return attr_cls.methods.get(meth) if attr_cls else None
        if "." not in target:
            found = module.functions.get(target)
            if found is not None:
                return found
            cls = self.resolve_class(target, module)
            if cls is not None and target in module.imports or \
                    cls is not None and target in module.classes:
                return cls.methods.get("__init__")
            return None
        head, _, rest = target.partition(".")
        if head in fn.local_types and "." not in rest:
            cls = self.resolve_class(fn.local_types[head], module)
            return cls.methods.get(rest) if cls else None
        dotted = self.expand(module, target)
        mod_path, _, leaf = dotted.rpartition(".")
        targets: List[Tuple[str, str]] = [(mod_path, leaf)]
        # "pkg.Class.method" — one more split.
        if "." in mod_path:
            outer, _, cls_name = mod_path.rpartition(".")
            targets.append((outer, f"{cls_name}.{leaf}"))
        for mod_dotted, symbol in targets:
            mod = self.resolve_module(mod_dotted)
            if mod is None:
                continue
            if "." in symbol:
                cls_name, _, meth = symbol.partition(".")
                cls = mod.classes.get(cls_name)
                if cls is not None:
                    return cls.methods.get(meth)
                continue
            if symbol in mod.functions:
                return mod.functions[symbol]
            cls = mod.classes.get(symbol)
            if cls is not None:
                return cls.methods.get("__init__")
        return None

    # -- lock graph ------------------------------------------------------
    def transitive_acquisitions(self) -> Dict[int, Set[LockKey]]:
        """Fixed point of "locks a call to this function may acquire".

        Keyed by ``id(FunctionInfo)``; includes locks acquired by every
        resolvable callee, transitively.
        """
        functions = self.functions()
        acquired: Dict[int, Set[LockKey]] = {
            id(fn): {acq.lock for acq in fn.acquisitions}
            for fn in functions
        }
        callees: Dict[int, List[int]] = {}
        for fn in functions:
            resolved = []
            for call in fn.calls:
                callee = self.resolve_call(fn, call)
                if callee is not None:
                    resolved.append(id(callee))
            callees[id(fn)] = resolved
        changed = True
        while changed:
            changed = False
            for fn in functions:
                mine = acquired[id(fn)]
                before = len(mine)
                for callee_id in callees[id(fn)]:
                    mine |= acquired.get(callee_id, set())
                if len(mine) != before:
                    changed = True
        return acquired

    def lock_edges(self) -> List[LockEdge]:
        """Every direct and interprocedural acquired-while-holding edge."""
        edges: Dict[Tuple[LockKey, LockKey], LockEdge] = {}

        def add(edge: LockEdge) -> None:
            if edge.src == edge.dst:
                return  # re-entry is lock-discipline's concern, not order
            key = (edge.src, edge.dst)
            existing = edges.get(key)
            if existing is None or (edge.module, edge.line) < (
                    existing.module, existing.line):
                edges[key] = edge

        transitive = self.transitive_acquisitions()
        for fn in self.functions():
            for acq in fn.acquisitions:
                for held in acq.held:
                    add(LockEdge(held, acq.lock, fn.module, acq.line))
            for call in fn.calls:
                if not call.held:
                    continue
                callee = self.resolve_call(fn, call)
                if callee is None:
                    continue
                for lock in transitive.get(id(callee), ()):
                    for held in call.held:
                        add(LockEdge(held, lock, fn.module, call.line,
                                     via=callee.qualname))
        return sorted(
            edges.values(),
            key=lambda e: (e.src.label, e.dst.label, e.module, e.line),
        )

    def lock_cycles(self) -> List[List[LockEdge]]:
        """Strongly-connected lock-order components, as edge lists.

        Each cycle is reported once, as the sorted list of in-component
        edges — deterministic, so findings fingerprint stably.
        """
        edges = self.lock_edges()
        graph: Dict[LockKey, List[LockKey]] = {}
        for edge in edges:
            graph.setdefault(edge.src, []).append(edge.dst)
            graph.setdefault(edge.dst, [])
        components = _strongly_connected(graph)
        cycles: List[List[LockEdge]] = []
        for component in components:
            if len(component) < 2:
                continue
            members = set(component)
            cycle_edges = [e for e in edges
                           if e.src in members and e.dst in members]
            if cycle_edges:
                cycles.append(cycle_edges)
        cycles.sort(key=lambda es: tuple(e.render() for e in es))
        return cycles


def _strongly_connected(
    graph: Dict[LockKey, List[LockKey]]
) -> List[List[LockKey]]:
    """Iterative Tarjan SCC over the lock digraph (tiny, but no recursion)."""
    index: Dict[LockKey, int] = {}
    lowlink: Dict[LockKey, int] = {}
    on_stack: Set[LockKey] = set()
    stack: List[LockKey] = []
    counter = [0]
    components: List[List[LockKey]] = []

    for root in sorted(graph, key=lambda k: k.label):
        if root in index:
            continue
        work: List[Tuple[LockKey, int]] = [(root, 0)]
        while work:
            node, child_idx = work.pop()
            if child_idx == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            children = graph.get(node, [])
            advanced = False
            for position in range(child_idx, len(children)):
                child = children[position]
                if child not in index:
                    work.append((node, position + 1))
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            if lowlink[node] == index[node]:
                component: List[LockKey] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component, key=lambda k: k.label))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def build_program_index(modules: Sequence["ModuleUnit"]) -> ProgramIndex:
    """Phase 1: summarise every module into one :class:`ProgramIndex`."""
    program = ProgramIndex()
    for unit in modules:
        info = ModuleInfo(relpath=unit.relpath,
                          dotted=_module_dotted(unit.relpath))
        program.modules[unit.relpath] = info
        program.by_dotted[info.dotted] = unit.relpath
    for unit in modules:
        builder = _ModuleBuilder(program, unit)
        builder.collect_structure()
    # Lock-attribute typing must be complete across *all* classes before
    # any function body is summarised: `with self.planner._lock:` in one
    # module resolves through a class declared in another.
    for unit in modules:
        _ModuleBuilder(program, unit).collect_bodies()
    return program


class _ModuleBuilder:
    """Two-pass per-module collector feeding one :class:`ProgramIndex`."""

    def __init__(self, program: ProgramIndex, unit: "ModuleUnit") -> None:
        self.program = program
        self.unit = unit
        self.info = program.modules[unit.relpath]

    # -- pass A: imports, classes, lock attributes, signatures -----------
    def collect_structure(self) -> None:
        info = self.info
        for node in ast.walk(self.unit.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.partition(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.partition(".")[0]
                    info.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    info.imports[local] = f"{base}.{alias.name}" if base \
                        else alias.name
        for stmt in self.unit.tree.body:
            if isinstance(stmt, ast.ClassDef):
                self._collect_class(stmt)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.functions[stmt.name] = FunctionInfo(
                    module=info.relpath, qualname=stmt.name, name=stmt.name,
                    owner="", is_async=isinstance(stmt, ast.AsyncFunctionDef),
                    lineno=stmt.lineno,
                )
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                self._collect_module_lock(stmt)

    def _import_base(self, node: ast.ImportFrom) -> Optional[str]:
        if not node.level:
            return node.module or ""
        # Relative import: resolve against this module's package.
        parts = self.info.dotted.split(".") if self.info.dotted else []
        is_package = self.unit.relpath.endswith("__init__.py")
        up = node.level - (1 if is_package else 0)
        if up > len(parts):
            return None
        base_parts = parts[:len(parts) - up] if up else parts
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts)

    def _collect_class(self, node: ast.ClassDef) -> None:
        cls = ClassInfo(module=self.info.relpath, name=node.name,
                        lineno=node.lineno)
        self.info.classes[node.name] = cls
        self.program.classes_by_name.setdefault(node.name, []).append(cls)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{node.name}.{item.name}"
                cls.methods[item.name] = FunctionInfo(
                    module=self.info.relpath, qualname=qualname,
                    name=item.name, owner=node.name,
                    is_async=isinstance(item, ast.AsyncFunctionDef),
                    lineno=item.lineno,
                )
                self._collect_attr_types(cls, item)
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                kind = self._lock_kind_of(self._assigned_value(item))
                for name in self._assigned_names(item):
                    if kind is not None:
                        cls.lock_attrs[name] = kind

    def _collect_attr_types(self, cls: ClassInfo,
                            fn: ast.AST) -> None:
        """``self.X = ...`` assignments: lock kinds and attribute types."""
        params: Dict[str, str] = {}
        args = getattr(fn, "args", None)
        if args is not None:
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                if arg.annotation is not None:
                    annotated = _annotation_text(arg.annotation)
                    if annotated:
                        params[arg.arg] = annotated
        for node in ast.walk(fn):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = self._assigned_value(node)
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                attr = target.attr
                kind = self._lock_kind_of(value)
                if kind is not None:
                    cls.lock_attrs.setdefault(attr, kind)
                    continue
                if isinstance(value, ast.Call):
                    ctor = dotted_name(value.func)
                    if ctor:
                        cls.attr_types.setdefault(attr, ctor)
                elif isinstance(value, ast.Name) and value.id in params:
                    cls.attr_types.setdefault(attr, params[value.id])
                if (isinstance(node, ast.AnnAssign)
                        and node.annotation is not None):
                    annotated = _annotation_text(node.annotation)
                    if annotated:
                        cls.attr_types.setdefault(attr, annotated)

    def _collect_module_lock(self, stmt: ast.stmt) -> None:
        kind = self._lock_kind_of(self._assigned_value(stmt))
        if kind is None:
            return
        for name in self._assigned_names(stmt):
            self.info.module_locks[name] = kind

    @staticmethod
    def _assigned_value(stmt: ast.stmt) -> Optional[ast.expr]:
        return stmt.value if isinstance(stmt, (ast.Assign, ast.AnnAssign)) \
            else None

    @staticmethod
    def _assigned_names(stmt: ast.stmt) -> List[str]:
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target])
        return [t.id for t in targets if isinstance(t, ast.Name)]

    def _lock_kind_of(self, value: Optional[ast.expr]) -> Optional[str]:
        if not isinstance(value, ast.Call):
            return None
        ctor = dotted_name(value.func)
        if ctor is None:
            return None
        expanded = self.program.expand(self.info, ctor)
        if expanded in THREAD_LOCK_CTORS:
            return "thread"
        if expanded in ASYNC_LOCK_CTORS:
            return "async"
        return None

    # -- pass B: function bodies -----------------------------------------
    def collect_bodies(self) -> None:
        annotations = self.unit.annotations

        def summarise(fn_node: ast.AST, fn: FunctionInfo) -> None:
            fn.holds = self._pragma_locks(fn_node, fn, annotations)
            self._collect_local_types(fn_node, fn)
            body = getattr(fn_node, "body", [])
            for stmt in body:
                self._walk(stmt, fn, fn.holds)

        for node in self.unit.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                summarise(node, self.info.functions[node.name])
            elif isinstance(node, ast.ClassDef):
                cls = self.info.classes[node.name]
                for item in node.body:
                    if isinstance(item,
                                  (ast.FunctionDef, ast.AsyncFunctionDef)):
                        summarise(item, cls.methods[item.name])

    def _pragma_locks(self, fn_node: ast.AST, fn: FunctionInfo,
                      annotations) -> Tuple[LockKey, ...]:
        body = getattr(fn_node, "body", [])
        body_start = body[0].lineno if body else fn_node.lineno
        names: Tuple[str, ...] = ()
        for line in range(fn_node.lineno, body_start + 1):
            declared = annotations.holds_lock.get(line)
            if declared:
                names = declared
                break
        keys = []
        for name in names:
            key = self._lock_key_for_name(fn, name)
            if key is not None:
                keys.append(key)
        return tuple(keys)

    def _lock_key_for_name(self, fn: FunctionInfo,
                           name: str) -> Optional[LockKey]:
        if fn.owner:
            cls = self.info.classes.get(fn.owner)
            if cls is not None:
                key = cls.lock_key(name)
                if key is not None:
                    return key
        kind = self.info.module_locks.get(name)
        if kind is not None:
            return LockKey(self.info.relpath, "", name, kind)
        return None

    def _collect_local_types(self, fn_node: ast.AST,
                             fn: FunctionInfo) -> None:
        args = getattr(fn_node, "args", None)
        if args is not None:
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                if arg.annotation is not None:
                    annotated = _annotation_text(arg.annotation)
                    if annotated:
                        fn.local_types.setdefault(arg.arg, annotated)
        for node in ast.walk(fn_node):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            ctor = dotted_name(node.value.func)
            if ctor is None or ctor.startswith("self."):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    fn.local_types.setdefault(target.id, ctor)

    def _lock_of(self, expr: ast.expr, fn: FunctionInfo) -> Optional[LockKey]:
        """Resolve a with-item / receiver expression to a lock key."""
        if isinstance(expr, ast.Name):
            return self._lock_key_for_name(fn, expr.id)
        if not isinstance(expr, ast.Attribute):
            return None
        attr = expr.attr
        base = expr.value
        if isinstance(base, ast.Name):
            if base.id == "self":
                return self._lock_key_for_name(fn, attr)
            owner = fn.local_types.get(base.id)
            if owner is not None:
                cls = self.program.resolve_class(owner, self.info)
                if cls is not None:
                    return cls.lock_key(attr)
            return None
        if (isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self" and fn.owner):
            cls = self.info.classes.get(fn.owner)
            if cls is None:
                return None
            owner = cls.attr_types.get(base.attr)
            if owner is None:
                return None
            target = self.program.resolve_class(owner, self.info)
            if target is not None:
                return target.lock_key(attr)
        return None

    def _walk(self, node: ast.AST, fn: FunctionInfo,
              held: Tuple[LockKey, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            # Nested defs run later (closures) — they neither inherit
            # the held set nor contribute call sites to this summary.
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: List[LockKey] = []
            for item in node.items:
                self._walk(item.context_expr, fn, held)
                lock = self._lock_of(item.context_expr, fn)
                if lock is not None:
                    fn.acquisitions.append(Acquisition(
                        lock, item.context_expr.lineno,
                        tuple((*held, *acquired)),
                    ))
                    acquired.append(lock)
            inner = tuple((*held, *acquired))
            for stmt in node.body:
                self._walk(stmt, fn, inner)
            return
        if isinstance(node, ast.Await):
            thread_locks = tuple(k for k in held if k.kind == "thread")
            fn.awaits.append(AwaitSite(node.lineno, thread_locks))
            self._walk(node.value, fn, held)
            return
        if isinstance(node, ast.Call):
            target = dotted_name(node.func)
            if target is not None:
                fn.calls.append(CallSite(target, node.lineno, held))
                # `lock.acquire()` outside a with-statement still
                # participates in the order graph.
                if target.endswith(".acquire"):
                    receiver = node.func
                    assert isinstance(receiver, ast.Attribute)
                    lock = self._lock_of(receiver.value, fn)
                    if lock is not None:
                        fn.acquisitions.append(
                            Acquisition(lock, node.lineno, held)
                        )
            for child in ast.iter_child_nodes(node):
                self._walk(child, fn, held)
            return
        for child in ast.iter_child_nodes(node):
            self._walk(child, fn, held)


def _annotation_text(node: ast.expr) -> Optional[str]:
    """``Name``/``Attribute`` annotations as dotted text; strings too."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip("'\"")
    text = dotted_name(node)
    if text is not None:
        return text
    if isinstance(node, ast.Subscript):  # Optional[X] / "X | None"
        return _annotation_text(node.slice)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_text(node.left)
        return left if left not in (None, "None") else \
            _annotation_text(node.right)
    return None
