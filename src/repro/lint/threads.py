"""The conlint thread model: per-class concurrency facts from the AST.

conlint's rules (:mod:`repro.lint.rules_concurrency`) need a structured
view of each class before they can say anything useful about it: which
attributes are locks, which methods start threads, which attribute
accesses happen under which ``with <lock>:`` scope.  This module builds
that view — a :class:`ClassModel` per ``class`` statement — and nothing
else; rule logic lives with the rules.

The model is deliberately *syntactic*.  Lock attributes are recognised by
their construction (``self._lock = threading.Lock()`` — also ``RLock``
and ``Condition``, qualified or bare); held-lock scopes are the lexical
bodies of ``with self._lock:`` statements (``.acquire()`` / ``.release()``
pairs are invisible to the model and should be avoided in favour of
``with``); attribute accesses are ``self.<name>`` expressions inside the
class's own methods.  A local variable assigned from ``self.<attr>``
(including tuple unpacking, the ``thread, self._thread = self._thread,
None`` hand-off idiom) aliases that attribute for join/call tracking
within the method.

Writes are what matter for guarded-by inference, so the model classifies
an access as a **write** when the attribute is assigned, augmented,
deleted, subscript-assigned, or is the receiver of a known mutator call
(``self._events.append(...)``); bare loads are **reads**.  ``__init__``
and friends run before the object is published to other threads, so
rules treat construction-time writes as safe — the model still records
them, flagged with the method name.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .base import call_name

__all__ = [
    "LockAttr",
    "ThreadAttr",
    "AttrAccess",
    "LockOrderEdge",
    "CallbackCall",
    "PoolCapture",
    "ClassModel",
    "build_class_models",
    "CONSTRUCTOR_METHODS",
]

#: Lock-constructor callables recognised on ``self.<attr> = ...()``.
_LOCK_FACTORIES = {"Lock", "RLock", "Condition"}

#: Container methods that mutate their receiver in place.
_MUTATORS = {
    "append", "extend", "insert", "remove", "pop", "clear", "update",
    "add", "discard", "setdefault", "popitem", "appendleft", "popleft",
    "sort", "reverse", "put", "put_nowait",
}

#: Methods that run before the instance is visible to any other thread.
CONSTRUCTOR_METHODS = frozenset({"__init__", "__new__", "__post_init__"})


@dataclass(frozen=True)
class LockAttr:
    """A lock-like attribute of a class (``self._lock = threading.Lock()``)."""

    name: str
    kind: str  # "Lock" | "RLock" | "Condition"
    line: int


@dataclass(frozen=True)
class ThreadAttr:
    """A ``threading.Thread`` the class creates.

    ``attr`` is the attribute the thread is bound to, or ``""`` for an
    inline ``threading.Thread(...).start()`` that is never bound at all.
    """

    attr: str
    daemon: bool
    line: int
    method: str


@dataclass(frozen=True)
class AttrAccess:
    """One ``self.<attr>`` access inside a method body."""

    attr: str
    method: str
    line: int
    write: bool
    locks: frozenset[str]  # lock-attribute names held at the access


@dataclass(frozen=True)
class LockOrderEdge:
    """Lock ``inner`` acquired while ``outer`` is already held."""

    outer: str
    inner: str
    method: str
    line: int


@dataclass(frozen=True)
class CallbackCall:
    """A call of externally-supplied code made while holding a lock.

    ``target`` is a human description of what was called (the iterated
    attribute or the called attribute's name).
    """

    lock: str
    target: str
    method: str
    line: int


@dataclass(frozen=True)
class PoolCapture:
    """A lock/handle/self reference shipped into pool or thread machinery."""

    what: str  # "self", or the captured attribute name
    via: str  # "submit", "Thread", "Process", "initargs", ...
    method: str
    line: int


@dataclass
class ClassModel:
    """Everything conlint knows about one class."""

    name: str
    line: int
    locks: dict[str, LockAttr] = field(default_factory=dict)
    threads: list[ThreadAttr] = field(default_factory=list)
    accesses: list[AttrAccess] = field(default_factory=list)
    lock_order_edges: list[LockOrderEdge] = field(default_factory=list)
    callback_calls: list[CallbackCall] = field(default_factory=list)
    pool_captures: list[PoolCapture] = field(default_factory=list)
    #: Attributes ``.join()``-ed anywhere in the class (directly or via
    #: a local alias) — a thread stored there has a stop path.
    joined_attrs: set[str] = field(default_factory=set)
    #: Attributes ``.start()``-ed anywhere in the class.
    started_attrs: set[str] = field(default_factory=set)
    #: Attributes assigned from ``open(...)`` / ``<path>.open(...)``.
    handle_attrs: set[str] = field(default_factory=set)

    def guarded_by(self, attr: str) -> set[str]:
        """Locks under which ``attr`` is ever *written* (inference input)."""
        out: set[str] = set()
        for access in self.accesses:
            if access.attr == attr and access.write:
                out.update(access.locks)
        return out


def _self_attr(node: ast.expr) -> str | None:
    """``"<name>"`` when node is exactly ``self.<name>``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_open_call(node: ast.expr) -> bool:
    return isinstance(node, ast.Call) and call_name(node.func) == "open"


def _thread_daemon_flag(call: ast.Call) -> bool | None:
    """The ``daemon=`` keyword of a ``Thread(...)`` call, if literal."""
    for keyword in call.keywords:
        if keyword.arg == "daemon" and isinstance(keyword.value, ast.Constant):
            value = keyword.value.value
            if isinstance(value, bool):
                return value
    return None


class _MethodScanner(ast.NodeVisitor):
    """Walks one method body with a held-lock stack, filling the model."""

    def __init__(self, model: ClassModel, method: str) -> None:
        self.model = model
        self.method = method
        self._held: list[str] = []
        #: Local names aliasing ``self.<attr>`` (``thread = self._thread``).
        self._aliases: dict[str, str] = {}
        #: Local names bound by ``for x in self.<attr>`` loops.
        self._loop_vars: dict[str, str] = {}

    # -- helpers -----------------------------------------------------------

    def _record(self, attr: str, line: int, write: bool) -> None:
        self.model.accesses.append(
            AttrAccess(
                attr=attr,
                method=self.method,
                line=line,
                write=write,
                locks=frozenset(self._held),
            )
        )

    def _scan_assign_value(self, target_attr: str, value: ast.expr, line: int) -> None:
        """Classify what a ``self.<attr> = value`` assignment creates."""
        if isinstance(value, ast.Call):
            name = call_name(value.func)
            if name in _LOCK_FACTORIES:
                self.model.locks.setdefault(
                    target_attr, LockAttr(name=target_attr, kind=name, line=line)
                )
            elif name == "Thread":
                daemon = _thread_daemon_flag(value)
                self.model.threads.append(
                    ThreadAttr(
                        attr=target_attr,
                        daemon=bool(daemon),
                        line=line,
                        method=self.method,
                    )
                )
        if _is_open_call(value):
            self.model.handle_attrs.add(target_attr)

    # -- assignments / accesses --------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        # Tuple-unpacking alias tracking first: ``a, self.x = self.x, None``.
        for target in node.targets:
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                for element, value in zip(target.elts, node.value.elts, strict=False):
                    attr = _self_attr(value)
                    if isinstance(element, ast.Name) and attr is not None:
                        self._aliases[element.id] = attr
            elif isinstance(target, ast.Name):
                attr = _self_attr(node.value)
                if attr is not None:
                    self._aliases[target.id] = attr
        for target in node.targets:
            self._visit_store_target(target, node)
        self.visit(node.value)

    def _visit_store_target(self, target: ast.expr, node: ast.Assign) -> None:
        if isinstance(target, ast.Tuple):
            for element in target.elts:
                self._visit_store_target(element, node)
            return
        attr = _self_attr(target)
        if attr is not None:
            self._record(attr, target.lineno, write=True)
            if not isinstance(node.value, ast.Tuple):
                self._scan_assign_value(attr, node.value, target.lineno)
        elif isinstance(target, ast.Subscript):
            inner = _self_attr(target.value)
            if inner is not None:
                self._record(inner, target.lineno, write=True)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        attr = _self_attr(node.target)
        if attr is not None:
            self._record(attr, node.target.lineno, write=True)
            if node.value is not None:
                self._scan_assign_value(attr, node.value, node.target.lineno)
        if node.value is not None:
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = _self_attr(node.target)
        if attr is not None:
            self._record(attr, node.target.lineno, write=True)
        elif isinstance(node.target, ast.Subscript):
            inner = _self_attr(node.target.value)
            if inner is not None:
                self._record(inner, node.target.lineno, write=True)
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            attr = _self_attr(target)
            if attr is not None:
                self._record(attr, node.lineno, write=True)
            elif isinstance(target, ast.Subscript):
                inner = _self_attr(target.value)
                if inner is not None:
                    self._record(inner, node.lineno, write=True)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _self_attr(node)
        if attr is not None and isinstance(node.ctx, ast.Load):
            self._record(attr, node.lineno, write=False)
        self.generic_visit(node)

    # -- with-lock scopes and lock ordering --------------------------------

    def visit_With(self, node: ast.With) -> None:
        acquired: list[str] = []
        for item in node.items:
            self.visit(item.context_expr)
            attr = _self_attr(item.context_expr)
            if attr is not None and attr in self.model.locks:
                for outer in self._held:
                    self.model.lock_order_edges.append(
                        LockOrderEdge(
                            outer=outer,
                            inner=attr,
                            method=self.method,
                            line=item.context_expr.lineno,
                        )
                    )
                self._held.append(attr)
                acquired.append(attr)
        try:
            for stmt in node.body:
                self.visit(stmt)
        finally:
            for _ in acquired:
                self._held.pop()

    # -- loops binding callback variables ----------------------------------

    def visit_For(self, node: ast.For) -> None:
        attr = _self_attr(node.iter)
        if attr is None and isinstance(node.iter, ast.Call):
            # ``for s in list(self._subscribers):`` — snapshot iteration.
            if node.iter.args:
                attr = _self_attr(node.iter.args[0])
        if attr is not None and isinstance(node.target, ast.Name):
            self._loop_vars[node.target.id] = attr
        self.generic_visit(node)

    # -- calls: joins, mutators, callbacks, pool captures -------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = call_name(node.func)
        if isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            receiver_attr = _self_attr(receiver)
            if receiver_attr is None and isinstance(receiver, ast.Name):
                receiver_attr = self._aliases.get(receiver.id)
            if receiver_attr is not None:
                if name == "join":
                    self.model.joined_attrs.add(receiver_attr)
                elif name == "start":
                    self.model.started_attrs.add(receiver_attr)
                elif name in _MUTATORS:
                    self._record(receiver_attr, node.lineno, write=True)
            if (
                name == "start"
                and isinstance(receiver, ast.Call)
                and call_name(receiver.func) == "Thread"
            ):
                # ``threading.Thread(...).start()`` — never bound, no
                # join path can possibly exist.
                self.model.threads.append(
                    ThreadAttr(
                        attr="",
                        daemon=bool(_thread_daemon_flag(receiver)),
                        line=node.lineno,
                        method=self.method,
                    )
                )
            if name == "submit":
                self._scan_pool_arguments(node, via="submit")
        if name in ("Thread", "Process"):
            self._scan_pool_arguments(node, via=name)
        if name == "ProcessPoolExecutor":
            self._scan_pool_arguments(node, via="ProcessPoolExecutor")
        if self._held:
            self._scan_callback_call(node)
        self.generic_visit(node)

    def _scan_callback_call(self, node: ast.Call) -> None:
        """Flag calls of externally-supplied code under a held lock."""
        lock = self._held[-1]
        func = node.func
        if isinstance(func, ast.Name) and func.id in self._loop_vars:
            self.model.callback_calls.append(
                CallbackCall(
                    lock=lock,
                    target=f"element of self.{self._loop_vars[func.id]}",
                    method=self.method,
                    line=node.lineno,
                )
            )
        elif isinstance(func, ast.Subscript):
            attr = _self_attr(func.value)
            if attr is not None:
                self.model.callback_calls.append(
                    CallbackCall(
                        lock=lock,
                        target=f"element of self.{attr}",
                        method=self.method,
                        line=node.lineno,
                    )
                )

    def _scan_pool_arguments(self, node: ast.Call, via: str) -> None:
        """Record self/lock/handle references in pool/thread call arguments."""
        candidates: list[tuple[ast.expr, str]] = [(a, via) for a in node.args]
        for keyword in node.keywords:
            label = via
            if keyword.arg in ("args", "initargs"):
                label = keyword.arg
            if isinstance(keyword.value, (ast.Tuple, ast.List)):
                candidates.extend((e, label) for e in keyword.value.elts)
            else:
                candidates.append((keyword.value, label))
        for expr, label in candidates:
            # ``self`` captured wholesale (the worst case: everything rides),
            # including inside a lambda/closure payload.
            if isinstance(expr, ast.Name) and expr.id == "self":
                self.model.pool_captures.append(
                    PoolCapture(what="self", via=label, method=self.method, line=expr.lineno)
                )
                continue
            if isinstance(expr, ast.Lambda) and any(
                isinstance(sub, ast.Name) and sub.id == "self"
                for sub in ast.walk(expr)
            ):
                self.model.pool_captures.append(
                    PoolCapture(what="self", via=label, method=self.method, line=expr.lineno)
                )
                continue
            attr = _self_attr(expr)
            if attr is not None and (
                attr in self.model.locks or attr in self.model.handle_attrs
            ):
                self.model.pool_captures.append(
                    PoolCapture(what=attr, via=label, method=self.method, line=expr.lineno)
                )

    # -- nested scopes ------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested defs run later on unknown threads; their accesses are
        # scanned with an empty held-lock context under a derived name.
        nested = _MethodScanner(self.model, f"{self.method}.{node.name}")
        for stmt in node.body:
            nested.visit(stmt)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        nested = _MethodScanner(self.model, f"{self.method}.{node.name}")
        for stmt in node.body:
            nested.visit(stmt)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        nested = _MethodScanner(self.model, f"{self.method}.<lambda>")
        nested.visit(node.body)


def _scan_method(model: ClassModel, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
    scanner = _MethodScanner(model, node.name)
    for stmt in node.body:
        scanner.visit(stmt)


def _prescan_locks(
    model: ClassModel, methods: list[ast.FunctionDef | ast.AsyncFunctionDef]
) -> None:
    """First pass: find lock/handle attributes before scope tracking.

    Lock discovery must complete before held-lock scanning: a method
    earlier in the class body may take a lock that ``__init__`` (later
    in source order only by convention) creates.
    """
    for method in methods:
        for node in ast.walk(method):
            value: ast.expr | None = None
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                value = node.value
                targets = list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value = node.value
                targets = [node.target]
            if value is None:
                continue
            for target in targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                if isinstance(value, ast.Call):
                    name = call_name(value.func)
                    if name in _LOCK_FACTORIES:
                        model.locks.setdefault(
                            attr,
                            LockAttr(name=attr, kind=name, line=target.lineno),
                        )
                if _is_open_call(value):
                    model.handle_attrs.add(attr)


def build_class_models(tree: ast.Module) -> list[ClassModel]:
    """Build a :class:`ClassModel` for every class in the module.

    Nested classes are modelled too (methods of the inner class belong
    to the inner model only).
    """
    models: list[ClassModel] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        model = ClassModel(name=node.name, line=node.lineno)
        methods = [
            stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        _prescan_locks(model, methods)
        for method in methods:
            _scan_method(model, method)
        models.append(model)
    return models
