"""Numerical-robustness and API-hygiene rules — NUM and API families.

These rules are deliberately *heuristic*: a linter that floods a physics
codebase with false positives gets disabled, so every rule errs on the
quiet side and the remainder is governable via inline suppressions and
the checked-in baseline (see :mod:`repro.lint.engine`).

Rules::

    NUM001  == / != against a float literal (exact float equality)
    NUM002  division by a runtime quantity never validated in the scope
    NUM003  sqrt/log of a difference (numerically negative domains)
    NUM004  plain sum() in a PEEC kernel module (math.fsum is exact)
    API001  lowercase module-level mutable binding
    API002  'global' statement (module state rebound from functions)

NUM002's notion of "guarded" is textual and order-insensitive on
purpose: a quantity that is compared against anything, tested for truth,
or validated by an assert *anywhere in the enclosing scope* counts as
guarded.  That misses some genuinely unsafe divisions, but it means a
finding that does surface is worth reading.
"""

from __future__ import annotations

import ast

from .base import ScopedVisitor, call_name

__all__ = ["NumericRuleVisitor"]

_SQRT_LOG = {"sqrt", "log", "log2", "log10"}
_MUTABLE_FACTORIES = {"list", "dict", "set", "defaultdict", "deque", "Counter", "OrderedDict"}
_SAFE_MODULES = {"math", "np", "numpy"}


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            return node.func.id in _MUTABLE_FACTORIES
        if isinstance(node.func, ast.Attribute):
            return node.func.attr in _MUTABLE_FACTORIES
    return False


def _is_string_like(node: ast.expr) -> bool:
    return isinstance(node, ast.JoinedStr) or (
        isinstance(node, ast.Constant) and isinstance(node.value, str)
    )


def _is_non_numeric_binop(node: ast.BinOp) -> bool:
    """True for ``/`` and ``%`` uses that are not arithmetic at all.

    ``pathlib.Path / "name"`` overloads division and ``"%s" % value`` is
    string formatting; a string operand on either side marks the whole
    expression as non-numeric.
    """
    if _is_string_like(node.left) or _is_string_like(node.right):
        return True
    # Chained path joins: (root / "a") / "b" — the inner BinOp already
    # has a string operand.
    left = node.left
    return isinstance(left, ast.BinOp) and _is_non_numeric_binop(left)


def _guarded_expressions(scope: ast.AST) -> set[str]:
    """Textual forms of every expression the scope validates somewhere.

    Collected from comparison operands, truth-tests of ``if`` / ``while``
    / ``assert`` / ternaries / boolean operators, and the arguments of
    ``max(x, positive-literal)`` clamps.  Nested function bodies are
    *included* (ast.walk has no pruning); over-approximating "guarded"
    only makes NUM002 quieter, never noisier.
    """
    guarded: set[str] = set()

    def tests_of(node: ast.expr) -> list[ast.expr]:
        if isinstance(node, ast.BoolOp):
            out: list[ast.expr] = []
            for value in node.values:
                out.extend(tests_of(value))
            return out
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            # ``if not items: return`` validates ``items`` just as well.
            return [node, *tests_of(node.operand)]
        if isinstance(node, ast.Call):
            # ``if approx_zero(r): raise`` / ``if math.isfinite(x):`` —
            # a predicate in a test position validates its arguments.
            return [node, *node.args]
        return [node]

    def record(node: ast.expr) -> None:
        guarded.add(ast.unparse(node))

    for node in ast.walk(scope):
        if isinstance(node, ast.Compare):
            record(node.left)
            for comparator in node.comparators:
                record(comparator)
        elif isinstance(node, (ast.If, ast.While)):
            for test in tests_of(node.test):
                record(test)
        elif isinstance(node, ast.IfExp):
            for test in tests_of(node.test):
                record(test)
        elif isinstance(node, ast.Assert):
            for test in tests_of(node.test):
                record(test)
        elif isinstance(node, ast.Call) and call_name(node.func) in ("max", "min"):
            has_literal = any(
                isinstance(a, ast.Constant) and isinstance(a.value, (int, float))
                for a in node.args
            )
            if has_literal:
                for argument in node.args:
                    record(argument)
    return guarded


class NumericRuleVisitor(ScopedVisitor):
    """Walks one module emitting NUM and API findings."""

    def __init__(self, file: str, is_peec_kernel: bool = False) -> None:
        super().__init__(file)
        self.is_peec_kernel = is_peec_kernel
        self._guard_stack: list[set[str]] = []

    def run(self, tree: ast.Module) -> None:
        """Analyze the module."""
        self._guard_stack = [_guarded_expressions(tree)]
        self._check_module_level(tree)
        self.visit(tree)

    # -- module-level state (API001) ---------------------------------------

    def _check_module_level(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target] if isinstance(stmt.target, ast.Name) else []
                value = stmt.value
                if _annotation_is_final(stmt.annotation):
                    continue
            else:
                continue
            if not _is_mutable_literal(value):
                continue
            for target in targets:
                name = target.id
                if name.isupper() or name.startswith("__"):
                    continue  # constant-by-convention or dunder
                self.add(
                    "API001",
                    stmt,
                    f"module-level mutable binding '{name}' looks like "
                    "accidental global state",
                    hint="rename to UPPERCASE if it is a fixed registry, or "
                    "move it into a class",
                )

    # -- scope handling -----------------------------------------------------

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._guard_stack.append(_guarded_expressions(node))
        try:
            self._visit_scoped(node, node.name)
        finally:
            self._guard_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -- NUM001: exact float equality ---------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            pair = (operands[i], operands[i + 1])
            literal = next(
                (
                    operand
                    for operand in pair
                    if isinstance(operand, ast.Constant)
                    and isinstance(operand.value, float)
                ),
                None,
            )
            if literal is None:
                continue
            other = pair[1] if literal is pair[0] else pair[0]
            # Comparing two literals is constant folding, not a float test.
            if isinstance(other, ast.Constant):
                continue
            op_text = "==" if isinstance(op, ast.Eq) else "!="
            self.add(
                "NUM001",
                node,
                f"exact float {op_text} against {literal.value!r} in "
                f"'{ast.unparse(node)}'",
                hint="use math.isclose or repro.units.approx_zero",
            )
        self.generic_visit(node)

    # -- NUM002: unguarded division ------------------------------------------

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Div, ast.FloorDiv, ast.Mod)) and not _is_non_numeric_binop(node):
            denominator = node.right
            if not self._denominator_safe(denominator):
                self.add(
                    "NUM002",
                    node,
                    f"division by runtime quantity "
                    f"'{ast.unparse(denominator)}' that is never validated "
                    "in this scope",
                    hint="guard against zero (raise, clamp, or test) before "
                    "dividing",
                )
        self.generic_visit(node)

    def _denominator_safe(self, node: ast.expr) -> bool:
        guarded = self._guard_stack[-1] if self._guard_stack else set()
        return self._expr_safe(node, guarded)

    def _expr_safe(self, node: ast.expr, guarded: set[str]) -> bool:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)):
                return node.value != 0
            return True
        if ast.unparse(node) in guarded:
            return True
        if isinstance(node, ast.Name):
            return node.id.isupper()  # module constant by convention
        if isinstance(node, ast.Attribute):
            return isinstance(node.value, ast.Name) and node.value.id in _SAFE_MODULES
        if isinstance(node, ast.UnaryOp):
            return self._expr_safe(node.operand, guarded)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Mult, ast.Add, ast.Pow)
        ):
            return self._expr_safe(node.left, guarded) and self._expr_safe(
                node.right, guarded
            )
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
            # ``x or 1.0`` is the canonical zero-denominator guard: the
            # expression evaluates to the fallback whenever x is falsy.
            return self._expr_safe(node.values[-1], guarded)
        if isinstance(node, ast.Call):
            name = call_name(node.func)
            if name in ("max", "min"):
                positive_literal = any(
                    isinstance(a, ast.Constant)
                    and isinstance(a.value, (int, float))
                    and a.value > 0
                    for a in node.args
                )
                if positive_literal:
                    return True
            if name == "exp":  # e**x > 0 for every finite x
                return True
            if name == "len" and len(node.args) == 1:
                # A truth-tested container has nonzero length, and an
                # UPPERCASE module constant is a fixed non-empty registry.
                return self._expr_safe(node.args[0], guarded)
            return False
        return False

    # -- NUM003 / NUM004: domain-unsafe math, naive accumulation -------------

    def visit_Call(self, node: ast.Call) -> None:
        name = call_name(node.func)
        qualified_ok = not isinstance(node.func, ast.Attribute) or (
            isinstance(node.func.value, ast.Name)
            and node.func.value.id in _SAFE_MODULES
        )
        if name in _SQRT_LOG and qualified_ok and node.args:
            argument = node.args[0]
            if isinstance(argument, ast.BinOp) and isinstance(argument.op, ast.Sub):
                self.add(
                    "NUM003",
                    node,
                    f"{name}() of a difference "
                    f"'{ast.unparse(argument)}' can go numerically negative",
                    hint="clamp with max(value, 0.0) or guard the subtraction",
                )
        if (
            name == "sum"
            and isinstance(node.func, ast.Name)
            and self.is_peec_kernel
        ):
            self.add(
                "NUM004",
                node,
                "plain sum() in a PEEC kernel accumulates rounding error",
                hint="use math.fsum for exact float accumulation",
            )
        self.generic_visit(node)

    # -- API002: global statements -------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        names = ", ".join(node.names)
        self.add(
            "API002",
            node,
            f"function rebinds module global(s): {names}",
            hint="prefer an explicit object or a documented singleton "
            "accessor",
        )


def _annotation_is_final(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Name):
        return annotation.id == "Final"
    if isinstance(annotation, ast.Subscript):
        base = annotation.value
        return isinstance(base, ast.Name) and base.id == "Final"
    return False
