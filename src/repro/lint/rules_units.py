"""Unit-dimension inference — the UNT rule family.

A per-scope abstract interpreter over the AST: parameter and variable
annotations using the :mod:`repro.units` aliases seed an environment of
``name -> Unit``; dimensions propagate through assignments, arithmetic
and call boundaries (via the project-wide :class:`~repro.lint.symbols.SymbolTable`).
Diagnostics fire **only when both sides of an operation have known,
conflicting units** — an unannotated expression is "unknown" and never
flagged, so the analyzer's precision grows with annotation coverage
instead of producing noise up front.

Rules::

    UNT001  add/sub of mixed units (dimension or scale: m + mm, H + nH)
    UNT002  ordering/equality across mixed units
    UNT003  call argument unit != parameter annotation
    UNT004  returned unit != return annotation
    UNT005  rebinding an annotated name with a different unit
    UNT006  min/max/sum/hypot over mixed units
"""

from __future__ import annotations

import ast

from ..units import Unit
from .base import ScopedVisitor, call_name
from .dimensions import DIMENSIONLESS, NUMBER, describe, merge, mismatch_text, mixable
from .symbols import FuncSig, SymbolTable

__all__ = ["UnitRuleVisitor"]

_IDENTITY_CALLS = {"abs", "float", "fabs", "absolute", "copysign"}
_HOMOGENEOUS_CALLS = {"min", "max", "fsum", "hypot", "sum", "maximum", "minimum"}

Env = dict[str, Unit]


class UnitRuleVisitor(ScopedVisitor):
    """Walks one module, propagating units and emitting UNT findings."""

    def __init__(self, file: str, table: SymbolTable) -> None:
        super().__init__(file)
        self.table = table

    def run(self, tree: ast.Module) -> None:
        """Analyze the module (module-level code plus every def)."""
        self._exec_body(tree.body, env={}, declared={}, returns=None)

    # -- statement execution ------------------------------------------------

    def _exec_body(
        self,
        body: list[ast.stmt],
        env: Env,
        declared: Env,
        returns: Unit | None,
    ) -> None:
        for stmt in body:
            self._exec(stmt, env, declared, returns)

    def _exec(
        self, stmt: ast.stmt, env: Env, declared: Env, returns: Unit | None
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._symbols.append(stmt.name)
            try:
                self._process_function(stmt)
            finally:
                self._symbols.pop()
        elif isinstance(stmt, ast.ClassDef):
            self._symbols.append(stmt.name)
            try:
                self._exec_body(stmt.body, env={}, declared={}, returns=None)
            finally:
                self._symbols.pop()
        elif isinstance(stmt, ast.Assign):
            value_unit = self._infer(stmt.value, env)
            for target in stmt.targets:
                self._bind(target, value_unit, env, declared)
        elif isinstance(stmt, ast.AnnAssign):
            from .dimensions import unit_from_annotation

            annotated = unit_from_annotation(stmt.annotation)
            value_unit = self._infer(stmt.value, env) if stmt.value else None
            if isinstance(stmt.target, ast.Name):
                if annotated is not None:
                    if (
                        value_unit is not None
                        and not mixable(annotated, value_unit)
                    ):
                        self.add(
                            "UNT005",
                            stmt,
                            f"'{stmt.target.id}' is declared {describe(annotated)} "
                            f"but initialised with {describe(value_unit)}",
                        )
                    declared[stmt.target.id] = annotated
                    env[stmt.target.id] = annotated
                elif value_unit is not None:
                    env[stmt.target.id] = value_unit
        elif isinstance(stmt, ast.AugAssign):
            target_unit = self._infer(stmt.target, env)
            value_unit = self._infer(stmt.value, env)
            if isinstance(stmt.op, (ast.Add, ast.Sub)):
                if (
                    target_unit is not None
                    and value_unit is not None
                    and not mixable(target_unit, value_unit)
                ):
                    self.add(
                        "UNT001",
                        stmt,
                        f"augmented {'addition' if isinstance(stmt.op, ast.Add) else 'subtraction'}"
                        f" mixes units: {mismatch_text(target_unit, value_unit)}",
                        hint="convert one operand explicitly before combining",
                    )
                if isinstance(stmt.target, ast.Name):
                    merged = merge(target_unit, value_unit)
                    if merged is not None:
                        env[stmt.target.id] = merged
                    else:
                        env.pop(stmt.target.id, None)
            elif isinstance(stmt.target, ast.Name):
                env.pop(stmt.target.id, None)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value_unit = self._infer(stmt.value, env)
                if (
                    returns is not None
                    and value_unit is not None
                    and value_unit != NUMBER
                    and not mixable(returns, value_unit)
                ):
                    self.add(
                        "UNT004",
                        stmt,
                        f"returns {describe(value_unit)} but is annotated to "
                        f"return {describe(returns)}",
                    )
        elif isinstance(stmt, ast.Expr):
            self._infer(stmt.value, env)
        elif isinstance(stmt, ast.If):
            self._infer(stmt.test, env)
            self._exec_body(stmt.body, env, declared, returns)
            self._exec_body(stmt.orelse, env, declared, returns)
        elif isinstance(stmt, ast.While):
            self._infer(stmt.test, env)
            self._exec_body(stmt.body, env, declared, returns)
            self._exec_body(stmt.orelse, env, declared, returns)
        elif isinstance(stmt, ast.For):
            self._infer(stmt.iter, env)
            self._bind(stmt.target, None, env, declared)
            self._exec_body(stmt.body, env, declared, returns)
            self._exec_body(stmt.orelse, env, declared, returns)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._infer(item.context_expr, env)
            self._exec_body(stmt.body, env, declared, returns)
        elif isinstance(stmt, ast.Try):
            self._exec_body(stmt.body, env, declared, returns)
            for handler in stmt.handlers:
                self._exec_body(handler.body, env, declared, returns)
            self._exec_body(stmt.orelse, env, declared, returns)
            self._exec_body(stmt.finalbody, env, declared, returns)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._infer(stmt.exc, env)
        elif isinstance(stmt, ast.Assert):
            self._infer(stmt.test, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        # Imports, pass, global/nonlocal, etc.: nothing to propagate.

    def _process_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        from .dimensions import unit_from_annotation

        env: Env = {}
        declared: Env = {}
        args = node.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            unit = unit_from_annotation(arg.annotation)
            if unit is not None:
                env[arg.arg] = unit
                declared[arg.arg] = unit
        returns = unit_from_annotation(node.returns)
        self._exec_body(node.body, env, declared, returns)

    def _bind(
        self, target: ast.expr, value_unit: Unit | None, env: Env, declared: Env
    ) -> None:
        if isinstance(target, ast.Name):
            expected = declared.get(target.id)
            if (
                expected is not None
                and value_unit is not None
                and value_unit != NUMBER
                and not mixable(expected, value_unit)
            ):
                self.add(
                    "UNT005",
                    target,
                    f"'{target.id}' is declared {describe(expected)} but "
                    f"rebound with {describe(value_unit)}",
                )
            if value_unit is not None:
                env[target.id] = value_unit
            else:
                env.pop(target.id, None)
        elif isinstance(target, ast.Attribute):
            expected_attr = self.table.attribute_unit(target.attr)
            if (
                expected_attr is not None
                and value_unit is not None
                and value_unit != NUMBER
                and not mixable(expected_attr, value_unit)
            ):
                self.add(
                    "UNT005",
                    target,
                    f"attribute '{target.attr}' is declared "
                    f"{describe(expected_attr)} but assigned "
                    f"{describe(value_unit)}",
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, None, env, declared)

    # -- expression inference -----------------------------------------------

    def _infer(self, node: ast.expr | None, env: Env) -> Unit | None:
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return NUMBER
            if isinstance(node.value, (int, float)):
                return NUMBER
            return None
        if isinstance(node, ast.BinOp):
            return self._infer_binop(node, env)
        if isinstance(node, ast.UnaryOp):
            inner = self._infer(node.operand, env)
            return NUMBER if isinstance(node.op, ast.Not) else inner
        if isinstance(node, ast.Compare):
            return self._infer_compare(node, env)
        if isinstance(node, ast.Call):
            return self._infer_call(node, env)
        if isinstance(node, ast.Attribute):
            self._infer(node.value, env)
            if isinstance(node.value, ast.Name) and node.value.id in ("math", "np", "numpy"):
                return NUMBER if node.attr in ("pi", "tau", "e", "inf") else None
            return self.table.attribute_unit(node.attr)
        if isinstance(node, ast.IfExp):
            self._infer(node.test, env)
            return merge(self._infer(node.body, env), self._infer(node.orelse, env))
        if isinstance(node, ast.NamedExpr):
            unit = self._infer(node.value, env)
            if isinstance(node.target, ast.Name):
                if unit is not None:
                    env[node.target.id] = unit
                else:
                    env.pop(node.target.id, None)
            return unit
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._infer(value, env)
            return None
        if isinstance(node, ast.Subscript):
            self._infer(node.value, env)
            if isinstance(node.slice, ast.expr):
                self._infer(node.slice, env)
            return None
        if isinstance(node, ast.Starred):
            return self._infer(node.value, env)
        if isinstance(node, ast.Lambda):
            return None  # separate scope; parameters are unknown
        # Containers, comprehensions, f-strings, ...: no unit of their own,
        # but their subexpressions may still contain checkable operations.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._infer(child, env)
            elif isinstance(child, ast.comprehension):
                self._infer(child.iter, env)
                for condition in child.ifs:
                    self._infer(condition, env)
        return None

    def _infer_binop(self, node: ast.BinOp, env: Env) -> Unit | None:
        left = self._infer(node.left, env)
        right = self._infer(node.right, env)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if left is not None and right is not None and not mixable(left, right):
                op_name = "addition" if isinstance(node.op, ast.Add) else "subtraction"
                self.add(
                    "UNT001",
                    node,
                    f"{op_name} mixes units: {mismatch_text(left, right)} "
                    f"in '{ast.unparse(node)}'",
                    hint="convert one operand explicitly before combining",
                )
                return None
            return merge(left, right)
        if isinstance(node.op, ast.Mult):
            if left is None or right is None:
                return None
            if left in (NUMBER, DIMENSIONLESS):
                return right
            if right in (NUMBER, DIMENSIONLESS):
                return left
            return None  # product dimensions are not modelled
        if isinstance(node.op, ast.Div):
            if left is None or right is None:
                return None
            if right in (NUMBER, DIMENSIONLESS):
                return left
            if left == NUMBER:
                return None
            if left.dimension == right.dimension and left.scale == right.scale:
                return DIMENSIONLESS
            return None
        return None

    def _infer_compare(self, node: ast.Compare, env: Env) -> Unit:
        checkable = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)
        operands = [node.left] + list(node.comparators)
        units = [self._infer(operand, env) for operand in operands]
        for i, op in enumerate(node.ops):
            if not isinstance(op, checkable):
                continue
            left, right = units[i], units[i + 1]
            if left is not None and right is not None and not mixable(left, right):
                self.add(
                    "UNT002",
                    node,
                    f"comparison mixes units: {mismatch_text(left, right)} "
                    f"in '{ast.unparse(node)}'",
                    hint="convert one side explicitly before comparing",
                )
        return NUMBER

    def _infer_call(self, node: ast.Call, env: Env) -> Unit | None:
        name = call_name(node.func)
        self._infer(node.func, env)
        if name in _IDENTITY_CALLS and len(node.args) >= 1 and not node.keywords:
            units = [self._infer(arg, env) for arg in node.args]
            return units[0]
        if name in _HOMOGENEOUS_CALLS and len(node.args) >= 2:
            return self._check_homogeneous(node, name, env)
        sig = self.table.signature_for_call(node.func)
        argument_units = [self._infer(arg, env) for arg in node.args]
        keyword_units = {
            kw.arg: self._infer(kw.value, env) for kw in node.keywords
        }
        if sig is None or any(isinstance(arg, ast.Starred) for arg in node.args):
            return sig.returns if sig is not None else None
        for index, arg_unit in enumerate(argument_units):
            if index >= len(sig.params):
                break
            self._check_argument(node, sig, sig.params[index], arg_unit, index)
        for kw in node.keywords:
            if kw.arg is None:
                continue
            for pname, punit in sig.params:
                if pname == kw.arg:
                    self._check_argument(
                        node, sig, (pname, punit), keyword_units.get(kw.arg), None
                    )
                    break
        return sig.returns

    def _check_argument(
        self,
        node: ast.Call,
        sig: FuncSig,
        param: tuple[str, Unit | None],
        arg_unit: Unit | None,
        index: int | None,
    ) -> None:
        pname, punit = param
        if (
            punit is None
            or arg_unit is None
            or arg_unit == NUMBER
            or punit == NUMBER
            or mixable(punit, arg_unit)
        ):
            return
        where = f"argument {index + 1}" if index is not None else f"argument '{pname}'"
        self.add(
            "UNT003",
            node,
            f"{where} of {sig.name}() is {describe(arg_unit)} but the "
            f"parameter '{pname}' expects {describe(punit)}",
            hint="convert the value to the parameter's unit at the call site",
        )

    def _check_homogeneous(self, node: ast.Call, name: str, env: Env) -> Unit | None:
        units = [self._infer(arg, env) for arg in node.args]
        for keyword in node.keywords:
            self._infer(keyword.value, env)
        known = [u for u in units if u is not None and u != NUMBER]
        for other in known[1:]:
            if not mixable(known[0], other):
                self.add(
                    "UNT006",
                    node,
                    f"{name}() mixes units across its arguments: "
                    f"{mismatch_text(known[0], other)}",
                    hint="reduce over one unit; convert the others first",
                )
                return None
        if known:
            return known[0]
        return None
