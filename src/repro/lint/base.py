"""Shared plumbing of the physlint rule visitors.

:class:`LintFinding` is the analyzer-internal finding record — unlike the
design linter's :class:`~repro.check.diagnostics.Diagnostic` it keeps the
source location structured (file, line, enclosing symbol) because line
numbers drift between revisions while ``(file, code, symbol)`` is stable
enough to key the baseline on.  The engine converts findings to
diagnostics only after suppression and baseline filtering.

:class:`ScopedVisitor` is the common ``ast.NodeVisitor`` base: it tracks
the enclosing class/function symbol (``"MnaSystem._assemble"``) and
offers :meth:`ScopedVisitor.add` which resolves severity from the rule
registry.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ..check.diagnostics import Diagnostic, Severity
from .registry import lint_spec_for

__all__ = ["LintFinding", "ScopedVisitor", "call_name"]


def call_name(func: ast.expr) -> str:
    """Trailing name of a call target (``threading.Lock`` -> ``Lock``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


@dataclass(frozen=True)
class LintFinding:
    """One physlint finding, with a structured source location.

    Attributes:
        code: stable rule identifier (``UNT001`` ...).
        severity: badness, from the rule registry.
        message: human description citing the offending expression.
        file: path of the module, relative to the linted root (posix).
        line: 1-based source line.
        symbol: dotted enclosing symbol (``"<module>"`` at module level).
        hint: optional suggestion.
    """

    code: str
    severity: Severity
    message: str
    file: str
    line: int
    symbol: str = "<module>"
    hint: str = ""

    def to_diagnostic(self) -> Diagnostic:
        """Render as a design-linter diagnostic (``obj = file:line``)."""
        return Diagnostic(
            code=self.code,
            severity=self.severity,
            message=f"{self.symbol}: {self.message}",
            obj=f"{self.file}:{self.line}",
            hint=self.hint,
        )

    def baseline_key(self) -> tuple[str, str, str]:
        """The (file, code, symbol) triple the baseline matches on."""
        return (self.file, self.code, self.symbol)


class ScopedVisitor(ast.NodeVisitor):
    """Node visitor that tracks the enclosing symbol and collects findings."""

    def __init__(self, file: str) -> None:
        self.file = file
        self.findings: list[LintFinding] = []
        self._symbols: list[str] = []

    @property
    def symbol(self) -> str:
        """Dotted enclosing symbol, ``"<module>"`` outside any def/class."""
        return ".".join(self._symbols) if self._symbols else "<module>"

    def add(
        self,
        code: str,
        node: ast.AST,
        message: str,
        hint: str = "",
    ) -> None:
        """Record a finding at a node, severity from the registry."""
        self.findings.append(
            LintFinding(
                code=code,
                severity=lint_spec_for(code).severity,
                message=message,
                file=self.file,
                line=getattr(node, "lineno", 1),
                symbol=self.symbol,
                hint=hint,
            )
        )

    # -- symbol tracking ---------------------------------------------------

    def _visit_scoped(self, node: ast.AST, name: str) -> None:
        self._symbols.append(name)
        try:
            self.generic_visit(node)
        finally:
            self._symbols.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._visit_scoped(node, node.name)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scoped(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scoped(node, node.name)
