"""Performance rules — the PRF family ("perflint").

Static detection of the Python-loop anti-patterns that undo the
vectorised kernels: the all-pairs coupling path (ROADMAP item 2) and the
placement rewrite (item 3) both die the moment per-element loops creep
back into hot modules.  Findings default to ``info`` — a cold-path loop
is a style note, not a defect — and are promoted to ``error`` by the
profile-guided hotness model (:mod:`repro.lint.hotness`) when the
offending function lives on a recorded hot path.

Rules::

    PRF001  Python for-loop over numpy array elements (or per-element
            list.append) inside a kernel module (peec/coupling)
    PRF002  allocation inside a loop whose arguments are loop-invariant
            (np.zeros/np.array/np.concatenate rebuilt per iteration
            for nothing)
    PRF003  the same dotted attribute path resolved >= 3 times inside
            one loop body (attribute lookups are dictionary probes;
            hoist to a local)
    PRF004  all-pairs nested for-loops scanning the same sequence —
            the exact O(N^2) pattern the blocked/vectorised paths
            replace (exempt inside those modules, see
            PRF004_EXEMPT_PARTS)

Each loop is analyzed against its *own* body only — statements of nested
loops belong to the inner loop's analysis (no double reporting), and one
finding per rule per loop keeps the report readable.  Like every
physlint family the rules err on the quiet side; the remainder is
governable with ``# physlint: disable=PRFxxx`` and the physlint
baseline.  Rule catalogue and rationale: ``docs/PERFLINT.md``.
"""

from __future__ import annotations

import ast
from collections import Counter
from collections.abc import Iterator

from .base import ScopedVisitor

__all__ = ["PerformanceRuleVisitor", "KERNEL_MARKERS", "PRF004_EXEMPT_PARTS"]

#: Path parts that mark a module as a numerics kernel (PRF001 applies).
KERNEL_MARKERS = ("peec", "coupling")

#: Path parts of modules whose nested same-sequence scans ARE the blocked
#: or pair-symmetric implementation (PRF004 does not apply): the
#: vectorised filament kernel packs pairs itself, and the inductance
#: assembly fills a symmetric matrix triangle.
PRF004_EXEMPT_PARTS = ("filament.py", "inductance.py")

_NUMPY_MODULES = frozenset({"np", "numpy"})
#: numpy constructors whose call inside a loop allocates a fresh array.
_NUMPY_ALLOCATORS = frozenset(
    {
        "array",
        "asarray",
        "zeros",
        "zeros_like",
        "ones",
        "ones_like",
        "empty",
        "full",
        "concatenate",
        "stack",
        "vstack",
        "hstack",
        "linspace",
        "arange",
        "eye",
    }
)
#: numpy calls that *produce* an array: looping over their elements in
#: Python is the PRF001 anti-pattern.
_NUMPY_PRODUCERS = _NUMPY_ALLOCATORS | {"nditer", "ravel", "flatten"}

#: PRF003 reports a dotted path resolved at least this often in one loop.
_LOOKUP_THRESHOLD = 3


def _is_numpy_call(node: ast.AST, names: frozenset[str]) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in _NUMPY_MODULES
        and node.func.attr in names
    )


def _dotted_path(node: ast.expr) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or not parts:
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _loop_targets(node: ast.For | ast.While) -> set[str]:
    if isinstance(node, ast.While):
        return set()
    return {n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)}


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _walk_own_body(loop: ast.For | ast.While) -> Iterator[ast.AST]:
    """Walk a loop's body without descending into nested loops.

    Nested loops analyze their own bodies when the visitor reaches them;
    claiming their statements here would report every finding once per
    enclosing loop level.
    """
    pending: list[ast.AST] = list(loop.body)
    while pending:
        node = pending.pop()
        yield node
        if isinstance(node, (ast.For, ast.While)):
            # The nested loop's header expressions still execute per
            # outer iteration; its body does not belong to us.
            if isinstance(node, ast.For):
                pending.append(node.iter)
            else:
                pending.append(node.test)
            continue
        pending.extend(ast.iter_child_nodes(node))


def _assigned_names(nodes: list[ast.AST]) -> set[str]:
    """Every name (re)bound by assignments among the given nodes."""
    assigned: set[str] = set()
    for stmt in nodes:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                assigned |= _names_in(target)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            assigned |= _names_in(stmt.target)
    return assigned


def _range_len_argument(node: ast.expr) -> str | None:
    """The sequence text of a ``range(len(seq))``-shaped iterable."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        return None
    if node.func.id != "range" or not node.args:
        return None
    last = node.args[-1]
    if (
        isinstance(last, ast.Call)
        and isinstance(last.func, ast.Name)
        and last.func.id == "len"
        and len(last.args) == 1
    ):
        return ast.unparse(last.args[0])
    return None


def _same_sequence(outer: ast.expr, inner: ast.expr) -> str | None:
    """The shared sequence text when two loop iterables scan one sequence.

    Matches the two all-pairs shapes: both loops iterating the same
    expression directly, and both ``range(len(seq))`` (the inner one
    possibly offset, ``range(i + 1, len(seq))``).
    """
    outer_seq = _range_len_argument(outer)
    inner_seq = _range_len_argument(inner)
    if outer_seq is not None and outer_seq == inner_seq:
        return outer_seq
    outer_text = ast.unparse(outer)
    if outer_text == ast.unparse(inner) and not isinstance(outer, ast.Constant):
        return outer_text
    return None


class PerformanceRuleVisitor(ScopedVisitor):
    """Walks one module emitting PRF001–PRF004 findings."""

    def __init__(self, file: str, is_kernel: bool = False) -> None:
        super().__init__(file)
        self.is_kernel = is_kernel
        self.prf004_exempt = any(
            part in PRF004_EXEMPT_PARTS for part in file.split("/")
        )

    def run(self, tree: ast.Module) -> None:
        """Analyze the module."""
        self.visit(tree)

    # -- loops: PRF001 / PRF002 / PRF003 / PRF004 ---------------------------

    def _visit_loop(self, node: ast.For | ast.While) -> None:
        body = list(_walk_own_body(node))
        if isinstance(node, ast.For):
            self._check_prf001(node, body)
            self._check_prf004(node)
        self._check_prf002(node, body)
        self._check_prf003(node, body)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node)

    def _check_prf001(self, node: ast.For, body: list[ast.AST]) -> None:
        if not self.is_kernel:
            return
        if _is_numpy_call(node.iter, _NUMPY_PRODUCERS):
            self.add(
                "PRF001",
                node,
                f"Python for-loop over numpy array elements "
                f"('for {ast.unparse(node.target)} in "
                f"{ast.unparse(node.iter)}') in a kernel module",
                hint="vectorise: operate on the whole array in one numpy "
                "expression",
            )
            return
        # Per-element append: building a list one element at a time from
        # the loop variable is the scalar shadow of a vectorised
        # expression.
        targets = _loop_targets(node)
        for stmt in body:
            if (
                isinstance(stmt, ast.Call)
                and isinstance(stmt.func, ast.Attribute)
                and stmt.func.attr == "append"
                and len(stmt.args) == 1
                and targets & _names_in(stmt.args[0])
            ):
                self.add(
                    "PRF001",
                    stmt,
                    "per-element append inside a kernel-module loop builds "
                    "an array one scalar at a time",
                    hint="accumulate with a numpy expression (or a "
                    "comprehension feeding one np.array call)",
                )
                return

    def _check_prf004(self, node: ast.For) -> None:
        if self.prf004_exempt:
            return
        for stmt in ast.walk(node):
            if stmt is node or not isinstance(stmt, ast.For):
                continue
            shared = _same_sequence(node.iter, stmt.iter)
            if shared is None:
                continue
            self.add(
                "PRF004",
                stmt,
                f"all-pairs nested scan over '{shared}' — O(N^2) "
                "Python-level pair loop",
                hint="use a blocked/vectorised pair evaluation or a "
                "spatial index (docs/PERFLINT.md)",
            )
            return

    def _check_prf002(self, node: ast.For | ast.While, body: list[ast.AST]) -> None:
        loop_variant = _loop_targets(node) | _assigned_names(body)
        for stmt in body:
            if not _is_numpy_call(stmt, _NUMPY_ALLOCATORS):
                continue
            call = stmt
            if not isinstance(call, ast.Call):  # pragma: no cover - narrowed above
                continue
            arg_names: set[str] = set()
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                arg_names |= _names_in(arg)
            if arg_names & loop_variant:
                continue  # shape depends on the loop; allocation is needed
            self.add(
                "PRF002",
                call,
                f"loop-invariant allocation '{ast.unparse(call)}' rebuilt "
                "every iteration",
                hint="hoist the allocation out of the loop (reuse the "
                "buffer, or build once before the loop)",
            )
            return

    def _check_prf003(self, node: ast.For | ast.While, body: list[ast.AST]) -> None:
        targets = _loop_targets(node)
        written: set[str] = set()
        counts: Counter[str] = Counter()
        anchor: dict[str, ast.Attribute] = {}
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    dotted = _dotted_path(target)
                    if dotted is not None:
                        written.add(dotted)
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                dotted = _dotted_path(stmt.target)
                if dotted is not None:
                    written.add(dotted)
            if not isinstance(stmt, ast.Attribute):
                continue
            dotted = _dotted_path(stmt)
            if dotted is None or "." not in dotted:
                continue
            if dotted.split(".")[0] in targets:
                continue  # loop-variant receiver: cannot hoist
            counts[dotted] += 1
            existing = anchor.get(dotted)
            if existing is None or stmt.lineno < existing.lineno:
                anchor[dotted] = stmt
        for dotted, count in sorted(counts.items()):
            if count < _LOOKUP_THRESHOLD or dotted in written:
                continue
            if any(
                dotted != other
                and dotted.startswith(other + ".")
                and counts[other] >= _LOOKUP_THRESHOLD
                for other in counts
            ):
                continue  # report the shortest hot prefix only
            self.add(
                "PRF003",
                anchor[dotted],
                f"attribute path '{dotted}' resolved {count}x inside one "
                "loop",
                hint=f"hoist to a local before the loop: "
                f"{dotted.rsplit('.', 1)[-1]} = {dotted}",
            )
