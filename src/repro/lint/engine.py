"""The physlint engine: parse, build symbols, run every rule, one report.

:func:`lint_paths` is the entry point used by the ``repro-emi lint-src``
CLI, the CI gate and the tests: it walks the given files/directories,
parses every module once, builds the project-wide unit symbol table,
runs the rule visitors, applies inline suppressions and the baseline,
and returns a :class:`LintResult` wrapping the familiar
:class:`~repro.check.diagnostics.CheckReport` model.

Like every other stage of the flow, the analyzer runs under
observability spans (``lint.run`` > ``lint.parse`` / ``lint.symbols`` /
``lint.analyze``) and emits counters (``lint.files``,
``lint.findings``, ``lint.suppressed``, ``lint.baselined``) — see
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from ..check.diagnostics import CheckReport
from ..obs import get_tracer
from .base import LintFinding
from .baseline import Baseline
from .registry import check_select, lint_spec_for
from .rules_arch import analyze_architecture
from .rules_numeric import NumericRuleVisitor
from .rules_units import UnitRuleVisitor
from .suppress import scan_suppressions
from .symbols import build_symbol_table

__all__ = ["LintResult", "lint_paths", "lint_sources", "default_target"]

#: Modules whose path contains one of these parts get the PEEC-kernel
#: accumulation rule (NUM004).
_PEEC_MARKERS = ("peec",)


@dataclass
class LintResult:
    """Outcome of one analyzer run.

    Attributes:
        report: surfaced findings as a check report (text/JSON rendering,
            exit-code logic).
        findings: the surfaced findings with structured locations — the
            input for ``--write-baseline``.
        files: number of modules analyzed.
        suppressed: findings waived by inline ``# physlint: disable``.
        baselined: findings waived by the baseline file.
    """

    report: CheckReport
    findings: list[LintFinding]
    files: int
    suppressed: int
    baselined: int


def default_target() -> Path:
    """The tree ``lint-src`` analyzes when no paths are given: this package."""
    return Path(__file__).resolve().parent.parent


def iter_python_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Raises:
        FileNotFoundError: for a path that does not exist.
    """
    out: set[Path] = set()
    for path in paths:
        if path.is_dir():
            out.update(
                candidate
                for candidate in path.rglob("*.py")
                if "__pycache__" not in candidate.parts
            )
        elif path.is_file():
            out.add(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(out)


def _relative_label(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _matches_select(code: str, select: list[str] | None) -> bool:
    """Whether a rule code survives a ``--select`` prefix filter.

    ``select=None`` (the default) selects everything; ``["ARCH"]``
    selects the whole architecture family; ``["NUM002", "UNT"]`` mixes
    exact codes and families.  LNT001 (a module that does not parse)
    always survives — a selection cannot make an unanalyzable module
    look clean.
    """
    if select is None:
        return True
    if code == "LNT001":
        return True
    return any(code.startswith(prefix) for prefix in select)


def lint_sources(
    sources: dict[str, str],
    select: list[str] | None = None,
) -> tuple[list[LintFinding], int]:
    """Analyze in-memory modules (label -> source text).

    The label doubles as the finding's ``file`` and decides PEEC-kernel
    treatment (NUM004, by containing a ``peec`` path part).  ``select``
    restricts the surfaced findings to the given code prefixes (see
    :func:`_matches_select`); inline-suppression counts then cover only
    the selected rules.

    Returns:
        (findings after inline suppressions, number suppressed inline).

    Raises:
        ValueError: for a ``select`` token that matches no registered
            code (:func:`~repro.lint.registry.check_select`).
    """
    if select is not None:
        check_select(select)
    tracer = get_tracer()
    modules: dict[str, ast.Module] = {}
    findings: list[LintFinding] = []

    with tracer.span("lint.parse"):
        for label, text in sources.items():
            try:
                modules[label] = ast.parse(text)
            except (SyntaxError, ValueError) as exc:
                findings.append(
                    LintFinding(
                        code="LNT001",
                        severity=lint_spec_for("LNT001").severity,
                        message=f"module does not parse: {exc}",
                        file=label,
                        line=getattr(exc, "lineno", None) or 1,
                    )
                )

    with tracer.span("lint.symbols"):
        table = build_symbol_table(modules)

    arch_by_label: dict[str, list[LintFinding]] = {}
    with tracer.span("lint.architecture"):
        for finding in analyze_architecture(modules):
            arch_by_label.setdefault(finding.file, []).append(finding)

    suppressed_total = 0
    with tracer.span("lint.analyze"):
        for label, tree in modules.items():
            parts = Path(label).parts
            is_peec = any(marker in parts for marker in _PEEC_MARKERS)
            numeric = NumericRuleVisitor(label, is_peec_kernel=is_peec)
            numeric.run(tree)
            units = UnitRuleVisitor(label, table)
            units.run(tree)
            raw = numeric.findings + units.findings + arch_by_label.get(label, [])
            module_findings = [
                finding for finding in raw if _matches_select(finding.code, select)
            ]
            suppressions = scan_suppressions(sources[label])
            kept = [
                finding
                for finding in module_findings
                if not suppressions.is_suppressed(finding.code, finding.line)
            ]
            suppressed_total += len(module_findings) - len(kept)
            findings.extend(kept)

    findings.sort(key=lambda f: (f.file, f.line, f.code))
    return findings, suppressed_total


def lint_paths(
    paths: list[Path] | None = None,
    baseline: Baseline | None = None,
    root: Path | None = None,
    subject: str = "",
    select: list[str] | None = None,
) -> LintResult:
    """Analyze a source tree and return the filtered report.

    Args:
        paths: files and/or directories; default is the installed
            ``repro`` package itself.
        baseline: waived findings; ``None`` means nothing is waived.
        root: base for the relative file labels in diagnostics and the
            baseline (default: the common target's parent, so labels read
            ``repro/circuit/mna.py``).
        subject: label for the report header (defaults to the target).
        select: restrict surfaced findings to these code prefixes
            (``["ARCH"]`` runs the import-graph rules alone); ``None``
            runs every rule.

    Raises:
        FileNotFoundError: when a given path does not exist.
        ValueError: for a ``select`` token that matches no registered code.
    """
    tracer = get_tracer()
    with tracer.span("lint.run"):
        targets = list(paths) if paths else [default_target()]
        files = iter_python_files(targets)
        if root is None:
            root = default_target().parent if not paths else _common_root(targets)
        sources = {
            _relative_label(path, root): path.read_text(encoding="utf-8")
            for path in files
        }
        findings, suppressed = lint_sources(sources, select=select)
        if baseline is not None:
            findings, baselined = baseline.filter(findings)
        else:
            baselined = 0

        tracer.count("lint.files", len(files))
        tracer.count("lint.findings", len(findings))
        tracer.count("lint.suppressed", suppressed)
        tracer.count("lint.baselined", baselined)

    report = CheckReport(
        subject=subject or f"{', '.join(str(t) for t in targets)} ({len(files)} files)"
    )
    report.extend([finding.to_diagnostic() for finding in findings], "physlint")
    for family in ("units", "numeric", "api", "architecture"):
        if family not in report.analyzers:
            report.analyzers.append(family)
    return LintResult(
        report=report,
        findings=findings,
        files=len(files),
        suppressed=suppressed,
        baselined=baselined,
    )


def _common_root(targets: list[Path]) -> Path:
    resolved = [t.resolve() for t in targets]
    first = resolved[0] if resolved[0].is_dir() else resolved[0].parent
    common = first
    for target in resolved[1:]:
        base = target if target.is_dir() else target.parent
        while common not in (base, *base.parents):
            common = common.parent
    # Labels should include the target directory's own name
    # ("repro/peec/mesh.py", not "peec/mesh.py").
    return common.parent
