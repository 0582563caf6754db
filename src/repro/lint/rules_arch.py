"""Architecture rules — the ARCH family, enforcing ``docs/ARCHITECTURE.md``.

Operates on the :class:`~repro.lint.imports.ImportGraph` built over the
whole analyzed tree, not on single modules: layering and cycles are
properties of the graph.

Rules::

    ARCH001  import-time cycle between project modules
    ARCH002  a package imports a package above its layer
    ARCH003  a module imports ``repro.cli`` (the CLI is the outermost
             shell; nothing may depend on it)

The layer table below *is* the enforced architecture — it is checked-in
data, rendered in ``docs/ARCHITECTURE.md``, and changing it is an
explicit architectural decision reviewed like code.  A package may
import its own layer and anything below it; ``obs`` and ``units`` are
cross-cutting (importable from everywhere) because tracing spans and
unit aliases deliberately thread through every layer.  Packages absent
from the table (and trees whose labels are not rooted in a known
package) are not judged — the rules stay quiet rather than guess.
"""

from __future__ import annotations

import ast

from .base import LintFinding
from .imports import ImportGraph, build_import_graph
from .registry import lint_spec_for

__all__ = ["ARCH_LAYERS", "CROSS_CUTTING_PACKAGES", "analyze_architecture"]

#: The enforced layering, lowest first.  A module in layer *n* may import
#: packages of layer <= *n*.  Rendered as the diagram in
#: ``docs/ARCHITECTURE.md`` ("Enforced layering"); the two must agree
#: (the docs test cross-checks them).
ARCH_LAYERS: dict[str, int] = {
    "geometry": 0,
    "peec": 1,
    "circuit": 1,
    "components": 2,
    "emi": 2,
    "parallel": 2,
    "coupling": 3,
    "sensitivity": 3,
    "rules": 4,
    "placement": 5,
    "routing": 6,
    "io": 6,
    "viz": 6,
    "check": 6,
    "converters": 7,
    "core": 8,
    "lint": 9,
    "service": 9,
    "cli": 10,
}

#: Importable from every layer: telemetry spans and the unit vocabulary
#: are deliberately woven through the whole tree.
CROSS_CUTTING_PACKAGES: frozenset[str] = frozenset({"obs", "units"})

#: Module basenames whose whole purpose is to invoke the CLI; their
#: ``repro.cli`` import is the feature, not a violation.
_CLI_SHIM_BASENAMES = ("__main__.py",)


def _finding(
    code: str, file: str, line: int, message: str, hint: str = ""
) -> LintFinding:
    return LintFinding(
        code=code,
        severity=lint_spec_for(code).severity,
        message=message,
        file=file,
        line=line,
        symbol="<module>",
        hint=hint,
    )


def _package_of(target: str) -> str:
    """Top-level package (or module) a dotted project target belongs to."""
    parts = target.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def _arch001(graph: ImportGraph) -> list[LintFinding]:
    findings: list[LintFinding] = []
    for cycle in graph.cycles():
        anchor = cycle[0]
        member_names = [graph.nodes[label].name for label in cycle]
        # Report at the anchor's first import-time edge into the cycle.
        line = 1
        cycle_set = set(cycle)
        for edge in graph.nodes[anchor].edges:
            if edge.import_time and graph.resolve(edge.target) in cycle_set:
                line = edge.line
                break
        findings.append(
            _finding(
                "ARCH001",
                anchor,
                line,
                f"import cycle between {len(cycle)} modules: "
                + " -> ".join(member_names[:6])
                + (" -> ..." if len(member_names) > 6 else ""),
                hint="break the cycle: move the shared definition down a "
                "layer, or defer one import into the function that needs it",
            )
        )
    return findings


def _arch002_003(graph: ImportGraph) -> list[LintFinding]:
    findings: list[LintFinding] = []
    for label in sorted(graph.nodes):
        node = graph.nodes[label]
        own = node.package or node.name.split(".")[-1]
        own_layer = ARCH_LAYERS.get(own)
        seen: set[tuple[str, str, int]] = set()
        for edge in node.edges:
            target_package = _package_of(edge.target)
            if target_package == "cli" and own != "cli":
                if not label.endswith(_CLI_SHIM_BASENAMES):
                    findings.append(
                        _finding(
                            "ARCH003",
                            label,
                            edge.line,
                            "imports repro.cli — the CLI is the outermost "
                            "shell and nothing may depend on it",
                            hint="move the shared logic out of repro.cli "
                            "into the package that owns it",
                        )
                    )
                continue
            if own_layer is None or target_package == own:
                continue
            if target_package in CROSS_CUTTING_PACKAGES:
                continue
            target_layer = ARCH_LAYERS.get(target_package)
            if target_layer is None or target_layer <= own_layer:
                continue
            key = (own, target_package, edge.line)
            if key in seen:
                continue
            seen.add(key)
            findings.append(
                _finding(
                    "ARCH002",
                    label,
                    edge.line,
                    f"layer violation: '{own}' (layer {own_layer}) imports "
                    f"'{target_package}' (layer {target_layer}) — lower "
                    "layers must not depend on upper ones",
                    hint="move the shared definition into the lower layer, "
                    "or invert the dependency (docs/ARCHITECTURE.md)",
                )
            )
    return findings


def analyze_architecture(modules: dict[str, ast.Module]) -> list[LintFinding]:
    """Run the ARCH rules over the whole analyzed tree.

    Args:
        modules: file label -> parsed AST (the engine's parse output).

    Returns:
        Findings sorted by (file, line, code).
    """
    graph = build_import_graph(modules)
    findings = _arch001(graph) + _arch002_003(graph)
    findings.sort(key=lambda f: (f.file, f.line, f.code))
    return findings
