"""repro.lint — physics-aware static analysis of the codebase ("physlint").

Where :mod:`repro.check` validates *designs* (netlists, coupling data,
placement constraints), this package validates the *code that computes
them*: a custom AST analyzer with these rule families —

* **unit-dimension inference** (UNT001–UNT006): the :mod:`repro.units`
  ``Annotated`` aliases on public physics APIs seed a per-scope
  dimension environment; mixed-unit arithmetic, comparisons, call
  arguments, returns and rebindings are flagged (m + mm, H vs nH,
  degrees into a radian API);
* **numerical robustness / API hygiene** (NUM001–NUM004, API001–API002):
  exact float equality, unguarded division, sqrt/log of differences,
  plain ``sum()`` in PEEC kernels, module-global state;
* **architecture** (ARCH001–ARCH003): the project import graph
  (:mod:`repro.lint.imports`) is checked against the layer table in
  :mod:`repro.lint.rules_arch` — import cycles, lower layers importing
  upper ones, anything importing ``repro.cli``.

Entry points:

* :func:`lint_paths` — analyze files/directories, returns a
  :class:`LintResult` wrapping a :class:`~repro.check.diagnostics.CheckReport`;
* ``repro-emi lint-src`` — the CLI front-end (text/JSON output,
  ``--fail-on``, ``--baseline`` / ``--write-baseline``);
* ``python -m repro.lint`` — shorthand for the CLI subcommand.

Findings are waived either inline (``# physlint: disable=CODE``, per
line or per file) or via the checked-in baseline
(:data:`~repro.lint.baseline.DEFAULT_BASELINE_PATH`).  Rule catalogue:
``docs/PHYSLINT.md``.
"""

from .base import LintFinding
from .baseline import DEFAULT_BASELINE_PATH, Baseline
from .engine import LintResult, default_target, lint_paths, lint_sources
from .imports import ImportGraph, build_import_graph
from .registry import lint_rule_specs, lint_spec_for
from .rules_arch import ARCH_LAYERS, analyze_architecture
from .sarif import findings_to_sarif
from .suppress import Suppressions, scan_suppressions

__all__ = [
    "LintFinding",
    "LintResult",
    "Baseline",
    "DEFAULT_BASELINE_PATH",
    "lint_paths",
    "lint_sources",
    "default_target",
    "lint_rule_specs",
    "lint_spec_for",
    "Suppressions",
    "scan_suppressions",
    "ImportGraph",
    "build_import_graph",
    "ARCH_LAYERS",
    "analyze_architecture",
    "findings_to_sarif",
]
