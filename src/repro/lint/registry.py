"""The physlint rule catalogue: every code-analysis rule, as data.

Mirrors ``repro.check.registry`` (the *design* linter) for the *code*
linter: each rule is registered once as a :class:`~repro.check.registry.RuleSpec`
carrying its stable code, default severity, category and rationale.
``docs/PHYSLINT.md`` is the human rendering of this table and the tests
cross-check the two.

Codes are grouped by rule family::

    UNT0xx  units        (dimension inference over annotated APIs)
    NUM0xx  numeric      (floating-point robustness)
    API0xx  api          (interface hygiene: module-level mutable state)
    ARCH0xx architecture (import-graph layering, see docs/PHYSLINT.md)
    LNT0xx  analyzer     (the analyzer's own operational diagnostics)

Codes are append-only: a released code never changes meaning, and retired
codes (:data:`_RETIRED`, each with the check that replaced it) are not
reused.
"""

from __future__ import annotations

from ..check.diagnostics import Severity
from ..check.registry import RuleSpec

__all__ = ["check_select", "lint_rule_specs", "lint_spec_for"]

_ERROR = Severity.ERROR
_WARNING = Severity.WARNING

_SPECS: tuple[RuleSpec, ...] = (
    # -- units ------------------------------------------------------------
    RuleSpec(
        "UNT001",
        "mixed-unit-arithmetic",
        _ERROR,
        "units",
        "Adding or subtracting quantities of different dimensions (metres "
        "plus henries) or scales (metres plus millimetres) produces a "
        "number that is wrong by construction; unit-scale slips are the "
        "classic parasitic-extraction failure (H vs nH is nine orders).",
    ),
    RuleSpec(
        "UNT002",
        "mixed-unit-comparison",
        _ERROR,
        "units",
        "Comparing quantities of different dimensions or scales makes the "
        "branch condition meaningless — a distance threshold in mm "
        "silently never fires against a value in m.",
    ),
    RuleSpec(
        "UNT003",
        "call-argument-unit-mismatch",
        _ERROR,
        "units",
        "Passing a value of one unit into a parameter annotated with "
        "another (rad into a degree parameter, mm into a metre API) is "
        "invisible at runtime: everything is float.",
    ),
    RuleSpec(
        "UNT004",
        "return-unit-mismatch",
        _ERROR,
        "units",
        "A function annotated to return one unit but returning an "
        "expression of another breaks every caller that trusts the "
        "signature.",
    ),
    RuleSpec(
        "UNT005",
        "assignment-unit-conflict",
        _ERROR,
        "units",
        "Rebinding a unit-annotated variable with a value of a different "
        "dimension or scale defeats the declared unit for the rest of the "
        "scope.",
    ),
    RuleSpec(
        "UNT006",
        "mixed-units-in-reduction",
        _ERROR,
        "units",
        "min/max/sum/hypot over arguments of different units compares or "
        "accumulates incommensurable quantities.",
    ),
    # -- numeric ----------------------------------------------------------
    RuleSpec(
        "NUM001",
        "exact-float-equality",
        _WARNING,
        "numeric",
        "== / != against a float literal is an exact bit comparison; "
        "computed values (quadrature sums, matrix entries) differ from "
        "their ideal value by rounding, so the branch is unstable.  Use "
        "math.isclose or repro.units.approx_zero.",
    ),
    RuleSpec(
        "NUM002",
        "unguarded-division",
        _WARNING,
        "numeric",
        "Dividing by a runtime quantity that is never validated or "
        "compared anywhere in the function raises ZeroDivisionError (or "
        "yields inf) deep inside a solve instead of failing at the input.",
    ),
    RuleSpec(
        "NUM003",
        "domain-unsafe-math",
        _WARNING,
        "numeric",
        "sqrt/log of a difference can go (numerically) negative even when "
        "the maths says it cannot; clamp or guard the argument.",
    ),
    RuleSpec(
        "NUM004",
        "naive-float-accumulation",
        _WARNING,
        "numeric",
        "Plain sum() accumulates rounding error linearly; PEEC kernels "
        "sum thousands of partial inductances spanning orders of "
        "magnitude, where math.fsum is exact at the same cost.",
    ),
    # -- api --------------------------------------------------------------
    RuleSpec(
        "API001",
        "module-level-mutable-state",
        _WARNING,
        "api",
        "A lowercase module-level mutable binding reads as an accidental "
        "global; name it like a constant (UPPERCASE) if it is a fixed "
        "registry, or move it into an object if it is state.",
    ),
    RuleSpec(
        "API002",
        "global-statement",
        _WARNING,
        "api",
        "Rebinding module globals from inside functions makes behaviour "
        "order-dependent and untestable; prefer an explicit object or a "
        "documented singleton accessor.",
    ),
    # -- architecture (enforces docs/ARCHITECTURE.md; always error) -------
    RuleSpec(
        "ARCH001",
        "import-cycle",
        _ERROR,
        "architecture",
        "An import-time cycle between project modules makes import order "
        "load-bearing: whichever module is imported first wins, and a "
        "cold start from the wrong entry point crashes with a partially "
        "initialised module.",
    ),
    RuleSpec(
        "ARCH002",
        "layer-violation",
        _ERROR,
        "architecture",
        "A lower layer importing an upper one inverts the dependency "
        "arrow the architecture is built on; the upper layer can no "
        "longer be refactored (or extracted into the service layer) "
        "without dragging the kernel along.",
    ),
    RuleSpec(
        "ARCH003",
        "imports-cli",
        _ERROR,
        "architecture",
        "repro.cli is the outermost shell — argument parsing and process "
        "exit codes; library code importing it couples every consumer to "
        "the command line.",
    ),
    # -- analyzer ---------------------------------------------------------
    RuleSpec(
        "LNT001",
        "unparsable-module",
        _ERROR,
        "analyzer",
        "A module that does not parse cannot be analyzed (or imported); "
        "physlint reports it instead of crashing.",
    ),
)

_BY_CODE: dict[str, RuleSpec] = {s.code: s for s in _SPECS}

_PRF_RETIRED = (
    "perfbench, its spans and `perf diff` (docs/PERFORMANCE.md): a speed "
    "claim is measured end to end, not guessed from the AST"
)

_CON_RETIRED = (
    "conlint retired: no process pool or fleet left; the hammer tests "
    "cover the bus, the tracer and the jobs"
)

#: Retired code -> what covers it now.  Baselines and inline waivers that
#: still name one keep loading; the code itself is never registered again.
_RETIRED: dict[str, str] = {
    "NUM005": "ruff B006",
    **{f"PRF00{n}": _PRF_RETIRED for n in range(1, 5)},
    "PRF005": "no process pool left in src/repro",
    **{f"CON00{n}": _CON_RETIRED for n in range(1, 6)},
}


def lint_rule_specs() -> tuple[RuleSpec, ...]:
    """All registered physlint rules, ordered by code."""
    return _SPECS


def lint_spec_for(code: str) -> RuleSpec:
    """Look up a physlint rule by code.

    Raises:
        KeyError: for an unregistered code.
    """
    return _BY_CODE[code]


def check_select(select: list[str]) -> None:
    """Reject ``--select`` tokens that match no registered rule.

    A token selects every registered code it prefixes (``NUM002``,
    ``UNT``).  A token that prefixes nothing would pass the gate
    silently, whether it is a typo or a retired family.

    Raises:
        ValueError: naming the first such token; for retired codes the
            message names what replaced them (:data:`_RETIRED`).
    """
    for token in select:
        if any(spec.code.startswith(token) for spec in _SPECS):
            continue
        retired = sorted(code for code in _RETIRED if code.startswith(token))
        if retired:
            replacements = "; ".join(dict.fromkeys(_RETIRED[code] for code in retired))
            raise ValueError(f"--select {token}: {', '.join(retired)} retired ({replacements})")
        raise ValueError(f"--select {token} matches no rule code or family")
