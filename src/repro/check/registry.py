"""The rule catalogue: every check the linter can perform, as data.

Each rule is registered once as a :class:`RuleSpec` carrying its stable
code, default severity, category and rationale.  Analyzers emit findings
through :func:`finding`, which looks the spec up so that severity and
code stay consistent between the analyzers, the documentation
(``docs/CHECKS.md`` is generated from this table) and the tests.

Codes are grouped by analyzer domain::

    NET0xx  netlist        (circuit connectivity and element values)
    CPL0xx  coupling       (coupling factors and the inductance matrix)
    PLC0xx  placement      (boards, keepouts, areas, placement rules)
    CMP0xx  component      (library part models: geometry and parasitics)

Codes are append-only: a released code never changes meaning, and retired
codes are not reused.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import Diagnostic, Severity

__all__ = ["RuleSpec", "rule_specs", "spec_for", "finding"]


@dataclass(frozen=True)
class RuleSpec:
    """Metadata of one lint rule.

    Attributes:
        code: stable identifier (``NET001`` ...).
        title: short kebab-case name used in docs and test references.
        severity: default severity of findings from this rule.
        category: analyzer domain ("netlist", "coupling", "placement",
            "component").
        rationale: why violating this rule breaks (or degrades) the flow.
    """

    code: str
    title: str
    severity: Severity
    category: str
    rationale: str


_ERROR = Severity.ERROR
_WARNING = Severity.WARNING

_SPECS: tuple[RuleSpec, ...] = (
    # -- netlist ----------------------------------------------------------
    RuleSpec(
        "NET001",
        "floating-node",
        _ERROR,
        "netlist",
        "A node without a conductive path to ground makes the MNA system "
        "singular at DC; the solve fails deep inside the solver instead of "
        "at the input.",
    ),
    RuleSpec(
        "NET002",
        "dangling-connection",
        _WARNING,
        "netlist",
        "A node touched by only one element terminal (or a net with a "
        "single pin) carries no current and usually indicates a typo in "
        "the netlist.",
    ),
    RuleSpec(
        "NET003",
        "shorted-source",
        _ERROR,
        "netlist",
        "A voltage source with both terminals on ground (or two sources "
        "across the same node pair) is contradictory and makes the system "
        "singular or ill-conditioned.",
    ),
    RuleSpec(
        "NET004",
        "no-ground-reference",
        _ERROR,
        "netlist",
        "Without any element touching the reference node the whole "
        "circuit floats and no node voltage is defined.",
    ),
    RuleSpec(
        "NET005",
        "suspicious-magnitude",
        _WARNING,
        "netlist",
        "Element values far outside the physical range for board-level "
        "power electronics usually mean a unit slip (F vs uF, H vs nH).",
    ),
    # -- coupling ---------------------------------------------------------
    RuleSpec(
        "CPL001",
        "coupling-out-of-range",
        _ERROR,
        "coupling",
        "|k| > 1 is non-physical: the mutual inductance would exceed "
        "sqrt(L1*L2) and the inductance matrix loses positive "
        "definiteness, corrupting every EMI spectrum downstream.",
    ),
    RuleSpec(
        "CPL002",
        "orphaned-coupling",
        _ERROR,
        "coupling",
        "A coupling that references an absent inductor branch crashes the "
        "MNA assembly with a bare KeyError long after the mistake.",
    ),
    RuleSpec(
        "CPL003",
        "duplicate-coupling",
        _ERROR,
        "coupling",
        "Two coupling entries for the same inductor pair sum their mutual "
        "terms silently — an asymmetric/duplicated definition is almost "
        "certainly an input mistake.",
    ),
    RuleSpec(
        "CPL004",
        "indefinite-inductance-matrix",
        _ERROR,
        "coupling",
        "A non-positive-definite inductance matrix stores negative "
        "magnetic energy; transient and AC solves produce growing, "
        "meaningless oscillations.",
    ),
    RuleSpec(
        "CPL005",
        "near-unity-coupling",
        _WARNING,
        "coupling",
        "Board-level stray coupling above |k| = 0.98 is implausible "
        "outside a transformer model and usually indicates bad coupling "
        "data.",
    ),
    # -- placement --------------------------------------------------------
    RuleSpec(
        "PLC001",
        "preplaced-outside-board",
        _ERROR,
        "placement",
        "A fixed (preplaced) part whose footprint leaves the board "
        "outline can never be legalised — the placer must not move it.",
    ),
    RuleSpec(
        "PLC002",
        "keepout-consumes-board",
        _ERROR,
        "placement",
        "Keepouts that block (almost) the whole placement area leave "
        "nowhere to put the components; the placer would fail after an "
        "exhaustive search.",
    ),
    RuleSpec(
        "PLC003",
        "keepout-outside-board",
        _WARNING,
        "placement",
        "A keepout that does not intersect its board outline is "
        "ineffective — typically a coordinate or unit mistake.",
    ),
    RuleSpec(
        "PLC004",
        "redundant-keepout",
        _WARNING,
        "placement",
        "A keepout fully contained in another (in all three dimensions) "
        "is contradictory or redundant input.",
    ),
    RuleSpec(
        "PLC005",
        "unknown-area",
        _ERROR,
        "placement",
        "A component constrained to a placement area that does not exist "
        "on its board can never be placed; a preferred area outside the "
        "component's allowed areas is silently ignored by the placer.",
    ),
    RuleSpec(
        "PLC006",
        "area-too-small",
        _ERROR,
        "placement",
        "An allowed/preferred area smaller than the component footprint "
        "at every permitted rotation is unreachable under the keepins.",
    ),
    RuleSpec(
        "PLC007",
        "orphaned-rule",
        _ERROR,
        "placement",
        "A rule referencing a refdes or net that is not part of the "
        "problem silently checks nothing.",
    ),
    RuleSpec(
        "PLC008",
        "unsatisfiable-min-distance",
        _ERROR,
        "placement",
        "A pairwise minimum distance larger than the board diagonal can "
        "never be met on that board.",
    ),
    RuleSpec(
        "PLC009",
        "missing-pemd-rule",
        _WARNING,
        "placement",
        "A pair of strongly field-generating parts without a minimum "
        "distance rule will be packed tightly by the placer and couple "
        "unchecked (the paper's Fig. 1 failure mode).",
    ),
    RuleSpec(
        "PLC010",
        "overfilled-board",
        _ERROR,
        "placement",
        "Component footprints exceeding the usable board area make the "
        "placement infeasible regardless of rules.",
    ),
    # -- component --------------------------------------------------------
    RuleSpec(
        "CMP001",
        "negative-esr",
        _ERROR,
        "component",
        "A negative equivalent series resistance is an active element; "
        "the MNA solve may diverge or oscillate.",
    ),
    RuleSpec(
        "CMP002",
        "suspicious-esl",
        _WARNING,
        "component",
        "A zero or multi-millihenry equivalent series inductance for a "
        "board part indicates a degenerate or mis-scaled field model.",
    ),
    RuleSpec(
        "CMP003",
        "degenerate-current-path",
        _WARNING,
        "component",
        "A cored part whose current path has (near-)zero loop moment "
        "generates no stray field in the model — the coupling prediction "
        "for it is meaningless.",
    ),
    RuleSpec(
        "CMP004",
        "axis-not-unit",
        _ERROR,
        "component",
        "The magnetic axis must be unit length; the cos(alpha) EMD law "
        "scales distances by the dot product of the axes.",
    ),
    RuleSpec(
        "CMP005",
        "path-outside-footprint",
        _WARNING,
        "component",
        "A current path extending far beyond the part footprint means "
        "field and placement geometry disagree — distance rules derived "
        "from it are wrong.",
    ),
)

_BY_CODE: dict[str, RuleSpec] = {s.code: s for s in _SPECS}


def rule_specs() -> tuple[RuleSpec, ...]:
    """All registered rules, ordered by code."""
    return _SPECS


def spec_for(code: str) -> RuleSpec:
    """Look up a rule by code.

    Raises:
        KeyError: for an unregistered code.
    """
    return _BY_CODE[code]


def finding(
    code: str,
    message: str,
    obj: str = "",
    hint: str = "",
    severity: Severity | None = None,
) -> Diagnostic:
    """Build a diagnostic for a registered rule.

    The severity defaults to the rule's registered severity; analyzers may
    override it (e.g. escalate a warning for an extreme value).

    Raises:
        KeyError: when ``code`` is not a registered rule.
    """
    spec = _BY_CODE[code]
    return Diagnostic(
        code=code,
        severity=spec.severity if severity is None else severity,
        message=message,
        obj=obj,
        hint=hint,
    )
