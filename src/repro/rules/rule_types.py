"""Design-rule objects consumed by the placement tool.

The paper's tool handles *"geometrical and technological constraints"* and
*"EMC constraints"*; this module gives each rule kind a typed object with a
uniform interface, so the DRC engine and the ASCII reader/writer can treat
them generically.  Rules reference components by reference designator —
they are data, decoupled from the live placement state.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..units import Dimensionless, Meters

__all__ = [
    "Rule",
    "MinDistanceRule",
    "ClearanceRule",
    "GroupCoherenceRule",
    "NetLengthRule",
    "RuleSet",
]


@dataclass(frozen=True)
class Rule:
    """Base class; ``kind`` discriminates in reports and ASCII files."""

    @property
    def kind(self) -> str:
        """Rule discriminator string."""
        return type(self).__name__


@dataclass(frozen=True)
class MinDistanceRule(Rule):
    """Pairwise electro-magnetic minimum distance (the paper's PEMD_ij).

    ``pemd`` applies at parallel magnetic axes; during placement the
    *effective* requirement shrinks with the angle between the axes
    (see :func:`repro.rules.emd.effective_min_distance`).

    Attributes:
        ref_a, ref_b: reference designators of the coupled pair.
        pemd: parallel-axes minimum centre distance [m].
        k_threshold: the coupling level the rule enforces (metadata).
        residual: fraction of the PEMD that survives *any* rotation —
            derived from the perpendicular-axes coupling curve.  The pure
            cos(alpha) law of the paper corresponds to residual = 0; pairs
            whose near field does not null at 90 degrees (capacitor next
            to a solenoid choke) carry the measured floor here.
        source: provenance ("fit", "ascii", "manual", ...).
    """

    ref_a: str = ""
    ref_b: str = ""
    pemd: Meters = 0.0
    k_threshold: Dimensionless = 0.0
    residual: Dimensionless = 0.0
    source: str = "manual"

    def __post_init__(self) -> None:
        if not self.ref_a or not self.ref_b or self.ref_a == self.ref_b:
            raise ValueError("MinDistanceRule needs two distinct refdes")
        if self.pemd < 0.0:
            raise ValueError("pemd must be non-negative")
        if not 0.0 <= self.residual <= 1.0:
            raise ValueError("residual must lie in [0, 1]")

    def pair(self) -> tuple[str, str]:
        """Canonical sorted pair key."""
        return tuple(sorted((self.ref_a, self.ref_b)))  # type: ignore[return-value]


@dataclass(frozen=True)
class ClearanceRule(Rule):
    """Minimum body-to-body spacing for a pair, or globally (empty refs)."""

    ref_a: str = ""
    ref_b: str = ""
    clearance: Meters = 0.5e-3

    def __post_init__(self) -> None:
        if self.clearance < 0.0:
            raise ValueError("clearance must be non-negative")

    @property
    def is_global(self) -> bool:
        """True when the rule applies to every pair."""
        return not self.ref_a and not self.ref_b


@dataclass(frozen=True)
class GroupCoherenceRule(Rule):
    """Functional group that must be placed in one coherent area.

    ``max_spread`` bounds the diameter of the centre point set of the
    rule's placed ``members``; that bound is all the DRC checks.  The
    paper's coherence also keeps foreign parts out of a group's area;
    neither the DRC nor the placer checks that yet (ROADMAP item 2).
    """

    group: str = ""
    members: tuple[str, ...] = ()
    max_spread: Meters = 0.0

    def __post_init__(self) -> None:
        if not self.group or len(self.members) < 2:
            raise ValueError("a group rule needs a name and >= 2 members")
        if self.max_spread <= 0.0:
            raise ValueError("max_spread must be positive")


@dataclass(frozen=True)
class NetLengthRule(Rule):
    """Maximum total (half-perimeter estimated) length of a net [m]."""

    net: str = ""
    max_length: Meters = 0.0

    def __post_init__(self) -> None:
        if not self.net:
            raise ValueError("net length rule needs a net name")
        if self.max_length <= 0.0:
            raise ValueError("max_length must be positive")


@dataclass
class RuleSet:
    """The full rule collection handed to the placer and the DRC."""

    min_distance: list[MinDistanceRule]
    clearance: list[ClearanceRule]
    groups: list[GroupCoherenceRule]
    net_lengths: list[NetLengthRule]

    def __init__(
        self,
        min_distance: list[MinDistanceRule] | None = None,
        clearance: list[ClearanceRule] | None = None,
        groups: list[GroupCoherenceRule] | None = None,
        net_lengths: list[NetLengthRule] | None = None,
    ) -> None:
        self.min_distance = list(min_distance or [])
        self.clearance = list(clearance or [])
        self.groups = list(groups or [])
        self.net_lengths = list(net_lengths or [])

    def min_distance_for(self, ref_a: str, ref_b: str) -> MinDistanceRule | None:
        """The PEMD rule for a pair, if any."""
        key = tuple(sorted((ref_a, ref_b)))
        for rule in self.min_distance:
            if rule.pair() == key:
                return rule
        return None

    def clearance_for(self, ref_a: str, ref_b: str, default: float) -> float:
        """Effective clearance for a pair: specific > global > default."""
        key = tuple(sorted((ref_a, ref_b)))
        best: float | None = None
        global_value: float | None = None
        for rule in self.clearance:
            if rule.is_global:
                global_value = rule.clearance
            elif tuple(sorted((rule.ref_a, rule.ref_b))) == key:
                best = rule.clearance
        if best is not None:
            return best
        if global_value is not None:
            return global_value
        return default

    def rules_involving(self, ref: str) -> list[MinDistanceRule]:
        """All PEMD rules touching a component (drives placement priority)."""
        return [r for r in self.min_distance if ref in (r.ref_a, r.ref_b)]

    def total_rules(self) -> int:
        """Rule count across all kinds (for reports)."""
        return (
            len(self.min_distance)
            + len(self.clearance)
            + len(self.groups)
            + len(self.net_lengths)
        )
