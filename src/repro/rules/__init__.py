"""Design rules: PEMD derivation, the cos(alpha) EMD law, rule objects.

Turns field-simulation results and sensitivity rankings into the pairwise
minimum-distance system the placement tool enforces.
"""

from .derive import PemdDerivation, derive_pemd, derive_rule_set
from .emd import (
    axis_angle,
    effective_min_distance,
    emd_between_axes,
    emd_factor,
    emd_floor,
    emd_for_pair,
)
from .rule_types import (
    ClearanceRule,
    GroupCoherenceRule,
    MinDistanceRule,
    NetLengthRule,
    Rule,
    RuleSet,
)

__all__ = [
    "Rule",
    "MinDistanceRule",
    "ClearanceRule",
    "GroupCoherenceRule",
    "NetLengthRule",
    "RuleSet",
    "axis_angle",
    "emd_factor",
    "emd_floor",
    "effective_min_distance",
    "emd_between_axes",
    "emd_for_pair",
    "derive_pemd",
    "derive_rule_set",
    "PemdDerivation",
]
