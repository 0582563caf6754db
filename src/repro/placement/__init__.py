"""The placement tool: constraint model, automatic placer, DRC, interactive.

This package is the reproduction of the paper's core contribution — a
dedicated 3-D placement prototype for power electronics that honours
pairwise electro-magnetic minimum distances (PEMD, reduced by rotation via
the cos(alpha) law), arbitrary placement areas, 3-D keepouts, functional
groups, preplacement and net-length bounds; with an automatic three-step
method (optimal rotation, partitioning, sequential prioritised placement)
and an interactive adviser with online DRC.
"""

from .baseline import BaselinePlacer
from .compaction import CompactionResult, compact_layout
from .drc import DesignRuleChecker, RuleMarker, Violation
from .interactive import InteractiveSession, MoveResult
from .metrics import (
    emd_slack_sum,
    group_centroid,
    group_spread,
    net_hpwl,
    placement_area,
    placement_bbox,
    total_wirelength,
    worst_emd_margin,
)
from .model import (
    Board,
    Group,
    Keepout3D,
    Net,
    PlacedComponent,
    PlacementArea,
    PlacementError,
    PlacementProblem,
)
from .partition import Partitioner, PartitionResult
from .refine import RefinementResult, refine_wirelength
from .placer import AutoPlacer, PlacementReport, PlacerWeights
from .rotation import RotationOptimizer, RotationPlan

__all__ = [
    "Board",
    "PlacementArea",
    "Keepout3D",
    "PlacedComponent",
    "Net",
    "Group",
    "PlacementProblem",
    "PlacementError",
    "AutoPlacer",
    "PlacementReport",
    "PlacerWeights",
    "BaselinePlacer",
    "RotationOptimizer",
    "RotationPlan",
    "Partitioner",
    "refine_wirelength",
    "RefinementResult",
    "PartitionResult",
    "compact_layout",
    "CompactionResult",
    "DesignRuleChecker",
    "Violation",
    "RuleMarker",
    "InteractiveSession",
    "MoveResult",
    "net_hpwl",
    "total_wirelength",
    "placement_bbox",
    "placement_area",
    "group_centroid",
    "group_spread",
    "emd_slack_sum",
    "worst_emd_margin",
]
