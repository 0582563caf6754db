"""PEEC field engine: partial and mutual inductances, field maps.

The Partial Element Equivalent Circuit method discretises only the current-
carrying structures of the design into straight filaments; loop and mutual
inductances follow from analytic and quadrature partial-inductance formulas,
ferrite cores are handled by an effective-permeability correction, and a
solid ground plane by image currents.
"""

from .capacitance import (
    EPS0,
    equivalent_radius,
    mutual_capacitance_spheres,
    plate_capacitance,
    sphere_self_capacitance,
)
from .field import b_field, b_field_grid, field_magnitude_map
from .filament import (
    MU0,
    PAIR_ORDER,
    mutual_inductance_pairs,
    PackedFilaments,
    neumann_mutual_blocks,
    self_inductance_bar,
    self_inductance_bars,
)
from .inductance import (
    SELF_INDUCTANCE_ORDER,
    loop_self_inductance,
    mutual_inductance_paths_fast,
    mutual_inductance_row,
)
from .mesh import CurrentPath, rectangle_path, ring_path
from .permeability import (
    AIR_CORE,
    FERRITE_3C90,
    FERRITE_N87,
    IRON_POWDER_26,
    CoreMaterial,
    demagnetizing_factor_rod,
    effective_permeability,
    stray_coupling_scale,
)

__all__ = [
    "MU0",
    "EPS0",
    "sphere_self_capacitance",
    "mutual_capacitance_spheres",
    "plate_capacitance",
    "equivalent_radius",
    "mutual_inductance_pairs",
    "neumann_mutual_blocks",
    "PackedFilaments",
    "self_inductance_bar",
    "self_inductance_bars",
    "CurrentPath",
    "ring_path",
    "rectangle_path",
    "PAIR_ORDER",
    "SELF_INDUCTANCE_ORDER",
    "loop_self_inductance",
    "mutual_inductance_paths_fast",
    "mutual_inductance_row",
    "b_field",
    "b_field_grid",
    "field_magnitude_map",
    "CoreMaterial",
    "demagnetizing_factor_rod",
    "effective_permeability",
    "stray_coupling_scale",
    "AIR_CORE",
    "FERRITE_N87",
    "FERRITE_3C90",
    "IRON_POWDER_26",
]
