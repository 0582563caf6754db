"""Coupling models: placed-pair field simulations, sweeps, fits and caching.

The bridge between the PEEC engine and everything downstream: sensitivity
analysis consumes pairwise coupling factors, the design-rule derivation
consumes fitted k(d) laws, and the placer consumes the cached database.
"""

from .capacitive import (
    CapacitiveResult,
    capacitive_layout_couplings,
    component_capacitance,
)
from .database import CacheStats, CouplingDatabase, DistanceLaw
from .dipole import dipole_coupling_factor, dipole_mutual_inductance
from .fit import PowerLawFit, fit_power_law
from .polarization import PolarizedCoupling, decoupling_sweep, polarized_coupling
from .pair import CouplingResult, component_coupling, pair_coupling_factor
from .sweep import angular_position_sweep, distance_sweep, rotation_sweep

__all__ = [
    "CouplingResult",
    "CapacitiveResult",
    "component_capacitance",
    "capacitive_layout_couplings",
    "component_coupling",
    "pair_coupling_factor",
    "distance_sweep",
    "rotation_sweep",
    "angular_position_sweep",
    "PowerLawFit",
    "fit_power_law",
    "dipole_coupling_factor",
    "dipole_mutual_inductance",
    "CacheStats",
    "CouplingDatabase",
    "DistanceLaw",
    "PolarizedCoupling",
    "polarized_coupling",
    "decoupling_sweep",
]
