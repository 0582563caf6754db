"""Component library: placeable parts with field and circuit models.

Each part carries a rectangular footprint for the placer, a simplified
internal current path for the PEEC field engine and electrical parasitics
for the circuit simulator — the three views the paper's flow requires.
"""

from .base import DEFAULT_CLEARANCE, FIELD_RELEVANT_MOMENT, Component, Pad
from .capacitors import (
    Capacitor,
    CeramicCapacitor,
    ElectrolyticCapacitor,
    FilmCapacitorX2,
    TantalumCapacitorSMD,
)
from .cmchoke import CommonModeChoke, cm_choke_2w, cm_choke_3w
from .inductors import BobbinChoke, large_bobbin_choke, small_bobbin_choke
from .library import ComponentLibrary, default_library
from .passives import ChipResistor, Connector, ControllerIC, ShuntResistor
from .semiconductors import PowerDiode, PowerMosfet
from .smd_inductors import (
    SmdPowerInductor,
    shielded_power_inductor,
    unshielded_power_inductor,
)

__all__ = [
    "Component",
    "Pad",
    "DEFAULT_CLEARANCE",
    "FIELD_RELEVANT_MOMENT",
    "Capacitor",
    "FilmCapacitorX2",
    "TantalumCapacitorSMD",
    "ElectrolyticCapacitor",
    "CeramicCapacitor",
    "BobbinChoke",
    "small_bobbin_choke",
    "large_bobbin_choke",
    "CommonModeChoke",
    "SmdPowerInductor",
    "shielded_power_inductor",
    "unshielded_power_inductor",
    "cm_choke_2w",
    "cm_choke_3w",
    "PowerMosfet",
    "PowerDiode",
    "ChipResistor",
    "ShuntResistor",
    "Connector",
    "ControllerIC",
    "ComponentLibrary",
    "default_library",
]
