"""Catalogue of ready-made parts, addressable by part number.

A convenience registry for building parts by catalogue number in
scripts and tests.  The ASCII board interface does not use it: it
resolves a ``COMP`` line by its ``TYPE`` class name
(:mod:`repro.io.ascii`).  All factories return fresh instances so that
callers may mutate orientation or values without aliasing.
"""

from __future__ import annotations

from collections.abc import Callable

from .base import Component
from .capacitors import (
    CeramicCapacitor,
    ElectrolyticCapacitor,
    FilmCapacitorX2,
    TantalumCapacitorSMD,
)
from .cmchoke import cm_choke_2w, cm_choke_3w
from .inductors import BobbinChoke, large_bobbin_choke, small_bobbin_choke
from .passives import ChipResistor, Connector, ControllerIC, ShuntResistor
from .semiconductors import PowerDiode, PowerMosfet
from .smd_inductors import shielded_power_inductor, unshielded_power_inductor

__all__ = ["ComponentLibrary", "default_library"]


class ComponentLibrary:
    """A mutable registry mapping part numbers to component factories."""

    def __init__(self) -> None:
        self._factories: dict[str, Callable[[], Component]] = {}

    def register(self, part_number: str, factory: Callable[[], Component]) -> None:
        """Add or replace a factory.

        Raises:
            ValueError: if the factory produces a part with a different
                part number (would make ASCII files unreadable).
        """
        sample = factory()
        if sample.part_number != part_number:
            raise ValueError(
                f"factory for {part_number!r} produced part "
                f"{sample.part_number!r}"
            )
        self._factories[part_number] = factory

    def create(self, part_number: str) -> Component:
        """Instantiate a part.

        Raises:
            KeyError: for unknown part numbers, listing what is available.
        """
        factory = self._factories.get(part_number)
        if factory is None:
            known = ", ".join(sorted(self._factories))
            raise KeyError(f"unknown part {part_number!r}; known parts: {known}")
        return factory()

    def part_numbers(self) -> list[str]:
        """Sorted list of registered part numbers."""
        return sorted(self._factories)

    def __contains__(self, part_number: str) -> bool:
        return part_number in self._factories

    def __len__(self) -> int:
        return len(self._factories)


def default_library() -> ComponentLibrary:
    """The standard catalogue of every part family (the tests build parts from it)."""
    lib = ComponentLibrary()
    lib.register("X2-1u5", FilmCapacitorX2)
    lib.register("TAJ-D-100u", TantalumCapacitorSMD)
    lib.register("ELKO-470u", ElectrolyticCapacitor)
    lib.register("MLCC-100n", CeramicCapacitor)
    lib.register("BOBBIN-100u", BobbinChoke)
    lib.register("BOBBIN-S", small_bobbin_choke)
    lib.register("BOBBIN-L", large_bobbin_choke)
    lib.register("CMC-2W", cm_choke_2w)
    lib.register("SMD-IND-SH", shielded_power_inductor)
    lib.register("SMD-IND-UN", unshielded_power_inductor)
    lib.register("CMC-3W", cm_choke_3w)
    lib.register("MOSFET-DPAK", PowerMosfet)
    lib.register("DIODE-SMC", PowerDiode)
    lib.register("R-1206", ChipResistor)
    lib.register("SHUNT-10m", ShuntResistor)
    lib.register("CONN-2", Connector)
    lib.register("CTRL-SO8", ControllerIC)
    return lib
