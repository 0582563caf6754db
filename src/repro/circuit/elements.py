"""Circuit element primitives for the MNA simulator.

The EMI flow needs a compact but complete element set: linear R/L/C with
**mutual inductive coupling** (the quantity the whole paper revolves
around), independent sources with AC-phasor, spectrum and time-domain
descriptions, and the switching elements of a power stage (ideal switch,
behavioural diode).

Node names are strings; ``"0"`` (or ``"GND"``) is ground.  Values are SI.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from collections.abc import Callable

import numpy as np
from numpy.typing import ArrayLike

__all__ = [
    "GROUND_NAMES",
    "CircuitElement",
    "Resistor",
    "Capacitor",
    "Inductor",
    "MutualCoupling",
    "VoltageSource",
    "CurrentSource",
    "Switch",
    "IdealDiode",
]

#: Node names treated as the reference node.
GROUND_NAMES = frozenset({"0", "GND", "gnd"})


@dataclass
class CircuitElement:
    """Common base: a named element between two nodes."""

    name: str
    n1: str
    n2: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("element needs a non-empty name")
        if self.n1 == self.n2:
            raise ValueError(f"{self.name}: both terminals on node {self.n1!r}")

    def nodes(self) -> tuple[str, ...]:
        """All nodes this element touches."""
        return (self.n1, self.n2)


@dataclass
class Resistor(CircuitElement):
    """Linear resistor [ohm]."""

    resistance: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.resistance <= 0.0:
            raise ValueError(f"{self.name}: resistance must be positive")


@dataclass
class Capacitor(CircuitElement):
    """Linear capacitor [F].

    Parasitics (ESR/ESL) are modelled explicitly by the netlist builders as
    series elements so the solver stays primitive-only.
    """

    capacitance: float = 1e-9

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.capacitance <= 0.0:
            raise ValueError(f"{self.name}: capacitance must be positive")


@dataclass
class Inductor(CircuitElement):
    """Linear inductor [H]; carries a branch current in the MNA system."""

    inductance: float = 1e-6

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.inductance <= 0.0:
            raise ValueError(f"{self.name}: inductance must be positive")


@dataclass
class MutualCoupling:
    """Magnetic coupling between two inductors: ``M = k sqrt(L1 L2)``.

    ``k`` is signed — a negative value encodes opposed winding sense, which
    is how the placement rule "rotate to decouple / oppose" enters the
    circuit model.
    """

    name: str
    inductor_a: str
    inductor_b: str
    k: float

    def __post_init__(self) -> None:
        if self.inductor_a == self.inductor_b:
            raise ValueError(f"{self.name}: cannot couple an inductor to itself")
        if not -1.0 <= self.k <= 1.0:
            raise ValueError(f"{self.name}: |k| must be <= 1, got {self.k}")


@dataclass
class _IndependentSource(CircuitElement):
    """Fields and evaluation shared by the independent V and I sources."""

    dc: float = 0.0
    ac: complex = 0.0
    waveform: Callable[[float], float] | None = None
    spectrum: Callable[[np.ndarray], ArrayLike] | None = None

    def value_at_time(self, t: float) -> float:
        """Transient value."""
        if self.waveform is not None:
            return self.waveform(t)
        return self.dc

    def phasors(self, freqs: np.ndarray) -> np.ndarray:
        """Frequency-domain values over a grid, complex with ``freqs``'s shape.

        ``spectrum`` (when set) is called once, with the whole grid.

        Raises:
            ValueError: if the spectrum's result does not broadcast to the
                grid's shape.
        """
        grid = np.asarray(freqs, dtype=float)
        if self.spectrum is None:
            return np.full(grid.shape, complex(self.ac))
        values = np.asarray(self.spectrum(grid), dtype=complex)
        try:
            return np.broadcast_to(values, grid.shape)
        except ValueError as exc:
            raise ValueError(
                f"{self.name}: spectrum returned shape {values.shape}, "
                f"which does not broadcast to the grid shape {grid.shape}"
            ) from exc


@dataclass
class VoltageSource(_IndependentSource):
    """Independent voltage source.

    Attributes:
        dc: operating-point / transient offset value [V].
        ac: phasor magnitude for AC sweeps [V].
        waveform: optional ``f(t) -> volts`` for transient analysis.
        spectrum: optional ``f(freqs) -> complex volts`` for frequency-domain
            EMI runs (overrides ``ac``).  It takes the whole frequency grid
            as a float array, once per sweep, and returns an array-like that
            broadcasts to the grid's shape (a constant is fine); it is never
            called one frequency at a time.
    """


@dataclass
class CurrentSource(_IndependentSource):
    """Independent current source (positive current flows n1 -> n2 inside).

    Attributes as :class:`VoltageSource`, in amperes; ``spectrum`` follows
    the same grid-in, array-out contract.
    """


@dataclass
class Switch(CircuitElement):
    """Time-controlled ideal switch with on/off resistances.

    ``control(t)`` returns True when the switch is closed.  In AC analysis
    the switch presents ``r_on`` if ``ac_closed`` else ``r_off`` — the EMI
    frequency-domain model replaces the switching action by an equivalent
    noise source, so the static state is all that is needed there.
    """

    r_on: float = 1e-3
    r_off: float = 1e9
    control: Callable[[float], bool] = dataclass_field(default=lambda t: True)
    ac_closed: bool = True

    def resistance_at(self, t: float) -> float:
        """Transient resistance."""
        return self.r_on if self.control(t) else self.r_off

    def ac_resistance(self) -> float:
        """Small-signal resistance used in AC sweeps."""
        return self.r_on if self.ac_closed else self.r_off


@dataclass
class IdealDiode(CircuitElement):
    """Behavioural diode: ``r_on`` + ``vf`` when conducting, ``r_off`` blocking.

    State is resolved iteratively inside each transient step.  ``n1`` is the
    anode.  For AC analysis the diode presents ``ac_state`` ("on"/"off").
    """

    vf: float = 0.5
    r_on: float = 10e-3
    r_off: float = 1e9
    ac_state: str = "off"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.ac_state not in ("on", "off"):
            raise ValueError(f"{self.name}: ac_state must be 'on' or 'off'")
