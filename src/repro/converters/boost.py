"""A boost converter demonstrator — the flow generalises beyond the paper.

The paper evaluates one topology (a buck).  The methodology claims to be
general; this second demonstrator substantiates that: same part library,
same EMI model structure, same placement hooks — but a boost power stage,
whose *continuous input current* (the inductor sits at the input) makes
its differential-mode signature characteristically quieter at the LISN
than the buck's chopped input current.  The topology comparison bench
measures exactly that.

Substitution model: the switch leg (Q1 to ground) draws the chopped
inductor current — a trapezoidal current source at the switch node; the
diode side sees the switched output voltage — a trapezoidal voltage source
at the output cell.  The input-side noise reaching the LISN is the *ripple
portion* of the inductor current, which the model produces naturally: the
harmonic current divides between L1 (to the source) and the switch leg.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..circuit import Circuit, TrapezoidSource, trapezoid_breakpoints
from ..components import (
    BobbinChoke,
    CeramicCapacitor,
    Component,
    Connector,
    ControllerIC,
    ElectrolyticCapacitor,
    FilmCapacitorX2,
    PowerDiode,
    PowerMosfet,
)
from ..emi import Spectrum, add_lisn
from ..geometry import Polygon2D
from ..placement import Board, PlacedComponent, PlacementProblem
from .network import add_input_filter, add_part_capacitor, apply_couplings, conducted_harmonics

__all__ = ["BoostConverterDesign", "BOOST_COUPLING_BRANCHES"]

#: Circuit inductor branch -> refdes (the boost's coupling surface).
BOOST_COUPLING_BRANCHES: dict[str, str] = {
    "CX1.ESL": "CX1",
    "LF1.L": "LF1",
    "CX2.ESL": "CX2",
    "L1.L": "L1",
    "LHOT": "Q1",
    "COUT.ESL": "COUT",
    "CO2.ESL": "CO2",
}


@dataclass
class BoostConverterDesign:
    """Parameterised boost converter (12 V automotive to 24 V rail).

    Mirrors :class:`BuckConverterDesign`'s API surface so the flow, the
    benches and the layout bridges work unchanged.

    Attributes:
        input_voltage: supply rail [V].
        output_voltage: boosted output [V] (must exceed the input).
        output_current: DC load current [A].
        switching_frequency: converter fundamental [Hz].
        t_rise, t_fall: switch-node edge times [s].
        coupling_branches: the circuit's coupling surface,
            :data:`BOOST_COUPLING_BRANCHES`.
    """

    input_voltage: float = 12.0
    output_voltage: float = 24.0
    output_current: float = 1.0
    switching_frequency: float = 250e3
    t_rise: float = 30e-9
    t_fall: float = 30e-9
    board_width: float = 70e-3
    board_height: float = 50e-3
    hot_loop_esl: float = 12e-9
    coupling_branches: ClassVar[dict[str, str]] = BOOST_COUPLING_BRANCHES
    _parts: dict[str, Component] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.input_voltage < self.output_voltage:
            raise ValueError("need Vout > Vin > 0 for a boost converter")
        if self.switching_frequency <= 0.0:
            raise ValueError("switching frequency must be positive")
        if self.output_current <= 0.0:
            raise ValueError("output current must be positive (RLOAD = Vout / Iout)")
        # The edges must fit the period at this duty, as the sources require.
        trapezoid_breakpoints(1.0 / self.switching_frequency, self.duty, self.t_rise, self.t_fall)
        if self.board_width <= 0.0 or self.board_height <= 0.0:
            raise ValueError("board extents must be positive")
        if self.hot_loop_esl <= 0.0:
            raise ValueError("hot-loop ESL must be positive")

    @property
    def duty(self) -> float:
        """Nominal duty cycle D = 1 - Vin/Vout."""
        return 1.0 - self.input_voltage / self.output_voltage

    @property
    def input_current(self) -> float:
        """Average inductor (input) current [A], ideal efficiency."""
        return self.output_current * self.output_voltage / self.input_voltage

    def parts(self) -> dict[str, Component]:
        """refdes -> component for the whole converter (cached)."""
        if not self._parts:
            self._parts = {
                "CONN1": Connector(part_number="CONN-IN"),
                "CX1": FilmCapacitorX2(part_number="CX1-X2"),
                "LF1": BobbinChoke(part_number="LF1-CHOKE", orientation="horizontal"),
                "CX2": FilmCapacitorX2(part_number="CX2-X2"),
                "L1": BobbinChoke(
                    part_number="L1-BOOST",
                    footprint_w=16e-3,
                    footprint_h=14e-3,
                    body_height=14e-3,
                    turns=26,
                    coil_radius=5e-3,
                    coil_length=10e-3,
                    n_rings=6,
                    orientation="horizontal",
                    # Catalogue value sized for ~20 % input ripple at 2 A;
                    # the geometric model above still drives the couplings.
                    rated_inductance=68e-6,
                ),
                "Q1": PowerMosfet(part_number="Q1-DPAK"),
                "D1": PowerDiode(part_number="D1-SMC"),
                "COUT": ElectrolyticCapacitor(part_number="COUT-ELKO"),
                "CO2": CeramicCapacitor(part_number="CO2-MLCC"),
                "CTRL": ControllerIC(part_number="CTRL-SO8"),
                "CONN2": Connector(part_number="CONN-OUT"),
            }
        return self._parts

    def placement_problem(self) -> PlacementProblem:
        """A fresh placement problem: board, components, nets, groups."""
        board = Board(
            0, Polygon2D.rectangle(0.0, 0.0, self.board_width, self.board_height)
        )
        problem = PlacementProblem([board])
        for refdes, comp in self.parts().items():
            problem.add_component(PlacedComponent(refdes, comp))
        problem.add_net("VIN", [("CONN1", "1"), ("CX1", "1"), ("LF1", "1")])
        problem.add_net("VBUS", [("LF1", "2"), ("CX2", "1"), ("L1", "1")])
        problem.add_net("SW", [("L1", "2"), ("Q1", "D"), ("D1", "A")])
        problem.add_net(
            "VOUT", [("D1", "K"), ("COUT", "1"), ("CO2", "1"), ("CONN2", "1")]
        )
        problem.add_net("GATE", [("CTRL", "3"), ("Q1", "G")])
        problem.add_net(
            "GND",
            [
                ("CONN1", "2"),
                ("CX1", "2"),
                ("CX2", "2"),
                ("Q1", "S"),
                ("COUT", "2"),
                ("CO2", "2"),
                ("CONN2", "2"),
            ],
        )
        problem.define_group("input_filter", ["CX1", "LF1", "CX2"])
        problem.define_group("power_stage", ["L1", "Q1", "D1", "CTRL"])
        problem.define_group("output", ["COUT", "CO2"])
        return problem

    def emi_circuit(
        self, couplings: dict[tuple[str, str], float] | None = None
    ) -> tuple[Circuit, str]:
        """The frequency-domain EMI model; returns (circuit, measure node).

        Substitution model: the switch leg chops the inductor current
        (trapezoidal current source to ground at the switch node); the
        rectified output cell is driven by the switched node voltage.
        """
        parts = self.parts()
        c = Circuit(title="boost converter EMI model")
        c.add_vsource("VSUP", "supply", "0", dc=self.input_voltage, ac=0.0)
        add_lisn(c, "LISN", "supply", "vin")
        add_input_filter(c, parts, "0", {})

        # The boost inductor carries the input current continuously; only
        # its ripple (and the chopped current beyond it) excites the line.
        l1 = parts["L1"]
        c.add_real_inductor("L1", "vbus", "sw", l1.inductance, esr=l1.esr, epc=8e-12)

        i_noise, v_noise = self.sources()
        c.add_inductor("LHOT", "sw", "vq", self.hot_loop_esl)
        c.add_isource("INOISE", "vq", "0", spectrum=i_noise.spectrum_callable())

        # The diode connects the switch node to the output cell; replaced
        # by its switched voltage drop (substitution theorem).  Crucially
        # this gives the chopped current a zero-impedance path into COUT,
        # which is what keeps the *input* inductor current continuous —
        # the defining EMI property of the boost topology.
        c.add_vsource("VD", "sw", "vrect", spectrum=v_noise.spectrum_callable())
        add_part_capacitor(c, parts, "COUT", "vrect", "0")
        add_part_capacitor(c, parts, "CO2", "vrect", "0")
        c.add_resistor("RLOAD", "vrect", "0", self.output_voltage / self.output_current)

        if couplings:
            apply_couplings(c, couplings, self.coupling_branches)
        return c, "LISN.meas"

    def sources(self) -> tuple[TrapezoidSource, TrapezoidSource]:
        """(switch-leg current source, diode voltage source)."""
        f0, tr, tf = self.switching_frequency, self.t_rise, self.t_fall
        current = TrapezoidSource(0.0, self.input_current, f0, self.duty, tr, tf)
        voltage = TrapezoidSource(0.0, self.output_voltage, f0, 1.0 - self.duty, tr, tf)
        return current, voltage

    def harmonic_frequencies(self, f_max: float = 108e6) -> np.ndarray:
        """Switching harmonics inside the CISPR 25 conducted range."""
        return conducted_harmonics(self.sources()[0], f_max)

    def emission_spectrum(
        self,
        couplings: dict[tuple[str, str], float] | None = None,
        f_max: float = 108e6,
    ) -> Spectrum:
        """Conducted-emission line spectrum at the LISN measurement port."""
        from ..circuit import MnaSystem

        circuit, meas = self.emi_circuit(couplings)
        freqs = self.harmonic_frequencies(f_max)
        values = MnaSystem(circuit).ac_sweep(freqs).voltages(meas)
        return Spectrum(freqs, values)
