"""The paper's test object: an automotive buck converter with EMI filters.

Section 5: *"The developed approach is demonstrated by examining and
improving a buck converter, equipped with an input and output EMI filter,
as a typical power device."*  This module builds all three views of it:

* the **part list** (library components with refdes),
* the **placement problem** (board, nets, three functional groups — the
  paper's Fig. 18 setup),
* the **EMI circuit model** — LISN + input filter + switching cell +
  output filter, with every component's ESL as an explicit inductor branch
  so that layout-derived magnetic couplings drop straight in.

The switching cell uses the substitution-theorem EMI model: the MOSFET's
pulsed channel current becomes a trapezoidal current source at the input
port; the switch-node voltage becomes a trapezoidal voltage source at the
output port.  Both waveforms carry exact harmonic phasors from
:class:`repro.circuit.TrapezoidSource`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..circuit import Circuit, TrapezoidSource, trapezoid_breakpoints
from ..components import (
    BobbinChoke,
    ChipResistor,
    Component,
    Connector,
    ControllerIC,
    ElectrolyticCapacitor,
    FilmCapacitorX2,
    PowerDiode,
    PowerMosfet,
    ShuntResistor,
    TantalumCapacitorSMD,
)
from ..emi import Spectrum, add_lisn
from ..geometry import Polygon2D
from ..placement import Board, PlacedComponent, PlacementProblem
from .network import (
    add_input_filter,
    add_part_capacitor,
    apply_couplings,
    conducted_harmonics,
    split_trace,
)

__all__ = ["BuckConverterDesign", "COUPLING_BRANCHES", "CAPACITIVE_NODES"]

#: Hot circuit node of each part — where its body potential couples
#: capacitively into the network (the terminal facing the noisy side).
CAPACITIVE_NODES: dict[str, str] = {
    "CX1": "vin",
    "LF1": "vbus",
    "CX2": "vbus",
    "CIN": "vbus",
    "Q1": "vq",
    "D1": "sw",
    "L1": "sw",
    "COUT": "vout",
    "CO2": "vout",
    "LF2": "vout",
    "CX3": "vload",
}

#: Circuit inductor branch -> refdes of the physical part that owns it.
COUPLING_BRANCHES: dict[str, str] = {
    "CX1.ESL": "CX1",
    "LF1.L": "LF1",
    "CX2.ESL": "CX2",
    "CIN.ESL": "CIN",
    "LHOT": "Q1",
    "L1.L": "L1",
    "COUT.ESL": "COUT",
    "CO2.ESL": "CO2",
    "LF2.L": "LF2",
    "CX3.ESL": "CX3",
}


@dataclass
class BuckConverterDesign:
    """Parameterised buck converter (12 V automotive input, 5 V output).

    Attributes:
        input_voltage: supply rail [V].
        output_voltage: regulated output [V].
        output_current: DC load current [A].
        switching_frequency: converter fundamental [Hz].
        t_rise, t_fall: switch-node edge times [s] — the spectral knobs.
        board_width, board_height: placement area [m].
        hot_loop_esl: lumped inductance of the Q1/D1 commutation loop [H].
        coupling_branches: the circuit's coupling surface,
            :data:`COUPLING_BRANCHES`.
    """

    input_voltage: float = 12.0
    output_voltage: float = 5.0
    output_current: float = 2.5
    switching_frequency: float = 250e3
    t_rise: float = 30e-9
    t_fall: float = 30e-9
    board_width: float = 70e-3
    board_height: float = 50e-3
    hot_loop_esl: float = 12e-9
    coupling_branches: ClassVar[dict[str, str]] = COUPLING_BRANCHES
    _parts: dict[str, Component] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.output_voltage < self.input_voltage:
            raise ValueError("need 0 < Vout < Vin for a buck converter")
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
        """Nominal duty cycle D = Vout / Vin."""
        return self.output_voltage / self.input_voltage

    # -- parts ------------------------------------------------------------

    def parts(self) -> dict[str, Component]:
        """refdes -> component for the whole converter (cached)."""
        if not self._parts:
            self._parts = {
                "CONN1": Connector(part_number="CONN-IN"),
                "CX1": FilmCapacitorX2(part_number="CX1-X2"),
                "LF1": BobbinChoke(
                    part_number="LF1-CHOKE", orientation="horizontal"
                ),
                "CX2": FilmCapacitorX2(part_number="CX2-X2"),
                "CIN": ElectrolyticCapacitor(part_number="CIN-ELKO"),
                "Q1": PowerMosfet(part_number="Q1-DPAK"),
                "D1": PowerDiode(part_number="D1-SMC"),
                "L1": BobbinChoke(
                    part_number="L1-POWER",
                    footprint_w=16e-3,
                    footprint_h=14e-3,
                    body_height=14e-3,
                    turns=24,
                    coil_radius=5e-3,
                    coil_length=10e-3,
                    n_rings=6,
                    orientation="horizontal",
                ),
                "SH1": ShuntResistor(part_number="SH1-2512"),
                "CTRL": ControllerIC(part_number="CTRL-SO8"),
                "R1": ChipResistor(part_number="R1-1206"),
                "COUT": ElectrolyticCapacitor(part_number="COUT-ELKO"),
                "CO2": TantalumCapacitorSMD(part_number="CO2-TANT"),
                "LF2": BobbinChoke(
                    part_number="LF2-CHOKE",
                    footprint_w=10e-3,
                    footprint_h=8e-3,
                    body_height=10e-3,
                    turns=15,
                    coil_radius=3e-3,
                    coil_length=6e-3,
                    n_rings=4,
                    orientation="horizontal",
                ),
                "CX3": FilmCapacitorX2(part_number="CX3-X2"),
                "CONN2": Connector(part_number="CONN-OUT"),
            }
        return self._parts

    # -- placement problem --------------------------------------------------

    def placement_problem(self) -> PlacementProblem:
        """A fresh placement problem: board, components, nets, groups."""
        board = Board(
            0, Polygon2D.rectangle(0.0, 0.0, self.board_width, self.board_height)
        )
        problem = PlacementProblem([board])
        for refdes, comp in self.parts().items():
            problem.add_component(PlacedComponent(refdes, comp))

        problem.add_net("VIN", [("CONN1", "1"), ("CX1", "1"), ("LF1", "1")])
        problem.add_net(
            "VBUS", [("LF1", "2"), ("CX2", "1"), ("CIN", "1"), ("Q1", "D")]
        )
        problem.add_net("SW", [("Q1", "S"), ("D1", "K"), ("L1", "1")])
        problem.add_net(
            "VOUT", [("L1", "2"), ("COUT", "1"), ("CO2", "1"), ("LF2", "1")]
        )
        problem.add_net("VLOAD", [("LF2", "2"), ("CX3", "1"), ("CONN2", "1")])
        problem.add_net("ISNS", [("SH1", "2"), ("CTRL", "1")])
        problem.add_net("FB", [("R1", "1"), ("CTRL", "2")])
        problem.add_net("GATE", [("CTRL", "3"), ("Q1", "G")])
        problem.add_net(
            "GND",
            [
                ("CONN1", "2"),
                ("CX1", "2"),
                ("CX2", "2"),
                ("CIN", "2"),
                ("D1", "A"),
                ("SH1", "1"),
                ("COUT", "2"),
                ("CO2", "2"),
                ("CX3", "2"),
                ("CONN2", "2"),
                ("R1", "2"),
            ],
        )

        problem.define_group("input_filter", ["CX1", "LF1", "CX2"])
        problem.define_group(
            "power_stage", ["CIN", "Q1", "D1", "L1", "SH1", "CTRL", "R1"]
        )
        problem.define_group("output_filter", ["COUT", "CO2", "LF2", "CX3"])
        return problem

    # -- circuit model ---------------------------------------------------------

    def sources(self) -> tuple[TrapezoidSource, TrapezoidSource]:
        """(input-port current source, output-port voltage source)."""
        current = TrapezoidSource(
            v_low=0.0,
            v_high=self.output_current,
            switching_frequency=self.switching_frequency,
            duty=self.duty,
            t_rise=self.t_rise,
            t_fall=self.t_fall,
        )
        voltage = TrapezoidSource(
            v_low=0.0,
            v_high=self.input_voltage,
            switching_frequency=self.switching_frequency,
            duty=self.duty,
            t_rise=self.t_rise,
            t_fall=self.t_fall,
        )
        return current, voltage

    def emi_circuit(
        self,
        couplings: dict[tuple[str, str], float] | None = None,
        trace_inductances: dict[str, float] | None = None,
    ) -> tuple[Circuit, str]:
        """The frequency-domain EMI model; returns (circuit, measure node).

        Args:
            couplings: optional (refdes_a, refdes_b) -> k map from the
                layout's field simulation; branch names are resolved via
                :data:`COUPLING_BRANCHES`.  Pairs without a circuit branch
                are ignored (connectors, controller).
            trace_inductances: optional per-net series trace inductance [H]
                for the power nets ``VIN``, ``VBUS``, ``VOUT``, ``VLOAD``
                (e.g. from :meth:`trace_inductances_from_layout`); omitted
                nets are ideal.  The nets split the standard nodes with
                ``#t`` suffixes, preserving the base node names.
        """
        c = Circuit(title="buck converter EMI model")
        # Ideal supply: DC rail, AC short.
        c.add_vsource("VSUP", "supply", "0", dc=self.input_voltage, ac=0.0)
        add_lisn(c, "LISN", "supply", "vin")
        self.add_power_path(c, "0", trace_inductances or {})
        if couplings:
            apply_couplings(c, couplings, self.coupling_branches)
        return c, "LISN.meas"

    def add_power_path(self, c: Circuit, ret: str, traces: dict[str, float]) -> None:
        """The converter from the LISN node ``vin`` to its load, returned to ``ret``.

        The input pi filter and bulk CIN, the switching cell (LHOT, the
        substitution sources INOISE and VSW) and the output path
        L1-COUT-CO2-LF2-CX3 into RLOAD.  Each power net with a positive
        entry in ``traces`` gets its trace inductance ahead of the net's
        series part (:func:`~repro.converters.network.split_trace`).
        """
        parts = self.parts()
        add_input_filter(c, parts, ret, traces)
        add_part_capacitor(c, parts, "CIN", "vbus", ret)

        # Switching cell (substitution model), fed through the VBUS trace.
        i_noise, v_noise = self.sources()
        c.add_inductor("LHOT", split_trace(c, traces, "VBUS", "vbus"), "vq", self.hot_loop_esl)
        c.add_isource("INOISE", "vq", ret, spectrum=i_noise.spectrum_callable())
        c.add_vsource("VSW", "sw", ret, spectrum=v_noise.spectrum_callable())

        # Output power path and filter.
        l1, lf2 = parts["L1"], parts["LF2"]
        l1_from = split_trace(c, traces, "VOUT", "sw")
        c.add_real_inductor("L1", l1_from, "vout", l1.inductance, esr=l1.esr, epc=8e-12)
        add_part_capacitor(c, parts, "COUT", "vout", ret)
        add_part_capacitor(c, parts, "CO2", "vout", ret)
        lf2_from = split_trace(c, traces, "VLOAD", "vout")
        c.add_real_inductor("LF2", lf2_from, "vload", lf2.inductance, esr=lf2.esr, epc=5e-12)
        add_part_capacitor(c, parts, "CX3", "vload", ret)
        c.add_resistor("RLOAD", "vload", ret, self.output_voltage / self.output_current)

    def trace_inductances_from_layout(self, problem) -> dict[str, float]:
        """Per-net trace inductances of a *placed* problem [H].

        Routes the power nets with the Manhattan router and converts route
        length to partial inductance — the placement-dependent "inductance
        of lines" the paper's section 2 includes in the system simulation.
        """
        from ..routing import ManhattanRouter, route_inductance

        router = ManhattanRouter(problem)
        out: dict[str, float] = {}
        by_name = {net.name: net for net in problem.nets}
        for net_name in ("VIN", "VBUS", "VOUT", "VLOAD"):
            net = by_name.get(net_name)
            if net is None:
                continue
            route = router.route_net(net)
            if not route.is_empty():
                out[net_name] = route_inductance(route)
        return out

    def apply_capacitive_couplings(
        self, circuit: Circuit, capacitances: dict[tuple[str, str], float]
    ) -> int:
        """Insert body-to-body mutual capacitances; returns how many applied.

        Each pair's mutual capacitance bridges the two components' hot
        nodes (:data:`CAPACITIVE_NODES`) — the electric-field bypass that
        "gains more influence at higher frequencies".  Pairs whose hot
        nodes coincide are skipped (a capacitor across one node is inert).
        """
        applied = 0
        for (ref_a, ref_b), value in capacitances.items():
            node_a = CAPACITIVE_NODES.get(ref_a)
            node_b = CAPACITIVE_NODES.get(ref_b)
            if node_a is None or node_b is None or node_a == node_b:
                continue
            if value < 1e-15:
                continue
            circuit.add_capacitor(f"CPAR_{ref_a}_{ref_b}", node_a, node_b, value)
            applied += 1
        return applied

    # -- emission prediction -------------------------------------------------

    def harmonic_frequencies(self, f_max: float = 108e6) -> np.ndarray:
        """Switching harmonics inside the CISPR 25 conducted range."""
        return conducted_harmonics(self.sources()[0], f_max)

    def emission_spectrum(
        self,
        couplings: dict[tuple[str, str], float] | None = None,
        f_max: float = 108e6,
        capacitive: dict[tuple[str, str], float] | None = None,
        trace_inductances: dict[str, float] | None = None,
    ) -> Spectrum:
        """Conducted-emission line spectrum at the LISN measurement port.

        Args:
            couplings: magnetic coupling map from the layout.
            f_max: highest harmonic to evaluate.
            capacitive: optional body-to-body capacitance map (the
                high-frequency extension).
            trace_inductances: optional per-net trace inductances [H].
        """
        from ..circuit import MnaSystem

        circuit, meas = self.emi_circuit(couplings, trace_inductances)
        if capacitive:
            self.apply_capacitive_couplings(circuit, capacitive)
        freqs = self.harmonic_frequencies(f_max)
        values = MnaSystem(circuit).ac_sweep(freqs).voltages(meas)
        return Spectrum(freqs, values)
