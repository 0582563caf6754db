"""Netlist analyzer: connectivity and element-value sanity of a circuit.

All checks are purely structural — no MNA system is assembled and nothing
is solved.  NET001 reads the solver's own DC-connectivity walk,
:meth:`Circuit.floating_nodes`, so a node flagged as floating is exactly
one that makes the MNA matrix singular.
"""

from __future__ import annotations

from collections import defaultdict

from ..circuit import Circuit
from ..circuit.elements import GROUND_NAMES, Capacitor, Inductor, Resistor, VoltageSource
from ..placement import PlacementProblem
from .diagnostics import Diagnostic
from .limits import ELEMENT_VALUE_RANGES
from .registry import finding

__all__ = ["check_netlist", "check_problem_nets"]


def _canon(node: str) -> str:
    return "0" if node in GROUND_NAMES else node


def check_netlist(circuit: Circuit) -> list[Diagnostic]:
    """Run all NET0xx rules over a circuit.

    Returns the findings in rule-code order (stable for golden tests).
    """
    out: list[Diagnostic] = []
    out.extend(_floating_nodes(circuit))
    out.extend(_dangling_nodes(circuit))
    out.extend(_shorted_sources(circuit))
    out.extend(_ground_reference(circuit))
    out.extend(_value_magnitudes(circuit))
    return out


# -- NET001: floating nodes ------------------------------------------------


def _floating_nodes(circuit: Circuit) -> list[Diagnostic]:
    return [
        finding(
            "NET001",
            f"node {node!r} has no conductive path to ground",
            obj=f"circuit/node:{node}",
            hint="add a DC return (resistor, inductor or source) or remove the node",
        )
        for node in circuit.floating_nodes()
    ]


# -- NET002: dangling connections ------------------------------------------


def _dangling_nodes(circuit: Circuit) -> list[Diagnostic]:
    degree: dict[str, int] = defaultdict(int)
    for element in circuit.elements:
        for node in element.nodes():
            degree[_canon(node)] += 1
    return [
        finding(
            "NET002",
            f"node {node!r} is touched by only one element terminal",
            obj=f"circuit/node:{node}",
            hint="connect the node to the rest of the circuit or drop the element",
        )
        for node, count in degree.items()
        if node != "0" and count == 1
    ]


# -- NET003: shorted / contradictory sources -------------------------------


def _shorted_sources(circuit: Circuit) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    pairs: dict[tuple[str, str], list[str]] = defaultdict(list)
    for element in circuit.elements:
        if not isinstance(element, VoltageSource):
            continue
        a, b = _canon(element.n1), _canon(element.n2)
        if a == b:
            out.append(
                finding(
                    "NET003",
                    f"voltage source {element.name!r} has both terminals on "
                    f"the reference node",
                    obj=f"circuit/source:{element.name}",
                    hint="a source across ground aliases ('0' vs 'GND') is shorted",
                )
            )
            continue
        pairs[(min(a, b), max(a, b))].append(element.name)
    for (a, b), names in pairs.items():
        if len(names) > 1:
            out.append(
                finding(
                    "NET003",
                    f"voltage sources {', '.join(sorted(names))} are in "
                    f"parallel across nodes {a!r}-{b!r}",
                    obj=f"circuit/source:{sorted(names)[0]}",
                    hint="merge the sources or separate them with an impedance",
                )
            )
    return out


# -- NET004: ground reference ----------------------------------------------


def _ground_reference(circuit: Circuit) -> list[Diagnostic]:
    if not circuit.elements:
        return []
    for element in circuit.elements:
        if any(node in GROUND_NAMES for node in element.nodes()):
            return []
    return [
        finding(
            "NET004",
            "no element touches the reference node ('0'/'GND')",
            obj="circuit",
            hint="every MNA circuit needs at least one grounded terminal",
        )
    ]


# -- NET005: unit-suspicious magnitudes ------------------------------------


def _value_magnitudes(circuit: Circuit) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for element in circuit.elements:
        if isinstance(element, Resistor):
            value, unit = element.resistance, "ohm"
        elif isinstance(element, Inductor):
            value, unit = element.inductance, "H"
        elif isinstance(element, Capacitor):
            value, unit = element.capacitance, "F"
        else:
            continue
        lo, hi = ELEMENT_VALUE_RANGES[unit]
        if not lo <= value <= hi:
            out.append(
                finding(
                    "NET005",
                    f"{element.name}: {value:g} {unit} is outside the "
                    f"plausible board-level range [{lo:g}, {hi:g}] {unit}",
                    obj=f"circuit/element:{element.name}",
                    hint="check the unit (F vs uF, H vs nH) of the value",
                )
            )
    return out


# -- board-file nets (the ASCII interface has no circuit elements) ---------


def check_problem_nets(problem: PlacementProblem) -> list[Diagnostic]:
    """NET0xx rules that apply to the board file's NET records.

    A net with fewer than two pins connects nothing — the board-file
    analogue of a floating/dangling circuit node.
    """
    out: list[Diagnostic] = []
    for net in problem.nets:
        if len(net.pins) < 2:
            pin = f"{net.pins[0][0]}.{net.pins[0][1]}" if net.pins else "(none)"
            out.append(
                finding(
                    "NET002",
                    f"net {net.name!r} has {len(net.pins)} pin(s) ({pin}) — "
                    f"it connects nothing",
                    obj=f"problem/net:{net.name}",
                    hint="add the missing pin(s) or delete the net",
                )
            )
    return out
