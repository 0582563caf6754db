"""The :class:`Circuit` container — element bookkeeping and netlist helpers.

A circuit is a flat collection of primitive elements plus the mutual
couplings between its inductors.  Convenience builders add real passive
components *with their parasitics expanded* (a capacitor becomes C–ESR–ESL
in series, through internal nodes), which is exactly the modelling step the
paper calls "circuit simulation of the device including … parasitic
properties like ESL of capacitors or inductances of lines".
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace

from .elements import (
    GROUND_NAMES,
    Capacitor,
    CircuitElement,
    CurrentSource,
    IdealDiode,
    Inductor,
    MutualCoupling,
    Resistor,
    Switch,
    VoltageSource,
)

__all__ = ["Circuit"]

#: Elements that conduct at DC; capacitors and current sources are open.
_DC_CONDUCTIVE = (Resistor, Inductor, Switch, IdealDiode, VoltageSource)


@dataclass
class Circuit:
    """A netlist of primitive elements with named nodes.

    Attributes:
        title: free-text description.
        elements: two-terminal elements in insertion order.
        couplings: mutual couplings between inductors (by inductor name).
    """

    title: str = ""
    elements: list[CircuitElement] = field(default_factory=list)
    couplings: list[MutualCoupling] = field(default_factory=list)

    # -- primitive adders -------------------------------------------------

    def add(self, element: CircuitElement) -> CircuitElement:
        """Insert a primitive element.

        Raises:
            ValueError: on duplicate element names (they address couplings
                and probes, so they must be unique).
        """
        if any(e.name == element.name for e in self.elements):
            raise ValueError(f"duplicate element name {element.name!r}")
        self.elements.append(element)
        return element

    def add_resistor(self, name: str, n1: str, n2: str, resistance: float) -> Resistor:
        """Add a resistor."""
        r = Resistor(name, n1, n2, resistance)
        self.add(r)
        return r

    def add_capacitor(self, name: str, n1: str, n2: str, capacitance: float) -> Capacitor:
        """Add an ideal capacitor."""
        c = Capacitor(name, n1, n2, capacitance)
        self.add(c)
        return c

    def add_inductor(self, name: str, n1: str, n2: str, inductance: float) -> Inductor:
        """Add an inductor."""
        ind = Inductor(name, n1, n2, inductance)
        self.add(ind)
        return ind

    def add_vsource(self, name: str, n1: str, n2: str, **kwargs) -> VoltageSource:
        """Add an independent voltage source (kwargs per VoltageSource)."""
        v = VoltageSource(name, n1, n2, **kwargs)
        self.add(v)
        return v

    def add_isource(self, name: str, n1: str, n2: str, **kwargs) -> CurrentSource:
        """Add an independent current source."""
        i = CurrentSource(name, n1, n2, **kwargs)
        self.add(i)
        return i

    def add_switch(self, name: str, n1: str, n2: str, **kwargs) -> Switch:
        """Add a time-controlled switch."""
        s = Switch(name, n1, n2, **kwargs)
        self.add(s)
        return s

    def add_diode(self, name: str, anode: str, cathode: str, **kwargs) -> IdealDiode:
        """Add a behavioural diode."""
        d = IdealDiode(name, anode, cathode, **kwargs)
        self.add(d)
        return d

    def add_coupling(self, name: str, inductor_a: str, inductor_b: str, k: float) -> MutualCoupling:
        """Couple two inductors magnetically with factor ``k``.

        Raises:
            KeyError: if either inductor does not exist (couplings must
                always reference real branches).
        """
        names = {e.name for e in self.elements if isinstance(e, Inductor)}
        for ind in (inductor_a, inductor_b):
            if ind not in names:
                raise KeyError(f"coupling {name!r}: no inductor {ind!r} in circuit")
        if any(c.name == name for c in self.couplings):
            raise ValueError(f"duplicate coupling name {name!r}")
        coupling = MutualCoupling(name, inductor_a, inductor_b, k)
        self.couplings.append(coupling)
        return coupling

    def set_coupling(self, inductor_a: str, inductor_b: str, k: float) -> None:
        """Create or update the coupling between two inductors.

        The converters apply extracted couplings through it, free of
        coupling-name bookkeeping.

        Raises:
            ValueError: if ``|k| > 1``, for an update as for a new coupling.
        """
        for i, c in enumerate(self.couplings):
            if {c.inductor_a, c.inductor_b} == {inductor_a, inductor_b}:
                self.couplings[i] = replace(c, k=k)
                return
        self.add_coupling(f"K_{inductor_a}_{inductor_b}", inductor_a, inductor_b, k)

    def remove_coupling(self, inductor_a: str, inductor_b: str) -> bool:
        """Delete a coupling if present; returns True when one was removed."""
        for i, c in enumerate(self.couplings):
            if {c.inductor_a, c.inductor_b} == {inductor_a, inductor_b}:
                del self.couplings[i]
                return True
        return False

    # -- component-level builders ------------------------------------------

    def add_real_capacitor(
        self,
        name: str,
        n1: str,
        n2: str,
        capacitance: float,
        esr: float = 0.0,
        esl: float = 0.0,
    ) -> Inductor | None:
        """Add a capacitor with series parasitics, expanding internal nodes.

        Topology: ``n1 --C-- name#a --ESR-- name#b --ESL-- n2`` (parasitic
        stages are skipped when zero).  Returns the ESL inductor so callers
        can attach magnetic couplings to it, or None if ``esl == 0``.
        """
        if esr < 0.0 or esl < 0.0:
            raise ValueError(f"{name}: parasitics must be non-negative")
        node = n1
        next_nodes = []
        stages = 1 + (1 if esr > 0.0 else 0) + (1 if esl > 0.0 else 0)
        for i in range(stages - 1):
            next_nodes.append(f"{name}#{i}")
        next_nodes.append(n2)
        self.add_capacitor(f"{name}.C", node, next_nodes[0], capacitance)
        node = next_nodes[0]
        idx = 1
        if esr > 0.0:
            self.add_resistor(f"{name}.ESR", node, next_nodes[idx], esr)
            node = next_nodes[idx]
            idx += 1
        esl_inductor = None
        if esl > 0.0:
            esl_inductor = self.add_inductor(f"{name}.ESL", node, next_nodes[idx], esl)
        return esl_inductor

    def add_real_inductor(
        self, name: str, n1: str, n2: str, inductance: float, esr: float = 0.0, epc: float = 0.0
    ) -> Inductor:
        """Add an inductor with winding resistance and parallel capacitance.

        Topology: series ``L``+``ESR`` with ``EPC`` bridging the terminals
        (the classic first-order choke model).  Returns the main inductor.
        """
        if esr < 0.0 or epc < 0.0:
            raise ValueError(f"{name}: parasitics must be non-negative")
        if esr > 0.0:
            mid = f"{name}#m"
            main = self.add_inductor(f"{name}.L", n1, mid, inductance)
            self.add_resistor(f"{name}.ESR", mid, n2, esr)
        else:
            main = self.add_inductor(f"{name}.L", n1, n2, inductance)
        if epc > 0.0:
            self.add_capacitor(f"{name}.EPC", n1, n2, epc)
        return main

    def add_trace(self, name: str, n1: str, n2: str, inductance: float, resistance: float = 1e-3) -> Inductor:
        """Add a board trace as series L+R; returns the inductor branch."""
        mid = f"{name}#m"
        ind = self.add_inductor(f"{name}.L", n1, mid, inductance)
        self.add_resistor(f"{name}.R", mid, n2, resistance)
        return ind

    # -- queries ------------------------------------------------------------

    def node_names(self) -> list[str]:
        """All non-ground nodes in first-appearance order."""
        seen: dict[str, None] = {}
        for e in self.elements:
            for n in e.nodes():
                if n not in GROUND_NAMES and n not in seen:
                    seen[n] = None
        return list(seen)

    def floating_nodes(self) -> list[str]:
        """Nodes with no DC path to ground, in first-appearance order.

        Walks the graph of DC-conductive elements from ground, with every
        name in ``GROUND_NAMES`` folded into the one reference node.  A
        floating node makes the MNA matrix singular.
        """

        def canon(n: str) -> str:
            return "0" if n in GROUND_NAMES else n

        adjacency: dict[str, set[str]] = defaultdict(set)
        for e in self.elements:
            if isinstance(e, _DC_CONDUCTIVE):
                a, b = canon(e.n1), canon(e.n2)
                adjacency[a].add(b)
                adjacency[b].add(a)

        reached = {"0"}
        stack = ["0"]
        while stack:
            for neighbour in adjacency[stack.pop()]:
                if neighbour not in reached:
                    reached.add(neighbour)
                    stack.append(neighbour)
        return [n for n in self.node_names() if n not in reached]

    def inductors(self) -> list[Inductor]:
        """All inductor branches in insertion order."""
        return [e for e in self.elements if isinstance(e, Inductor)]

    def find(self, name: str) -> CircuitElement:
        """Look up an element by exact name.

        Raises:
            KeyError: when absent.
        """
        for e in self.elements:
            if e.name == name:
                return e
        raise KeyError(f"no element named {name!r}")

    def coupling_value(self, inductor_a: str, inductor_b: str) -> float:
        """Current k between two inductors (0.0 when uncoupled)."""
        for c in self.couplings:
            if {c.inductor_a, c.inductor_b} == {inductor_a, inductor_b}:
                return c.k
        return 0.0

    def clone(self) -> "Circuit":
        """Deep copy (elements are small dataclasses; callables are shared)."""
        import copy

        return copy.deepcopy(self)

    def stats(self) -> dict[str, int]:
        """Element counts by class name, for reports."""
        out: dict[str, int] = {}
        for e in self.elements:
            out[type(e).__name__] = out.get(type(e).__name__, 0) + 1
        out["MutualCoupling"] = len(self.couplings)
        out["nodes"] = len(self.node_names())
        return out
