"""Circuit pieces the converter EMI models share, each written once.

The buck (single-line and two-LISN) and the boost models are assembled
from the same input pi filter, insert layout couplings through one
branch-map lookup and are evaluated on one harmonic grid, so a change to
a part's ESL/ESR wiring, a choke's winding capacitance or the grid
reaches every model at once.
"""

from __future__ import annotations

import numpy as np

from ..circuit import Circuit, TrapezoidSource
from ..components import Component

__all__ = [
    "add_input_filter",
    "add_part_capacitor",
    "apply_couplings",
    "conducted_harmonics",
    "split_trace",
]


def add_part_capacitor(
    c: Circuit, parts: dict[str, Component], refdes: str, n1: str, n2: str
) -> None:
    """Capacitor part ``refdes`` from ``n1`` to ``n2``: C in series with its ESR and ESL."""
    part = parts[refdes]
    capacitance = part.capacitance  # type: ignore[attr-defined]
    c.add_real_capacitor(refdes, n1, n2, capacitance, esr=part.esr, esl=part.esl)


def split_trace(c: Circuit, traces: dict[str, float], net: str, node: str) -> str:
    """Insert net ``net``'s trace inductance at ``node``; returns the node
    the net's next series part starts from.

    A net without a positive entry in ``traces`` is ideal and ``node``
    comes back.  Otherwise ``LT_<net>`` runs from ``node`` to ``node#t``,
    so the base node names stay put.  A trace in series with a part sits
    ahead of it; the order inside a series chain does not change the
    response.
    """
    value = traces.get(net, 0.0)
    if value <= 0.0:
        return node
    split = f"{node}#t"
    c.add_inductor(f"LT_{net}", node, split, value)
    return split


def add_input_filter(
    c: Circuit, parts: dict[str, Component], ret: str, traces: dict[str, float]
) -> None:
    """The input pi filter CX1-LF1-CX2 from ``vin`` to ``vbus``, returned to ``ret``.

    The ``VIN`` trace of ``traces`` (see :func:`split_trace`) feeds LF1.
    """
    add_part_capacitor(c, parts, "CX1", "vin", ret)
    lf1 = parts["LF1"]
    lf1_from = split_trace(c, traces, "VIN", "vin")
    c.add_real_inductor("LF1", lf1_from, "vbus", lf1.inductance, esr=lf1.esr, epc=5e-12)
    add_part_capacitor(c, parts, "CX2", "vbus", ret)


def apply_couplings(
    circuit: Circuit,
    couplings: dict[tuple[str, str], float],
    branches: dict[str, str],
) -> int:
    """Insert layout couplings into a circuit; returns how many applied.

    Args:
        circuit: the converter model.
        couplings: (refdes_a, refdes_b) -> k from the layout's field
            simulation.  Pairs with a part that owns no branch
            (connectors, controller) and |k| < 1e-9 are skipped; k is
            clipped to +-0.999.
        branches: circuit inductor branch -> refdes of the part that
            owns it (a design's ``coupling_branches``).
    """
    ref_to_branch = {ref: branch for branch, ref in branches.items()}
    applied = 0
    for (ref_a, ref_b), k in couplings.items():
        branch_a = ref_to_branch.get(ref_a)
        branch_b = ref_to_branch.get(ref_b)
        if branch_a is None or branch_b is None or abs(k) < 1e-9:
            continue
        circuit.set_coupling(branch_a, branch_b, float(np.clip(k, -0.999, 0.999)))
        applied += 1
    return applied


def conducted_harmonics(source: TrapezoidSource, f_max: float) -> np.ndarray:
    """The source's switching harmonics inside the CISPR 25 conducted
    range (150 kHz up to ``f_max``)."""
    freqs = source.harmonic_frequencies(f_max)
    return freqs[freqs >= 150e3 * 0.99]
