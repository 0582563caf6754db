"""Component-model analyzer: library parts must be physically coherent.

A component couples three models — footprint (placer), current path
(field engine) and parasitics (circuit) — and the flow silently trusts
that they agree.  These checks catch the model bugs that otherwise show
up as absurd PEMD rules or diverging solves: negative ESR, degenerate
loops, non-unit magnetic axes and current paths that wander far outside
the part's body.
"""

from __future__ import annotations

import math

import numpy as np

from ..components import Component
from ..peec import AIR_CORE
from ..placement import PlacementProblem
from .diagnostics import Diagnostic
from .limits import DEGENERATE_MOMENT, ESL_SUSPICIOUS_MAX, PATH_EXTENT_FACTOR
from .registry import finding

__all__ = ["check_components", "check_component_model"]


def check_components(problem: PlacementProblem) -> list[Diagnostic]:
    """CMP0xx rules over every distinct part model in a problem.

    Parts are deduplicated by identity, so a library part instantiated for
    many refdes is checked once; the diagnostic names every refdes using
    it.
    """
    by_model: dict[int, tuple[Component, list[str]]] = {}
    for refdes, placed in sorted(problem.components.items()):
        entry = by_model.setdefault(id(placed.component), (placed.component, []))
        entry[1].append(refdes)
    out: list[Diagnostic] = []
    for component, refdes_list in by_model.values():
        label = ",".join(refdes_list)
        out.extend(check_component_model(component, label))
    return out


def check_component_model(component: Component, label: str = "") -> list[Diagnostic]:
    """CMP0xx rules for one component model.

    Args:
        component: the part under check.
        label: refdes (or list) used in the object path; defaults to the
            part number.
    """
    out: list[Diagnostic] = []
    name = label or component.part_number
    obj = f"component:{name}"

    esr = component.esr
    if esr < 0.0:
        out.append(
            finding(
                "CMP001",
                f"{component.part_number}: ESR is negative ({esr:g} ohm)",
                obj=obj,
                hint="a negative series resistance is an active element",
            )
        )

    try:
        path = component.current_path
    except (NotImplementedError, ValueError):
        # Parts without a field model contribute nothing to couplings;
        # the remaining checks do not apply.
        return out

    esl = component.esl
    if esl <= 0.0 or esl > ESL_SUSPICIOUS_MAX:
        out.append(
            finding(
                "CMP002",
                f"{component.part_number}: ESL {esl:.3e} H is outside the "
                f"plausible range (0, {ESL_SUSPICIOUS_MAX:g}] H",
                obj=obj,
                hint="check the current-path geometry and core permeability",
            )
        )

    moment = component.magnetic_moment_local.norm()
    if component.core is not AIR_CORE and moment < DEGENERATE_MOMENT:
        out.append(
            finding(
                "CMP003",
                f"{component.part_number}: cored part with a degenerate "
                f"current loop (moment {moment:.2e} m^2 per ampere)",
                obj=obj,
                hint="the field model generates no stray field — fix the loop",
            )
        )

    try:
        axis = component.magnetic_axis_local()
    except ZeroDivisionError:
        # Degenerate loops have no defined axis; CMP003 covers them.
        axis = None
    if axis is not None and abs(axis.norm() - 1.0) > 1e-6:
        out.append(
            finding(
                "CMP004",
                f"{component.part_number}: magnetic axis has length "
                f"{axis.norm():.6f} (must be a unit vector)",
                obj=obj,
                hint="normalise the axis returned by the field model",
            )
        )

    ends = np.concatenate([path.packed.starts, path.packed.ends])
    reach = max(map(math.hypot, ends[:, 0].tolist(), ends[:, 1].tolist()))
    allowed = PATH_EXTENT_FACTOR * (component.max_extent() / 2.0)
    if reach > allowed:
        out.append(
            finding(
                "CMP005",
                f"{component.part_number}: current path reaches "
                f"{reach * 1e3:.1f} mm from the origin, footprint radius is "
                f"{component.max_extent() / 2.0 * 1e3:.1f} mm",
                obj=obj,
                hint="field and placement geometry disagree; shrink the path "
                "or grow the footprint",
            )
        )
    return out
