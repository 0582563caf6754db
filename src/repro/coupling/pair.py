"""Coupling factor between two *placed* components.

This is the field-simulation step of the paper's flow: take two component
models (their simplified current paths), put them at their board positions
and orientations, and compute the magnetic coupling factor — optionally in
the presence of a solid ground plane (image method) and with the effective-
permeability correction for cored parts.  Many pairs are solved as one
array batch (:func:`component_couplings`); :func:`component_coupling` is
its single-pair view.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby

from ..components import Component
from ..geometry import Placement2D
from ..peec import PAIR_ORDER, PackedFilaments, mutual_inductance_row, stray_coupling_scale
from ..units import Dimensionless, Henries, Meters

__all__ = [
    "CouplingResult",
    "PlacedPair",
    "component_coupling",
    "component_couplings",
    "pair_coupling_factor",
]


@dataclass(frozen=True)
class CouplingResult:
    """Outcome of one field simulation of a component pair."""

    k: Dimensionless
    mutual_h: Henries
    self_a_h: Henries
    self_b_h: Henries
    shielded: bool

    @property
    def k_abs(self) -> Dimensionless:
        """Unsigned coupling factor (what distance rules compare against)."""
        return abs(self.k)


#: One placed pair: ``(comp_a, placement_a, comp_b, placement_b)``.
PlacedPair = tuple[Component, Placement2D, Component, Placement2D]


@dataclass(frozen=True)
class _PlacedPart:
    """One (component, placement) of a batch, placed once.

    Attributes:
        component: the part.
        filaments: its current path in board coordinates.
        source: what it radiates into a victim — the filaments, plus their
            ground-plane images when there is a plane.
        self_geo_h: air-core self-inductance [H], including the own-image
            mutual when there is a plane.
    """

    component: Component
    filaments: PackedFilaments
    source: PackedFilaments
    self_geo_h: Henries


def _place(
    component: Component, placement: Placement2D, ground_plane_z: Meters | None
) -> _PlacedPart:
    """Place one part of a batch (one array op) and fix its self-inductance."""
    filaments = component.current_path.packed.placed(placement)
    self_geo = component.geometric_inductance
    if ground_plane_z is None:
        return _PlacedPart(component, filaments, filaments, self_geo)
    # Image method: a victim sees the source's real + image currents; the
    # self-inductance picks up the (negative) own-image mutual.
    image = filaments.image(ground_plane_z)
    self_geo = self_geo + mutual_inductance_row(image, [filaments], PAIR_ORDER)[0]
    return _PlacedPart(
        component,
        filaments,
        PackedFilaments.concatenated([filaments, image]),
        max(self_geo, 1e-12),
    )


def component_couplings(
    pairs: Sequence[PlacedPair],
    ground_plane_z: Meters | None = None,
) -> list[CouplingResult]:
    """Full PEEC coupling computation for many placed pairs as one batch.

    Each distinct (component, placement) object pair is placed once, as
    one array op, with its self-inductance (and, over a plane, its
    own-image term) computed once.  The mutuals are then evaluated one
    source part at a time: one kernel call of the source against every
    part it is paired with
    (:func:`repro.peec.mutual_inductance_row`) at
    :data:`repro.peec.PAIR_ORDER`.  Every result is bit-identical to
    solving its pair alone.

    The effective-permeability correction follows the paper's recipe: the
    air-core mutual is scaled by ``sqrt(mu_eff_a * stray_a * mu_eff_b *
    stray_b)`` and each self-inductance by its ``mu_eff`` — neglecting field
    redirection by the cores (the documented ~15 % error source).

    Args:
        pairs: ``(comp_a, placement_a, comp_b, placement_b)`` per request
            (local-frame field models; positions [m], rotations [rad]).
        ground_plane_z: if set, a solid plane at this height shields the
            coupling via image currents.

    Returns:
        One result per pair, in order.  ``k`` is the raw solver value: it
        is *not* clamped to [-1, 1] (the coupling database validates it,
        rule CPL001).
    """
    # Keyed by object identity: equal-valued placements would share an
    # entry only if they agreed bit for bit, signed zeros included.
    slots: dict[tuple[int, int], int] = {}
    parts: list[_PlacedPart] = []

    def slot(component: Component, placement: Placement2D) -> int:
        key = (id(component), id(placement))
        index = slots.get(key)
        if index is None:
            index = slots[key] = len(parts)
            parts.append(_place(component, placement, ground_plane_z))
        return index

    ends = [(slot(comp_a, pl_a), slot(comp_b, pl_b)) for comp_a, pl_a, comp_b, pl_b in pairs]
    m_air = [0.0] * len(pairs)
    by_source = sorted(range(len(pairs)), key=lambda i: ends[i][0])
    for a, row in groupby(by_source, key=lambda i: ends[i][0]):
        members = list(row)
        targets = [parts[ends[i][1]].filaments for i in members]
        mutuals = mutual_inductance_row(parts[a].source, targets, PAIR_ORDER)
        for i, m in zip(members, mutuals, strict=True):
            m_air[i] = m
    shielded = ground_plane_z is not None
    return [
        _result(parts[a], parts[b], m, shielded) for (a, b), m in zip(ends, m_air, strict=True)
    ]


def _result(
    part_a: _PlacedPart, part_b: _PlacedPart, m_air: Henries, shielded: bool
) -> CouplingResult:
    """The coupling of two placed parts from their air-core mutual."""
    comp_a, comp_b = part_a.component, part_b.component
    mu_a, mu_b = comp_a.mu_eff, comp_b.mu_eff
    m = m_air * stray_coupling_scale(
        mu_a, comp_a.core.stray_fraction, mu_b, comp_b.core.stray_fraction
    )
    la = part_a.self_geo_h * mu_a
    lb = part_b.self_geo_h * mu_b
    return CouplingResult(
        k=m / math.sqrt(la * lb), mutual_h=m, self_a_h=la, self_b_h=lb, shielded=shielded
    )


def component_coupling(
    comp_a: Component,
    placement_a: Placement2D,
    comp_b: Component,
    placement_b: Placement2D,
    ground_plane_z: Meters | None = None,
) -> CouplingResult:
    """Full PEEC coupling computation for one placed pair.

    The single-pair view of :func:`component_couplings` (same arguments,
    same raw, unclamped ``k``).
    """
    return component_couplings([(comp_a, placement_a, comp_b, placement_b)], ground_plane_z)[0]


def pair_coupling_factor(
    comp_a: Component,
    placement_a: Placement2D,
    comp_b: Component,
    placement_b: Placement2D,
    ground_plane_z: Meters | None = None,
) -> Dimensionless:
    """Shorthand returning just the signed k."""
    return component_coupling(
        comp_a, placement_a, comp_b, placement_b, ground_plane_z
    ).k
