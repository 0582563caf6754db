"""Bridging a layout to the circuit model: field-simulate the placed pairs.

The paper's flow closes the loop *layout -> field simulation -> circuit
simulation*: after (or during) placement, the coupling factors between the
placed components are computed with the PEEC engine and inserted into the
system circuit, so the predicted spectrum reflects that concrete layout
(Figs. 12-14 and the Fig. 1 vs Fig. 2 comparison).
"""

from __future__ import annotations

from ..coupling import CouplingDatabase
from ..placement import PlacementProblem

__all__ = ["layout_couplings"]


def layout_couplings(
    problem: PlacementProblem,
    refdes_of_interest: list[str] | None = None,
    ground_plane_z: float | None = None,
    k_floor: float = 1e-6,
    database: CouplingDatabase | None = None,
) -> dict[tuple[str, str], float]:
    """All-pairs coupling factors for the placed components of a layout.

    Args:
        problem: the placement problem with placements applied.
        refdes_of_interest: restrict to these components (the sensitivity
            analysis shortlist); None means all placed parts.
        ground_plane_z: shielding plane height [m], if the board has one.
            A shared ``database`` solves at its own
            :attr:`~repro.coupling.CouplingDatabase.ground_plane_z`; a
            different height here is an error.
        k_floor: couplings below this magnitude [-] are dropped (they
            cannot move the spectrum and only bloat the circuit).
        database: optional shared cache.

    Returns:
        (refdes_a, refdes_b) -> signed k, with refdes_a < refdes_b.

    Raises:
        ValueError: when ``ground_plane_z`` is set and differs from the
            shared database's plane.
    """
    db = database or CouplingDatabase(ground_plane_z=ground_plane_z)
    if ground_plane_z is not None and db.ground_plane_z != ground_plane_z:
        raise ValueError(
            f"ground plane at {ground_plane_z} m, but the shared coupling "
            f"database solves at {db.ground_plane_z} m"
        )
    placed = [
        (c.refdes, c.component, c.placement)
        for c in problem.placed()
        if refdes_of_interest is None or c.refdes in refdes_of_interest
    ]
    results = db.pairwise_couplings(placed)
    return {
        pair: result.k for pair, result in results.items() if abs(result.k) >= k_floor
    }
