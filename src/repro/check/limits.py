"""Numeric thresholds of the lint rules, in one place.

Collecting the magic numbers here keeps the analyzers readable and gives
the documentation (and the tests) a single source for the plausibility
ranges.  All values are SI.
"""

from __future__ import annotations

from ..components import FIELD_RELEVANT_MOMENT
from ..coupling.database import COUPLING_CLAMP_TOLERANCE

__all__ = [
    "ELEMENT_VALUE_RANGES",
    "NEAR_UNITY_K",
    "COUPLING_CLAMP_TOLERANCE",
    "PSD_RELATIVE_TOLERANCE",
    "MIN_FREE_AREA_FRACTION",
    "FIELD_RELEVANT_MOMENT",
    "ESL_SUSPICIOUS_MAX",
    "DEGENERATE_MOMENT",
    "PATH_EXTENT_FACTOR",
]

#: Plausible value ranges for board-level power electronics elements,
#: keyed by unit.  Values outside trip NET005 (suspicious magnitude).
ELEMENT_VALUE_RANGES: dict[str, tuple[float, float]] = {
    "ohm": (1e-6, 1e9),
    "H": (1e-12, 1.0),
    "F": (1e-15, 0.1),
}

#: |k| at or above this (but still <= 1) trips CPL005 (near-unity coupling).
NEAR_UNITY_K = 0.98

#: COUPLING_CLAMP_TOLERANCE is defined in :mod:`repro.coupling.database`
#: (the layer that owns the clamp) and re-exported above so rule code
#: keeps one import site; check sits above coupling, so the import runs
#: downward (ARCH002-clean).

#: An inductance-matrix eigenvalue below ``-tol * max_diagonal`` makes the
#: matrix count as indefinite (CPL004).
PSD_RELATIVE_TOLERANCE = 1e-9

#: Minimum fraction of the board outline that must remain outside all
#: board-level keepouts (PLC002).
MIN_FREE_AREA_FRACTION = 0.02

#: FIELD_RELEVANT_MOMENT, the moment per ampere [m^2] from which a part
#: counts as a field source for PLC009 (missing PEMD rule) and for the CLI
#: ``rules`` subcommand, is defined in :mod:`repro.components` (through
#: ``Component.field_relevant``) and re-exported above.

#: Minimum stray-field strength (moment per ampere times effective
#: permeability, [m^2]) for *both* parts of a pair before PLC009 demands a
#: PEMD rule.  Calibrated so that only choke-class magnetics qualify —
#: the parts whose unchecked proximity reproduces the paper's Fig. 1
#: failure.
PEMD_REQUIRED_STRENGTH = 1e-3

#: Equivalent series inductance above this [H] is implausible for a board
#: part model (CMP002).
ESL_SUSPICIOUS_MAX = 1e-2

#: A cored part whose loop moment per ampere falls below this [m^2] has a
#: degenerate field model (CMP003).
DEGENERATE_MOMENT = 1e-9

#: Current path extent beyond this multiple of the footprint's
#: circumscribed radius trips CMP005 (field/placement geometry mismatch).
PATH_EXTENT_FACTOR = 2.0
