"""Unit vocabulary — ``Annotated`` aliases that carry physical dimensions.

The EMI flow mixes quantities whose magnitudes differ by nine orders
(metres vs millimetres on boards, henries vs nanohenries in parasitics,
hertz vs rad/s in sweeps).  Python's type system cannot stop a caller from
feeding millimetres into a metre-valued API, so the APIs say what they
expect:

* the unit aliases (:data:`Meters`, :data:`Henries`, ...) are plain
  ``Annotated[float, Unit(...)]`` types: zero runtime cost, ``float`` to
  mypy, and a dimension tag a reader (or a tool) can resolve;
* :func:`approx_zero` is the way to test a computed float for zero
  (``math.isclose(x, 0.0)`` is an exact test).

Annotation conventions for contributors: public physics APIs annotate
every float parameter and return that has a dimension; base-SI aliases
(``Meters``, not ``Millimeters``) are the default at API boundaries;
scaled aliases exist so that the *rare* non-SI interface (CLI millimetre
flags, nanohenry tables) says so instead of hiding a factor of 1e-3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated, TypeAlias

__all__ = [
    "Unit",
    "Meters",
    "Millimeters",
    "Henries",
    "NanoHenries",
    "Farads",
    "Ohms",
    "Hertz",
    "RadPerSec",
    "Tesla",
    "Seconds",
    "Radians",
    "Degrees",
    "Volts",
    "Amperes",
    "Dimensionless",
    "approx_zero",
]


@dataclass(frozen=True)
class Unit:
    """Dimension tag carried inside an ``Annotated`` unit alias.

    Attributes:
        dimension: name of the physical dimension ("length", "inductance",
            ...).  Two aliases with the same dimension but different scales
            (``Meters`` / ``Millimeters``) are *convertible but not
            mixable*: adding or comparing them is a unit error.
        scale: factor to the dimension's base SI unit (``Millimeters`` has
            ``scale=1e-3``).
        symbol: short human symbol used in diagnostics ("m", "nH").
    """

    dimension: str
    scale: float
    symbol: str


# -- the alias vocabulary ---------------------------------------------------

Meters: TypeAlias = Annotated[float, Unit("length", 1.0, "m")]
Millimeters: TypeAlias = Annotated[float, Unit("length", 1e-3, "mm")]
Henries: TypeAlias = Annotated[float, Unit("inductance", 1.0, "H")]
NanoHenries: TypeAlias = Annotated[float, Unit("inductance", 1e-9, "nH")]
Farads: TypeAlias = Annotated[float, Unit("capacitance", 1.0, "F")]
Ohms: TypeAlias = Annotated[float, Unit("resistance", 1.0, "ohm")]
Hertz: TypeAlias = Annotated[float, Unit("frequency", 1.0, "Hz")]
RadPerSec: TypeAlias = Annotated[float, Unit("angular-frequency", 1.0, "rad/s")]
Tesla: TypeAlias = Annotated[float, Unit("flux-density", 1.0, "T")]
Seconds: TypeAlias = Annotated[float, Unit("time", 1.0, "s")]
Radians: TypeAlias = Annotated[float, Unit("angle", 1.0, "rad")]
Degrees: TypeAlias = Annotated[float, Unit("angle", math.pi / 180.0, "deg")]
Volts: TypeAlias = Annotated[float, Unit("voltage", 1.0, "V")]
Amperes: TypeAlias = Annotated[float, Unit("current", 1.0, "A")]
#: Explicitly unitless quantities (coupling factors k, residuals, ratios).
Dimensionless: TypeAlias = Annotated[float, Unit("dimensionless", 1.0, "")]


# -- the sanctioned zero test -----------------------------------------------

#: Default absolute tolerance of :func:`approx_zero`.  1e-15 sits far
#: below every physical magnitude in the flow (the smallest are stray
#: inductances around 1e-12 H) yet far above accumulated rounding noise.
APPROX_ZERO_TOL = 1e-15


def approx_zero(value: float, tol: float = APPROX_ZERO_TOL) -> bool:
    """Whether a computed float is zero within an absolute tolerance.

    ``math.isclose(x, 0.0)`` degenerates to an exact test (relative
    tolerance against zero is zero), which is why raw ``== 0.0`` checks
    creep in; this helper is the explicit replacement.

    Args:
        value: the quantity to test (any unit; the tolerance is absolute).
        tol: absolute tolerance, must be non-negative.
    """
    if tol < 0.0:
        raise ValueError("tolerance must be non-negative")
    return abs(value) <= tol
