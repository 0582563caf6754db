"""EMI measurement substrate: LISN, spectra, receiver model, CISPR limits.

Everything needed to turn a circuit simulation into a CISPR-25-style
conducted-emission plot — the y-axis of the paper's evaluation figures.
"""

from .limits import (
    CISPR25_CLASS3_AVG,
    CISPR25_CLASS3_PEAK,
    CISPR25_CLASS5_PEAK,
    LimitLine,
    LimitSegment,
)
from .lisn import LISN_INDUCTANCE, RECEIVER_IMPEDANCE, LisnPorts, add_lisn
from .receiver import EmiReceiver, cispr_rbw, quasi_peak_correction_db
from .separation import ModeSplit, separate_modes
from .spectrum import LINE_FLOOR_DBUV, Spectrum, dbuv_to_volts, volts_to_dbuv

__all__ = [
    "LINE_FLOOR_DBUV",
    "Spectrum",
    "volts_to_dbuv",
    "dbuv_to_volts",
    "add_lisn",
    "LisnPorts",
    "LISN_INDUCTANCE",
    "RECEIVER_IMPEDANCE",
    "EmiReceiver",
    "cispr_rbw",
    "quasi_peak_correction_db",
    "LimitLine",
    "LimitSegment",
    "CISPR25_CLASS3_PEAK",
    "CISPR25_CLASS5_PEAK",
    "CISPR25_CLASS3_AVG",
    "ModeSplit",
    "separate_modes",
]
