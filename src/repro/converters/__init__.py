"""Demonstration systems: the buck converter test object and the demo board.

The buck converter carries the paper's section-5 evaluation (Figs. 1, 2,
11-18); the 29-device board is the Fig. 9 placement benchmark.
"""

from .boost import BOOST_COUPLING_BRANCHES, BoostConverterDesign
from .buck import CAPACITIVE_NODES, COUPLING_BRANCHES, BuckConverterDesign
from .cmdm import DEFAULT_HEATSINK_CAPACITANCE, build_cmdm_circuit, cmdm_spectra
from .demo_board import DEMO_DEVICE_COUNT, DEMO_RULE_COUNT, build_demo_board
from .layout_coupling import layout_couplings
from .measurement import perturb_circuit, synthesize_measurement
from .network import apply_couplings

__all__ = [
    "BuckConverterDesign",
    "BoostConverterDesign",
    "BOOST_COUPLING_BRANCHES",
    "COUPLING_BRANCHES",
    "CAPACITIVE_NODES",
    "apply_couplings",
    "build_cmdm_circuit",
    "cmdm_spectra",
    "DEFAULT_HEATSINK_CAPACITANCE",
    "layout_couplings",
    "synthesize_measurement",
    "perturb_circuit",
    "build_demo_board",
    "DEMO_DEVICE_COUNT",
    "DEMO_RULE_COUNT",
]
