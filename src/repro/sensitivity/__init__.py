"""Sensitivity analysis: which magnetic couplings influence the emissions.

Reduces the quadratic number of candidate couplings to the short list that
actually needs field simulation — the paper's key complexity lever.
"""

from .analysis import SensitivityAnalyzer, SensitivityEntry, relevant_pairs

__all__ = ["SensitivityAnalyzer", "SensitivityEntry", "relevant_pairs"]
