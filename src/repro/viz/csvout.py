"""CSV export of the flow's artefacts.

Downstream users (spreadsheets, plotting notebooks, regression trackers)
consume the numbers rather than the ASCII plots; these writers emit the
same data the benchmarks print, in machine-readable form.
"""

from __future__ import annotations

import csv
import io

from ..emi import Spectrum
from ..placement import DesignRuleChecker, PlacementProblem

__all__ = ["spectrum_to_csv", "couplings_to_csv", "layout_to_csv", "markers_to_csv"]


def spectrum_to_csv(spectra: dict[str, Spectrum]) -> str:
    """Spectra as ``freq_hz, <name>_dbuv, ...`` rows.

    Raises:
        ValueError: when the spectra are on different frequency grids or
            the mapping is empty.
    """
    if not spectra:
        raise ValueError("need at least one spectrum")
    names = list(spectra)
    first = spectra[names[0]]
    import numpy as np

    for name in names[1:]:
        if len(spectra[name]) != len(first) or not np.allclose(
            spectra[name].freqs, first.freqs
        ):
            raise ValueError("spectra live on different frequency grids")
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["freq_hz"] + [f"{n}_dbuv" for n in names])
    columns = [spectra[n].dbuv() for n in names]
    for i, freq in enumerate(first.freqs):
        writer.writerow([f"{freq:.6g}"] + [f"{col[i]:.3f}" for col in columns])
    return buffer.getvalue()


def couplings_to_csv(couplings: dict[tuple[str, str], float]) -> str:
    """A coupling map as ``ref_a, ref_b, k`` rows (sorted by |k| desc)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["ref_a", "ref_b", "k"])
    for (a, b), k in sorted(couplings.items(), key=lambda kv: -abs(kv[1])):
        writer.writerow([a, b, f"{k:.6e}"])
    return buffer.getvalue()


def layout_to_csv(problem: PlacementProblem) -> str:
    """The placement as ``refdes, part, board, x_mm, y_mm, rot_deg, group``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["refdes", "part", "board", "x_mm", "y_mm", "rot_deg", "group"])
    for ref, comp in problem.components.items():
        if comp.placement is None:
            writer.writerow(
                [ref, comp.component.part_number, comp.board, "", "", "", comp.group or ""]
            )
        else:
            p = comp.placement
            writer.writerow(
                [
                    ref,
                    comp.component.part_number,
                    comp.board,
                    f"{p.position.x * 1e3:.3f}",
                    f"{p.position.y * 1e3:.3f}",
                    f"{p.rotation_deg:.1f}",
                    comp.group or "",
                ]
            )
    return buffer.getvalue()


def markers_to_csv(problem: PlacementProblem) -> str:
    """Rule markers as ``ref_a, ref_b, emd_mm, distance_mm, satisfied``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["ref_a", "ref_b", "emd_mm", "distance_mm", "satisfied"])
    for marker in DesignRuleChecker(problem).rule_markers():
        writer.writerow(
            [
                marker.ref_a,
                marker.ref_b,
                f"{marker.emd * 1e3:.2f}",
                f"{marker.distance * 1e3:.2f}",
                int(marker.satisfied),
            ]
        )
    return buffer.getvalue()
