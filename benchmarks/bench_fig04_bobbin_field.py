"""Figure 4 — magnetic field coupling between two bobbin-core inductors.

The paper shows FEM flux lines of two coupling bobbin chokes and argues the
PEEC + effective-permeability simplification stays within ~15 % for stray
fields.  This benchmark draws the |B| map of the same arrangement from the
segmented-ring models and reports the coupling factor plus the dipole
cross-check that stands in for the FEM reference.
"""

import numpy as np

from repro.components import large_bobbin_choke, small_bobbin_choke
from repro.coupling import dipole_coupling_factor, pair_coupling_factor
from repro.geometry import Placement2D
from repro.obs import get_tracer
from repro.peec import field_magnitude_map
from repro.viz import heatmap


def test_fig04_bobbin_field(benchmark, record):
    a = small_bobbin_choke()
    b = large_bobbin_choke()
    pa = Placement2D.at(0.0, 0.0)
    pb = Placement2D.at(0.045, 0.0)
    path_a = a.placed_current_path(pa)
    path_b = b.placed_current_path(pb)

    xs = np.linspace(-0.02, 0.065, 48)
    ys = np.linspace(-0.025, 0.025, 20)

    mags = benchmark(field_magnitude_map, [path_a, path_b], xs, ys, 0.006)

    with get_tracer().span("coupling.field_solve"):
        k_peec = pair_coupling_factor(a, pa, b, pb)
    k_dipole = dipole_coupling_factor(a, pa, b, pb)
    deviation = abs(k_peec - k_dipole) / abs(k_peec)

    text = (
        heatmap(mags)
        + f"\n\n|B| map at z = 6 mm, 1 A per winding (x: -20..65 mm, y: -25..25 mm)"
        + f"\nk (PEEC, segmented rings + mu_eff): {k_peec:+.5f}"
        + f"\nk (dipole cross-check):             {k_dipole:+.5f}"
        + f"\nrelative deviation: {deviation * 100:.1f} % "
        + "(paper accepts ~15 % for the simplified model)"
    )
    record("fig04_bobbin_field", text)

    assert abs(k_peec) > 1e-3  # chokes 45 mm apart couple measurably
    assert deviation < 0.25  # dipole agreement in the paper's error class
    # The field is strongest between/around the windings, not at the map edge.
    assert float(mags.max()) > 10.0 * float(mags[:, 0].max())
