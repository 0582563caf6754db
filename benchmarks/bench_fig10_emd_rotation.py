"""Figure 10 — the EMD = PEMD * cos(alpha) law between two chokes.

Paper claim: the minimum distance defined at parallel magnetic axes
shrinks proportional to the cosine of the angle between the axes; at
90 degrees the parts may touch.  This benchmark tabulates the law and
verifies it against the placement engine's EMD evaluation for two
horizontally mounted chokes.
"""

import math

import numpy as np

from repro import obs
from repro.components import small_bobbin_choke
from repro.geometry import Placement2D
from repro.rules import effective_min_distance, emd_for_pair
from repro.viz import series_table


def test_fig10_emd_rotation(benchmark, record):
    tracer = obs.get_tracer()
    with tracer.span("bench.parts"):
        choke_a = small_bobbin_choke()
        choke_b = small_bobbin_choke()
    pemd = 0.024  # parallel-axes minimum distance between the two chokes
    angles = np.array([0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0])

    def evaluate_emds():
        return [
            emd_for_pair(
                choke_a,
                Placement2D.at(0.0, 0.0, 0.0),
                choke_b,
                Placement2D.at(0.05, 0.0, float(ang)),
                pemd,
            )
            for ang in angles
        ]

    with tracer.span("bench.rounds"):
        emds = benchmark(evaluate_emds)

    with tracer.span("bench.table"):
        rows = [
            [
                f"{ang:.0f}",
                f"{pemd * abs(math.cos(math.radians(ang))) * 1e3:.2f}",
                f"{emd * 1e3:.2f}",
            ]
            for ang, emd in zip(angles, emds, strict=True)
        ]
        table = series_table(
            ["alpha deg", "PEMD*cos(alpha) mm", "engine EMD mm"], rows
        )
        record(
            "fig10_emd_rotation",
            table
            + f"\n\nPEMD = {pemd * 1e3:.1f} mm; at 90 deg the engine EMD reaches "
            + f"{emds[-1] * 1e3:.3f} mm — components may be placed adjacently.",
        )

    # The engine must reproduce the paper's law exactly for this pair
    # (in-plane axes, no residual).
    for ang, emd in zip(angles, emds, strict=True):
        expected = effective_min_distance(pemd, math.radians(float(ang)))
        assert math.isclose(emd, expected, rel_tol=1e-6, abs_tol=1e-9)
    assert math.isclose(emds[0], pemd, rel_tol=1e-9)
    assert emds[-1] < 1e-6
