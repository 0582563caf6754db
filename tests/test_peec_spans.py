"""The PEEC kernels explain where their time goes.

One span per kernel call (never per filament or per grid point), and a
field map plus a decoupling sweep leave no large unattributed wall time
under the tracer's ``run`` root.
"""

import numpy as np

from repro import obs
from repro.components import FilmCapacitorX2, cm_choke_2w
from repro.coupling import decoupling_sweep
from repro.geometry import Placement2D
from repro.peec import field_magnitude_map


def test_field_map_and_decoupling_sweep_are_attributed():
    choke = cm_choke_2w()
    cap = FilmCapacitorX2()
    path = choke.placed_current_path(Placement2D.at(0.0, 0.0))
    xs = np.linspace(-0.03, 0.03, 12)
    ys = np.linspace(-0.02, 0.02, 8)
    angles = np.linspace(0.0, 270.0, 4)

    tracer = obs.enable(meta={"test": "peec spans"})
    try:
        field_magnitude_map([path], xs, ys, 0.006)
        decoupling_sweep(choke, cap, 0.03, angles)
    finally:
        obs.disable()
    report = tracer.report()

    root = report.root
    assert set(root.children) == {"peec.field_grid", "coupling.decoupling_sweep"}
    covered = sum(child.wall_s for child in root.children.values())
    assert covered >= 0.9 * root.wall_s

    # One span per call: one grid, one self-L per part (cached afterwards).
    assert report.find("peec.field_grid").count == 1
    assert report.find("coupling.decoupling_sweep").count == 1
    assert report.find("peec.self_inductance").count == 2
    totals = report.totals()
    assert totals["peec.self_inductance_evals"] == 2
    n_choke, n_cap = len(choke.current_path), len(cap.current_path)
    self_pairs = n_choke * (n_choke + 1) // 2 + n_cap * (n_cap + 1) // 2
    mutual_pairs = len(angles) * 2 * n_choke * n_cap  # 0 and 90 deg victims
    assert totals["peec.filament_pairs"] == self_pairs + mutual_pairs
