"""One core-scaling recipe on every coupling path.

The air-core mutual of a cored part is scaled by
``sqrt(mu_eff_a * stray_a * mu_eff_b * stray_b)``; halving one part's core
stray fraction must scale the full PEEC mutual, the dipole estimate and
the polarised choke coupling by exactly ``sqrt(0.5)``.
"""

import math
from dataclasses import replace

import pytest

from repro.components import FilmCapacitorX2, cm_choke_2w, small_bobbin_choke
from repro.coupling import component_coupling, dipole_mutual_inductance, polarized_coupling
from repro.geometry import Placement2D


def _half_stray(component):
    core = component.core
    return replace(component, core=replace(core, stray_fraction=core.stray_fraction / 2))


PA, PB = Placement2D.at(0.0, 0.0), Placement2D.at(0.03, 0.01, 30.0)


def _pair_mutual(choke, victim):
    return component_coupling(choke, PA, victim, PB).mutual_h


def _dipole_mutual(choke, victim):
    return dipole_mutual_inductance(choke, PA, victim, PB)


def _polarized_mutual(choke, victim):
    k_max = polarized_coupling(choke, PA, victim, PB).k_max
    return k_max * math.sqrt(choke.self_inductance * victim.self_inductance)


@pytest.mark.parametrize(
    ("mutual", "make_choke"),
    [
        (_pair_mutual, small_bobbin_choke),
        (_dipole_mutual, small_bobbin_choke),
        (_polarized_mutual, cm_choke_2w),
    ],
    ids=["pair", "dipole", "polarized"],
)
def test_halved_stray_fraction_scales_mutual_by_sqrt_half(mutual, make_choke):
    choke, victim = make_choke(), FilmCapacitorX2()
    full = mutual(choke, victim)
    assert full != 0.0
    assert mutual(_half_stray(choke), victim) == pytest.approx(full * math.sqrt(0.5), rel=1e-12)
