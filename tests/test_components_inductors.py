"""Unit tests for bobbin chokes (segmented-ring winding models)."""

import pytest

from repro.components import (
    BobbinChoke,
    cm_choke_2w,
    large_bobbin_choke,
    shielded_power_inductor,
    small_bobbin_choke,
    unshielded_power_inductor,
)
from repro.components.inductors import ring_stack, wire_resistance
from repro.geometry import Vec3


class TestConstruction:
    def test_defaults_valid(self):
        choke = BobbinChoke()
        assert choke.self_inductance > 0.0

    def test_invalid_turns(self):
        with pytest.raises(ValueError):
            BobbinChoke(turns=0)

    def test_invalid_orientation(self):
        with pytest.raises(ValueError):
            BobbinChoke(orientation="diagonal")

    def test_invalid_rings(self):
        with pytest.raises(ValueError):
            BobbinChoke(n_rings=0)

    def test_demag_factor_from_geometry(self):
        stubby = BobbinChoke(coil_length=4e-3, coil_radius=4e-3)
        slim = BobbinChoke(coil_length=16e-3, coil_radius=2e-3)
        assert stubby.demag_factor > slim.demag_factor


class TestWindingModel:
    def test_ring_count(self):
        choke = BobbinChoke(n_rings=5)
        assert len(choke.current_path) == 5 * 12  # 12 segments per ring

    def test_horizontal_axis(self):
        choke = BobbinChoke(orientation="horizontal")
        axis = choke.magnetic_axis_local()
        assert abs(axis.x) == pytest.approx(1.0, abs=1e-6)

    def test_vertical_axis(self):
        choke = BobbinChoke(orientation="vertical")
        axis = choke.magnetic_axis_local()
        assert abs(axis.z) == pytest.approx(1.0, abs=1e-6)

    def test_vertical_has_full_residual(self):
        assert BobbinChoke(orientation="vertical").decoupling_residual == pytest.approx(
            1.0, abs=1e-6
        )

    def test_winding_centred_in_body(self):
        choke = BobbinChoke()
        centroid = choke.current_path.centroid()
        assert centroid.is_close(
            Vec3(0.0, 0.0, choke.body_height / 2.0), tol=1e-6
        )

    def test_turns_raise_inductance(self):
        lo = BobbinChoke(turns=10).self_inductance
        hi = BobbinChoke(turns=30).self_inductance
        assert hi > lo * 4.0  # roughly quadratic in turns


class TestElectricalModel:
    def test_geometric_inductance_microhenry_scale(self):
        choke = BobbinChoke()
        assert 1e-7 < choke.inductance < 1e-3

    def test_rated_inductance_overrides(self):
        choke = BobbinChoke(rated_inductance=100e-6)
        assert choke.inductance == pytest.approx(100e-6)
        # The field model still uses geometry.
        assert choke.self_inductance != pytest.approx(100e-6)

    def test_esr_plausible_winding_resistance(self):
        choke = BobbinChoke()
        assert 1e-3 < choke.esr < 1.0

    def test_mu_eff_above_one(self):
        assert BobbinChoke().mu_eff > 1.0


class TestFig7Pair:
    def test_sizes_differ(self):
        small = small_bobbin_choke()
        large = large_bobbin_choke()
        assert large.coil_radius > small.coil_radius
        assert large.self_inductance > small.self_inductance

    def test_orientation_passthrough(self):
        v = small_bobbin_choke(orientation="vertical")
        assert abs(v.magnetic_axis_local().z) == pytest.approx(1.0, abs=1e-6)


#: (part, fingerprint, ESR [ohm]) of each ring-stack winding, computed before
#: the bobbin and SMD windings shared one builder: coupling-cache keys and
#: the committed extraction reference depend on these fingerprints.
_WINDINGS = [
    (
        lambda: small_bobbin_choke("horizontal"),
        "a157c69bdc02d6439bde3816d9eae00d635d1ef2db456a52a087f58027a869c1",
        0.009564859117577446,
    ),
    (
        lambda: small_bobbin_choke("vertical"),
        "e7951c5378f4bfaa491780cf758526a70d5eed750904d9e8e9455c6f63b65158",
        0.009564859117577446,
    ),
    (
        lambda: large_bobbin_choke("horizontal"),
        "49f451a8c71b929e85cdd7640e5c2e3c844b23d451d822438e45bafa0cc09988",
        0.031882863725258156,
    ),
    (
        lambda: large_bobbin_choke("vertical"),
        "3ba7cdb3319856dd973cc5f29882f8bff7e041649b21215364380d5edcddaf33",
        0.031882863725258156,
    ),
    (
        lambda: BobbinChoke(n_rings=1),
        "8fb35a2c9c7baa98481daf3b2ee9971acfbb9ec42fd8f66af7f8f90adb87a3f2",
        0.01700419398680435,
    ),
    (
        lambda: BobbinChoke(n_rings=1, orientation="vertical"),
        "726137c509fb513e7efb30d85aba36ba78a5389ca875dca04b4f7e58a46baeed",
        0.017004193986804347,
    ),
    (
        shielded_power_inductor,
        "4ccfffb6f9ab8339d90b5b57dd0a0cc203b6db60a5abeeb4e20a6751305ac0ee",
        0.01587058105435073,
    ),
    (
        unshielded_power_inductor,
        "8d54ab380b827f853883fb3bb75b64c4b7deab500b833c9f902f5c0978e84cec",
        0.01587058105435073,
    ),
    (
        cm_choke_2w,
        "0dba4f6eeeb581d7c6b376826328aa32f4df39844e9f05dc8ff681fc5ce1fccd",
        0.005363622452657997,
    ),
]


@pytest.mark.parametrize("build, fingerprint, esr", _WINDINGS)
def test_winding_fingerprints_and_esr_are_pinned(build, fingerprint, esr):
    part = build()
    assert part.fingerprint == fingerprint
    assert part.esr == esr


def test_ring_stack_needs_a_ring_and_a_wire():
    with pytest.raises(ValueError):
        ring_stack(
            "X", turns=1, n_rings=0, radius=1e-3, length=1e-3, height=0.0, axis="z",
            wire_diameter=1e-4,
        )
    with pytest.raises(ValueError):
        wire_resistance(1e-2, 0.0)
