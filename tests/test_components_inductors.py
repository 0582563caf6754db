"""Unit tests for bobbin chokes (segmented-ring winding models), and the
pinned fingerprints, ESRs and moments of every library part."""

import pytest

from repro.components import (
    BobbinChoke,
    cm_choke_2w,
    default_library,
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


#: (fingerprint, ESR [ohm], local magnetic moment [m^2]) of every library
#: part, recorded from the Filament-object path geometry: the array path
#: geometry and the packed winding builders must reproduce every bit
#: (a signed zero included).
_LIBRARY = {
    "BOBBIN-100u": (
        "b6e1a9bd2de1d9c913d15d0ea4c53b471d63a18b698f4751aa8bd69fd5f2ba20",
        0.01700419398680435,
        (0.0009600000000000005, 0.0, -1.1858461261560205e-20),
    ),
    "BOBBIN-L": (
        "49f451a8c71b929e85cdd7640e5c2e3c844b23d451d822438e45bafa0cc09988",
        0.031882863725258156,
        (0.0027000000000000014, -1.3552527156068805e-20, -8.470329472543003e-21),
    ),
    "BOBBIN-S": (
        "a157c69bdc02d6439bde3816d9eae00d635d1ef2db456a52a087f58027a869c1",
        0.009564859117577446,
        (0.0004049999999999999, -1.6940658945086007e-21, 5.929230630780102e-21),
    ),
    "CMC-2W": (
        "0dba4f6eeeb581d7c6b376826328aa32f4df39844e9f05dc8ff681fc5ce1fccd",
        0.005363622452657997,
        (-9.147955830346444e-20, 1.3891340334970526e-19, 2.6681537838510455e-20),
    ),
    "CMC-3W": (
        "b388fc3cabf816845474538dae7159a26a95300291faa8ecdac4773200113409",
        0.005363622452657997,
        (-2.812149384884277e-19, -2.2573428044327104e-19, 6.352747104407253e-22),
    ),
    "CONN-2": (
        "431feb28fa90541d7c860965ab1465494ae50dcf18bd682b6ddc8c0f29053ee1",
        0.0,
        (0.0, -3e-05, 0.0),
    ),
    "CTRL-SO8": (
        "4d1b042cf349944608498441aa0bf8f8730379211847a60453e5a8968284eb9e",
        0.0,
        (0.0, -1.25e-06, 0.0),
    ),
    "DIODE-SMC": (
        "072790c136b867e6921dd6e04d9d5c498742e6ea238a90834c88d85761ae88dc",
        0.015,
        (0.0, -7.8e-06, 0.0),
    ),
    "ELKO-470u": (
        "1ba62c77ae482937c769c322bdf2755025f3af54b165f0747bdd65bb5974622e",
        0.06,
        (0.0, -6e-05, 0.0),
    ),
    "MLCC-100n": (
        "9b1e8d04bfc96c9ce58b0209a4d7257d72846248aa82c84ccae4bc56d523140d",
        0.008,
        (0.0, -2.52e-06, 0.0),
    ),
    "MOSFET-DPAK": (
        "e416792951d02a2d6231b42c3fa99fb0f8e5deb2cf2dfc66b66af7b1ba7cacb7",
        0.02,
        (0.0, -1.0500000000000001e-05, 0.0),
    ),
    "R-1206": (
        "e41d766be7978d81762c13f0a96a6b9a42c6ad203c19755220faa70fafc69a9b",
        10.0,
        (0.0, -1.12e-06, 0.0),
    ),
    "SHUNT-10m": (
        "b134624e3196f2a1c42d357f447beb4b4336118107f4aed0a7a78c8e36710cce",
        0.01,
        (0.0, -2.8999999999999998e-06, 0.0),
    ),
    "SMD-IND-SH": (
        "4ccfffb6f9ab8339d90b5b57dd0a0cc203b6db60a5abeeb4e20a6751305ac0ee",
        0.01587058105435073,
        (1.6940658945086007e-21, 1.1011428314305904e-20, 0.000441),
    ),
    "SMD-IND-UN": (
        "8d54ab380b827f853883fb3bb75b64c4b7deab500b833c9f902f5c0978e84cec",
        0.01587058105435073,
        (1.6940658945086007e-21, 1.1011428314305904e-20, 0.000441),
    ),
    "TAJ-D-100u": (
        "7a9916ec7ec93f5fa64c96387abfb3229f072187533916a5d529d6543998d172",
        0.1,
        (0.0, -1.08e-05, 0.0),
    ),
    "X2-1u5": (
        "469f092df58aa1b7e9bc734e076dae636e71275b891a8b160fcb7b070ec95b42",
        0.015,
        (0.0, -0.00015, 0.0),
    ),
}


@pytest.mark.parametrize("name", sorted(_LIBRARY))
def test_library_fingerprints_esr_and_moment_are_pinned(name):
    fingerprint, esr, moment = _LIBRARY[name]
    part = default_library().create(name)
    assert part.fingerprint == fingerprint
    assert part.esr == esr
    m = part.magnetic_moment_local
    assert (m.x.hex(), m.y.hex(), m.z.hex()) == tuple(c.hex() for c in moment)


def test_ring_stack_needs_a_ring_and_a_wire():
    with pytest.raises(ValueError):
        ring_stack(
            "X", turns=1, n_rings=0, radius=1e-3, length=1e-3, height=0.0, axis="z",
            wire_diameter=1e-4,
        )
    with pytest.raises(ValueError):
        wire_resistance(1e-2, 0.0)
