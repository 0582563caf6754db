"""Extension — the flow generalises across converter topologies.

The paper demonstrates on one buck converter.  This bench applies the same
part library, EMI model structure and placement bridge to a boost
converter and compares the conducted signatures: the boost's continuous
input current (inductor at the input) is the textbook reason its DM line
noise sits far below the buck's chopped input — and placement-induced
couplings degrade both, so the methodology carries over.
"""

from repro import obs
from repro.converters import (
    BOOST_COUPLING_BRANCHES,
    COUPLING_BRANCHES,
    BoostConverterDesign,
    BuckConverterDesign,
    layout_couplings,
)
from repro.placement import BaselinePlacer
from repro.viz import series_table


def test_extension_topologies(benchmark, record):
    buck = BuckConverterDesign()
    boost = BoostConverterDesign()

    spectrum_buck = buck.emission_spectrum()
    # The span covers pytest-benchmark's rounds, including its own timing
    # loop between the calls.
    with obs.get_tracer().span("bench.rounds"):
        spectrum_boost = benchmark(boost.emission_spectrum)

    bands = [
        ("fundamental 250 kHz", 240e3, 260e3),
        ("MW 0.53-1.8 MHz", 530e3, 1.8e6),
        ("5-30 MHz", 5e6, 30e6),
        ("30-108 MHz", 30e6, 108e6),
    ]
    rows = []
    for label, lo, hi in bands:
        b = spectrum_buck.max_dbuv_in(lo, hi)
        s = spectrum_boost.max_dbuv_in(lo, hi)
        rows.append([label, f"{b:.1f}", f"{s:.1f}", f"{b - s:+.1f}"])
    table = series_table(
        ["band", "buck dBuV", "boost dBuV", "boost advantage dB"], rows
    )

    # Bad placement hurts the boost too.
    problem = boost.placement_problem()
    BaselinePlacer(problem).run()
    couplings = layout_couplings(
        problem, refdes_of_interest=list(BOOST_COUPLING_BRANCHES.values())
    )
    coupled = boost.emission_spectrum(couplings)
    degradation = coupled.max_dbuv_in(5e6, 108e6) - spectrum_boost.max_dbuv_in(
        5e6, 108e6
    )
    summary = (
        f"boost with EMI-blind placement couplings: +{degradation:.1f} dB "
        "at the worst line above 5 MHz — the paper's placement effect is "
        "topology independent.\n"
        f"(coupling surfaces: buck {len(COUPLING_BRANCHES)}, "
        f"boost {len(BOOST_COUPLING_BRANCHES)} branches)"
    )
    record("extension_topologies", f"{table}\n\n{summary}")

    assert spectrum_boost.max_dbuv_in(5e6, 30e6) < spectrum_buck.max_dbuv_in(
        5e6, 30e6
    )
    assert degradation > 6.0
