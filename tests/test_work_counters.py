"""Exact work counters: the committed facts behind every "same work" claim.

``tests/data/work_counters.json`` holds the counter totals of one traced
pass of each perfbench workload at seeds 1 and 2, and of the cold
``rules`` run on the demo board (see ``make_work_counters.py`` next to
it, which also replays the cases).  Work counters are deterministic, so
the current code must reproduce every total exactly: a change that adds
or drops field solves, filament pairs, MNA factorizations or scored
candidates fails here until the file is re-recorded on purpose.
"""

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
COMMITTED = json.loads((DATA / "work_counters.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "make_work_counters", DATA / "make_work_counters.py"
)
assert _spec is not None and _spec.loader is not None
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)


def test_file_covers_every_case():
    assert list(COMMITTED) == list(harness.CASES)


@pytest.mark.parametrize("case", list(harness.CASES))
def test_counters_match(case, tmp_path):
    current = harness.run_case(case, tmp_path)
    problems = harness.diff(COMMITTED[case], current)
    assert not problems, (
        f"{case}: work counters moved (re-record with "
        "tests/data/make_work_counters.py only for an intended change):\n  "
        + "\n  ".join(problems)
    )


def test_diff_names_missing_new_and_changed():
    lines = harness.diff({"a": 1.0, "b": 2.0}, {"b": 3.0, "c": 4.0})
    assert lines == ["missing a (was 1)", "changed b: 2 -> 3", "new     c = 4"]
