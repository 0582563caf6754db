"""Generate ``work_counters.json`` — the exact work-counter fixture.

Work counters (filament pairs, field solves, MNA factorizations,
candidates scored, cache hits) are deterministic for a given code state.
The committed JSON records the counter totals of seven traced runs:

* ``<workload>/seed<n>``: one traced pass of a perfbench workload
  (``extract_cold``, ``place_drc``, ``flow_warm``) over its seed-``n``
  inputs, seeds 1 and 2, after the workload's untraced set-up;
* ``rules/demo_board``: ``repro-emi rules examples/boards/demo_board.txt
  --max-pairs 2 --no-cache``, run in-process.

perfbench's own ``bench.*`` counters are left out: they count the
benchmark's inputs, not the program's work.

``tests/test_work_counters.py`` re-runs every case and requires exact
equality, so a change that does more (or less) work fails tier-1 until
the file is re-recorded on purpose.  First look at what moves, then
re-record and state the change::

    PYTHONPATH=src python tests/data/make_work_counters.py --diff
    PYTHONPATH=src python tests/data/make_work_counters.py

``--diff`` prints every missing, new and changed counter and writes
nothing; it prints nothing when the file still holds.

This module is also the replay harness: the test imports ``run_case``
and ``diff`` from it.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import tempfile
from pathlib import Path

from repro import obs
from repro.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[2]
OUT = Path(__file__).with_name("work_counters.json")
DEMO_BOARD = ROOT / "examples" / "boards" / "demo_board.txt"

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads_counters", ROOT / "perfbench" / "workloads.py"
)
assert _spec is not None and _spec.loader is not None
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

#: Case name -> (workload name, seed); ``None`` is the demo rules run.
CASES: dict[str, tuple[str, int] | None] = {
    **{
        f"{name}/seed{seed}": (name, seed)
        for name in ("extract_cold", "place_drc", "flow_warm")
        for seed in (1, 2)
    },
    "rules/demo_board": None,
}


def _work_only(totals: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in sorted(totals.items()) if not k.startswith("bench.")}


def _workload_pass(name: str, seed: int, scratch: Path) -> dict[str, float]:
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(seed)
    state = workload.setup(inputs, scratch)
    tracer = obs.enable(meta={"benchmark": f"work_counters::{name}"})
    try:
        for inp in inputs:
            workload.op(state, inp)
    finally:
        obs.disable()
    return tracer.report().totals()


def _demo_rules(scratch: Path) -> dict[str, float]:
    metrics = scratch / "metrics.json"
    argv = ["rules", str(DEMO_BOARD), "--max-pairs", "2", "--no-cache"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main([*argv, "--metrics-out", str(metrics)])
    if code != 0:
        raise RuntimeError(f"repro-emi {' '.join(argv)} exited with {code}")
    return obs.RunReport.from_json(metrics.read_text()).totals()


def run_case(case: str, scratch: Path) -> dict[str, float]:
    """The work-counter totals of one case, with scratch files in ``scratch``."""
    spec = CASES[case]
    totals = _demo_rules(scratch) if spec is None else _workload_pass(*spec, scratch)
    return _work_only(totals)


def diff(committed: dict[str, float], current: dict[str, float]) -> list[str]:
    """One line per missing, new and changed counter; empty when equal."""
    lines = []
    for name in sorted(committed.keys() | current.keys()):
        if name not in current:
            lines.append(f"missing {name} (was {committed[name]:g})")
        elif name not in committed:
            lines.append(f"new     {name} = {current[name]:g}")
        elif current[name] != committed[name]:
            lines.append(f"changed {name}: {committed[name]:g} -> {current[name]:g}")
    return lines


def record() -> dict[str, dict[str, float]]:
    """Every case's counters, each run on fresh scratch state."""
    with tempfile.TemporaryDirectory(prefix="work-counters-") as tmp:
        doc = {}
        for i, case in enumerate(CASES):
            scratch = Path(tmp) / str(i)
            scratch.mkdir()
            doc[case] = run_case(case, scratch)
        return doc


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--diff",
        action="store_true",
        help="print the counters the current code moves; write nothing",
    )
    args = parser.parse_args(argv)
    doc = record()
    if args.diff:
        committed = json.loads(OUT.read_text())
        for case in sorted(committed.keys() | doc.keys()):
            for line in diff(committed.get(case, {}), doc.get(case, {})):
                print(f"{case}: {line}")
        return
    # One case per line keeps the fixture diffable.
    lines = [f"{json.dumps(k)}: {json.dumps(doc[k], sort_keys=True)}" for k in doc]
    OUT.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
