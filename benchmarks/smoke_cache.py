"""Smoke test for the persistent coupling cache.

Runs the ``rules`` CLI twice on the demo board with a throwaway
``--cache-dir``: the first (cold) run must field-solve pairs and fit
distance laws without reading the disk, and the second (warm) run must
answer from disk with no field solve and no fit — and both must derive
identical PEMD values.  A third run with ``--no-cache`` must do the same
number of field solves and fits and derive the same PEMD values as the
cold run.  Exit code 0 means the cache is healthy.

Invoked by ``make bench-smoke`` (and CI); runs in a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

from repro.cli import main

BOARD = Path(__file__).resolve().parent.parent / "examples" / "boards" / "demo_board.txt"


def run_rules(board: Path, *options: str) -> str:
    argv = ["rules", str(board), "--max-pairs", "2", *options]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    output = buffer.getvalue()
    if code != 0:
        print(output)
        raise SystemExit(f"rules exited with {code}")
    return output


def cache_stats(output: str) -> tuple[int, int, int]:
    """Parse ``coupling cache: H hit(s), M field solve(s); distance laws:
    LH hit(s), LF fit(s); D from disk`` into (field solves, law fits, D)."""
    match = re.search(
        r"coupling cache: \d+ hit\(s\), (\d+) field solve\(s\); "
        r"distance laws: \d+ hit\(s\), (\d+) fit\(s\); (\d+) from disk",
        output,
    )
    if match is None:
        print(output)
        raise SystemExit("no cache-stats line in rules output")
    solves, fits, disk = (int(g) for g in match.groups())
    return solves, fits, disk


def pemd_lines(output: str) -> list[str]:
    return [line for line in output.splitlines() if "PEMD" in line]


def main_smoke() -> int:
    board = Path(sys.argv[1]) if len(sys.argv) > 1 else BOARD
    with tempfile.TemporaryDirectory(prefix="repro-emi-smoke-") as tmp:
        cache_dir = Path(tmp) / "coupling"

        cached = ("--cache-dir", str(cache_dir))
        cold = run_rules(board, *cached)
        cold_solves, cold_fits, cold_disk = cache_stats(cold)
        print(f"cold: {cold_solves} field solve(s), {cold_fits} law fit(s), {cold_disk} from disk")
        if cold_solves == 0 or cold_fits == 0:
            raise SystemExit("cold run performed no field solve or no law fit — bad scenario")
        if cold_disk != 0:
            raise SystemExit("cold run hit the (empty) disk cache — key leak?")

        warm = run_rules(board, *cached)
        warm_solves, warm_fits, warm_disk = cache_stats(warm)
        print(f"warm: {warm_solves} field solve(s), {warm_fits} law fit(s), {warm_disk} from disk")
        if warm_disk == 0:
            raise SystemExit("warm run reported no persistent cache hits")
        if warm_solves != 0 or warm_fits != 0:
            raise SystemExit("warm run still field-solved or fitted — cache keys unstable")

        if pemd_lines(cold) != pemd_lines(warm):
            raise SystemExit("cold and warm runs derived different PEMD values")

        uncached = run_rules(board, "--no-cache")
        uncached_solves, uncached_fits, _ = cache_stats(uncached)
        print(f"no-cache: {uncached_solves} field solve(s), {uncached_fits} law fit(s)")
        if (uncached_solves, uncached_fits) != (cold_solves, cold_fits):
            raise SystemExit(
                "--no-cache run solved or fitted a different amount than the cold run"
            )
        if pemd_lines(uncached) != pemd_lines(cold):
            raise SystemExit("--no-cache and cold runs derived different PEMD values")

    print("bench-smoke OK: warm run answered from the persistent cache; no-cache == cold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main_smoke())
