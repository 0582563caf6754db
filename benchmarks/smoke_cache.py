"""Smoke test for the persistent coupling cache.

Runs the ``rules`` CLI twice on the demo board with a throwaway
``--cache-dir``: the first (cold) run must field-solve every pair and the
second (warm) run must answer from disk — and both must derive identical
PEMD values.  A third run with ``--no-cache`` must do the same number of
field solves and derive the same PEMD values as the cold run.  Exit code
0 means the cache is healthy.

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
    """Parse ``coupling cache: H hit(s) (D from disk), M field solve(s)``."""
    match = re.search(
        r"coupling cache: (\d+) hit\(s\) \((\d+) from disk\), (\d+) field solve\(s\)",
        output,
    )
    if match is None:
        print(output)
        raise SystemExit("no cache-stats line in rules output")
    hits, disk, solves = (int(g) for g in match.groups())
    return hits, disk, solves


def pemd_lines(output: str) -> list[str]:
    return [line for line in output.splitlines() if "PEMD" in line]


def main_smoke() -> int:
    board = Path(sys.argv[1]) if len(sys.argv) > 1 else BOARD
    with tempfile.TemporaryDirectory(prefix="repro-emi-smoke-") as tmp:
        cache_dir = Path(tmp) / "coupling"

        cached = ("--cache-dir", str(cache_dir))
        cold = run_rules(board, *cached)
        _, cold_disk, cold_solves = cache_stats(cold)
        print(f"cold: {cold_solves} field solve(s), {cold_disk} from disk")
        if cold_solves == 0:
            raise SystemExit("cold run performed no field solves — bad scenario")
        if cold_disk != 0:
            raise SystemExit("cold run hit the (empty) disk cache — key leak?")

        warm = run_rules(board, *cached)
        _, warm_disk, warm_solves = cache_stats(warm)
        print(f"warm: {warm_solves} field solve(s), {warm_disk} from disk")
        if warm_disk == 0:
            raise SystemExit("warm run reported no persistent cache hits")
        if warm_solves != 0:
            raise SystemExit("warm run still field-solved — cache keys unstable")

        if pemd_lines(cold) != pemd_lines(warm):
            raise SystemExit("cold and warm runs derived different PEMD values")

        uncached = run_rules(board, "--no-cache")
        _, _, uncached_solves = cache_stats(uncached)
        print(f"no-cache: {uncached_solves} field solve(s)")
        if uncached_solves != cold_solves:
            raise SystemExit("--no-cache run solved a different number of pairs than the cold run")
        if pemd_lines(uncached) != pemd_lines(cold):
            raise SystemExit("--no-cache and cold runs derived different PEMD values")

    print("bench-smoke OK: warm run answered from the persistent cache; no-cache == cold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main_smoke())
