"""Layer-separating benchmark of the EMI design flow.

Usage (from the repository root)::

    python3 perfbench/run.py --workload extract_cold --seed 1 --seconds 20 --trace 0

Runs one workload (``extract_cold``, ``place_drc`` or ``flow_warm``, see
``workloads.py`` and ``README.md``) serially in this process, closed loop
with one client: set-up (repeated, median reported), a fixed number of
whole passes over the seed-determined op sequence (as many as cover
``--seconds`` at the workload's nominal pass time), then the reference
check on the fixed reference inputs.  Prints every metric by
name with its unit, then one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half the
passes untraced and half traced, reports the per-layer metrics and writes
``perfbench/out/trace-<workload>-seed<n>.json``.  ``--write-reference``
re-records ``perfbench/reference/<workload>.json`` from the current code.

Exit codes: 0 correct, 1 some op failed a check (result still printed),
2 the program sources are missing (nothing printed).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

#: Nominal duration of :func:`speed_probe` [s]; end-to-end times are
#: reported as if every probe had taken this long.
PROBE_REF_S = 0.025


def speed_probe() -> float:
    """Wall time of a fixed interpreter-bound loop (tuple hashing, dict
    updates, float math) with the garbage collector off, so the program's
    heap cannot slow it.

    On a shared host the speed of interpreter-bound code drifts by up to
    ~1.4x over minutes while BLAS-bound code does not; the run-mean of this
    probe tracks that drift (see README.md).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict[tuple[int, int], float] = {}
        for i in range(60_000):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0.0) + math.hypot(i * 0.5, 3.0)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def tail_level(n: int) -> float:
    """Highest percentile (5-point steps, 50..99) with >= 10 samples beyond it.

    Below 20 samples no percentile above the median qualifies; the median
    is reported then.
    """
    if n < 20:
        return 50.0
    return min(99.0, 5.0 * math.floor(20.0 * (1.0 - 10.0 / n)))


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Runner:
    """Runs one workload's phases and keeps the attempted/failed tallies."""

    def __init__(self, workload, obs, layers, scratch: Path):
        self.workload = workload
        self.obs = obs
        self.layers = layers
        self.scratch = scratch
        self.attempted = 0
        self.failures: list[str] = []
        self.probes: list[float] = []

    def run_op(self, state, inp, label: str):
        """One op: returns (seconds, output or None, problems)."""
        obs = self.obs
        with obs.get_tracer().span("bench.op"):
            t0 = time.perf_counter()
            try:
                out = self.workload.op(state, inp)
                problems = None
            except Exception as exc:  # a failing op is a result, not a crash
                traceback.print_exc()
                out = None
                problems = [f"{type(exc).__name__}: {exc}"]
            seconds = time.perf_counter() - t0
        if problems is None:
            # Checks re-solve and re-check; keep them out of any trace.
            previous = obs.set_thread_tracer(obs.NULL_TRACER)
            try:
                problems = self.workload.check(inp, out)
            finally:
                obs.set_thread_tracer(previous)
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")
        return seconds, out, problems

    def set_up(self, seed: int, traced: bool):
        """Repeat the set-up on fresh scratch state; keep the last one.

        Returns (state, set-up times, the set-up's run report).
        """
        obs, workload = self.obs, self.workload
        tracer = obs.Tracer() if traced else obs.NULL_TRACER
        obs.set_tracer(tracer)
        times = []
        with self.layers.instrumented() if traced else contextlib.nullcontext():
            for rep in range(workload.setup_reps):
                self.probes.append(speed_probe())
                t0 = time.perf_counter()
                state = workload.setup(workload.make_inputs(seed), self.scratch / f"setup-{rep}")
                times.append(time.perf_counter() - t0)
        obs.disable()
        return state, times, tracer.report()

    def measure(self, state, inputs: list, passes: int) -> list[float]:
        """Op times of ``passes`` whole passes over ``inputs``."""
        samples: list[float] = []
        for _ in range(passes):
            for inp in inputs:
                self.probes.append(speed_probe())
                seconds, _, _ = self.run_op(state, inp, f"op {inp['index']}")
                samples.append(seconds)
        return samples

    def host_factor(self, since: int = 0) -> float:
        """Host slowdown against the nominal probe, from the probes taken
        since index ``since``."""
        return statistics.mean(self.probes[since:]) / PROBE_REF_S

    def measure_traced(self, state, inputs: list, passes: int):
        """``passes`` untraced, then ``passes`` traced.

        Returns (traced samples, traced run report, tracing overhead as
        untraced over traced ops per second, each half corrected by its
        own probes).
        """
        obs = self.obs
        start = len(self.probes)
        plain = self.measure(state, inputs, passes)
        plain_rate = len(plain) / sum(plain) * self.host_factor(start)
        start = len(self.probes)
        tracer = obs.enable(meta={"benchmark": f"perfbench::{self.workload.name}"})
        with self.layers.instrumented():
            samples = self.measure(state, inputs, passes)
        obs.disable()
        traced_rate = len(samples) / sum(samples) * self.host_factor(start)
        return samples, tracer.report(), plain_rate / traced_rate

    def check_reference(self, reference_seed: int, write: bool) -> dict[str, float]:
        """Re-run the fixed reference inputs and compare with the committed
        outputs; returns the workload's quality figures."""
        workload = self.workload
        path = HERE / "reference" / f"{workload.name}.json"
        state = workload.reference_state(self.scratch)
        inputs = workload.make_inputs(reference_seed, workload.reference_ops)
        records = []
        for inp in inputs:
            _, out, problems = self.run_op(state, inp, f"reference {inp['index']}")
            if not problems:
                records.append(workload.record(inp, out))
        if len(records) < len(inputs):
            return {}
        if write:
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(records, indent=1) + "\n")
        if not path.is_file():
            self.failures.append(f"reference: {path.name} missing")
            return {}
        committed = json.loads(path.read_text())
        if len(committed) != len(records):
            self.failures.append(f"reference: {path.name} holds {len(committed)} records, not {len(records)}")
            return {}
        errs = []
        for i, (got, ref) in enumerate(zip(records, committed)):
            problems, err = workload.compare(got, ref)
            errs.append(err)
            if problems:
                self.failures.append(f"reference {i}: {'; '.join(problems)}")
        return workload.quality(records, errs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {src}; run from the repository root", file=sys.stderr)
        return 2
    # Serial and single-threaded BLAS: one closed-loop client on a small host.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(HERE)]

    from repro import obs

    import layers
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(workloads.WORKLOADS)})")

    # Private scratch inside the checkout: the coupling caches live here,
    # never in the user's cache directory or in benchmarks/out/.
    (HERE / ".tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=HERE / ".tmp"))
    os.environ["REPRO_EMI_CACHE_DIR"] = str(scratch / "default-cache")
    try:
        runner = Runner(workload, obs, layers, scratch)
        return run(args, runner, layers, workloads.REFERENCE_SEED)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, runner: Runner, layers, reference_seed: int) -> int:
    workload = runner.workload
    inputs = workload.make_inputs(args.seed)
    state, setup_times, setup_report = runner.set_up(args.seed, bool(args.trace))
    # A fixed pass count, not a time limit: every run of a given --seconds
    # executes the same ops, whatever the host speed or program version.
    if args.trace:
        passes = max(1, math.ceil(args.seconds / 2.0 / workload.pass_seconds))
        samples, timed_report, overhead = runner.measure_traced(state, inputs, passes)
    else:
        passes = max(1, math.ceil(args.seconds / workload.pass_seconds))
        samples = runner.measure(state, inputs, passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    quality = runner.check_reference(reference_seed, args.write_reference)

    n = len(samples)
    level = tail_level(n)
    lines = [
        f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
        f"ops {n} ({passes} passes of {len(inputs)})",
        f"set-up times [s]: {', '.join(f'{t:.3f}' for t in setup_times)}",
        f"op_tail_s is p{level:g} of {n} samples",
        f"fail_ratio {len(runner.failures) / runner.attempted:.4f} "
        f"({len(runner.failures)} of {runner.attempted} ops, reference included)",
    ]
    if args.trace:
        metrics = layers.per_layer_metrics(timed_report, setup_report, n, overhead, quality)
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
        document = layers.trace_report(
            timed_report,
            setup_report,
            metrics,
            {"workload": workload.name, "seed": args.seed, "ops": n},
        )
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        report_path = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
        report_path.write_text(json.dumps(document, indent=1) + "\n")
        lines.append(f"timed public-layer calls cover {document['op_coverage']:.1%} of op wall time")
        lines.append("layer self time:")
        lines += [
            f"  {layer:<12} {e['self_s']:9.3f} s  {e['share']:6.1%}  {e['spans']:>7} spans"
            for layer, e in document["layers"].items()
        ]
        lines.append(f"wrote {os.path.relpath(report_path, ROOT)}")
    else:
        raw = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": n / sum(samples),
            "op_p50_s": statistics.median(samples),
            "op_tail_s": percentile(samples, level),
        }
        host = runner.host_factor()
        lines.append(
            f"host factor {host:.4f} (mean probe {host * PROBE_REF_S * 1e3:.2f} ms "
            f"over {len(runner.probes)} probes); as measured: "
            + ", ".join(f"{name} {value:.6g}" for name, value in raw.items())
        )
        metrics = {
            "setup_s": raw["setup_s"] / host,
            "ops_per_s": raw["ops_per_s"] * host,
            "op_p50_s": raw["op_p50_s"] / host,
            "op_tail_s": raw["op_tail_s"] / host,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        # Quality figures are per-layer metrics in the traced run.
        lines += [f"{name} {value:.6g} {layers.PER_LAYER[name][0]}" for name, value in quality.items()]
    lines += [f"{name} {value:.6g} {units[name]}" for name, value in metrics.items()]

    for failure in runner.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("\n".join(lines))
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
