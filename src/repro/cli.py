"""Command-line interface of the placement tool.

Mirrors the paper's usage loop on the ASCII file interface::

    repro-emi check  board.txt --format json --fail-on error
    repro-emi place  board.txt -o placed.txt --svg board.svg
    repro-emi drc    placed.txt
    repro-emi rules  board.txt --k-threshold 0.01 -o ruled.txt
    repro-emi compact placed.txt -o compacted.txt
    repro-emi demo   --out-dir out/
    repro-emi cache gc --max-size-mb 256 --max-age-days 30
    repro-emi serve  --port 8765

``check`` statically validates a design file without running any solver
(rule catalogue in ``docs/CHECKS.md``), ``place`` runs the automatic
three-step method, ``drc`` prints the red/green rule verdicts, ``rules``
derives PEMD rules for every pair of field-relevant parts in the file,
``compact`` shrinks a legal layout, ``demo`` reproduces the
buck-converter headline comparison, and ``serve`` runs the whole design
flow as an HTTP/JSON job service with live SSE progress streaming and
per-job artifact storage (API reference in ``docs/SERVICE.md``).

Every traced run mints a ULID-like *run-correlation id*, stamped into
the run report meta, every telemetry event and the perf-history row; a
literal ``{run_id}`` in ``--metrics-out`` / ``--events-out`` paths is
substituted with it, and ``perf history`` / ``perf diff`` accept
``--run-id`` to select runs by it.

Every subcommand accepts ``--trace`` (print the span/counter table after
the run), ``--metrics-out FILE`` (write the run report as JSON),
``--mem-trace`` (tracemalloc gauges per top-level span), ``--events-out
FILE`` (stream every telemetry event as JSONL while the run goes) and
``--live`` (single-line console progress: stage, span path, rates,
cache hit-rate); see ``docs/OBSERVABILITY.md``.  The field-solving subcommands (``rules``,
``demo``) additionally accept ``--cache-dir DIR`` and ``--no-cache``
(persistent coupling cache, on by default); see ``docs/PERFORMANCE.md``.

The ``perf`` subcommand group is the perf observatory over those run
reports::

    repro-emi perf record metrics.json        # append to the history store
    repro-emi perf history --key demo         # the stored trajectory
    repro-emi perf diff                       # delta table, last two runs
    repro-emi perf export metrics.json -o trace.json
    repro-emi perf flight metrics.json --events events.jsonl -o flight.html
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for --help testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-emi",
        description="EMI-coupling-aware placement for power electronics "
        "(reproduction of Stube et al., DATE 2008)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Instrumentation flags shared by every subcommand.
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--trace",
        action="store_true",
        help="print the span/counter table after the run",
    )
    obs_flags.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the run report (span tree, counters, gauges) as JSON",
    )
    obs_flags.add_argument(
        "--mem-trace",
        action="store_true",
        help="also record tracemalloc peak/current bytes per top-level span "
        "(mem.* gauges; slows the run measurably)",
    )
    obs_flags.add_argument(
        "--events-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="stream every telemetry event (spans, counters, gauges, stages, "
        "logs) as JSONL while the run goes; tail-able and crash-safe to the "
        "last event",
    )
    obs_flags.add_argument(
        "--live",
        action="store_true",
        help="single-line live progress on stderr: current stage, open span "
        "path, event/counter rates, cache hit-rate, RSS",
    )

    p_check = sub.add_parser(
        "check",
        help="statically validate a design file (no solver runs)",
        parents=[obs_flags],
    )
    p_check.add_argument("problem", type=Path)
    p_check.add_argument(
        "--netlist",
        type=Path,
        default=None,
        metavar="FILE",
        help="also lint a SPICE-style netlist file against the circuit rules",
    )
    p_check.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report rendering (default: text)",
    )
    p_check.add_argument(
        "--fail-on",
        choices=("warning", "error"),
        default="warning",
        help="minimum severity that produces a nonzero exit code "
        "(default: warning; the exit code is the max severity, 1 or 2)",
    )

    p_place = sub.add_parser(
        "place",
        help="automatic placement of a problem file",
        parents=[obs_flags],
    )
    p_place.add_argument("problem", type=Path)
    p_place.add_argument("-o", "--output", type=Path, help="write placed problem")
    p_place.add_argument("--svg", type=Path, help="write an SVG board view")
    p_place.add_argument(
        "--baseline", action="store_true", help="EMI-blind placement (no min distances)"
    )
    p_place.add_argument(
        "--partition", action="store_true", help="partition onto two boards first"
    )
    p_place.add_argument(
        "--no-rotation", action="store_true", help="skip the optimal-rotation step"
    )
    p_place.add_argument(
        "--refine",
        action="store_true",
        help="rip-up-and-replace wirelength refinement after placement",
    )

    p_drc = sub.add_parser(
        "drc", help="check a placed problem file", parents=[obs_flags]
    )
    p_drc.add_argument("problem", type=Path)
    p_drc.add_argument("--csv", type=Path, help="write rule markers as CSV")

    # Performance flags shared by the field-solving subcommands.
    perf_flags = argparse.ArgumentParser(add_help=False)
    perf_flags.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="root of the persistent coupling cache "
        "(default: $REPRO_EMI_CACHE_DIR or ~/.cache/repro-emi/coupling)",
    )
    perf_flags.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent coupling cache for this run",
    )

    p_rules = sub.add_parser(
        "rules",
        help="derive PEMD rules for the field-relevant parts",
        parents=[obs_flags, perf_flags],
    )
    p_rules.add_argument("problem", type=Path)
    p_rules.add_argument("--k-threshold", type=float, default=0.01)
    p_rules.add_argument("-o", "--output", type=Path, help="write problem incl. rules")
    p_rules.add_argument(
        "--max-pairs", type=int, default=40, help="cap on derived pairs"
    )

    p_compact = sub.add_parser(
        "compact", help="shrink a legal layout", parents=[obs_flags]
    )
    p_compact.add_argument("problem", type=Path)
    p_compact.add_argument("-o", "--output", type=Path)
    p_compact.add_argument("--step-mm", type=float, default=1.0)

    p_demo = sub.add_parser(
        "demo",
        help="run the buck-converter comparison",
        parents=[obs_flags, perf_flags],
    )
    p_demo.add_argument("--out-dir", type=Path, default=Path("repro-demo-out"))

    p_cache = sub.add_parser(
        "cache",
        help="manage the persistent coupling cache",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    pc_gc = cache_sub.add_parser(
        "gc",
        help="evict stale/excess cache entries (LRU by file mtime)",
        description="Garbage-collect the persistent coupling cache: first "
        "drop entries older than --max-age-days, then drop the "
        "least-recently-used entries until the cache fits --max-size-mb. "
        "At least one bound is required.",
    )
    pc_gc.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="root of the persistent coupling cache "
        "(default: $REPRO_EMI_CACHE_DIR or ~/.cache/repro-emi/coupling)",
    )
    pc_gc.add_argument(
        "--max-size-mb",
        type=float,
        default=None,
        metavar="MB",
        help="evict least-recently-used entries until the cache is at most "
        "this many megabytes",
    )
    pc_gc.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        metavar="DAYS",
        help="evict entries whose mtime is older than this many days",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the EMI-design HTTP job service",
        description="Serve the EMI design flow as an HTTP/JSON job API: "
        "POST design or board payloads to /jobs, stream progress as "
        "Server-Sent Events from /jobs/{id}/events and fetch artifacts from "
        "/jobs/{id}/artifacts; jobs run one at a time in submission order "
        "(full reference: docs/SERVICE.md).",
    )
    p_serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="bind port; 0 picks an ephemeral port (default: 8765)",
    )
    p_serve.add_argument(
        "--data-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="artifact root (default: $REPRO_EMI_SERVICE_DIR or "
        "~/.cache/repro-emi/service)",
    )
    p_serve.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="shared persistent coupling cache (default: "
        "~/.cache/repro-emi/coupling)",
    )
    p_serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the shared persistent coupling cache",
    )
    p_serve.add_argument(
        "--job-timeout",
        type=float,
        default=300.0,
        metavar="S",
        help="default per-job wall-clock timeout in seconds (default: 300)",
    )
    p_serve.add_argument(
        "--max-jobs",
        type=int,
        default=64,
        metavar="N",
        help="queued-job bound; submissions beyond it get 429 (default: 64)",
    )
    p_serve.add_argument(
        "--event-buffer",
        type=int,
        default=65536,
        metavar="N",
        help="per-job telemetry ring-buffer capacity (default: 65536)",
    )

    # -- the perf observatory (docs/OBSERVABILITY.md) ----------------------

    store_flags = argparse.ArgumentParser(add_help=False)
    store_flags.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="FILE",
        help="perf-history JSONL file (default: $REPRO_EMI_PERF_HISTORY or "
        "~/.cache/repro-emi/perf/history.jsonl)",
    )
    p_perf = sub.add_parser(
        "perf",
        help="perf observatory: record, diff and export run reports",
    )
    perf_sub = p_perf.add_subparsers(dest="perf_command", required=True)

    pp_record = perf_sub.add_parser(
        "record",
        help="append --metrics-out / BENCH_*.json report files to the store",
        parents=[store_flags],
    )
    pp_record.add_argument("reports", type=Path, nargs="+", metavar="REPORT")
    pp_record.add_argument(
        "--key",
        default=None,
        help="series key (default: the report's meta benchmark/command)",
    )

    pp_history = perf_sub.add_parser(
        "history",
        help="list (or summarise) the stored perf trajectory",
        parents=[store_flags],
    )
    pp_history.add_argument("--key", default=None, help="restrict to one series")
    pp_history.add_argument(
        "--run-id",
        default=None,
        metavar="ID",
        help="restrict to records whose run-correlation id starts with ID",
    )
    pp_history.add_argument(
        "--limit", type=int, default=20, help="most recent N records (default: 20)"
    )
    pp_history.add_argument(
        "--stats",
        action="store_true",
        help="per-span/per-counter medians of the series instead of the record list",
    )
    pp_history.add_argument("--format", choices=("text", "json"), default="text")

    pp_diff = perf_sub.add_parser(
        "diff",
        help="per-span/per-counter delta table between two runs",
        parents=[store_flags],
    )
    pp_diff.add_argument(
        "reports",
        type=Path,
        nargs="*",
        metavar="REPORT",
        help="two report files (baseline, current); with none given, the "
        "store's last two records (of --key, when set) are compared",
    )
    pp_diff.add_argument("--key", default=None, help="series key for store mode")
    pp_diff.add_argument(
        "--run-id",
        default=None,
        metavar="ID",
        help="store mode: diff the stored record whose run-correlation id "
        "starts with ID against its predecessor in the series",
    )
    pp_diff.add_argument("--format", choices=("text", "json"), default="text")

    pp_export = perf_sub.add_parser(
        "export",
        help="export a run report as Chrome trace JSON (Perfetto, about://tracing)",
    )
    pp_export.add_argument("report", type=Path, metavar="REPORT")
    pp_export.add_argument(
        "-o",
        "--output",
        type=Path,
        default=None,
        metavar="FILE",
        help="write here instead of stdout",
    )

    pp_flight = perf_sub.add_parser(
        "flight",
        help="render one run as a self-contained HTML flight recorder",
        parents=[store_flags],
    )
    pp_flight.add_argument("report", type=Path, metavar="REPORT")
    pp_flight.add_argument(
        "--events",
        type=Path,
        default=None,
        metavar="FILE",
        help="the run's --events-out JSONL log (adds the event timeline)",
    )
    pp_flight.add_argument(
        "--key",
        default=None,
        help="history series key (default: the report's meta benchmark/command)",
    )
    pp_flight.add_argument(
        "-o",
        "--output",
        type=Path,
        default=Path("flight.html"),
        metavar="FILE",
        help="output HTML file (default: flight.html)",
    )
    return parser


def _load(path: Path):
    from .io import read_problem

    return read_problem(path.read_text())


def _save(problem, path: Path, title: str) -> None:
    from .io import write_problem

    path.write_text(write_problem(problem, title=title))


def _cmd_check(args: argparse.Namespace) -> int:
    from .check import Severity, run_checks
    from .io import AsciiFormatError

    try:
        problem = _load(args.problem)
    except OSError as exc:
        print(f"check: cannot read {args.problem}: {exc}", file=sys.stderr)
        return int(Severity.ERROR)
    except AsciiFormatError as exc:
        print(f"check: cannot parse {args.problem}: {exc}", file=sys.stderr)
        return int(Severity.ERROR)
    circuit = None
    if args.netlist is not None:
        from .circuit import parse_netlist

        try:
            circuit = parse_netlist(args.netlist.read_text(), title=args.netlist.name)
        except OSError as exc:
            print(f"check: cannot read {args.netlist}: {exc}", file=sys.stderr)
            return int(Severity.ERROR)
        except (ValueError, KeyError) as exc:
            print(f"check: cannot parse {args.netlist}: {exc}", file=sys.stderr)
            return int(Severity.ERROR)
    report = run_checks(problem=problem, circuit=circuit, subject=args.problem.name)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.text())
    return report.exit_code(Severity.parse(args.fail_on))


def _cmd_place(args: argparse.Namespace) -> int:
    from .placement import AutoPlacer, BaselinePlacer, PlacementError

    problem = _load(args.problem)
    placer = (
        BaselinePlacer(problem)
        if args.baseline
        else AutoPlacer(
            problem,
            optimize_rotation=not args.no_rotation,
            partition=args.partition,
        )
    )
    try:
        report = placer.run()
    except PlacementError as exc:
        print(f"placement failed: {exc}", file=sys.stderr)
        return 2
    print(
        f"placed {report.placed_count} components in {report.runtime_s * 1e3:.0f} ms; "
        f"violations: {report.violations_after}"
    )
    if args.refine and not args.baseline:
        from .placement import refine_wirelength

        result = refine_wirelength(problem)
        print(
            f"refinement: wirelength {result.wirelength_before * 1e3:.0f} -> "
            f"{result.wirelength_after * 1e3:.0f} mm "
            f"({result.improvement * 100:.0f}% shorter)"
        )
    if args.output:
        _save(problem, args.output, f"placed from {args.problem.name}")
        print(f"wrote {args.output}")
    if args.svg:
        from .viz import render_board_svg

        args.svg.write_text(render_board_svg(problem, title=args.problem.stem))
        print(f"wrote {args.svg}")
    return 0 if report.violations_after == 0 else 1


def _cmd_drc(args: argparse.Namespace) -> int:
    from .placement import DesignRuleChecker

    problem = _load(args.problem)
    checker = DesignRuleChecker(problem)
    violations = checker.check_all()
    for marker in checker.rule_markers():
        print(
            f"  {marker.color.upper():5s} {marker.ref_a}-{marker.ref_b} "
            f"(EMD {marker.emd * 1e3:.1f} mm)"
        )
    for violation in violations:
        print(f"  ! {violation.message}")
    print(f"{len(violations)} violation(s)")
    if args.csv:
        from .viz import markers_to_csv

        args.csv.write_text(markers_to_csv(problem))
        print(f"wrote {args.csv}")
    return 0 if not violations else 1


def _coupling_database(args: argparse.Namespace):
    """The coupling database honouring --cache-dir / --no-cache.

    It carries a persistent tier unless ``--no-cache`` was given.
    """
    from .coupling import CouplingDatabase
    from .parallel import PersistentCouplingCache

    persistent = None
    if not args.no_cache:
        persistent = PersistentCouplingCache(cache_dir=args.cache_dir)
    return CouplingDatabase(persistent=persistent)


def _cache_line(stats) -> str:
    """One line of coupling-cache accounting: pair lookups, distance laws
    and the entries of either kind read from disk."""
    return (
        f"coupling cache: {stats.hits} hit(s), {stats.misses} field solve(s); "
        f"distance laws: {stats.law_hits} hit(s), {stats.law_fits} fit(s); "
        f"{stats.persistent_hits} from disk"
    )


def _cmd_rules(args: argparse.Namespace) -> int:
    from .obs import get_tracer
    from .rules import RuleSet, derive_pemd

    problem = _load(args.problem)
    relevant = [
        (ref, comp.component)
        for ref, comp in problem.components.items()
        if comp.component.field_relevant
    ]
    database = _coupling_database(args)
    rules = list(problem.rules.min_distance)
    known = {r.pair() for r in rules}
    derived = 0
    with get_tracer().stage("rules", {"max_pairs": args.max_pairs}):
        for i in range(len(relevant)):
            for j in range(i + 1, len(relevant)):
                if derived >= args.max_pairs:
                    break
                ref_a, comp_a = relevant[i]
                ref_b, comp_b = relevant[j]
                if tuple(sorted((ref_a, ref_b))) in known:
                    continue
                derivation = derive_pemd(comp_a, comp_b, args.k_threshold, database=database)
                rule = derivation.rule(ref_a, ref_b)
                rules.append(rule)
                derived += 1
                print(
                    f"  {ref_a}-{ref_b}: PEMD {rule.pemd * 1e3:.1f} mm "
                    f"(residual {rule.residual:.2f})"
                )
    print(_cache_line(database.stats))
    problem.rules = RuleSet(
        min_distance=rules,
        clearance=problem.rules.clearance,
        groups=problem.rules.groups,
        net_lengths=problem.rules.net_lengths,
    )
    print(f"derived {derived} rule(s), total {len(rules)}")
    if args.output:
        _save(problem, args.output, f"rules for {args.problem.name}")
        print(f"wrote {args.output}")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    from .placement.compaction import compact_layout

    problem = _load(args.problem)
    result = compact_layout(problem, step=args.step_mm * 1e-3)
    print(
        f"compaction: {result.moves} moves in {result.passes} pass(es); "
        f"area {result.area_before * 1e4:.2f} -> {result.area_after * 1e4:.2f} cm^2 "
        f"({result.reduction * 100:.1f}% smaller)"
    )
    if args.output:
        _save(problem, args.output, f"compacted from {args.problem.name}")
        print(f"wrote {args.output}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .converters import BuckConverterDesign
    from .core import EmiDesignFlow
    from .viz import render_board_svg, spectrum_to_csv

    from .parallel import default_cache_dir

    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    flow = EmiDesignFlow(BuckConverterDesign(), cache_dir=cache_dir)
    evaluations = flow.compare_layouts()
    print(_cache_line(flow.coupling_stats))
    for name, evaluation in evaluations.items():
        print(
            f"{name}: {evaluation.violations} violations, "
            f"CISPR margin {evaluation.worst_margin_db:+.1f} dB"
        )
        (out / f"{name}.svg").write_text(
            render_board_svg(evaluation.problem, title=name)
        )
    (out / "spectra.csv").write_text(
        spectrum_to_csv({n: e.spectrum for n, e in evaluations.items()})
    )
    from .core import flow_report

    (out / "report.md").write_text(flow_report(flow, evaluations))
    print(f"artifacts in {out}/")
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    from .parallel import PersistentCouplingCache

    if args.max_size_mb is None and args.max_age_days is None:
        print(
            "cache gc: pass --max-size-mb and/or --max-age-days",
            file=sys.stderr,
        )
        return 2
    cache = PersistentCouplingCache(cache_dir=args.cache_dir)
    stats = cache.gc(
        max_size_bytes=(
            None if args.max_size_mb is None else int(args.max_size_mb * 1024 * 1024)
        ),
        max_age_s=(
            None if args.max_age_days is None else args.max_age_days * 86400.0
        ),
    )
    print(
        f"cache gc {cache.cache_dir}: scanned {stats['scanned']} entr"
        f"{'y' if stats['scanned'] == 1 else 'ies'}, evicted "
        f"{stats['evicted']}, kept {stats['kept']}"
    )
    print(
        f"  {stats['bytes_before'] / 1e6:.2f} MB -> "
        f"{stats['bytes_after'] / 1e6:.2f} MB "
        f"({stats['bytes_evicted'] / 1e6:.2f} MB freed)"
    )
    return 0


_CACHE_COMMANDS = {
    "gc": _cmd_cache_gc,
}


def _cmd_cache(args: argparse.Namespace) -> int:
    return _CACHE_COMMANDS[args.cache_command](args)


# -- perf observatory subcommands ------------------------------------------

#: Stored runs in the flight recorder's history sparkline.
_SPARKLINE_RUNS = 20


def _load_run_report(path: Path):
    """Parse a run-report JSON file, or the ``timed_run`` report of a
    perfbench trace document, or fail with a CLI-style message."""
    import json

    from .obs import RunReport

    try:
        data = json.loads(path.read_text())
        return RunReport.from_dict(data.get("timed_run", data))
    except OSError as exc:
        print(f"perf: cannot read {path}: {exc}", file=sys.stderr)
    except (AttributeError, ValueError, KeyError, TypeError) as exc:
        print(f"perf: cannot parse {path}: {exc}", file=sys.stderr)
    return None


def _stored_index(series, run_id: str) -> int | None:
    """Index of the first record in ``series`` whose run-correlation id
    starts with ``run_id``, or ``None``."""
    return next(
        (i for i, r in enumerate(series) if r.run_id and r.run_id.startswith(run_id)),
        None,
    )


def _cmd_perf_record(args: argparse.Namespace) -> int:
    from .obs import PerfHistory

    history = PerfHistory(args.store)
    for path in args.reports:
        report = _load_run_report(path)
        if report is None:
            return 2
        record = history.append(report, key=args.key)
        print(
            f"recorded {record.key} @ {record.git_sha[:10]} "
            f"({record.wall_s:.3f} s) -> {history.path}"
        )
    return 0


def _cmd_perf_history(args: argparse.Namespace) -> int:
    import json

    from .obs import PerfHistory

    history = PerfHistory(args.store)
    if args.stats:
        if args.key is None:
            print("perf history --stats requires --key", file=sys.stderr)
            return 2
        summary = history.summarise(args.key)
        if args.format == "json":
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0
        print(
            f"{summary['key']}: {summary['runs']} run(s) "
            f"{summary['first']} .. {summary['last']}"
        )
        for path, stats in summary["spans"].items():
            print(
                f"  {path}: median {stats['median']:.4f} s "
                f"(min {stats['min']:.4f}, max {stats['max']:.4f}, "
                f"last {stats['last']:.4f})"
            )
        return 0
    if args.run_id:
        matching = [
            r
            for r in history.records(key=args.key)
            if r.run_id and r.run_id.startswith(args.run_id)
        ]
        records = matching[-args.limit :] if args.limit > 0 else matching
    else:
        records = history.last(key=args.key, n=args.limit)
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in records], indent=2, sort_keys=True))
        return 0
    if not records:
        print(f"no records in {history.path}")
        return 0
    for record in records:
        run_id = f"  {record.run_id}" if record.run_id else ""
        print(
            f"{record.recorded_at}  {record.git_sha[:10]:10s}  "
            f"{record.wall_s:9.3f} s  {record.key}{run_id}"
        )
    if history.skipped_lines:
        print(f"({history.skipped_lines} malformed line(s) skipped)")
    return 0


def _cmd_perf_diff(args: argparse.Namespace) -> int:
    import json

    from .obs import PerfHistory, compare

    if len(args.reports) == 2:
        baseline = _load_run_report(args.reports[0])
        current = _load_run_report(args.reports[1])
        if baseline is None or current is None:
            return 2
        pair = (baseline, current)
        origin = f"{args.reports[0]} -> {args.reports[1]}"
    elif not args.reports:
        history = PerfHistory(args.store)
        if args.run_id:
            series = history.records(key=args.key)
            index = _stored_index(series, args.run_id)
            if index is None:
                print(
                    f"perf diff: no stored run with run id {args.run_id!r} "
                    f"in {history.path}",
                    file=sys.stderr,
                )
                return 2
            if index == 0:
                print(
                    f"perf diff: run {series[0].run_id} is the oldest stored "
                    "record; nothing to diff against",
                    file=sys.stderr,
                )
                return 2
            records = [series[index - 1], series[index]]
        else:
            records = history.last(key=args.key, n=2)
        if len(records) < 2:
            print(
                f"perf diff: need two stored runs, found {len(records)} "
                f"in {history.path}",
                file=sys.stderr,
            )
            return 2
        pair = (records[0].report, records[1].report)
        origin = (
            f"{records[0].recorded_at} ({records[0].git_sha[:10]}) -> "
            f"{records[1].recorded_at} ({records[1].git_sha[:10]})"
        )
    else:
        print("perf diff: pass exactly two report files, or none", file=sys.stderr)
        return 2
    verdict = compare(*pair)
    if args.format == "json":
        print(json.dumps(verdict.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"diff {origin}")
        print(verdict.table())
        print(verdict.summary())
    return 0


def _cmd_perf_export(args: argparse.Namespace) -> int:
    from .obs import chrome_trace_json

    report = _load_run_report(args.report)
    if report is None:
        return 2
    text = chrome_trace_json(report) + "\n"
    if args.output is not None:
        args.output.write_text(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_perf_flight(args: argparse.Namespace) -> int:
    from .obs import (
        PerfHistory,
        compare,
        default_key,
        render_flight_html,
        validate_event_dict,
    )

    report = _load_run_report(args.report)
    if report is None:
        return 2

    events = None
    if args.events is not None:
        try:
            text = args.events.read_text(encoding="utf-8")
        except OSError as exc:
            print(f"perf flight: cannot read {args.events}: {exc}", file=sys.stderr)
            return 2
        import json

        events = []
        skipped = 0
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except ValueError:
                skipped += 1
                continue
            if not isinstance(data, dict) or validate_event_dict(data):
                skipped += 1
                continue
            events.append(data)
        if skipped:
            print(
                f"perf flight: skipped {skipped} malformed event line(s)",
                file=sys.stderr,
            )

    history = PerfHistory(args.store)
    key = args.key if args.key is not None else default_key(report)
    series = history.records(key=key)
    # Diff against the stored record before this run's own (the pair
    # ``perf diff --run-id`` shows), or the last one when it is unstored.
    stored = _stored_index(series, report.run_id) if report.run_id else None
    earlier = series if stored is None else series[:stored]
    verdict = compare(earlier[-1].report, report) if earlier else None
    records = series[-_SPARKLINE_RUNS:]

    html = render_flight_html(
        report,
        events=events,
        history=records or None,
        verdict=verdict,
        title=f"repro-emi flight recorder — {key}",
    )
    args.output.write_text(html, encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


_PERF_COMMANDS = {
    "record": _cmd_perf_record,
    "history": _cmd_perf_history,
    "diff": _cmd_perf_diff,
    "export": _cmd_perf_export,
    "flight": _cmd_perf_flight,
}


def _cmd_perf(args: argparse.Namespace) -> int:
    return _PERF_COMMANDS[args.perf_command](args)


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading
    from collections import Counter

    from .service import EmiService, ServiceConfig, default_data_dir

    cache_dir = None if args.no_cache else args.cache_dir
    kwargs: dict = {
        "host": args.host,
        "port": args.port,
        "data_dir": args.data_dir or default_data_dir(),
        "job_timeout_s": args.job_timeout,
        "max_queued": args.max_jobs,
        "event_buffer": args.event_buffer,
    }
    if args.no_cache or args.cache_dir is not None:
        kwargs["cache_dir"] = cache_dir
    config = ServiceConfig(**kwargs)
    service = EmiService(config)
    url = service.start()
    print(f"repro-emi service listening on {url}")
    print(f"  artifacts: {config.jobs_root()}")
    print(f"  cache: {config.cache_dir if config.cache_dir else 'disabled'}")
    print("POST /jobs to submit; Ctrl-C drains in-flight jobs and exits.")
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    try:
        stop.wait()
    finally:
        print("shutting down: draining in-flight jobs...", flush=True)
        service.stop(drain=True)
        states = Counter(job.state for job in service.manager.jobs())
        print(
            f"done: {states['succeeded']} succeeded, {states['failed']} failed, "
            f"{states['cancelled']} cancelled"
        )
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "place": _cmd_place,
    "drc": _cmd_drc,
    "rules": _cmd_rules,
    "compact": _cmd_compact,
    "demo": _cmd_demo,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "perf": _cmd_perf,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    When ``--trace`` or ``--metrics-out`` is given, the command runs under
    a fresh global tracer; the resulting run report is printed as a table
    and/or written as JSON after the command finishes (also on failure, so
    partial runs can be diagnosed).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    events_out = getattr(args, "events_out", None)
    live = getattr(args, "live", False)
    want_metrics = (
        getattr(args, "trace", False)
        or getattr(args, "metrics_out", None) is not None
        or getattr(args, "mem_trace", False)
        or events_out is not None
        or live
    )
    if not want_metrics:
        return _COMMANDS[args.command](args)

    from datetime import datetime, timezone

    from .obs import (
        EventBus,
        JsonlSink,
        LiveRenderer,
        ResourceSampler,
        disable,
        enable,
        new_run_id,
    )

    # Mint the run-correlation id up front so artifact paths can carry it:
    # a literal ``{run_id}`` in --metrics-out / --events-out substitutes.
    run_id = new_run_id()
    if args.metrics_out is not None and "{run_id}" in str(args.metrics_out):
        args.metrics_out = Path(str(args.metrics_out).replace("{run_id}", run_id))
    if events_out is not None and "{run_id}" in str(events_out):
        events_out = Path(str(events_out).replace("{run_id}", run_id))
        args.events_out = events_out

    # Fail fast: don't run a long command only to lose its report.
    if args.metrics_out is not None:
        parent = Path(args.metrics_out).resolve().parent
        if not parent.is_dir():
            parser.error(f"--metrics-out: directory does not exist: {parent}")
    if events_out is not None:
        parent = Path(events_out).resolve().parent
        if not parent.is_dir():
            parser.error(f"--events-out: directory does not exist: {parent}")

    bus = None
    if events_out is not None or live:
        bus = EventBus()
        if events_out is not None:
            bus.subscribe(JsonlSink(events_out))
        if live:
            bus.subscribe(LiveRenderer())
    tracer = enable(
        meta={
            "command": args.command,
            "argv": list(argv or sys.argv[1:]),
            "started_at": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
        },
        mem_trace=getattr(args, "mem_trace", False),
        bus=bus,
        run_id=run_id,
    )
    sampler = None
    if bus is not None:
        sampler = ResourceSampler(tracer, bus=bus)
        sampler.start()
    # On an exception the partial report still flushes, stamped with the
    # failure so downstream tooling never mistakes it for a healthy run.
    status_meta: dict = {"status": "ok"}
    try:
        return _COMMANDS[args.command](args)
    except BaseException as exc:
        status_meta = {"status": "error", "error_type": type(exc).__name__}
        raise
    finally:
        if sampler is not None:
            sampler.stop()
        disable()
        tracer.stop_mem_trace()
        report = tracer.report(extra_meta=status_meta)
        if bus is not None:
            bus.close()
        if args.metrics_out is not None:
            report.write(args.metrics_out)
            print(f"wrote {args.metrics_out}")
        if events_out is not None:
            print(f"wrote {events_out}")
        if args.trace:
            print(report.table())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
