"""Command-line entry point.

One executable, one subcommand per pipeline stage: validate-spec,
extract, verify, flatten, drill-down, unfold, dfg, stats. Machine output
goes to files named by ``--out``; stdout carries human-readable
summaries. Exit codes: 0 success (warnings allowed), 1 usage or spec
error, 2 verification violations, 3 I/O or data error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time
from pathlib import Path

from . import analysis, extraction, specmodel, verification
from .analysis import stats
from .errors import DataError, OcedfError, OcelDocumentError, SchemaError, SpecError
from .fileio import open_atomic
from .ocel import OcedLog, read_ocel_json, write_ocel_json

log = logging.getLogger("ocedf.cli")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATIONS = 2
EXIT_DATA = 3


class UsageError(OcedfError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through our exit-code contract."""

    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ocedf", description=__doc__)
    parser.add_argument("--quiet", action="store_true", help="only log errors to stderr")
    parser.add_argument("--log-level", choices=["error", "warn", "info", "debug"], default="warn")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("validate-spec", help="validate a project spec document")
    p.add_argument("spec_path")

    p = sub.add_parser("extract", help="extract an OCEL log from CSV sources")
    p.add_argument("--spec", required=True)
    p.add_argument("--source-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--on-dangling", choices=["skip", "fail"], default="skip")

    p = sub.add_parser("verify", help="check an extracted log against the extraction matrix")
    p.add_argument("--spec", required=True)
    p.add_argument("--log", dest="log_path", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("flatten", help="flatten onto one object type as CSV")
    p.add_argument("--log", dest="log_path", required=True)
    p.add_argument("--object-type", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("drill-down", help="split a supertype by its discriminator attribute")
    p.add_argument("--log", dest="log_path", required=True)
    p.add_argument("--type", dest="object_type", required=True)
    p.add_argument("--discriminator-attr", default="role")
    p.add_argument("--out", required=True)

    p = sub.add_parser("unfold", help="refine an event type by a related object's name")
    p.add_argument("--log", dest="log_path", required=True)
    p.add_argument("--event-type", required=True)
    p.add_argument("--by", dest="by_object_type", required=True)
    p.add_argument("--name-attr", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("dfg", help="discover a directly-follows graph as DOT")
    p.add_argument("--log", dest="log_path", required=True)
    p.add_argument("--object-types", required=True, help="comma-separated type names")
    p.add_argument("--min-edge-freq", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("stats", help="summarize objects and events")
    p.add_argument("--log", dest="log_path", required=True)
    p.add_argument("--discriminator-attr", default="role")

    return parser


def _configure_logging(args) -> None:
    level_name = os.environ.get("OCEDF_LOG", args.log_level)
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    level = levels.get(level_name.lower(), logging.WARNING)
    if args.quiet:
        level = logging.ERROR
    # basicConfig adds a stderr handler only if the root logger has none; the
    # level is set on every call, so each run in one process takes its own
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("ocedf").setLevel(level)


def _cmd_validate_spec(args) -> int:
    spec = specmodel.parse_spec_document(specmodel.load_spec_document(args.spec_path))
    diagnostics = specmodel.validate_spec(spec)
    for d in diagnostics:
        print(d)
    errors = sum(1 for d in diagnostics if d.severity == "error")
    if errors:
        print(f"{errors} error(s), {len(diagnostics) - errors} warning(s)")
        return EXIT_USAGE
    print(f"spec OK ({len(diagnostics)} warning(s))")
    return EXIT_OK


def _cmd_extract(args) -> int:
    spec = specmodel.parse_spec(args.spec)
    source_dir = Path(args.source_dir)
    started = time.perf_counter()
    sources = {}
    for rule in spec.mappings:
        name = rule.source_table
        if name not in sources:
            sources[name] = extraction.load_source(source_dir / f"{name}.csv", name)
    started = _log_stage("load", sum(t.row_count for t in sources.values()), started, "rows")
    oced_log, report = extraction.extract(spec, sources, on_dangling=args.on_dangling)
    events = len(oced_log.events)
    started = _log_stage("extract", events, started)
    write_ocel_json(oced_log, args.out)
    started = _log_stage("write", events, started)
    with open_atomic(f"{args.out}.report.json") as fh:
        fh.write(json.dumps(report.to_dict(), indent=2) + "\n")
    _log_stage("report", events, started)
    print(f"extracted {report.counts['object']} objects, {report.counts['event']} events, "
          f"{report.counts['e2o']} e2o, {report.counts['o2o']} o2o "
          f"({sum(r.rows_skipped for r in report.rule_runs)} rows skipped) -> {args.out}")
    return EXIT_OK


def _log_stage(stage: str, count: int, started: float, unit: str = "events") -> float:
    """Log one info line with ``stage``'s seconds since ``started`` and its
    rate in ``unit`` (events, or rows) per second; return the time now, the
    next stage's start."""
    now = time.perf_counter()
    seconds = now - started
    log.info("%s: %.3f s, %d %s, %.0f %s/s",
             stage, seconds, count, unit, count / seconds if seconds > 0 else 0, unit)
    return now


def _read_log(path: str) -> tuple[OcedLog, int, float]:
    """The log at ``path``, its event count and the time its read stage was
    logged, the next stage's start."""
    started = time.perf_counter()
    oced_log = read_ocel_json(path)
    events = len(oced_log.events)
    return oced_log, events, _log_stage("read", events, started)


def _cmd_verify(args) -> int:
    spec = specmodel.parse_spec(args.spec)
    oced_log, events, started = _read_log(args.log_path)
    matrix = verification.derive_matrix(oced_log, spec.xmatrix, spec.schema)
    started = _log_stage("derive_matrix", events, started)
    report = verification.check(matrix, spec.xmatrix)
    _log_stage("check", events, started)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(verification.render_matrix(matrix, report), end="")
        print(f"{len(report.violations)} violations, {len(report.warnings)} warnings")
    return EXIT_VIOLATIONS if report.violations else EXIT_OK


def _cmd_flatten(args) -> int:
    oced_log, events, started = _read_log(args.log_path)
    flat = analysis.flatten(oced_log, args.object_type)
    started = _log_stage("flatten", events, started)
    rows = 0
    with open_atomic(args.out, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case", "activity", "timestamp", "event_id"])
        for case_id, trace in flat.cases:   # stored times: UTC with whole milliseconds
            writer.writerows([case_id, event.type, event.time.isoformat(timespec="milliseconds"),
                              event.id] for event in trace)
            rows += len(trace)
    _log_stage("write", rows, started, "rows")
    print(f"flattened {rows} rows onto {args.object_type!r} -> {args.out}")
    return EXIT_OK


def _cmd_drill_down(args) -> int:
    oced_log, events, started = _read_log(args.log_path)
    out = analysis.drill_down(oced_log, args.object_type, args.discriminator_attr)
    started = _log_stage("drill_down", events, started)
    write_ocel_json(out, args.out)
    _log_stage("write", events, started)
    print(f"drilled down {args.object_type!r} -> {args.out}")
    return EXIT_OK


def _cmd_unfold(args) -> int:
    oced_log, events, started = _read_log(args.log_path)
    out = analysis.unfold_events(oced_log, args.event_type, args.by_object_type, args.name_attr)
    started = _log_stage("unfold_events", events, started)
    write_ocel_json(out, args.out)
    _log_stage("write", events, started)
    print(f"unfolded {args.event_type!r} by {args.by_object_type!r} -> {args.out}")
    return EXIT_OK


def _cmd_dfg(args) -> int:
    if args.min_edge_freq < 0:
        raise UsageError("--min-edge-freq must be >= 0")
    types = [t.strip() for t in args.object_types.split(",") if t.strip()]
    if not types:
        raise UsageError("--object-types needs at least one type name")
    oced_log, events, started = _read_log(args.log_path)
    dfg = analysis.discover_dfg(oced_log, types)
    started = _log_stage("discover_dfg", events, started)
    text = analysis.to_dot(dfg, args.min_edge_freq)
    with open_atomic(args.out) as fh:
        fh.write(text)
    _log_stage("write", events, started)
    edges = sum(len(g.edges) for g in dfg.per_type.values())
    print(f"discovered DFG over {', '.join(sorted(dfg.per_type))}: {edges} edge(s) -> {args.out}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    oced_log, events, started = _read_log(args.log_path)
    text = stats(oced_log, args.discriminator_attr)
    _log_stage("stats", events, started)
    print(text, end="")
    return EXIT_OK


_COMMANDS = {
    "validate-spec": _cmd_validate_spec,
    "extract": _cmd_extract,
    "verify": _cmd_verify,
    "flatten": _cmd_flatten,
    "drill-down": _cmd_drill_down,
    "unfold": _cmd_unfold,
    "dfg": _cmd_dfg,
    "stats": _cmd_stats,
}


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch, and map failures to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a subcommand is required (see --help)")
        _configure_logging(args)
        return _COMMANDS[args.command](args)
    except (UsageError, SpecError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OcelDocumentError, DataError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
