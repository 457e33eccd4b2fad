#!/usr/bin/env python3
"""Benchmark of the ocedf pipeline on one generated course.

    python3 benchmark/run.py --workload {ingest,verify,analyze} --seed N \\
        --seconds S --trace {0,1}

The course (``course.STUDENTS`` students) is generated from the seed. Set-up
runs at least ``SETUP_REPS`` times, each in a child process of this script
(``--set-up-dir``) that is waited for, so its memory stays out of this
process's peak. The workload body then runs as a closed
loop, one caller on one thread like a batch CLI, for S seconds and at least
``MIN_PASSES`` passes. Every pass's outputs are checked outside the timed
region. Each stage is timed from outside, around the public call into
``extraction``, ``ocel``, ``verification``, ``analysis`` or ``cli``. Every
time is scaled to the probe's reference speed (see ``probe.py``).

The last line of stdout is one JSON object with ``correct``, ``attempted``
(stage calls), ``failed`` (stage calls that raised or whose output failed a
check) and ``metrics``. With ``--trace 0`` the metrics are the end-to-end
ones. With ``--trace 1`` traced and untraced passes alternate, and the
metrics are the per-layer ones computed from the traced passes' spans,
which are also written to ``.bench_work/trace-<workload>-seed<N>.json``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import course  # noqa: E402
import probe  # noqa: E402
from ocedf import analysis, cli, extraction, ocel, specmodel, verification  # noqa: E402
from spans import Tracer, self_time  # noqa: E402

WORKLOADS = ("ingest", "verify", "analyze")
WORK_ROOT = ROOT / ".bench_work"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
LOG_NAME = "course.ocel.json"
REPORT_NAME = LOG_NAME + ".report.json"
SETUP_REPS = 3          # at least this many set-ups ...
SETUP_SECONDS = 3.0     # ... and more until this much time has passed
SETUP_TIMEOUT_S = 120   # one set-up child is killed after this long
MIN_PASSES = 3

EXPECTED_WARNINGS = [("set assignment grade", "Group")]
CHAIN = [(f"view page {a}", f"view page {b}")
         for a, b in [("A1P1", "A1P2"), ("A1P2", "A1P3"), ("A1P3", "A1P4"), ("A1P4", "A1P5")]]
RULE_KEYS = ("rule", "phase", "kind", "source_table", "rows_in", "rows_loaded", "rows_skipped")

# digests that must equal what the seed code produced on the same seed
GOLDEN_KEYS = ("log", "extract_rules", "verify_report", "verify_text",
               "dot", "full_dfg", "flatten", "stats")

# per-layer metrics: stage spans (reported as "<span>_s"), then counts
SPAN_NAMES = (
    "specmodel.parse_spec",
    "extraction.load_source", "extraction.extract", "extraction.report_write",
    "ocel.write_json", "ocel.read_json",
    "verification.derive_matrix", "verification.check", "verification.render_matrix",
    "analysis.drill_down", "analysis.roll_up", "analysis.filter_log", "analysis.unfold_events",
    "analysis.discover_dfg", "analysis.to_dot", "analysis.flatten", "cli.stats",
)
COUNT_UNITS = {
    "extraction.rows_in": "count", "extraction.rows_loaded": "count",
    "extraction.rows_skipped": "count", "extraction.skipped_entries": "count",
    "extraction.report_bytes": "bytes", "ocel.json_bytes": "bytes",
    "ocel.events": "count", "ocel.objects": "count", "ocel.e2o": "count", "ocel.o2o": "count",
    "verification.per_event_entries": "count", "verification.violations": "count",
    "verification.warnings": "count", "analysis.flatten_rows": "count",
    "analysis.dfg_edges": "count",
}


@dataclass
class Context:
    """What the passes of one workload share."""

    course: Path
    log: ocel.OcedLog | None = None                   # analyze: the log read in set-up
    extracted_digest: str = ""                        # verify: the log set-up extracted
    golden: dict[str, str] = field(default_factory=dict)
    first: dict[str, str] = field(default_factory=dict)   # digests of the first pass


# -- workload bodies (timed) -------------------------------------------------


def ingest_pass(ctx: Context, tr: Tracer) -> dict:
    """What ``ocedf extract`` does."""
    with tr.span("specmodel.parse_spec"):
        spec = specmodel.parse_spec(ctx.course / "spec.json")
    sources = {}
    for rule in spec.mappings:
        if rule.source_table not in sources:
            with tr.span("extraction.load_source"):
                sources[rule.source_table] = extraction.load_source(
                    ctx.course / "sources" / f"{rule.source_table}.csv", rule.source_table)
    with tr.span("extraction.extract"):
        log, report = extraction.extract(spec, sources)
    with tr.span("ocel.write_json"):
        ocel.write_ocel_json(log, ctx.course / LOG_NAME)
    with tr.span("extraction.report_write"):
        (ctx.course / REPORT_NAME).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
    return {"log": log, "report": report}


def verify_pass(ctx: Context, tr: Tracer) -> dict:
    """What ``ocedf verify`` does."""
    with tr.span("specmodel.parse_spec"):
        spec = specmodel.parse_spec(ctx.course / "spec.json")
    with tr.span("ocel.read_json"):
        log = ocel.read_ocel_json(ctx.course / LOG_NAME)
    with tr.span("verification.derive_matrix"):
        matrix = verification.derive_matrix(log, spec.xmatrix, spec.schema)
    with tr.span("verification.check"):
        report = verification.check(matrix, spec.xmatrix)
    with tr.span("verification.render_matrix"):
        text = verification.render_matrix(matrix, report)
    return {"log": log, "matrix": matrix, "report": report, "text": text}


def analyze_pass(ctx: Context, tr: Tracer) -> dict:
    """The analysis commands on a log already in memory."""
    log = ctx.log
    with tr.span("analysis.drill_down"):
        drilled = analysis.drill_down(log, "User")
    with tr.span("analysis.roll_up"):
        rolled = analysis.roll_up(drilled, {"Student", "Teacher"}, "User")
    with tr.span("analysis.filter_log"):
        pages = analysis.filter_log(rolled, keep_event_types={"view page"})
    with tr.span("analysis.unfold_events"):
        unfolded = analysis.unfold_events(pages, "view page", "Page", "code")
    with tr.span("analysis.discover_dfg"):
        dfg = analysis.discover_dfg(unfolded, {"User", "Course"})
    with tr.span("analysis.to_dot"):
        dot = analysis.to_dot(dfg, 5)
    with tr.span("analysis.discover_dfg"):
        full_dfg = analysis.discover_dfg(log, {"User", "Course", "File", "Page"})
    with tr.span("analysis.flatten"):
        flat = analysis.flatten(log, "User")
    with tr.span("cli.stats"):
        stats = cli.stats(log)
    return {"log": log, "drilled": drilled, "rolled": rolled, "pages": pages, "dfg": dfg,
            "dot": dot, "full_dfg": full_dfg, "flat": flat, "stats": stats}


PASSES = {"ingest": ingest_pass, "verify": verify_pass, "analyze": analyze_pass}


# -- output checks (untimed) -------------------------------------------------


def digest(value) -> str:
    """SHA-256 of a string, or of a JSON-able value in canonical form."""
    if not isinstance(value, str):
        value = json.dumps(value, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(value.encode("utf-8")).hexdigest()


def _jsonable(value):
    return value.isoformat() if hasattr(value, "isoformat") else value


def log_digest(log: ocel.OcedLog) -> str:
    """Digest of a log's content, independent of the OCEL JSON layout."""
    return digest({
        "object_types": sorted([td.name, [[a.name, a.kind] for a in td.attribute_defs]]
                               for td in log.object_type_defs),
        "event_types": sorted([td.name, [[a.name, a.kind] for a in td.attribute_defs]]
                              for td in log.event_type_defs),
        "objects": sorted([o.id, o.type, sorted([a.name, a.time.isoformat(), _jsonable(a.value)]
                                                for a in o.attribute_values)]
                          for o in log.objects.values()),
        "events": sorted([e.id, e.type, e.time.isoformat(),
                          sorted([n, _jsonable(v)] for n, v in e.attribute_values)]
                         for e in log.events.values()),
        "e2o": sorted([r.event_id, r.object_id, r.qualifier] for r in log.e2o),
        "o2o": sorted([r.source_object_id, r.target_object_id, r.qualifier] for r in log.o2o),
    })


def _rules(report_dict: dict) -> list[dict]:
    return [{k: r[k] for k in RULE_KEYS} for r in report_dict["rules"]]


def _dfg_content(dfg: analysis.Dfg) -> dict:
    return {t: [sorted(g.nodes.items()), sorted([*k, n] for k, n in g.edges.items()),
                sorted(g.start_frequencies.items()), sorted(g.end_frequencies.items())]
            for t, g in dfg.per_type.items()}


def _same(ctx: Context, key: str, value: str, stage: str, problems: list) -> None:
    """Every pass must give the first pass's digest, and the seed code's when recorded."""
    if ctx.first.setdefault(key, value) != value:
        problems.append((stage, f"{key} differs from the first pass"))
    if ctx.golden.get(key, value) != value:
        problems.append((stage, f"{key} differs from the seed code's output on this seed"))


def check_ingest(ctx: Context, out: dict) -> list[tuple[str, str]]:
    log, report = out["log"], out["report"]
    problems: list[tuple[str, str]] = []
    sizes = {"object": len(log.objects), "event": len(log.events),
             "e2o": len(log.e2o), "o2o": len(log.o2o)}
    if dict(report.counts) != sizes:
        problems.append(("extraction.extract", f"report counts {report.counts} != log sizes {sizes}"))
    rules = _rules(report.to_dict())
    if any(r["rows_in"] != r["rows_loaded"] + r["rows_skipped"] for r in rules):
        problems.append(("extraction.extract", "rows_in != rows_loaded + rows_skipped"))
    _same(ctx, "extract_rules", digest(rules), "extraction.extract", problems)
    written = json.loads((ctx.course / REPORT_NAME).read_text(encoding="utf-8"))
    if written["counts"] != report.counts or _rules(written) != rules:
        problems.append(("extraction.report_write", "written report differs from the report"))
    path = ctx.course / LOG_NAME
    if "log_file" not in ctx.first:
        _same(ctx, "log", log_digest(log), "extraction.extract", problems)
        if not ocel.read_ocel_json(path).structurally_equal(log):
            problems.append(("ocel.write_json", "log read back differs from the extracted log"))
    # later passes must write the very file the first pass read back
    _same(ctx, "log_file", digest(path.read_text(encoding="utf-8")), "ocel.write_json", problems)
    return problems


def check_verify(ctx: Context, out: dict) -> list[tuple[str, str]]:
    report = out["report"]
    problems: list[tuple[str, str]] = []
    if "log" not in ctx.first:
        log_sum = log_digest(out["log"])
        if log_sum != ctx.extracted_digest:
            problems.append(("ocel.read_json", "log read back differs from the extracted log"))
        _same(ctx, "log", log_sum, "ocel.read_json", problems)
    warnings = [(w.event_type, w.object_type) for w in report.warnings]
    if report.violations or warnings != EXPECTED_WARNINGS:
        problems.append(("verification.check",
                         f"{len(report.violations)} violations, warnings {warnings}"))
    _same(ctx, "verify_report", digest(report.to_dict()), "verification.check", problems)
    _same(ctx, "verify_text", digest(out["text"]), "verification.render_matrix", problems)
    return problems


def check_analyze(ctx: Context, out: dict) -> list[tuple[str, str]]:
    problems: list[tuple[str, str]] = []
    drilled_types = {td.name for td in out["drilled"].object_type_defs}
    if "User" in drilled_types or not {"Student", "Teacher"} <= drilled_types:
        problems.append(("analysis.drill_down", f"object types after drill-down: {drilled_types}"))
    if not out["rolled"].structurally_equal(ctx.log):
        problems.append(("analysis.roll_up", "roll_up(drill_down(log)) differs from the log"))
    if {e.type for e in out["pages"].events.values()} != {"view page"}:
        problems.append(("analysis.filter_log", "filtered log holds other event types"))
    edges = out["dfg"].per_type["User"].edges
    missing = [pair for pair in CHAIN if pair not in edges]
    if missing:
        problems.append(("analysis.unfold_events", f"page chain edges missing: {missing}"))
    _same(ctx, "dot", digest(out["dot"]), "analysis.to_dot", problems)
    _same(ctx, "full_dfg", digest(_dfg_content(out["full_dfg"])), "analysis.discover_dfg", problems)
    rows = [[r.case_id, r.activity, r.time.isoformat(), r.event_id] for r in out["flat"].rows]
    _same(ctx, "flatten", digest(rows), "analysis.flatten", problems)
    _same(ctx, "stats", digest(out["stats"]), "cli.stats", problems)
    return problems


CHECKS = {"ingest": check_ingest, "verify": check_verify, "analyze": check_analyze}


def pass_counts(workload: str, ctx: Context, out: dict) -> dict[str, float]:
    """Work counts of one pass, recorded on its root span."""
    # per-event matrix entries and per-row skip entries are read with getattr,
    # so that a report or matrix keeping only aggregates counts 0
    log = out["log"]
    counts = {"ocel.events": len(log.events), "ocel.objects": len(log.objects),
              "ocel.e2o": len(log.e2o), "ocel.o2o": len(log.o2o)}
    if workload == "ingest":
        runs = out["report"].rule_runs
        counts.update({
            "extraction.rows_in": sum(r.rows_in for r in runs),
            "extraction.rows_loaded": sum(r.rows_loaded for r in runs),
            "extraction.rows_skipped": sum(r.rows_skipped for r in runs),
            "extraction.skipped_entries": len(getattr(out["report"], "skipped", ())),
            "extraction.report_bytes": (ctx.course / REPORT_NAME).stat().st_size,
            "ocel.json_bytes": (ctx.course / LOG_NAME).stat().st_size,
        })
    elif workload == "verify":
        counts.update({
            "verification.per_event_entries": len(getattr(out["matrix"], "per_event", ())),
            "verification.violations": len(out["report"].violations),
            "verification.warnings": len(out["report"].warnings),
        })
    else:
        counts.update({
            "analysis.flatten_rows": len(out["flat"].rows),
            "analysis.dfg_edges": sum(len(g.edges) for dfg in (out["dfg"], out["full_dfg"])
                                      for g in dfg.per_type.values()),
        })
    return counts


# -- set-up (child process) --------------------------------------------------


def set_up(work: str, workload: str, n_students: int, seed: int) -> tuple[float, float, str]:
    """One set-up: build the course, then extract and write the log (verify,
    analyze) and read it back (analyze). Returns its seconds, the same
    scaled to the probe's reference speed and, for verify, the extracted
    log's digest."""
    course_dir = Path(work)
    gc.collect()
    before = probe.probe()
    started = perf_counter()
    course.build(course_dir, n_students, seed)
    log = None
    if workload != "ingest":
        log = ingest_pass(Context(course_dir), Tracer())["log"]
    if workload == "analyze":
        ocel.read_ocel_json(course_dir / LOG_NAME)
    elapsed = perf_counter() - started
    scaled = probe.scale(elapsed, before, probe.probe())
    return elapsed, scaled, (log_digest(log) if workload == "verify" else "")


def run_set_up(work: Path, workload: str, n_students: int, seed: int) -> tuple[float, float, str]:
    """``set_up`` in a child process of this script; returns once it has ended.

    ``subprocess.run`` waits for the child on every path, and kills it first
    on a timeout or an interrupt, so no process outlives the benchmark."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", "0", "--students", str(n_students),
               "--set-up-dir", str(work)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=SETUP_TIMEOUT_S)
    elapsed, scaled, log_sum = json.loads(done.stdout.strip().splitlines()[-1])
    return elapsed, scaled, log_sum


def golden_digests(n_students: int, seed: int) -> dict[str, str]:
    """Digests the seed code produced on this seed, if they were recorded."""
    table = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if table["students"] != n_students:
        return {}
    return table["seeds"].get(str(seed), {})


# -- measurement -------------------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(tracer: Tracer, traced_walls: list[float], untraced_walls: list[float]) -> dict:
    """Per-layer metrics from the spans of the traced passes, each pass's
    times scaled by its root span's probe factor."""
    spans = tracer.spans
    roots = [i for i, s in enumerate(spans) if s.name == "pass"]
    per_pass: dict[str, list[float]] = {name: [] for name in SPAN_NAMES}
    for root in roots:
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for s in spans:
            if s.pass_id == spans[root].pass_id and s.name in totals:
                totals[s.name] += s.duration * spans[root].scale
        for name, total in totals.items():
            per_pass[name].append(total)
    metrics = {f"{name}_s": (_median(v), "s") for name, v in per_pass.items()}
    counts = spans[roots[-1]].counts if roots else {}
    for name, unit in COUNT_UNITS.items():
        metrics[name] = (counts.get(name, 0), unit)
    rows_in = counts.get("extraction.rows_in", 0)
    metrics["extraction.load_ratio"] = (
        counts.get("extraction.rows_loaded", 0) / rows_in if rows_in else 0.0, "ratio")
    metrics["bench.pass_self_s"] = (
        _median([self_time(spans, i) * spans[i].scale for i in roots]), "s")
    metrics["trace.overhead_s"] = (_median(traced_walls) - _median(untraced_walls), "s")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 n_students: int = course.STUDENTS) -> dict:
    """Set up and measure one workload; returns the result object."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        return _measure(workload, seed, seconds, trace, n_students, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload: str, seed: int, seconds: float, trace: bool,
             n_students: int, work: Path) -> dict:
    setups: list[tuple[float, float, str]] = []
    started = perf_counter()
    while len(setups) < SETUP_REPS or perf_counter() - started < SETUP_SECONDS:
        setups.append(run_set_up(work, workload, n_students, seed))
    ctx = Context(work, extracted_digest=setups[-1][2], golden=golden_digests(n_students, seed))
    if workload == "analyze":
        ctx.log = ocel.read_ocel_json(work / LOG_NAME)

    tracer = Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}     # scaled seconds
    raw_walls: list[float] = []
    failed = 0
    peak_kib = 0
    events = 0
    n = 0
    min_passes = MIN_PASSES + 1 if trace else MIN_PASSES
    deadline = perf_counter() + seconds
    while n < min_passes or perf_counter() < deadline:
        traced = trace and n % 2 == 1
        root = len(tracer.spans)
        gc.collect()
        before = probe.probe()
        started = perf_counter()
        try:
            with tracer.run_pass(n, traced):
                out = PASSES[workload](ctx, tracer)
        except Exception:
            traceback.print_exc()
            failed += 1
            n += 1
            continue
        wall = perf_counter() - started
        scale = probe.scale(1.0, before, probe.probe())
        walls[traced].append(wall * scale)
        if not traced:
            raw_walls.append(wall)
        if not peak_kib:
            # high-water mark after one whole pass, before any check allocates
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        problems = CHECKS[workload](ctx, out)
        for stage, message in problems:
            print(f"check failed in pass {n}: {stage}: {message}", file=sys.stderr)
        failed += len({stage for stage, _ in problems})
        if traced:
            tracer.spans[root].scale = scale
            tracer.spans[root].counts = pass_counts(workload, ctx, out)
        events = len(out["log"].events)
        del out
        n += 1

    if not walls[False]:
        raise RuntimeError(f"{workload}: no pass completed")
    wall = statistics.median(walls[False])
    setup_s = statistics.median(s[1] for s in setups)
    print(f"{workload} seed={seed} students={n_students}: {len(walls[False])} untraced passes, "
          f"wall_s median {wall:.4f} (measured {statistics.median(raw_walls):.4f}, "
          f"{min(raw_walls):.4f}..{max(raw_walls):.4f}); setup_s median of {len(setups)} "
          f"{setup_s:.4f} (measured {statistics.median(s[0] for s in setups):.4f}), "
          f"op_fail_rate {failed}/{tracer.calls}, "
          f"seed-code digests {'checked' if ctx.golden else 'not recorded for this seed'}")
    if trace:
        tracer.write(WORK_ROOT / f"trace-{workload}-seed{seed}.json")
        metrics = per_layer(tracer, walls[True], walls[False])
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "events_per_s": (events / wall, "1/s"),
            "peak_rss_mb": (peak_kib / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
    return {
        "correct": failed == 0,
        "attempted": tracer.calls,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--students", type=int, default=course.STUDENTS,
                        help="course size (default %(default)s)")
    parser.add_argument("--set-up-dir", help="run one set-up in this directory, print its "
                        "times as JSON and exit (the child mode used by the benchmark)")
    args = parser.parse_args(argv)
    if args.set_up_dir:
        print(json.dumps(set_up(args.set_up_dir, args.workload, args.students, args.seed)))
        return 0
    # on SIGTERM unwind like on Ctrl-C: a running set-up child is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.students)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
