#!/usr/bin/env python3
"""Scale ladder: each pipeline stage timed on courses of growing size.

    python3 scripts/scale_ladder.py [--students 400 2000 10000] [--seed 3]
        [--src DIR [DIR ...]] [--label NAME [NAME ...]] [--out BENCH_scale.json]
        [--work DIR] [--wide]

Each course is built once from ``benchmark/course.py``'s parameters with
the given seed. With ``--wide`` its exam is graded for the whole cohort at
once (``exam_batches=[students]``, where the benchmark's course has batches
of 60), so one event is related to every student. Then ``load_source``
(every table of the course), ``extract``, ``write_ocel_json``,
``read_ocel_json``, ``verify`` (``derive_matrix`` and ``check``, as
``ocedf verify`` runs them) and ``analyze`` (the sequence of
``analyze_pass`` in ``benchmark/run.py``: drill-down, roll-up,
filter, unfold, two DFGs and their DOT, flatten and stats) each run in a
child process of their own, one child at a time, started with
``subprocess.run``. A child runs the stages before its own untimed, so the
``extract`` child loads the sources and the ``write`` child loads and
extracts; the ``read`` child reads the file that the ``write`` child wrote,
and the ``verify`` and ``analyze`` children read it untimed. The code
measured is the ``ocedf`` package under ``--src`` (default: this
checkout's ``src``), so the same ladder can measure another checkout.

``--src`` takes one or more trees, each with its own ``--label``: say a
parent checkout's ``src`` and this one's. Each course is then built once
and measured for every tree, a stage's children taking turns across the
trees (the order reversed on every other turn), so host drift falls on
all trees alike rather than on whichever ran later. Each tree writes its
own OCEL JSON file, and each gets a labelled run of its own.

Each stage runs in ``TIMING_RUNS`` children in turn. Each records its
seconds, the GC's seconds and collections while it ran (through
``gc.callbacks``), the process's peak RSS when the stage began and when it
ended, and the stage's event count; the ladder keeps the run of median
seconds and every run's seconds (``seconds_runs``). For ``load``,
``extract``, ``read`` and ``analyze`` one more child runs the stage under
``tracemalloc``, started as the stage begins, and records its peak. One
cold read cannot resolve a read that is 10-20% faster, so once its stage
is measured the ``read`` child reads the same file ``WARM_READS`` times
more and records the fastest of those warm reads (``warm_read_seconds``).
Before each warm read it times a bare ``json.loads`` of the file's text,
with the GC paused as the read pauses it; the fastest of those loads
(``json_loads_seconds``) divides both the cold and the warm read
(``read_over_json_loads``, ``warm_read_over_json_loads``), so one slow
load does not move either ratio.

The host's speed drifts between runs taken minutes apart, so each child
also records its stage's seconds scaled by ``benchmark/probe.py``
(``scaled_seconds``): the seconds at the speed at which the probe's fixed
work takes its reference time, from one probe as the child starts and one
once the stage is measured. The first runs before ``ocedf`` is imported
and the stages before the child's own are run, which reuse the memory it
takes and frees: it raises ``rss_before_mb`` of ``load`` and ``read`` from
about 24 to 27 MB, but no stage's peak RSS at 400 students or more. Within
one interleaved run (several ``--src`` trees), compare the trees by their
raw seconds: their children took turns under the same host, while the two
probes of one child can be far apart, so scaled seconds may invert the raw
order. Compare scaled seconds only across separate runs.

The ``extract`` child also records the report's seconds of each of the
three phases (``phase_seconds``, keyed by phase number), and the
``analyze`` child the seconds of each of its operations (``op_seconds``,
keyed by operation: ``discover_dfg_unfolded`` is the DFG of the unfolded
log, whose traces it builds, and ``discover_dfg_log`` the DFG of the read
log, over the four types).

The ladder adds seconds and peak RSS per event (the events of the course)
and, for each stage, its seconds per event at the largest course over those
at the smallest (``per_event_growth``), and the same ratio for each of the
analyze child's operations (``analyze_op_growth``). The run, labelled
``--label`` with the measured checkout's git commit, whether its tracked
files differ from that commit (``dirty``; both null for a tree outside a
git checkout, such as a ``git archive``), whether the course was wide
(``wide``) and the Python version, replaces the run of the same label in
``--out`` and keeps the others, so one file holds a before and an after.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("load", "extract", "write", "read", "verify", "analyze")
TRACED_STAGES = ("load", "extract", "read", "analyze")   # also run under tracemalloc
TIMING_RUNS = 3   # children per stage; the median's run is reported
WARM_READS = 3   # reads of the same file after the read child's measured one
LOG_NAME = "course.ocel.json"
CHILD_TIMEOUT_S = 1800


# -- child side ----------------------------------------------------------------


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # KiB on Linux


class _GcClock:
    """Seconds and collections of the cyclic GC while installed."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
        else:
            self.seconds += perf_counter() - self._started
            self.collections += 1


def run_stage(stage: str, course: Path, log_path: Path, trace_memory: bool) -> dict:
    """Run the stages before ``stage`` untimed, then ``stage`` measured;
    ``log_path`` is the OCEL JSON file that ``write`` writes and ``read`` reads."""
    sys.path.insert(0, str(ROOT / "benchmark"))
    import probe   # noqa: E402  (benchmark/probe.py)

    probe_before = probe.probe()
    from ocedf import analysis, extraction, ocel, specmodel, verification

    def load(spec):
        sources = {}
        for rule in spec.mappings:
            if rule.source_table not in sources:
                sources[rule.source_table] = extraction.load_source(
                    course / "sources" / f"{rule.source_table}.csv", rule.source_table)
        return sources

    def analyze(log):
        op_seconds = {}

        def timed(name, op, *args, **kwargs):
            started = perf_counter()
            out = op(*args, **kwargs)
            op_seconds[name] = perf_counter() - started
            return out

        drilled = timed("drill_down", analysis.drill_down, log, "User")
        rolled = timed("roll_up", analysis.roll_up, drilled, {"Student", "Teacher"}, "User")
        pages = timed("filter_log", analysis.filter_log, rolled, keep_event_types={"view page"})
        unfolded = timed("unfold_events", analysis.unfold_events, pages, "view page", "Page", "code")
        dfg = timed("discover_dfg_unfolded", analysis.discover_dfg, unfolded, {"User", "Course"})
        outputs = (drilled, rolled, pages, unfolded, dfg, timed("to_dot", analysis.to_dot, dfg, 5),
                   timed("discover_dfg_log", analysis.discover_dfg, log, {"User", "Course", "File", "Page"}),
                   timed("flatten", analysis.flatten, log, "User"), timed("stats", analysis.stats, log))
        return {"outputs": outputs, "op_seconds": op_seconds}   # outputs kept alive to the end

    spec = specmodel.parse_spec(course / "spec.json")
    steps = {
        "load": lambda state: {"sources": load(spec)},
        "extract": lambda state: dict(zip(("log", "extraction"), extraction.extract(spec, state.pop("sources")))),
        "write": lambda state: ocel.write_ocel_json(state["log"], log_path),
        "read": lambda state: {"log": ocel.read_ocel_json(log_path)},
        "verify": lambda state: {"report": verification.check(
            verification.derive_matrix(state["log"], spec.xmatrix, spec.schema), spec.xmatrix)},
        "analyze": lambda state: analyze(state["log"]),
    }
    state: dict = {}
    if STAGES.index(stage) <= STAGES.index("write"):
        earlier = STAGES[:STAGES.index(stage)]
    else:   # read, verify and analyze start from the file the write child left
        earlier = () if stage == "read" else ("read",)
    for step in earlier:
        state.update(steps[step](state) or {})
    gc.collect()
    clock = _GcClock()
    rss_before = _peak_rss_mb()
    if trace_memory:
        tracemalloc.start()
    gc.callbacks.append(clock)
    started = perf_counter()
    state.update(steps[stage](state) or {})
    seconds = perf_counter() - started
    gc.callbacks.remove(clock)
    result = {"stage": stage, "seconds": seconds, "gc_seconds": clock.seconds,
              "gc_collections": clock.collections, "rss_before_mb": rss_before,
              "peak_rss_mb": _peak_rss_mb()}
    if trace_memory:
        result["tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    result["scaled_seconds"] = probe.scale(seconds, probe_before, probe.probe())
    if stage == "read" and not trace_memory:
        text = log_path.read_text(encoding="utf-8")
        loads, warm = [], []
        for _ in range(WARM_READS):   # a bare json.loads and a warm read in turn
            gc.disable()
            started = perf_counter()
            json.loads(text)
            loads.append(perf_counter() - started)
            gc.enable()
            started = perf_counter()
            warm_log = ocel.read_ocel_json(log_path)
            warm.append(perf_counter() - started)
            del warm_log   # freed outside the timed read
        result["json_loads_seconds"] = min(loads)
        result["read_over_json_loads"] = seconds / result["json_loads_seconds"]
        result["warm_read_seconds"] = min(warm)
        result["warm_read_over_json_loads"] = result["warm_read_seconds"] / result["json_loads_seconds"]
    if stage == "extract":
        result["phase_seconds"] = {str(p): s for p, s in state["extraction"].phase_seconds.items()}
    if stage == "analyze":
        result["op_seconds"] = state["op_seconds"]
    if "log" in state:
        result["events"] = len(state["log"].events)
    return result


def build_course(out_dir: Path, students: int, seed: int, wide: bool = False) -> dict:
    """Build the course and count its source rows. A wide course grades
    the whole cohort's exam at once: one event related to every student."""
    sys.path.insert(0, str(ROOT / "benchmark"))
    import course   # noqa: E402  (benchmark/course.py)

    params = course.course_params(students, seed)
    if wide:
        params["exam_batches"] = [students]
    with contextlib.redirect_stdout(sys.stderr):   # the generator's row count would end the child's stdout
        course.generate_fixtures.build_course(out_dir, **params)
    rows = 0
    for table in (out_dir / "sources").glob("*.csv"):
        with table.open(newline="", encoding="utf-8") as fh:
            rows += sum(1 for _ in csv.reader(fh)) - 1
    return {"source_rows": rows}


# -- ladder side ---------------------------------------------------------------


def _child(args: list[str], src: Path) -> dict:
    """Run this script as a child with ``args``; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args], env=env,
                          stdout=subprocess.PIPE, text=True, check=True, timeout=CHILD_TIMEOUT_S)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _git(src: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(src), *args], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure_course(students: int, seed: int, srcs: list[Path], work: Path, wide: bool) -> list[dict]:
    """Build one course, then measure each stage on it for each tree in
    ``srcs``, one child at a time, the trees taking turns; one entry per tree."""
    course = work / f"course-{students}-seed{seed}"
    shutil.rmtree(course, ignore_errors=True)
    started = perf_counter()
    built = _child(["--build", str(course), "--students", str(students), "--seed", str(seed),
                    *["--wide"] * wide], srcs[0])
    build_seconds = perf_counter() - started
    entries = [{"students": students, "build_seconds": build_seconds, **built, "stages": {}} for _ in srcs]
    logs = [course / f"tree{i}-{LOG_NAME}" for i in range(len(srcs))]
    trees = list(zip(srcs, logs, entries))
    try:
        for stage in STAGES:
            args = ["--stage", stage, "--course", str(course)]
            runs: list[list[dict]] = [[] for _ in trees]
            order = list(range(len(trees)))
            for turn in range(TIMING_RUNS):
                for i in order if turn % 2 == 0 else order[::-1]:
                    src, log, _ = trees[i]
                    runs[i].append(_child([*args, "--log", str(log)], src))
            for (src, log, entry), tree_runs in zip(trees, runs):
                measured = sorted(tree_runs, key=lambda r: r["seconds"])[TIMING_RUNS // 2]
                measured["seconds_runs"] = [r["seconds"] for r in tree_runs]
                if stage in TRACED_STAGES:
                    traced = _child([*args, "--log", str(log), "--trace-memory"], src)
                    measured["tracemalloc_peak_mb"] = traced["tracemalloc_peak_mb"]
                entry["events"] = measured.pop("events", entry.get("events"))
                del measured["stage"]
                entry["stages"][stage] = measured
        for _, log, entry in trees:
            entry["ocel_json_bytes"] = log.stat().st_size
    finally:
        shutil.rmtree(course, ignore_errors=True)
    for entry in entries:
        events = entry["events"]
        for measured in entry["stages"].values():
            measured["seconds_per_event"] = measured["seconds"] / events
            measured["peak_rss_bytes_per_event"] = measured["peak_rss_mb"] * 2**20 / events
    return entries


def run_ladder(students: list[int], seed: int, srcs: list[Path], labels: list[str],
               work: Path, wide: bool = False) -> list[dict]:
    """One labelled run per tree in ``srcs``, measured course by course."""
    work.mkdir(parents=True, exist_ok=True)
    per_course = [measure_course(n, seed, srcs, work, wide) for n in sorted(students)]
    if not any(work.iterdir()):
        work.rmdir()
    runs = []
    for i, (src, label) in enumerate(zip(srcs, labels)):
        courses = [entries[i] for entries in per_course]
        status = _git(src, "status", "--porcelain", "--untracked-files=no")
        smallest, largest = courses[0], courses[-1]
        runs.append({
            "label": label,
            "commit": _git(src, "rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "python": platform.python_version(),
            "machine": {"cpus": os.cpu_count(), "platform": platform.platform()},
            "seed": seed,
            "wide": wide,
            "courses": courses,
            "per_event_growth": {
                "from_to": [smallest["students"], largest["students"]],
                **{stage: largest["stages"][stage]["seconds_per_event"]
                   / smallest["stages"][stage]["seconds_per_event"] for stage in STAGES},
            },
            "analyze_op_growth": {
                op: (seconds / largest["events"])
                / (smallest["stages"]["analyze"]["op_seconds"][op] / smallest["events"])
                for op, seconds in largest["stages"]["analyze"]["op_seconds"].items()},
        })
    return runs


def write_run(out: Path, run: dict) -> None:
    """Replace the run of the same label in ``out``, keeping the others."""
    runs = json.loads(out.read_text(encoding="utf-8"))["runs"] if out.exists() else []
    runs = [r for r in runs if r["label"] != run["label"]] + [run]
    out.write_text(json.dumps({"runs": runs}, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--students", type=int, nargs="+", default=[400, 2000, 10000])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--src", type=Path, nargs="+", default=[ROOT / "src"],
                        help="directories holding the ocedf package to measure, taking turns")
    parser.add_argument("--label", nargs="+", default=["current"], help="one per --src")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_scale.json")
    parser.add_argument("--work", type=Path, default=ROOT / ".scale_work",
                        help="where courses are built; each is removed once measured")
    parser.add_argument("--wide", action="store_true",
                        help="grade the whole cohort's exam in one event, related to every student")
    # child modes
    parser.add_argument("--build", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--stage", choices=STAGES, help=argparse.SUPPRESS)
    parser.add_argument("--course", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--log", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--trace-memory", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.build:
        print(json.dumps(build_course(args.build, args.students[0], args.seed, args.wide)))
        return 0
    if args.stage:
        print(json.dumps(run_stage(args.stage, args.course, args.log, args.trace_memory)))
        return 0
    if len(args.label) != len(args.src) or len(set(args.label)) != len(args.label):
        parser.error("give one distinct --label per --src")
    runs = run_ladder(args.students, args.seed, [src.resolve() for src in args.src], args.label, args.work,
                      args.wide)
    for run in runs:
        write_run(args.out, run)
        print(f"{run['label']}:")
        for entry in run["courses"]:
            print(f"{entry['students']} students, {entry['events']} events: " + ", ".join(
                f"{stage} {m['seconds']:.3f} s ({m['seconds_per_event'] * 1e6:.1f} µs/event, "
                f"{m['scaled_seconds']:.3f} s scaled)" for stage, m in entry["stages"].items()))
            phases = entry["stages"]["extract"]["phase_seconds"]
            print("  extract by phase: " + ", ".join(f"{phase} {s:.3f} s" for phase, s in phases.items()))
            ops = entry["stages"]["analyze"]["op_seconds"]
            print("  analyze by operation: " + ", ".join(f"{op} {s:.3f} s" for op, s in ops.items()))
            read = entry["stages"]["read"]
            print(f"  read over a bare json.loads: {read['read_over_json_loads']:.2f}x cold, "
                  f"{read['warm_read_over_json_loads']:.2f}x warm")
        growth = run["per_event_growth"]
        print(f"per-event cost, {growth['from_to'][1]} over {growth['from_to'][0]} students: " + ", ".join(
            f"{stage} {growth[stage]:.2f}x" for stage in STAGES))
        print("  analyze by operation: " + ", ".join(
            f"{op} {ratio:.2f}x" for op, ratio in run["analyze_op_growth"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
