"""Smoke tests of ``scripts/scale_ladder.py`` on a course of 20 students."""

import csv
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "scale_ladder.py"

_spec = importlib.util.spec_from_file_location("scale_ladder", SCRIPT)
scale_ladder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale_ladder)

RUN_KEYS = {"label", "commit", "dirty", "python", "machine", "seed", "wide", "courses", "per_event_growth"}
COURSE_KEYS = {"students", "build_seconds", "events", "source_rows", "ocel_json_bytes", "stages"}
STAGE_KEYS = {"seconds", "seconds_runs", "scaled_seconds", "seconds_per_event", "gc_seconds",
              "gc_collections", "rss_before_mb", "peak_rss_mb", "peak_rss_bytes_per_event"}


def test_ladder_writes_every_key(tmp_path):
    out, work = tmp_path / "BENCH_scale.json", tmp_path / "work"
    subprocess.run([sys.executable, str(SCRIPT), "--students", "20", "--seed", "3", "--label", "smoke",
                    "--out", str(out), "--work", str(work)],
                   check=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=300)
    run, = json.loads(out.read_text(encoding="utf-8"))["runs"]
    assert set(run) == RUN_KEYS
    assert (run["label"], run["seed"], run["python"], run["wide"]) == ("smoke", 3, sys.version.split()[0], False)
    course, = run["courses"]
    assert set(course) == COURSE_KEYS and course["students"] == 20
    assert course["events"] > 0 and course["source_rows"] > 0 and course["ocel_json_bytes"] > 0
    assert list(course["stages"]) == list(scale_ladder.STAGES)
    for stage, measured in course["stages"].items():
        traced = {"tracemalloc_peak_mb"} if stage in scale_ladder.TRACED_STAGES else set()
        loads = {"json_loads_seconds", "read_over_json_loads", "warm_read_seconds",
                 "warm_read_over_json_loads"} if stage == "read" else set()
        phases = {"phase_seconds"} if stage == "extract" else set()
        assert set(measured) == STAGE_KEYS | traced | loads | phases, stage
        assert measured["seconds"] > 0 and measured["peak_rss_mb"] >= measured["rss_before_mb"] > 0
        assert measured["scaled_seconds"] > 0
        assert measured["seconds_per_event"] == measured["seconds"] / course["events"]
        runs = measured["seconds_runs"]
        assert len(runs) == scale_ladder.TIMING_RUNS and measured["seconds"] == sorted(runs)[len(runs) // 2]
    extract = course["stages"]["extract"]   # the median run's seconds of each phase
    assert list(extract["phase_seconds"]) == ["1", "2", "3"]
    assert 0 < sum(extract["phase_seconds"].values()) < extract["seconds"]
    read = course["stages"]["read"]
    assert read["json_loads_seconds"] > 0
    assert read["read_over_json_loads"] == read["seconds"] / read["json_loads_seconds"]
    assert read["warm_read_seconds"] > 0
    assert read["warm_read_over_json_loads"] == read["warm_read_seconds"] / read["json_loads_seconds"]
    assert {"verify", "analyze"} <= set(course["stages"])
    assert "analyze" in scale_ladder.TRACED_STAGES
    assert run["per_event_growth"] == {"from_to": [20, 20], **dict.fromkeys(scale_ladder.STAGES, 1.0)}
    assert not work.exists()   # each course is removed once measured


def test_a_run_replaces_only_the_run_of_its_label(tmp_path):
    out = tmp_path / "BENCH_scale.json"
    for run in ({"label": "before", "n": 1}, {"label": "after", "n": 2}, {"label": "before", "n": 3}):
        scale_ladder.write_run(out, run)
    assert json.loads(out.read_text(encoding="utf-8"))["runs"] == [
        {"label": "after", "n": 2}, {"label": "before", "n": 3}]


def test_two_trees_take_turns_and_each_gets_its_run(tmp_path):
    out, work = tmp_path / "BENCH_scale.json", tmp_path / "work"
    src = str(SCRIPT.parent.parent / "src")
    subprocess.run([sys.executable, str(SCRIPT), "--students", "20", "--seed", "3", "--src", src, src,
                    "--label", "before-smoke", "after-smoke", "--out", str(out), "--work", str(work), "--wide"],
                   check=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=300)
    before, after = json.loads(out.read_text(encoding="utf-8"))["runs"]
    assert (before["label"], after["label"]) == ("before-smoke", "after-smoke")
    assert set(before) == set(after) == RUN_KEYS and before["wide"] is after["wide"] is True
    (course_before,), (course_after,) = before["courses"], after["courses"]
    for key in ("students", "build_seconds", "source_rows", "events", "ocel_json_bytes"):
        assert course_before[key] == course_after[key], key   # one course, the same code
    for course in (course_before, course_after):
        assert set(course) == COURSE_KEYS and list(course["stages"]) == list(scale_ladder.STAGES)
        for measured in course["stages"].values():
            assert len(measured["seconds_runs"]) == scale_ladder.TIMING_RUNS
    assert not work.exists()


def test_a_wide_course_grades_the_exam_in_one_event(tmp_path):
    """``--wide`` changes only the exam batches: one exam-grade event for
    the whole cohort, where the benchmark's course has one per 60 students."""
    def exam_grading(wide):
        out = tmp_path / f"wide-{wide}"
        scale_ladder.build_course(out, 130, 3, wide)
        read = lambda name: list(csv.reader((out / "sources" / name).open(encoding="utf-8")))[1:]
        others = {p.name: p.read_bytes() for p in (out / "sources").glob("*.csv") if "exam_grade" not in p.name}
        return read("exam_grades.csv"), read("exam_grade_students.csv"), others

    (batches, graded, others), (wide_batches, wide_graded, wide_others) = map(exam_grading, (False, True))
    assert len(batches) == 3 and len(wide_batches) == 1 and others == wide_others
    assert sorted(s for _, s in graded) == sorted(s for _, s in wide_graded) and len(wide_graded) == 130
    assert {e for e, _ in wide_graded} == {wide_batches[0][0]}


def _fake_child(calls):
    """A stand-in for ``_child`` that records each stage child's
    (stage, tree name, traced, log) in ``calls`` and measures nothing."""
    def fake_child(args, src):
        opts = dict(zip(args[::2], args[1::2]))
        if "--build" in opts:
            return {"source_rows": 1}
        calls.append((opts["--stage"], src.name, "--trace-memory" in args, opts["--log"]))
        if opts["--stage"] == "write":
            Path(opts["--log"]).parent.mkdir(parents=True, exist_ok=True)
            Path(opts["--log"]).write_text(src.name)
        return {"stage": opts["--stage"], "seconds": 1.0, "peak_rss_mb": 1.0, "events": 2,
                "tracemalloc_peak_mb": 1.0}
    return fake_child


def test_a_tree_outside_a_checkout_is_marked_unknown(tmp_path, monkeypatch):
    """A tree git cannot read, such as a ``git archive`` of a commit, gets a
    null commit and a null ``dirty``: the run never checked it."""
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))   # no checkout above it counts
    monkeypatch.setattr(scale_ladder, "_child", _fake_child([]))
    plain = tmp_path / "archive" / "src"
    plain.mkdir(parents=True)
    run, = scale_ladder.run_ladder([20], 3, [plain], ["archived"], tmp_path / "work")
    assert (run["commit"], run["dirty"]) == (None, None)


def test_children_alternate_between_trees(tmp_path, monkeypatch):
    """Each stage's timed children take turns across the trees, the order
    reversed on every other turn; each tree writes and reads its own file."""
    calls = []
    monkeypatch.setattr(scale_ladder, "_child", _fake_child(calls))
    srcs = [tmp_path / "a", tmp_path / "bb"]
    first, second = scale_ladder.run_ladder([20], 3, srcs, ["first", "second"], tmp_path / "work")
    assert (first["label"], second["label"]) == ("first", "second")
    assert [c["ocel_json_bytes"] for c in first["courses"] + second["courses"]] == [1, 2]
    timed = [(stage, tree) for stage, tree, traced, _ in calls if not traced]
    turns = [["a", "bb"], ["bb", "a"]] * scale_ladder.TIMING_RUNS
    assert timed == [(stage, tree) for stage in scale_ladder.STAGES
                     for turn in turns[:scale_ladder.TIMING_RUNS] for tree in turn]
    traced = [(stage, tree) for stage, tree, is_traced, _ in calls if is_traced]
    assert traced == [(stage, tree) for stage in scale_ladder.TRACED_STAGES for tree in ("a", "bb")]
    logs = {tree: {log for _, t, _, log in calls if t == tree} for tree in ("a", "bb")}
    assert all(len(paths) == 1 for paths in logs.values()) and logs["a"] != logs["bb"]
