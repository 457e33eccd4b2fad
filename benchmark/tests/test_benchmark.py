"""Tests of the benchmark harness itself, on a course of about 20 students.

    python3 -m pytest benchmark/tests
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import course  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, self_time  # noqa: E402

from ocedf import analysis, ocel, specmodel, verification  # noqa: E402

SMALL = 20
SEED = 5
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(workload, trace):
    result = run.run_workload(workload, SEED, 0, trace, n_students=SMALL)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_course_keeps_case_study_ratios():
    params = course.course_params(140, 20240902)
    assert sorted(params["group_sizes"]) == sorted([6] * 19 + [5] * 4)
    assert params["exam_batches"] == [60, 60, 20]


def test_self_time_subtracts_children():
    spans = [Span("pass", 0, None, 0.0, 10.0), Span("a", 0, 0, 1.0, 3.0),
             Span("b", 0, 0, 2.0, 5.0), Span("c", 0, 1, 1.5, 2.5)]
    assert self_time(spans, 0) == pytest.approx(6.0)
    assert self_time(spans, 1) == pytest.approx(1.0)


@pytest.fixture(scope="module")
def small_course(tmp_path_factory):
    work = tmp_path_factory.mktemp("course")
    course.build(work, SMALL, SEED)
    return work


def _outputs(workload: str, work: Path):
    """A context whose first pass has been checked, and a second pass's outputs."""
    ctx = run.Context(work)
    if workload != "ingest":
        ctx.extracted_digest = run.log_digest(run.ingest_pass(ctx, Tracer())["log"])
    if workload == "analyze":
        ctx.log = ocel.read_ocel_json(work / run.LOG_NAME)
    assert run.CHECKS[workload](ctx, run.PASSES[workload](ctx, Tracer())) == []
    return ctx, run.PASSES[workload](ctx, Tracer())


def _drop_one_e2o(work: Path) -> None:
    path = work / run.LOG_NAME
    doc = json.loads(path.read_text(encoding="utf-8"))
    event = next(e for e in doc["events"] if e["relationships"])
    event["relationships"].pop()
    path.write_text(json.dumps(doc), encoding="utf-8")


def _without_chain_edge(dfg):
    user = dfg.per_type["User"]
    edges = dict(user.edges)
    del edges[run.CHAIN[0]]
    return analysis.Dfg({**dfg.per_type, "User": replace(user, edges=edges)})


def _with_violation(report):
    extra = verification.Violation("e-1", "view page", "Page", 2, specmodel.parse_multiplicity("1"))
    return verification.VerificationReport([*report.violations, extra], report.warnings)


def _drop_event_type(log):
    keep = {td.name for td in log.event_type_defs} - {"view folder"}
    return analysis.filter_log(log, keep_event_types=keep)


CORRUPTIONS = [
    ("ingest", "ocel.write_json", lambda out, work: _drop_one_e2o(work)),
    ("ingest", "extraction.extract",
     lambda out, work: out["report"].counts.update(e2o=out["report"].counts["e2o"] - 1)),
    ("ingest", "extraction.report_write",
     lambda out, work: (work / run.REPORT_NAME).write_text(
         json.dumps({**json.loads((work / run.REPORT_NAME).read_text()), "counts": {}}))),
    ("verify", "verification.check",
     lambda out, work: out.update(report=_with_violation(out["report"]))),
    ("verify", "verification.render_matrix",
     lambda out, work: out.update(text=out["text"].replace("1..1", "1..2", 1))),
    ("analyze", "analysis.drill_down", lambda out, work: out.update(drilled=out["log"])),
    ("analyze", "analysis.roll_up",
     lambda out, work: out.update(rolled=_drop_event_type(out["rolled"]))),
    ("analyze", "analysis.filter_log", lambda out, work: out.update(pages=out["rolled"])),
    ("analyze", "analysis.unfold_events",
     lambda out, work: out.update(dfg=_without_chain_edge(out["dfg"]))),
    ("analyze", "analysis.to_dot",
     lambda out, work: out.update(dot=out["dot"].replace('label="', 'label="1', 1))),
    ("analyze", "analysis.discover_dfg",
     lambda out, work: out["full_dfg"].per_type["File"].edges.popitem()),
    ("analyze", "analysis.flatten",
     lambda out, work: out.update(flat=replace(out["flat"], rows=out["flat"].rows[1:]))),
    ("analyze", "cli.stats", lambda out, work: out.update(stats=out["stats"] + "\n")),
]


@pytest.mark.parametrize("workload,stage,corrupt", CORRUPTIONS,
                         ids=[f"{w}-{s}" for w, s, _ in CORRUPTIONS])
def test_check_fails_on_corrupted_output(small_course, workload, stage, corrupt):
    ctx, out = _outputs(workload, small_course)
    corrupt(out, small_course)
    assert stage in {s for s, _ in run.CHECKS[workload](ctx, out)}


def test_first_pass_read_back_catches_a_dropped_relation(small_course):
    ctx = run.Context(small_course)
    out = run.ingest_pass(ctx, Tracer())
    _drop_one_e2o(small_course)
    assert ("ocel.write_json", "log read back differs from the extracted log") \
        in run.check_ingest(ctx, out)


def test_verify_catches_a_log_that_differs_from_the_extracted_one(small_course):
    ctx = run.Context(small_course)
    ctx.extracted_digest = run.log_digest(run.ingest_pass(ctx, Tracer())["log"])
    _drop_one_e2o(small_course)
    problems = run.check_verify(ctx, run.verify_pass(ctx, Tracer()))
    assert "ocel.read_json" in {s for s, _ in problems}


def test_golden_digest_mismatch_fails(small_course):
    ctx, out = _outputs("analyze", small_course)
    ctx.golden = {"stats": "0" * 64}
    assert "cli.stats" in {s for s, _ in run.check_analyze(ctx, out)}
