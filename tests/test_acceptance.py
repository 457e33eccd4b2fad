"""Acceptance suite: one test per criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import io
import random
import re
import string
import time
from collections import Counter

import pytest

from ocedf import (
    SpecError,
    analysis,
    extraction,
    parse_multiplicity,
    read_ocel_json,
    verification,
    write_ocel_json,
)
from ocedf.cli import stats
from conftest import load_fixture
from randlog import clone_log, random_log


def stats_block(text, event_type):
    out, capture = [], False
    for line in text.splitlines():
        if capture:
            if line.startswith("    "):
                out.append(line)
                continue
            break
        if line.startswith(f"  {event_type}: "):
            capture = True
    return "\n".join(out)


def test_criterion_01_golden_fixture_verification_discrepancy(case_study):
    spec, log, _ = case_study
    started = time.perf_counter()
    matrix = verification.derive_matrix(log, spec.xmatrix, spec.schema)
    report = verification.check(matrix, spec.xmatrix)
    elapsed = time.perf_counter() - started
    assert report.violations == []
    assert [(w.event_type, w.object_type) for w in report.warnings] == \
        [("set assignment grade", "Group")]
    assert elapsed < 1.0, f"verification took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 PASS: 0 violations, 1 warning on (set assignment grade, Group) "
          f"in {elapsed * 1000:.0f} ms")


def test_criterion_02_case_study_counts(case_study):
    _, log, _ = case_study
    text = stats(log)
    submit = stats_block(text, "submit assignment")
    grading = stats_block(text, "set assignment grade")
    assert "(Student: 23)" in submit, submit
    assert re.search(r"\(Student: 134[,)]", grading), grading
    print("\nACCEPTANCE 2 PASS: 23 distinct submitting students, 134 graded students")


def test_criterion_03_conformance_and_mutation_detection(conformant):
    spec, log, _ = conformant
    matrix = verification.derive_matrix(log, spec.xmatrix, spec.schema)
    report = verification.check(matrix, spec.xmatrix)
    assert report.violations == [] and report.warnings == []

    ones = {(a, c) for (a, c), r in spec.xmatrix.cells.items() if (r.min, r.max) == (1, 1)}

    def counts_toward(obj, col):
        if col in ("Teacher", "Student"):
            return obj.type == "User" and obj.latest_value("role") == col
        return obj.type == col

    rng = random.Random(90210)
    events = [e for e in log.events_in_order()
              if any((e.type, c) in ones for c in spec.xmatrix.columns)]
    detected = 0
    for i in range(50):
        event = rng.choice(events)
        columns = [c for c in spec.xmatrix.columns if (event.type, c) in ones]
        col = rng.choice(columns)
        related = [o for o in log.objects_of_event(event.id) if counts_toward(o, col)]
        assert len(related) == 1  # conformant: the cell holds exactly one object
        pool = sorted(o.id for o in log.objects.values()
                      if counts_toward(o, col) and o.id != related[0].id)
        if pool and rng.random() < 0.5:
            mutated = clone_log(log, add_e2o=(event.id, rng.choice(pool), "mutant"))
        else:
            rels = sorted(r for r in log.e2o
                          if r.event_id == event.id and r.object_id == related[0].id)
            mutated = clone_log(log, drop_e2o=(event.id, rels[0].object_id, rels[0].qualifier))
        result = verification.check(
            verification.derive_matrix(mutated, spec.xmatrix, spec.schema), spec.xmatrix)
        assert any(v.event_id == event.id and v.object_type == col
                   for v in result.violations), (i, event.id, col)
        detected += 1
    assert detected == 50
    print("\nACCEPTANCE 3 PASS: conformant fixture clean; 50/50 mutations detected")


def test_criterion_04_round_trip_property():
    rng = random.Random(404)
    failures = 0
    for _ in range(200):
        log = random_log(rng, max_events=500, max_objects=300)
        buf = io.StringIO()
        write_ocel_json(log, buf)
        parsed = read_ocel_json(io.StringIO(buf.getvalue()))
        if not parsed.structurally_equal(log):
            failures += 1
    assert failures == 0
    print("\nACCEPTANCE 4 PASS: 200/200 randomized logs round-trip equal")


def _corpus_200():
    rng = random.Random(505)
    return [random_log(rng, max_events=200, max_objects=120) for _ in range(100)]


def test_criterion_05_dfg_oracle_equivalence():
    logs = _corpus_200()
    for log in logs:
        types = [td.name for td in log.object_type_defs]
        dfg = analysis.discover_dfg(log, types)
        rels = log.e2o
        for t in types:
            edges, traces = Counter(), []
            for obj in log.objects.values():
                if obj.type != t:
                    continue
                eids = {r.event_id for r in rels if r.object_id == obj.id}
                trace = sorted((log.events[eid] for eid in eids),
                               key=lambda e: (e.time, e.id))
                traces.append(trace)
                for a, b in zip(trace, trace[1:]):
                    edges[(a.type, b.type)] += 1
            got = dfg.per_type[t]
            assert got.edges == dict(edges)
            assert sum(got.edges.values()) == sum(max(len(tr) - 1, 0) for tr in traces)
    print("\nACCEPTANCE 5 PASS: DFG equals brute-force counter on 100 logs; "
          "edge conservation exact")


def test_criterion_06_flatten_oracle():
    logs = _corpus_200()
    for log in logs:
        rels = log.e2o
        for td in log.object_type_defs:
            pairs = {(r.event_id, r.object_id) for r in rels
                     if log.objects[r.object_id].type == td.name}
            assert len(analysis.flatten(log, td.name).rows) == len(pairs)
    print("\nACCEPTANCE 6 PASS: flatten row counts equal brute-force E2O pair counts")


def test_criterion_07_drill_roll_inverse():
    rng = random.Random(707)
    for _ in range(100):
        log = random_log(rng, max_events=120, max_objects=80, with_user_hierarchy=True)
        drilled = analysis.drill_down(log, "User", "role")
        labels = {o.type for o in drilled.objects.values()
                  if o.type in ("Teacher", "Student")}
        assert labels  # every corpus log holds at least one User
        rolled = analysis.roll_up(drilled, labels, "User", "role")
        assert rolled.structurally_equal(log)
    print("\nACCEPTANCE 7 PASS: roll_up(drill_down(L, User)) == L on 100 logs")


def test_criterion_08_multiplicity_grammar():
    rng = random.Random(808)
    grammar = re.compile(r"^\s*\d+(\.\.(\d+|\*))?\s*$")

    for _ in range(1000):
        lo = rng.randint(0, 999)
        form = rng.randrange(3)
        if form == 0:
            text = str(lo)
        elif form == 1:
            text = f"{lo}..{lo + rng.randint(0, 999)}"
        else:
            text = f"{lo}..*"
        parsed = parse_multiplicity(text)
        again = parse_multiplicity(parsed.canonical())
        assert again == parsed and again.canonical() == parsed.canonical()

    rejected = 0
    alphabet = string.ascii_letters + string.digits + ".*-_ ,"
    while rejected < 1000:
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        if grammar.match(text):
            continue
        with pytest.raises(SpecError):
            parse_multiplicity(text)
        rejected += 1

    with pytest.raises(SpecError, match="inverted"):
        parse_multiplicity("3..2")
    print("\nACCEPTANCE 8 PASS: grammar strings parse; 1000 non-grammar strings rejected; "
          "canonicalization idempotent")


def test_criterion_09_loop_structure(case_study):
    _, log, _ = case_study
    pages = analysis.filter_log(log, keep_event_types={"view page"})
    unfolded = analysis.unfold_events(pages, "view page", "Page", "code")
    dfg = analysis.discover_dfg(unfolded, {"User"})
    edges = dfg.per_type["User"].edges
    for a, b in [("A1P1", "A1P2"), ("A1P2", "A1P3"), ("A1P3", "A1P4"), ("A1P4", "A1P5")]:
        assert (f"view page {a}", f"view page {b}") in edges, f"missing chain edge {a}->{b}"
    cycle = [("A1P5", "A1P6"), ("A1P6", "L1P1"), ("L1P1", "A1P5")]
    for a, b in cycle:
        assert (f"view page {a}", f"view page {b}") in edges, f"missing cycle edge {a}->{b}"
    print("\nACCEPTANCE 9 PASS: chain A1P1..A1P5 and cycle {A1P5, A1P6, L1P1} discovered")


def test_criterion_10_pipeline_determinism():
    started = time.perf_counter()
    outputs = []
    for _ in range(2):
        spec, sources = load_fixture("case_study")
        log, _ = extraction.extract(spec, sources)
        buf = io.StringIO()
        write_ocel_json(log, buf)
        pages = analysis.filter_log(log, keep_event_types={"view page"})
        unfolded = analysis.unfold_events(pages, "view page", "Page", "code")
        dot = analysis.to_dot(analysis.discover_dfg(unfolded, {"User", "Course"}), 5)
        outputs.append((buf.getvalue(), dot))
    elapsed = time.perf_counter() - started
    assert outputs[0][0] == outputs[1][0], "OCEL JSON not byte-identical"
    assert outputs[0][1] == outputs[1][1], "DOT output not byte-identical"
    assert elapsed < 10.0, f"end-to-end took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 10 PASS: byte-identical reruns; end-to-end x2 in {elapsed:.1f}s")
