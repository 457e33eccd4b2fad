import csv
import dataclasses
import errno
import io
import logging
import os
import tracemalloc
from datetime import datetime, timezone
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocedf import (
    AttributeValue,
    DataError,
    EventInstance,
    ObjectInstance,
    SchemaError,
    SourceTable,
    extract,
    load_source,
    parse_spec,
    synthesize_event_id,
    write_ocel_json,
)
from ocedf import extraction, ocel, timeutil
from ocedf.extraction import CHUNK_ROWS
from ocedf.specmodel import E2ORule, O2ORule
from conftest import FIXTURES, load_fixture
from reference_extraction import reference_extract, table_rows


def tiny_spec_doc(mappings):
    return {
        "schema": {
            "object_types": ["User", "Teacher", "Student", "Course"],
            "is_a": [["Teacher", "User"], ["Student", "User"]],
            "discriminators": {"User": "role"},
            "o2o_types": [["Course", "User", "enrolls"]],
        },
        "extraction_matrix": {
            "columns": ["User", "Teacher", "Student", "Course"],
            "rows": {
                "view page": {"User": "1", "Course": "1"},
                "submit assignment": {"Student": "1", "Course": "1"},
            },
        },
        "extraction_epoch": "2024-09-01T00:00:00Z",
        "mappings": mappings,
    }


def table(name, header, rows):
    return SourceTable.from_rows(name, header, rows)


BASE_MAPPINGS = [
    {"kind": "object", "source_table": "users", "id_column": "uid",
     "object_type": "User", "subtype_column": "role", "attributes": {"name": "name"}},
    {"kind": "object", "source_table": "courses", "id_column": "cid",
     "object_type": "Course", "attributes": {"name": "name"}},
    {"kind": "o2o", "source_table": "enrollments", "source_id_column": "cid",
     "target_id_column": "uid", "qualifier": "enrolls"},
    {"kind": "event", "source_table": "events", "activity_column": "action",
     "time_column": "ts", "time_format": "%Y-%m-%d %H:%M:%S"},
    {"kind": "e2o", "source_table": "events", "object_id_column": "uid", "qualifier": "actor"},
    {"kind": "e2o", "source_table": "events", "object_id_column": "cid", "qualifier": "course"},
]

BASE_SOURCES = {
    "users": table("users", ["uid", "name", "role"],
                   [["u1", "Ann", "Student"], ["u2", "Bo", "Teacher"]]),
    "courses": table("courses", ["cid", "name"], [["c1", "Modeling"]]),
    "enrollments": table("enrollments", ["cid", "uid"], [["c1", "u1"], ["c1", "u2"]]),
    "events": table("events", ["ts", "action", "uid", "cid"],
                    [["2024-09-02 10:00:00", "view page", "u1", "c1"],
                     ["2024-09-02 11:00:00", "view page", "u2", "c1"],
                     ["2024-09-03 09:30:00", "submit assignment", "u1", "c1"]]),
}


def run_tiny(mappings=None, sources=None, **kwargs):
    spec = parse_spec(tiny_spec_doc(mappings or BASE_MAPPINGS))
    return extract(spec, sources or BASE_SOURCES, **kwargs)


def skips(report):
    """Skip counts of every rule that skipped rows: rule -> {reason: [rows, first row]}."""
    return {r.rule_index: r.skipped for r in report.rule_runs if r.skipped}


class TestLoadSource:
    def test_empty_table(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n", encoding="utf-8")
        t = load_source(p, "t")
        assert t.header == ["a", "b"] and table_rows(t) == []

    def test_header_trimmed(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(" a , b \nx,y\n", encoding="utf-8")
        assert load_source(p, "t").header == ["a", "b"]

    def test_ragged_row_reports_index(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\nx,y\n1,2,3\n", encoding="utf-8")
        with pytest.raises(DataError, match="row 1"):
            load_source(p, "t")

    def test_repeated_column_name_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b, a\n1,2,3\n", encoding="utf-8")
        with pytest.raises(DataError, match="column 'a' appears twice") as err:
            load_source(p, "t")
        assert str(p) in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_source(tmp_path / "nope.csv", "nope")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="header"):
            load_source(p, "t")

    def test_fixture_views_row_count_matches_wc(self):
        path = FIXTURES / "case_study" / "sources" / "views.csv"
        expected = sum(1 for _ in path.open(encoding="utf-8")) - 1
        assert len(table_rows(load_source(path, "views"))) == expected
        assert expected > 5000

    def test_quoted_fields(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text('a,b\n"x,1",y\n', encoding="utf-8")
        assert table_rows(load_source(p, "t")) == [{"a": "x,1", "b": "y"}]

    def test_equal_cells_are_one_object(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,c\n x ,y,\n x ,x,y\nx, x ,\n", encoding="utf-8")
        rows = table_rows(load_source(p, "t"))
        assert rows == [{"a": " x ", "b": "y", "c": ""}, {"a": " x ", "b": "x", "c": "y"},
                        {"a": "x", "b": " x ", "c": ""}]
        assert rows[0]["a"] is rows[1]["a"] is rows[2]["b"]   # across rows and columns
        assert rows[0]["b"] is rows[1]["c"] and rows[1]["b"] is rows[2]["a"]
        assert rows[0]["c"] is rows[2]["c"]

    def test_shared_cells_hold_less_than_a_copy_per_cell(self, tmp_path):
        """A table of repeated values loads into less memory than the same
        rows with each cell its own copy, as a CSV reader gives them: here
        into less than half, though one column's values are all distinct."""
        p = _repeated_values_csv(tmp_path)

        def copy_per_cell():
            with p.open(newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                header = next(reader)
                return [dict(zip(header, row)) for row in reader]

        loaded, shared = _held_by(lambda: load_source(p, "t"))
        rows, copied = _held_by(copy_per_cell)
        assert loaded.row_count == len(rows) == 3000
        assert shared < 0.5 * copied

    def test_columns_hold_less_than_half_of_shared_dict_rows(self, tmp_path):
        """Held by column, a table takes less than half the memory of the same
        rows as one dict per row, with the same one copy of each distinct cell."""
        p = _repeated_values_csv(tmp_path)

        def dict_rows():
            first_copy = {}.setdefault
            with p.open(newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                header = [h.strip() for h in next(reader)]
                return [dict(zip(header, map(first_copy, row, row))) for row in reader]

        loaded, columns = _held_by(lambda: load_source(p, "t"))
        rows, as_dicts = _held_by(dict_rows)
        assert table_rows(loaded) == rows
        assert columns < 0.5 * as_dicts

    def test_columns_cross_chunks(self, tmp_path):
        p = tmp_path / "t.csv"
        n = 3 * CHUNK_ROWS + 5
        p.write_text("a,b\n" + "".join(f"{i},{i % 3}\n" for i in range(n)), encoding="utf-8")
        t = load_source(p, "t")
        assert t.row_count == n and [len(chunks) for chunks in t.chunks] == [4, 4]
        assert list(t.column("a")) == [str(i) for i in range(n)]
        assert list(t.column("b")) == [str(i % 3) for i in range(n)]
        assert list(t.column("c")) == [""] * n   # as row.get("c", "") reads a record

    def test_ragged_row_past_the_first_chunk_reports_its_index(self, tmp_path):
        p = tmp_path / "t.csv"
        rows = ["x,y"] * (CHUNK_ROWS + 4) + ["x"] + ["x,y"] * 3
        p.write_text("a,b\n" + "\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            load_source(p, "t")
        assert str(err.value) == f"{p}: ragged row at data row {CHUNK_ROWS + 4}: expected 2 cells, found 1"

    def test_blank_header_line_has_no_columns_but_counts_its_blank_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("\n\n\n", encoding="utf-8")
        t = load_source(p, "t")
        assert (t.header, t.chunks, t.row_count) == ([], (), 2)
        assert table_rows(t) == [{}, {}]
        assert list(t.column("a")) == ["", ""]

    def test_from_rows_rejects_a_ragged_row(self):
        with pytest.raises(DataError, match=r"^table 't': row 1 has 1 cells, expected 2$"):
            SourceTable.from_rows("t", ["a", "b"], [["x", "y"], ["x"]])
        assert SourceTable.from_rows("t", ["a", "b"], []) == SourceTable("t", ["a", "b"], ((), ()), 0)

    @pytest.mark.parametrize("content, message", [
        (b"a,b\nx,y\n1,2,3\n", "{p}: ragged row at data row 1: expected 2 cells, found 3"),
        (b"a,b, a\n1,2,3\n", "{p}: column 'a' appears twice in the header row"),
        (b"", "{p}: empty file, expected a header row"),
        (b"a,b\nx,\xff\n",
         "{p}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 6: invalid start byte"),
        (None, "cannot read {p}: [Errno {enoent}] {strerror}: '{p}'"),
        # a ragged row raises before text past the reader's first 8 KiB is decoded
        (b"a,b\nx\n" + (b"y," + b"z" * 300 + b"\n") * 40 + b"\xff,x\n",
         "{p}: ragged row at data row 0: expected 2 cells, found 1"),
        (b"a,b\nx,y\nx," + b"z" * 131_073 + b"\n",
         "{p}: malformed CSV at line 3: field larger than field limit (131072)"),
    ], ids=["ragged", "repeated-header", "empty", "not-utf8", "missing", "ragged-before-not-utf8",
            "malformed-csv"])
    def test_error_messages(self, tmp_path, content, message):
        p = tmp_path / "t.csv"
        if content is not None:
            p.write_bytes(content)
        with pytest.raises(DataError) as err:
            load_source(p, "t")
        assert str(err.value) == message.format(p=p, enoent=errno.ENOENT, strerror=os.strerror(errno.ENOENT))


def _repeated_values_csv(tmp_path):
    """A 3,000-row table: one column of distinct values, three of repeated ones."""
    p = tmp_path / "t.csv"
    with p.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ts", "user", "page", "course"])
        writer.writerows([f"2024-09-02 10:{i // 60 % 60:02d}:{i % 60:02d}", f"user-{i % 97}",
                          f"page-{i % 7}", "course-1"] for i in range(3000))
    return p


def _held_by(load):
    """What ``load()`` returns and the bytes it holds, by ``tracemalloc``."""
    load()   # any first-call caches stay out of the count
    tracemalloc.start()
    try:
        result = load()
        return result, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


# Cells a CSV writer must quote or that pad, repeat or go empty.
CSV_CELLS = ["x", " x ", "", "x,y", 'say "hi"', "two\nlines", "é", "1"]


@st.composite
def csv_tables(draw):
    """(header, rows) of a CSV table: header names unique once stripped, and
    from none to a few chunks of rows drawn again and again from a few."""
    header = draw(st.lists(st.sampled_from(["a", " b ", "c,d", 'e"f', "g"]), min_size=1, max_size=4,
                           unique_by=str.strip))
    pool = draw(st.lists(st.lists(st.sampled_from(CSV_CELLS), min_size=len(header), max_size=len(header)),
                         min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=8))
    repeats = draw(st.sampled_from([1, CHUNK_ROWS // 3, CHUNK_ROWS + 1]))
    return header, [pool[k] for k in picks for _ in range(repeats)]


@given(drawn=csv_tables())
@settings(max_examples=150, deadline=None)
def test_load_source_columns_are_the_reader_rows_transposed(tmp_path_factory, drawn):
    header, rows = drawn
    p = tmp_path_factory.getbasetemp() / "drawn.csv"
    with p.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    with p.open(newline="", encoding="utf-8") as fh:
        read_header, *read_rows = csv.reader(fh)
    t = load_source(p, "drawn")
    assert t.header == [h.strip() for h in read_header]
    assert t.row_count == len(read_rows) == len(rows)
    assert [list(t.column(h)) for h in t.header] == [[row[j] for row in read_rows] for j in range(len(header))]
    assert table_rows(t) == [dict(zip(t.header, row)) for row in read_rows]
    assert SourceTable.from_rows("drawn", t.header, read_rows) == t
    first = {}
    for column in t.chunks:
        for chunk in column:
            assert len(chunk) <= CHUNK_ROWS
            for cell in chunk:   # equal cells are one object, across rows and columns
                assert first.setdefault(cell, cell) is cell


class TestSynthesizedIds:
    def test_definition(self):
        assert synthesize_event_id("moodle_log", 0) == "moodle_log:0"

    def test_deterministic(self):
        assert synthesize_event_id("t", 7) == synthesize_event_id("t", 7)

    def test_injective_across_rows(self):
        ids = {synthesize_event_id("t", i) for i in range(1000)}
        assert len(ids) == 1000


class TestExtract:
    def test_event_types_match_matrix_rows(self):
        log, _ = run_tiny()
        assert {e.type for e in log.events.values()} <= {"view page", "submit assignment"}
        assert [td.name for td in log.event_type_defs] == ["view page", "submit assignment"]

    def test_subtype_rule_stores_at_root_with_discriminator(self):
        mappings = [
            {"kind": "object", "source_table": "teachers", "id_column": "tid",
             "object_type": "Teacher", "attributes": {"name": "name"}},
        ]
        sources = {"teachers": table("teachers", ["tid", "name"], [["t1", "Bo"]])}
        log, _ = run_tiny(mappings, sources)
        obj = log.objects["t1"]
        assert obj.type == "User"
        assert obj.latest_value("role") == "Teacher"
        assert all(td.name != "Teacher" for td in log.object_type_defs)

    def test_subtype_column_fills_discriminator(self):
        log, _ = run_tiny()
        assert log.objects["u1"].latest_value("role") == "Student"
        assert log.objects["u2"].latest_value("role") == "Teacher"

    def test_synthesized_event_ids(self):
        log, _ = run_tiny()
        assert "events:0" in log.events
        assert log.events["events:0"].type == "view page"

    def test_e2o_relations_built(self):
        log, _ = run_tiny()
        assert log.has_e2o("events:0", "u1", "actor")
        assert log.has_e2o("events:0", "c1", "course")

    def test_o2o_relations_built(self):
        log, _ = run_tiny()
        assert log.has_o2o("c1", "u1", "enrolls")

    def test_attribute_epoch_timestamp(self):
        log, _ = run_tiny()
        av = next(a for a in log.objects["u1"].attribute_values if a.name == "name")
        assert av.time.isoformat() == "2024-09-01T00:00:00+00:00"

    def test_attribute_time_column(self):
        mappings = [
            {"kind": "object", "source_table": "users2", "id_column": "uid",
             "object_type": "User", "subtype_column": "role",
             "attributes": {"name": "name"}, "attribute_time_column": "since"},
        ]
        sources = {"users2": table("users2", ["uid", "name", "role", "since"],
                                   [["u9", "Cy", "Student", "2024-10-05T12:00:00Z"]])}
        log, _ = run_tiny(mappings, sources)
        av = next(a for a in log.objects["u9"].attribute_values if a.name == "name")
        assert av.time.isoformat() == "2024-10-05T12:00:00+00:00"

    def test_phases_run_in_order_regardless_of_rule_order(self):
        scrambled = [BASE_MAPPINGS[4], BASE_MAPPINGS[3], BASE_MAPPINGS[0],
                     BASE_MAPPINGS[5], BASE_MAPPINGS[2], BASE_MAPPINGS[1]]
        log, report = run_tiny(scrambled)
        phases = [r.phase for r in report.rule_runs]
        assert phases == sorted(phases)
        kinds_by_phase = {1: {"object"}, 2: {"o2o", "event"}, 3: {"e2o"}}
        for r in report.rule_runs:
            assert r.kind in kinds_by_phase[r.phase]
        assert log.has_e2o("events:0", "u1", "actor")

    def test_determinism(self):
        a, _ = run_tiny()
        b, _ = run_tiny()
        assert a.structurally_equal(b)

    def test_report_conservation(self, case_study, conformant):
        for _, _, report in (case_study, conformant):
            for run in report.rule_runs:
                assert run.rows_in == run.rows_loaded + run.rows_skipped
                assert sum(rows for rows, _ in run.skipped.values()) == run.rows_skipped
                assert all(rows > 0 and 0 <= first < run.rows_in for rows, first in run.skipped.values())
            written = report.to_dict()["rules"]
            assert [{s["reason"]: [s["rows"], s["first_row"]] for s in r["skipped"]} for r in written] == \
                [run.skipped for run in report.rule_runs]
            assert "skipped_rows" not in report.to_dict()

    def test_case_study_skips_per_rule_and_reason(self, case_study):
        _, _, report = case_study
        assert skips(report) == {
            1: {"duplicate object id; first writer wins": [12, 0]},
            21: {"empty object id": [7339, 1]},
            22: {"empty object id": [2711, 0]},
            23: {"empty object id": [6678, 0]},
        }

    def test_report_times_each_phase_and_rule_apart_from_the_counts(self):
        _, report = run_tiny()
        written = report.to_dict()
        timings = written["timings"]
        assert [t["phase"] for t in timings["phases"]] == [1, 2, 3]
        assert [t["rule"] for t in timings["rules"]] == [r.rule_index for r in report.rule_runs]
        assert [t["seconds"] for t in timings["rules"]] == [r.seconds for r in report.rule_runs]
        assert all(t["seconds"] >= 0 for t in timings["phases"] + timings["rules"])
        assert sum(t["seconds"] for t in timings["phases"]) <= report.elapsed_seconds
        assert all("seconds" not in rule for rule in written["rules"])

    def test_counts_match_log_sizes(self):
        log, report = run_tiny()
        assert report.counts == {"object": len(log.objects), "event": len(log.events),
                                 "e2o": len(log.e2o), "o2o": len(log.o2o)}


EPOCH = datetime(2024, 9, 1, tzinfo=timezone.utc)
LINKS_RULE = {"kind": "e2o", "source_table": "links", "event_id_column": "eid",
              "object_id_column": "uid", "qualifier": "reader"}


def _summary(log, report):
    """What a run stored and counted, in a form to compare whole."""
    return {
        "counts": report.counts,
        "rules": [(r.rule_index, r.rows_in, r.rows_loaded, r.rows_skipped) for r in report.rule_runs],
        "skipped": skips(report),
        "objects": sorted(log.objects),
        "events": sorted(log.events),
        "o2o": sorted(log.o2o),
        "e2o": sorted(log.e2o),
    }


class TestRulesOverColumns:
    """Each rule kind over tables held by column: tables without data rows,
    synthesized ids over several chunks, and rules naming no optional column."""

    @pytest.mark.parametrize("empty, expected", [
        ("users", {   # object rule
            "counts": {"object": 1, "event": 3, "e2o": 3, "o2o": 0},
            "rules": [(0, 0, 0, 0), (1, 1, 1, 0), (2, 2, 0, 2), (3, 3, 3, 0), (4, 3, 0, 3),
                      (5, 3, 3, 0), (6, 2, 0, 2)],
            "skipped": {2: {"o2o references unknown object": [2, 0]},
                        4: {"e2o references unknown object": [3, 0]},
                        6: {"e2o references unknown object": [2, 0]}},
            "objects": ["c1"], "events": ["events:0", "events:1", "events:2"], "o2o": [],
            "e2o": [("events:0", "c1", "course"), ("events:1", "c1", "course"),
                    ("events:2", "c1", "course")]}),
        ("enrollments", {   # o2o rule
            "counts": {"object": 3, "event": 3, "e2o": 8, "o2o": 0},
            "rules": [(0, 2, 2, 0), (1, 1, 1, 0), (2, 0, 0, 0), (3, 3, 3, 0), (4, 3, 3, 0),
                      (5, 3, 3, 0), (6, 2, 2, 0)],
            "skipped": {},
            "objects": ["c1", "u1", "u2"], "events": ["events:0", "events:1", "events:2"], "o2o": [],
            "e2o": [("events:0", "c1", "course"), ("events:0", "u1", "actor"),
                    ("events:0", "u2", "reader"), ("events:1", "c1", "course"),
                    ("events:1", "u2", "actor"), ("events:2", "c1", "course"),
                    ("events:2", "u1", "actor"), ("events:2", "u1", "reader")]}),
        ("events", {   # event rule, and E2O rules naming its synthesized ids
            "counts": {"object": 3, "event": 0, "e2o": 0, "o2o": 2},
            "rules": [(0, 2, 2, 0), (1, 1, 1, 0), (2, 2, 2, 0), (3, 0, 0, 0), (4, 0, 0, 0),
                      (5, 0, 0, 0), (6, 2, 0, 2)],
            "skipped": {6: {"e2o references unknown event": [2, 0]}},
            "objects": ["c1", "u1", "u2"], "events": [],
            "o2o": [("c1", "u1", "enrolls"), ("c1", "u2", "enrolls")], "e2o": []}),
        ("links", {   # e2o rule with an event id column
            "counts": {"object": 3, "event": 3, "e2o": 6, "o2o": 2},
            "rules": [(0, 2, 2, 0), (1, 1, 1, 0), (2, 2, 2, 0), (3, 3, 3, 0), (4, 3, 3, 0),
                      (5, 3, 3, 0), (6, 0, 0, 0)],
            "skipped": {},
            "objects": ["c1", "u1", "u2"], "events": ["events:0", "events:1", "events:2"],
            "o2o": [("c1", "u1", "enrolls"), ("c1", "u2", "enrolls")],
            "e2o": [("events:0", "c1", "course"), ("events:0", "u1", "actor"),
                    ("events:1", "c1", "course"), ("events:1", "u2", "actor"),
                    ("events:2", "c1", "course"), ("events:2", "u1", "actor")]}),
    ])
    @pytest.mark.parametrize("on_dangling", ["skip", "fail"])
    def test_a_table_without_data_rows(self, empty, expected, on_dangling):
        sources = dict(BASE_SOURCES, links=table("links", ["eid", "uid"], [["events:0", "u2"], ["events:2", "u1"]]))
        sources[empty] = table(empty, sources[empty].header, [])
        if on_dangling == "fail" and expected["skipped"]:
            with pytest.raises(DataError, match=r"^mappings\[\d\] row 0: (o2o|e2o) references unknown"):
                run_tiny([*BASE_MAPPINGS, LINKS_RULE], sources, on_dangling=on_dangling)
            return
        log, report = run_tiny([*BASE_MAPPINGS, LINKS_RULE], sources, on_dangling=on_dangling)
        assert _summary(log, report) == expected

    def test_event_rule_without_id_column_names_each_row_by_its_index(self):
        n = 2 * CHUNK_ROWS + 3
        mappings = [BASE_MAPPINGS[0],
                    {"kind": "event", "source_table": "ev", "activity": "view page",
                     "time_column": "ts", "time_format": PLAIN},
                    {"kind": "e2o", "source_table": "ev", "object_id_column": "uid", "qualifier": "actor"}]
        sources = {"users": BASE_SOURCES["users"],
                   "ev": table("ev", ["ts", "uid"], [[f"2024-09-02 10:{i // 60:02d}:{i % 60:02d}",
                                                     ("u1", " u2", "", "ghost")[i % 4]] for i in range(n)])}
        log, report = run_tiny(mappings, sources)
        assert sorted(log.events) == sorted(f"ev:{i}" for i in range(n))
        assert [log.events[f"ev:{i}"].time.minute * 60 + log.events[f"ev:{i}"].time.second
                for i in range(n)] == list(range(n))
        assert sorted(log.e2o) == sorted((f"ev:{i}", ("u1", "u2")[i % 4], "actor")
                                         for i in range(n) if i % 4 < 2)
        assert _summary(log, report)["rules"] == [(0, 2, 2, 0), (1, n, n, 0), (2, n, 58, 57)]
        assert skips(report) == {2: {"empty object id": [29, 2], "e2o references unknown object": [28, 3]}}

    def test_event_rule_strips_its_id_cells(self):
        mappings = [{"kind": "event", "source_table": "ev", "activity": "view page", "id_column": "eid",
                     "time_column": "ts", "time_format": PLAIN}]
        rows = [[" e1 ", "2024-09-02 10:00:00"], ["e2", "2024-09-02 11:00:00"]]
        log, _ = run_tiny(mappings, {"ev": table("ev", ["eid", "ts"], rows)})
        assert sorted(log.events) == ["e1", "e2"]
        with pytest.raises(DataError, match=r"^mappings\[0\] row 2: duplicate event id 'e1'$"):
            run_tiny(mappings, {"ev": table("ev", ["eid", "ts"], [*rows, ["e1", "2024-09-02 12:00:00"]])})

    def test_object_rule_without_optional_columns(self):
        """Without ``subtype_column`` a subtype rule labels every object with its
        type, and without ``attribute_time_column`` every value holds at the
        extraction epoch, though the table has columns of those names."""
        mappings = [
            {"kind": "object", "source_table": "staff", "id_column": "sid", "object_type": "Teacher",
             "attributes": {"name": "name"}},
            {"kind": "object", "source_table": "staff", "id_column": "cid", "object_type": "Course"},
        ]
        sources = {"staff": table("staff", ["sid", "name", "role", "since", "cid"],
                                  [["t1", "Bo", "Student", "2024-10-05T12:00:00Z", "c1"],
                                   [" t2 ", "", "", "", "c1"]])}
        log, report = run_tiny(mappings, sources)
        assert log.objects == {
            "t1": ObjectInstance("t1", "User", (AttributeValue("name", EPOCH, "Bo"),
                                                AttributeValue("role", EPOCH, "Teacher"))),
            "t2": ObjectInstance("t2", "User", (AttributeValue("role", EPOCH, "Teacher"),)),
            "c1": ObjectInstance("c1", "Course", ()),
        }
        assert skips(report) == {1: {"duplicate object id; first writer wins": [1, 1]}}


class TestDanglingPolicy:
    def bad_sources(self):
        sources = dict(BASE_SOURCES)
        sources["events"] = table("events", ["ts", "action", "uid", "cid"],
                                  [["2024-09-02 10:00:00", "view page", "ghost", "c1"],
                                   ["2024-09-02 11:00:00", "view page", "u1", "c1"]])
        return sources

    def test_skip_records_row(self):
        log, report = run_tiny(sources=self.bad_sources())
        assert not log.has_e2o("events:0", "ghost", "actor")
        assert skips(report) == {4: {"e2o references unknown object": [1, 0]}}

    def test_fail_fast_raises(self):
        with pytest.raises(DataError, match=r"^mappings\[4\] row 0: e2o references unknown object 'ghost'$"):
            run_tiny(sources=self.bad_sources(), on_dangling="fail")

    def test_dangling_o2o_skip_reason_and_fail_message(self):
        sources = dict(BASE_SOURCES)
        sources["enrollments"] = table("enrollments", ["cid", "uid"], [["c1", "u1"], ["c1", "ghost"]])
        _, report = run_tiny(sources=sources)
        assert skips(report) == {2: {"o2o references unknown object": [1, 1]}}
        with pytest.raises(DataError, match=r"^mappings\[2\] row 1: o2o references unknown object 'ghost'$"):
            run_tiny(sources=sources, on_dangling="fail")

    def test_dangling_event_skip_reason_and_fail_message(self):
        mappings = list(BASE_MAPPINGS) + [
            {"kind": "e2o", "source_table": "links", "event_id_column": "eid",
             "object_id_column": "uid", "qualifier": "reader"},
        ]
        sources = dict(BASE_SOURCES)
        sources["links"] = table("links", ["eid", "uid"],
                                 [["events:0", "u1"], ["events:9", "u1"], ["events:8", "u2"]])
        _, report = run_tiny(mappings, sources)
        assert skips(report) == {6: {"e2o references unknown event": [2, 1]}}
        with pytest.raises(DataError, match=r"^mappings\[6\] row 1: e2o references unknown event 'events:9'$"):
            run_tiny(mappings, sources, on_dangling="fail")

    def test_unknown_policy(self):
        with pytest.raises(DataError, match="policy"):
            run_tiny(on_dangling="strict")

    @pytest.mark.parametrize("links, expected", [
        ([["events:0", "ghost"], ["events:0", ""], ["events:0", "u1"], ["events:0", "u1"],
          ["events:1", " "], ["events:1", "ghost"]],
         {"e2o references unknown object": [2, 0], "empty object id": [2, 1],
          "duplicate e2o relation": [1, 3]}),
        ([["events:0", "  "], ["events:9", "u1"], ["events:0", "ghost"], ["events:0", ""],
          ["events:0", "u1"]],
         {"empty object id": [2, 0], "e2o references unknown event": [1, 1],
          "e2o references unknown object": [1, 2]}),
    ])
    def test_skip_reasons_listed_in_first_row_order(self, links, expected):
        """Empty object-id cells are counted apart from the other reasons and
        still listed at their first row's place among them."""
        mappings = list(BASE_MAPPINGS) + [
            {"kind": "e2o", "source_table": "links", "event_id_column": "eid",
             "object_id_column": "uid", "qualifier": "reader"},
        ]
        sources = dict(BASE_SOURCES, links=table("links", ["eid", "uid"], links))
        _, report = run_tiny(mappings, sources)
        run = report.rule_runs[-1]
        assert run.rule_index == 6 and list(run.skipped.items()) == list(expected.items())
        assert run.rows_skipped == sum(rows for rows, _ in expected.values())
        assert run.rows_loaded == len(links) - run.rows_skipped
        assert [entry["reason"] for entry in report.to_dict()["rules"][-1]["skipped"]] == list(expected)

    def test_empty_link_cells_are_skipped_not_dangling(self):
        sources = dict(BASE_SOURCES)
        sources["events"] = table("events", ["ts", "action", "uid", "cid"],
                                  [["2024-09-02 10:00:00", "view page", "u1", ""]])
        log, report = run_tiny(sources=sources, on_dangling="fail")
        assert len(log.events) == 1
        assert skips(report) == {5: {"empty object id": [1, 0]}}


class TestDuplicates:
    def test_same_object_from_two_rules_merges_first_writer_wins(self):
        mappings = list(BASE_MAPPINGS) + [
            {"kind": "object", "source_table": "users_again", "id_column": "uid",
             "object_type": "User", "subtype_column": "role", "attributes": {"name": "name"}},
        ]
        sources = dict(BASE_SOURCES)
        sources["users_again"] = table("users_again", ["uid", "name", "role"],
                                       [["u1", "Ann Other", "Student"]])
        log, report = run_tiny(mappings, sources)
        assert log.objects["u1"].latest_value("name") == "Ann"
        assert skips(report) == {6: {"duplicate object id; first writer wins": [1, 0]}}

    def test_conflicting_type_errors(self):
        mappings = list(BASE_MAPPINGS) + [
            {"kind": "object", "source_table": "rogue", "id_column": "cid",
             "object_type": "Course", "attributes": {}},
        ]
        sources = dict(BASE_SOURCES)
        sources["rogue"] = table("rogue", ["cid"], [["u1"]])
        with pytest.raises(DataError, match="already stored"):
            run_tiny(mappings, sources)

    def test_duplicate_event_id_errors(self):
        mappings = [
            {"kind": "event", "source_table": "ev", "activity": "view page",
             "id_column": "eid", "time_column": "ts", "time_format": "%Y-%m-%d %H:%M:%S"},
        ]
        sources = {"ev": table("ev", ["eid", "ts"],
                               [["e1", "2024-09-02 10:00:00"], ["e1", "2024-09-02 11:00:00"]])}
        with pytest.raises(DataError, match="duplicate event id"):
            run_tiny(mappings, sources)

    def test_duplicate_relation_rows_skipped(self):
        sources = dict(BASE_SOURCES)
        sources["enrollments"] = table("enrollments", ["cid", "uid"],
                                       [["c1", "u1"], ["c1", "u1"]])
        log, report = run_tiny(sources=sources)
        assert sum(1 for r in log.o2o if r.target_object_id == "u1") == 1
        assert skips(report) == {2: {"duplicate o2o relation": [1, 1]}}

    def test_same_o2o_relation_from_two_rules_skipped_on_the_later(self):
        mappings = list(BASE_MAPPINGS) + [
            {"kind": "o2o", "source_table": "rosters", "source_id_column": "course",
             "target_id_column": "member", "qualifier": "enrolls"},
        ]
        sources = dict(BASE_SOURCES)
        sources["rosters"] = table("rosters", ["course", "member"],
                                   [["c1", "u2"], [" c1 ", "u1"], ["c1", "u1"]])
        log, report = run_tiny(mappings, sources)
        assert sorted(log.o2o) == [("c1", "u1", "enrolls"), ("c1", "u2", "enrolls")]
        assert skips(report) == {6: {"duplicate o2o relation": [3, 0]}}

    @pytest.mark.parametrize("rule", [E2ORule("events", "uid", qualifier=None),
                                      O2ORule("enrollments", "cid", "uid", qualifier=1)])
    def test_non_string_qualifier_rejected(self, rule):
        spec = parse_spec(tiny_spec_doc(BASE_MAPPINGS))
        spec = dataclasses.replace(spec, mappings=(*spec.mappings, rule))
        with pytest.raises(SchemaError, match=r"^mappings\[6\]: qualifier .* must be a string$"):
            extract(spec, BASE_SOURCES)

    @pytest.mark.parametrize("on_dangling", ["skip", "fail"])
    def test_self_link_without_qualifier_skipped(self, on_dangling):
        mappings = list(BASE_MAPPINGS) + [
            {"kind": "o2o", "source_table": "links", "source_id_column": "src",
             "target_id_column": "tgt"},
        ]
        sources = dict(BASE_SOURCES)
        sources["links"] = table("links", ["src", "tgt"], [["u1", "u2"], ["u1", "u1"], ["u2", "u2"]])
        log, report = run_tiny(mappings, sources, on_dangling=on_dangling)
        assert log.has_o2o("u1", "u2") and not log.has_o2o("u1", "u1")
        assert skips(report) == {6: {"self o2o relation without qualifier": [2, 1]}}
        assert all(r.rows_in == r.rows_loaded + r.rows_skipped for r in report.rule_runs)
        run = next(r for r in report.rule_runs if r.rule_index == 6)
        assert (run.rows_in, run.rows_loaded, run.rows_skipped) == (3, 1, 2)

    def test_each_skip_reason_counted_on_its_rule(self):
        mappings = list(BASE_MAPPINGS) + [
            {"kind": "e2o", "source_table": "links", "event_id_column": "eid",
             "object_id_column": "uid", "qualifier": "reader"},
        ]
        sources = dict(BASE_SOURCES)
        sources["enrollments"] = table("enrollments", ["cid", "uid"],
                                       [["c1", "u1"], ["c1", ""], ["", "u2"]])
        sources["links"] = table("links", ["eid", "uid"],
                                 [["events:0", "u1"], ["events:0", "u1"], ["", "u1"],
                                  ["events:1", "u2"], ["events:1", "u2"]])
        _, report = run_tiny(mappings, sources)
        assert skips(report) == {
            2: {"empty endpoint id": [2, 1]},
            6: {"duplicate e2o relation": [2, 1], "empty event id": [1, 2]},
        }
        rule = report.to_dict()["rules"][-1]
        assert rule["rule"] == 6 and rule["skipped"] == [
            {"reason": "duplicate e2o relation", "rows": 2, "first_row": 1},
            {"reason": "empty event id", "rows": 1, "first_row": 2},
        ]


class TestRowErrors:
    def test_unparseable_timestamp(self):
        sources = dict(BASE_SOURCES)
        sources["events"] = table("events", ["ts", "action", "uid", "cid"],
                                  [["2024-09-02 10:00:00", "view page", "u1", "c1"],
                                   ["yesterday", "view page", "u1", "c1"]])
        with pytest.raises(DataError, match=r"^mappings\[3\] row 1: unparseable timestamp 'yesterday' "
                                            r"for format '%Y-%m-%d %H:%M:%S'"):
            run_tiny(sources=sources)

    def test_unparseable_attribute_time(self):
        mappings = [{"kind": "object", "source_table": "users2", "id_column": "uid", "object_type": "Course",
                     "attributes": {"name": "name"}, "attribute_time_column": "since"}]
        sources = {"users2": table("users2", ["uid", "name", "since"],
                                   [["c8", "Cy", "2024-10-05T12:00:00Z"], ["c9", "Di", "yesterday"]])}
        with pytest.raises(DataError, match=r"^mappings\[0\] row 1: unparseable timestamp 'yesterday'"):
            run_tiny(mappings, sources)

    def test_unknown_activity_value(self):
        sources = dict(BASE_SOURCES)
        sources["events"] = table("events", ["ts", "action", "uid", "cid"],
                                  [["2024-09-02 10:00:00", "login", "u1", "c1"]])
        with pytest.raises(DataError, match="login"):
            run_tiny(sources=sources)

    def test_missing_source_table(self):
        sources = {k: v for k, v in BASE_SOURCES.items() if k != "events"}
        with pytest.raises(DataError, match="events"):
            run_tiny(sources=sources)

    def test_missing_column(self):
        sources = dict(BASE_SOURCES)
        sources["events"] = table("events", ["ts", "action", "uid"],
                                  [["2024-09-02 10:00:00", "view page", "u1"]])
        with pytest.raises(DataError, match="cid"):
            run_tiny(sources=sources)

    def test_empty_object_id_in_object_rule(self):
        sources = dict(BASE_SOURCES)
        sources["users"] = table("users", ["uid", "name", "role"], [["", "Ann", "Student"]])
        with pytest.raises(DataError, match="empty object id"):
            run_tiny(sources=sources)


def test_case_study_extraction_shape(case_study):
    spec, log, report = case_study
    assert {e.type for e in log.events.values()} == set(spec.xmatrix.activities)
    stored_types = {o.type for o in log.objects.values()}
    assert stored_types == {"User", "Exam", "File", "Page", "Folder", "Assignment",
                            "Group", "Course"}
    assert not any(o.type in ("Teacher", "Student") for o in log.objects.values())
    # grading-system users merged onto LMS users
    assert skips(report)[1] == {"duplicate object id; first writer wins": [12, 0]}
    assert spec.mappings[1].source_table == "users_grading"


def test_fixture_loads_from_disk_match_api(case_study):
    spec, sources = load_fixture("case_study")
    log2, _ = extract(spec, sources)
    assert case_study[1].structurally_equal(log2)


def test_relations_hold_the_stored_instances_ids(case_study):
    """Relations are built from the stored instances' own id strings, not
    from the equal strings read from the CSV rows."""
    _, log, _ = case_study
    assert log.e2o and log.o2o
    for rel in log.e2o:
        assert rel.event_id is log.events[rel.event_id].id
        assert rel.object_id is log.objects[rel.object_id].id
    for rel in log.o2o:
        assert rel.source_object_id is log.objects[rel.source_object_id].id
        assert rel.target_object_id is log.objects[rel.target_object_id].id


# -- differential test against the rule runners as they were ---------------------

# Cells are drawn from small pools, so ids repeat, pad, go empty and dangle.
# "rows:N" is the event synthesized from row N of table "rows".
ENDPOINTS = ["u1", "u2", "u3", "c1", "c2", " u1 ", ""]
EVENT_REFS = ["e1", "e2", "e3", "rows:0", "rows:1", " rows:2", ""]
PLAIN = "%Y-%m-%d %H:%M:%S"
GOOD_TIMES = {   # format -> times it reads; the plain format's include its fast-path shape
    PLAIN: ["2024-09-02 10:00:00", "2024-09-02 09:15:00", " 2024-09-03 08:30:00 ",
            "2024-9-2 8:08:00", "2024-09-02\t10:00:00"],
    "%Y-%m-%dT%H:%M:%S": ["2024-09-02T10:00:00", "2024-09-02T09:15:00"],
    "%d/%m/%Y %H:%M": ["02/09/2024 10:00", "2/9/2024 09:15"],
}
BAD_TIMES = ["2024-02-30 10:00:00", "2024-09-02 24:00:00", "2024-09-02 10:00:60",
             "2024-09-02 10:00:00Z", "yesterday", ""]

OBJECT_RULES = [
    {"kind": "object", "source_table": "users", "id_column": "uid", "object_type": "User",
     "subtype_column": "role", "attributes": {"name": "name"}},
    {"kind": "object", "source_table": "users", "id_column": "uid", "object_type": "Teacher",
     "attributes": {"name": "name"}},
    {"kind": "object", "source_table": "courses", "id_column": "cid", "object_type": "Course",
     "attributes": {"name": "name"}},
]
O2O_RULES = [
    {"kind": "o2o", "source_table": table, "source_id_column": src, "target_id_column": tgt,
     "qualifier": qualifier}
    for table, src, tgt, qualifier in [("rows", "a", "b", "enrolls"), ("rows", "a", "b", ""),
                                       ("rows", "b", "a", "q"), ("links", "a", "b", "enrolls"),
                                       ("links", "a", "a", ""), ("links", "a", "a", "q")]
]
E2O_RULES = [
    {"kind": "e2o", "source_table": table, "object_id_column": column, "qualifier": qualifier,
     **({"event_id_column": "eid"} if explicit else {})}
    for table, explicit, column, qualifier in [("rows", False, "a", "actor"), ("rows", False, "b", "actor"),
                                               ("rows", True, "a", "actor"), ("rows", False, "b", ""),
                                               ("links", True, "a", "q"), ("links", True, "b", "q")]
]


def _fresh(cell: str) -> str:
    """An equal string that is not the same object, as a CSV reader gives."""
    return (" " + cell)[1:]


def _table_of(name, header, rows, shared):
    """A table whose equal cells are one object if ``shared``, as
    ``load_source`` gives, and otherwise each cell its own ``_fresh`` copy."""
    first_copy = {}
    cell = (lambda c: first_copy.setdefault(c, _fresh(c))) if shared else _fresh
    return SourceTable.from_rows(name, header, [[cell(c) for c in r] for r in rows])


@st.composite
def extraction_cases(draw):
    """(mappings, sources, policy): every rule kind, repeated rules, and
    tables with repeated, empty, padded and dangling ids, in a random rule
    order. A clean case has no row that makes extract raise, but for a
    dangling id under ``fail``; dangling ids come in some cases only. Equal
    cells of a table are one object in some cases, equal copies in others."""
    clean, dangling, shared = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    endpoints = ENDPOINTS + ["ghost"] * dangling
    event_refs = EVENT_REFS + ["nope"] * dangling
    fmt = draw(st.sampled_from(list(GOOD_TIMES)))
    times = GOOD_TIMES[fmt] if clean else [t for ts in GOOD_TIMES.values() for t in ts] + BAD_TIMES
    actions = ["view page", "submit assignment", " view page"] + ([] if clean else ["", "login"])

    def rows_of(*pools, min_size=0):
        return draw(st.lists(st.tuples(*map(st.sampled_from, pools)), min_size=min_size, max_size=6))

    def repeating(rows):   # rows drawn again and again from a few
        return draw(st.lists(st.sampled_from(rows), max_size=6)) if rows else []

    users = [[uid, "Ann", role] for uid, role in zip(draw(st.permutations(["u1", "u2", "u3"])),
                                                     draw(st.permutations(["Student", "Teacher", ""])))]
    users += rows_of([" u2 ", "u1"] + ([] if clean else ["", "c1"]), ["Ann", ""], ["Student", ""])
    rows = rows_of(endpoints, endpoints, times, actions, min_size=1)
    event_ids = [f"e{i + 1}" for i in range(len(rows))]
    if not clean:
        event_ids = draw(st.permutations(event_ids + ["e1", ""]))
    sources = {
        "users": _table_of("users", ["uid", "name", "role"], users, shared),
        "courses": _table_of("courses", ["cid", "name"],
                             [["c1", "Modeling"], ["c2", ""]] + rows_of([" c1", "c2"], ["Other"]), shared),
        "rows": _table_of("rows", ["a", "b", "ts", "action", "eid"],
                          [[*row, eid] for row, eid in zip(rows, event_ids)], shared),
        "links": _table_of("links", ["eid", "a", "b"],
                           repeating(rows_of(event_refs, endpoints, endpoints)), shared),
    }
    event_rules = [
        {"kind": "event", "source_table": "rows", "activity_column": "action",
         "time_column": "ts", "time_format": fmt},
        {"kind": "event", "source_table": "rows", "activity": "view page", "id_column": "eid",
         "time_column": "ts", "time_format": fmt, "attributes": {"who": "a"}},
    ]
    mappings = [draw(st.sampled_from(OBJECT_RULES[:2])), OBJECT_RULES[2]]
    mappings += draw(st.lists(st.sampled_from(OBJECT_RULES), max_size=1))
    mappings += draw(st.lists(st.sampled_from(event_rules), min_size=1, max_size=2, unique_by=id))
    mappings += draw(st.lists(st.sampled_from(O2O_RULES), max_size=3))
    mappings += draw(st.lists(st.sampled_from(E2O_RULES), min_size=2, max_size=5))
    return draw(st.permutations(mappings)), sources, draw(st.sampled_from(["skip", "fail"]))


def _outcome(run, spec, sources, policy):
    """What one extraction gives, its OCEL JSON and its report without
    timings or its exception's class and message, and its log if any."""
    try:
        log, report = run(spec, sources, on_dangling=policy)
    except (DataError, SchemaError) as exc:
        return (type(exc), str(exc)), None
    out = io.StringIO()
    write_ocel_json(log, out)
    written = report.to_dict()
    del written["elapsed_seconds"], written["timings"]
    return (out.getvalue(), written), log


@given(case=extraction_cases())
@settings(max_examples=300, deadline=None)
def test_extract_matches_the_reference_runners(case):
    mappings, sources, policy = case
    spec = parse_spec(tiny_spec_doc(mappings))
    got, log = _outcome(extract, spec, sources, policy)
    assert got == _outcome(reference_extract, spec, sources, policy)[0]
    if log is not None:
        _assert_stored_and_shared(log)


def _assert_stored_and_shared(log):
    """Each event is stored as ``add_event`` would store it, each relation's
    key is its owner's own id string, and equal pairs, O2O or E2O, are one
    tuple, each sorted tuple of pairs holding its other end's own id."""
    for event in log.events.values():
        assert type(event) is EventInstance and type(event.attribute_values) is tuple
        assert all(type(pair) is tuple and len(pair) == 2 for pair in event.attribute_values)
        assert ocel._stored_event(event, log._event_types[event.type]) is event
    shared = {}   # each stored pair to the first tuple holding it
    for by_key, owners in ((log._e2o_by_event, log.events), (log._o2o_by_source, log.objects)):
        for key, rels in by_key.items():
            assert key is owners[key].id
            assert type(rels) is tuple and list(rels) == sorted(set(rels))
            for pair in rels:
                other, _ = pair
                assert type(pair) is tuple and other is log.objects[other].id
                assert shared.setdefault(pair, pair) is pair


# -- event rules stored a block of rows at a time --------------------------------

# Cells that send a block to the row loop, or that the block path must read as
# the row loop does. Some read (padded, other shapes, non-ASCII digits, which
# strptime reads); others raise there (out of range, broken by a newline).
BLOCK_TIME_DEFECTS = [" 2024-09-03 08:30:00 ", "2024-9-2 8:08:00", "2024-09-02\t10:00:00",
                      "２０２４-09-02 10:00:00", "2024-09-02 10:00:0٣", "2024-02-30 00:00:00",
                      "2024-09-02 24:00:00", "2024-09-02\n10:00:00",
                      "2024-09-02 10:00:00\n2024-09-02 10:00:00", "2024-09-02T10:00:00",
                      "2024-09-02 10:00:00.5", "", "yesterday"]
BLOCK_ACTION_DEFECTS = ["", " ", "login", " view page ", "view  page"]
BLOCK_ID_DEFECTS = ["", " ", "rows:0", "rows:5"]   # "rows:N" is a synthesized id
SYNTHESIZING_EVENT_RULES = [   # a spec has at most one per table
    {"kind": "event", "source_table": "rows", "activity_column": "action", "time_column": "ts"},
    {"kind": "event", "source_table": "rows", "activity": "view page", "time_column": "ts", "time_format": PLAIN},
]
ID_COLUMN_EVENT_RULES = [
    {"kind": "event", "source_table": "rows", "activity_column": "action", "id_column": "eid",
     "time_column": "ts"},
    {"kind": "event", "source_table": "rows", "activity": "submit assignment", "id_column": "eid",
     "time_column": "ts"},
    {"kind": "event", "source_table": "rows", "activity_column": "action", "id_column": "eid",
     "time_column": "ts", "attributes": {"who": "a"}},
]


@st.composite
def event_block_cases(draw):
    """(mappings, sources, block rows): one or two event rules over a table of
    up to 20 rows, read ``block rows`` at a time, in the plain format or
    another. The rows are clean but for a few defects at drawn places, so a
    defect often sits in a later block. Event ids come from a column or are
    synthesized, and the activity from a column or the rule."""
    fmt = draw(st.sampled_from([PLAIN, PLAIN, "%Y-%m-%dT%H:%M:%S"]))
    times, actions = GOOD_TIMES[fmt][:2], ["view page", "submit assignment"]
    n = draw(st.integers(0, 20))
    rows = [[draw(st.sampled_from(times)), draw(st.sampled_from(actions)), f"e{i + 1}",
             draw(st.sampled_from(["Ann", " Ann ", "", "  "]))] for i in range(n)]
    for column, pool in ((0, BLOCK_TIME_DEFECTS), (1, BLOCK_ACTION_DEFECTS), (2, BLOCK_ID_DEFECTS)):
        for _ in range(draw(st.integers(0, 2)) if n else 0):
            row = draw(st.integers(0, n - 1))
            earlier = rows[max(row - draw(st.integers(1, 3)), 0)][2]   # repeated, maybe padded
            rows[row][column] = draw(st.sampled_from(pool + [earlier, f" {earlier}"] * (column == 2)))
    rules = draw(st.lists(st.sampled_from(SYNTHESIZING_EVENT_RULES), max_size=1))
    rules += draw(st.lists(st.sampled_from(ID_COLUMN_EVENT_RULES), min_size=1 - len(rules), max_size=1))
    rules = draw(st.permutations(rules))
    mappings = [{**rule, "time_format": fmt} for rule in rules]
    for mapping in mappings:   # a fixed activity equal to its matrix row, not that string itself
        if "activity" in mapping:
            mapping["activity"] = _fresh(mapping["activity"])
    sources = {"rows": _table_of("rows", ["ts", "action", "eid", "a"], rows, draw(st.booleans()))}
    return mappings, sources, draw(st.sampled_from([1, 2, 3, 7]))


@given(case=event_block_cases())
@settings(max_examples=300, deadline=None)
def test_event_blocks_match_the_reference_runners(case):
    mappings, sources, block_rows = case
    spec = parse_spec(tiny_spec_doc(mappings))
    with mock.patch.object(extraction, "EVENT_BLOCK_ROWS", block_rows):
        got, log = _outcome(extract, spec, sources, "skip")
    assert got == _outcome(reference_extract, spec, sources, "skip")[0]
    if log is not None:
        for event in log.events.values():
            assert ocel._stored_event(event, log._event_types[event.type]) is event
            # the matrix's own string, for a padded or copied cell and a fixed activity alike
            assert any(event.type is activity for activity in spec.xmatrix.activities)


def _plain_rows(n, sep=" "):
    """``n`` rows in the plain format, or with ``sep`` between date and time,
    every fifth time cell padded."""
    return [[f"{' ' * (i % 5 == 0)}2024-09-{2 + i // 1440:02d}{sep}{i // 60 % 24:02d}:{i % 60:02d}:00",
             ("view page", "submit assignment")[i % 2], f"e{i}"] for i in range(n)]


@pytest.fixture
def cell_reads(monkeypatch):
    """The time cells parsed one at a time by ``parse_block``, in order, and
    the first row of each block handed to the defect locator, recorded by
    spies on ``parse_with_format`` and ``_Pipeline._defect``."""
    reads, defects = [], []
    parse, defect = timeutil.parse_with_format, extraction._Pipeline._defect
    monkeypatch.setattr(timeutil, "parse_with_format", lambda text, fmt: reads.append(text) or parse(text, fmt))
    monkeypatch.setattr(extraction._Pipeline, "_defect",
                        lambda self, index, start, *block: defects.append(start) or defect(self, index, start, *block))
    return reads, defects


@pytest.mark.parametrize("rule", [
    {"activity_column": "action"},
    {"activity_column": "action", "id_column": "eid"},
    {"activity": "view page", "id_column": "eid"},
    {"activity_column": "action", "id_column": "eid", "attributes": {"what": "action", "id": "eid"}},
    {"activity_column": "action", "time_format": "%Y-%m-%dT%H:%M:%S"},
])
def test_a_clean_plain_table_never_enters_the_row_loop(rule, cell_reads):
    """No block of a clean table reaches the defect locator. In the plain
    format no cell is parsed one at a time either; in another, each once."""
    n = 3 * extraction.EVENT_BLOCK_ROWS + 5
    rule = {"kind": "event", "source_table": "rows", "time_column": "ts", "time_format": PLAIN, **rule}
    rows = _plain_rows(n, " " if rule["time_format"] == PLAIN else "T")
    sources = {"rows": table("rows", ["ts", "action", "eid"], rows)}
    spec = parse_spec(tiny_spec_doc([rule]))
    got, log = _outcome(extract, spec, sources, "skip")
    reads, defects = cell_reads
    assert defects == [] and len(log.events) == n
    assert reads == ([] if rule["time_format"] == PLAIN else [r[0].strip() for r in rows])
    assert got == _outcome(reference_extract, spec, sources, "skip")[0]


@pytest.mark.parametrize("cell, row, error", [
    pytest.param("2024-9-2 8:08:00", 3, None, id="valid"),
    pytest.param("2024-02-30 00:00:00", 2 * extraction.EVENT_BLOCK_ROWS + 3,
                 "mappings[0] row {row}: unparseable timestamp '2024-02-30 00:00:00' for format "
                 "'%Y-%m-%d %H:%M:%S': ", id="unparseable"),
])
def test_an_off_shape_cell_costs_only_its_block(cell, row, error, cell_reads):
    """A valid cell off the plain shape sends its own block, and no other,
    cell by cell through ``parse_with_format``; an unparseable one makes its
    block raise the error of its row, found by the defect locator."""
    block = extraction.EVENT_BLOCK_ROWS
    rows = _plain_rows(3 * block + 5)
    rows[row][0] = cell
    sources = {"rows": table("rows", ["ts", "action", "eid"], rows)}
    mappings = [{"kind": "event", "source_table": "rows", "activity_column": "action", "id_column": "eid",
                 "time_column": "ts", "time_format": PLAIN}]
    spec = parse_spec(tiny_spec_doc(mappings))
    got = _outcome(extract, spec, sources, "skip")[0]
    assert got == _outcome(reference_extract, spec, sources, "skip")[0]
    first = row - row % block   # the cell's block
    reads, defects = cell_reads
    if error is None:
        assert reads == [r[0].strip() for r in rows[first:first + block]] and defects == []
    else:
        assert got[0] is DataError and got[1].startswith(error.format(row=row))
        assert reads == [r[0].strip() for r in rows[first:row + 1]] and defects == [first]


# -- wide events: an event related to many objects ---------------------------------

WIDE_LINKS_RULES = [
    {"kind": "e2o", "source_table": "links", "event_id_column": "eid", "object_id_column": "uid",
     "qualifier": "reader"},
    {"kind": "e2o", "source_table": "more", "event_id_column": "eid", "object_id_column": "uid",
     "qualifier": "reader"},   # the same pairs again: duplicates across rules
    {"kind": "e2o", "source_table": "more", "event_id_column": "eid", "object_id_column": "uid",
     "qualifier": "other"},
]


def _one_event_spec(e2o_rules):
    """The spec of one object rule over ``users``, one event rule over
    ``ev`` (activity ``view page``, ids in ``eid``) and ``e2o_rules``."""
    return parse_spec(tiny_spec_doc([
        OBJECT_RULES[0],
        {"kind": "event", "source_table": "ev", "activity": "view page", "id_column": "eid",
         "time_column": "ts", "time_format": PLAIN},
        *e2o_rules]))


@st.composite
def wide_event_cases(draw):
    """(spec, sources, policy): event ``a1`` related to ``width`` objects,
    drawn around the width where extract's pairs of an event turn from a
    tuple into a set, and ``a2`` to a few. Duplicate rows, some padded, come
    first, just before and after the switch and last, and from a second rule;
    dangling and empty rows are mixed in."""
    wide = extraction.WIDE_EVENT
    width = draw(st.sampled_from([1, wide - 1, wide, wide + 1, 200]))
    pad = lambda cell: draw(st.sampled_from([cell, f" {cell} "]))
    links = [["a1", f"u{k}"] for k in range(width)]
    places = [p for p in (1, wide - 1, wide, wide + 1, width) if p <= width]
    for place in sorted(draw(st.lists(st.sampled_from(places), unique=True)), reverse=True):
        eid, uid = links[draw(st.integers(0, place - 1))]   # a pair collected before ``place``
        links.insert(place, [pad(eid), pad(uid)])
    links += draw(st.lists(st.sampled_from([["a2", "u0"], ["a2", "u1"], [" a2", "u1 "]]), max_size=4))
    stray = [["a1", "ghost"], ["nope", "u0"], ["", "u0"], ["a1", ""], ["a1", " "]]
    for row in draw(st.lists(st.sampled_from(stray), max_size=3)):
        links.insert(draw(st.integers(0, len(links))), row)
    more = draw(st.lists(st.sampled_from(links), max_size=8))
    users = [[f"u{k}", "Ann", "Student"] for k in range(max(width, 2))]
    sources = {
        "users": table("users", ["uid", "name", "role"], users),
        "ev": table("ev", ["eid", "ts"], [["a1", "2024-09-02 10:00:00"], ["a2", "2024-09-02 11:00:00"]]),
        "links": table("links", ["eid", "uid"], links),
        "more": table("more", ["eid", "uid"], more),
    }
    rules = [WIDE_LINKS_RULES[0], *draw(st.lists(st.sampled_from(WIDE_LINKS_RULES[1:]), unique_by=id))]
    return _one_event_spec(rules), sources, draw(st.sampled_from(["skip", "fail"]))


@given(case=wide_event_cases())
@settings(max_examples=150, deadline=None)
def test_wide_events_match_the_reference_runners(case):
    spec, sources, policy = case
    got, log = _outcome(extract, spec, sources, policy)
    assert got == _outcome(reference_extract, spec, sources, policy)[0]
    if log is not None:
        assert all(type(rels) is tuple for rels in log._e2o_by_event.values())


def test_an_event_costs_in_proportion_to_its_relations():
    """The E2O rule's seconds grow about linearly with one event's rows: a
    rescan or copy of the event's pairs per row would make 8x the rows cost
    about 64x the seconds."""
    spec = _one_event_spec(WIDE_LINKS_RULES[:1])

    def e2o_seconds(n):
        sources = {
            "users": table("users", ["uid", "name", "role"], [[f"u{k}", "", ""] for k in range(n)]),
            "ev": table("ev", ["eid", "ts"], [["a1", "2024-09-02 10:00:00"]]),
            "links": table("links", ["eid", "uid"], [["a1", f"u{k}"] for k in range(n)]),
        }
        runs = []
        for _ in range(3):
            log, report = extract(spec, sources)
            assert len(log._e2o_by_event["a1"]) == n
            runs.append(report.rule_runs[-1].seconds)
        return min(runs)

    assert e2o_seconds(32_000) < 24 * e2o_seconds(4_000)


# -- E2O runs: rules over one table with synthesized ids, stored by column --------

RUN_RULES = [   # over "rows", whose event ids are synthesized: "rows:N" is row N's event
    {"kind": "e2o", "source_table": "rows", "object_id_column": column, "qualifier": qualifier}
    for column in ("a", "b", "c") for qualifier in ("actor", "course", "")
]
NAMING_RULES = [   # over "links", naming "rows:N" events by their ids
    {"kind": "e2o", "source_table": "links", "event_id_column": "eid", "object_id_column": "a",
     "qualifier": qualifier} for qualifier in ("actor", "")
]
RUN_CELLS = ["u1", "u2", "c1", " u1 ", "u2 ", "", "  "]


@st.composite
def column_run_cases(draw):
    """(mappings, sources, policy): a run of 1-4 E2O rules over ``rows``,
    their qualifiers shared or distinct, with rules over ``links`` naming
    ``rows:N`` events before and after it, and maybe a later rule over
    ``rows`` that is not next to the run. Cells are empty, blank, padded or
    dangling; one row may name an object in two columns. ``rows`` may have
    its own event rule, and ``links`` one whose explicit ids are ``rows:N``
    when ``rows`` has none."""
    cells = RUN_CELLS + ["ghost"] * draw(st.booleans())
    rows = draw(st.lists(st.lists(st.sampled_from(cells), min_size=3, max_size=3), max_size=6))
    if rows and draw(st.booleans()):   # one object named in two columns of one row
        row = draw(st.sampled_from(rows))
        row[1] = draw(st.sampled_from([row[0], f" {row[0]}"]))
    own, named = draw(st.booleans()), draw(st.booleans())
    eids = draw(st.permutations([f"rows:{i}" for i in range(len(rows))] + ["e9"]))
    eids = eids if draw(st.booleans()) else eids[:draw(st.integers(0, len(eids)))]   # all or some
    links = [[draw(st.sampled_from([eid, f" {eid}"])), draw(st.sampled_from(cells))] for eid in eids]
    if links and (own or not named):   # repeated pairs, where no event rule reads these ids
        links += draw(st.lists(st.sampled_from(links), max_size=2))
    sources = {
        "users": table("users", ["uid", "name", "role"], [["u1", "Ann", "Student"], ["u2", "Bo", ""]]),
        "courses": table("courses", ["cid", "name"], [["c1", "Modeling"]]),
        "rows": _table_of("rows", ["a", "b", "c", "ts"], [[*row, "2024-09-02 10:00:00"] for row in rows],
                          draw(st.booleans())),
        "links": table("links", ["eid", "a", "ts"], [[*row, "2024-09-02 11:00:00"] for row in links]),
    }
    event_rules = [{"kind": "event", "source_table": "rows", "activity": "view page", "time_column": "ts",
                    "time_format": PLAIN}] * own
    if named and not own:   # explicit ids "rows:N": events the run's synthesized ids name
        event_rules.append({"kind": "event", "source_table": "links", "activity": "view page",
                            "id_column": "eid", "time_column": "ts", "time_format": PLAIN})
    others = lambda: draw(st.lists(st.sampled_from(NAMING_RULES), max_size=2))
    run = draw(st.lists(st.sampled_from(RUN_RULES), min_size=1, max_size=4))
    middle = draw(st.lists(st.sampled_from(NAMING_RULES), max_size=1))
    later = draw(st.lists(st.sampled_from(RUN_RULES), max_size=1))
    mappings = [OBJECT_RULES[0], OBJECT_RULES[2], *event_rules, *others(), *run, *middle, *later, *others()]
    return mappings, sources, draw(st.sampled_from(["skip", "fail"]))


@given(case=column_run_cases())
@settings(max_examples=300, deadline=None)
def test_column_runs_match_the_reference_runners(case):
    mappings, sources, policy = case
    spec = parse_spec(tiny_spec_doc(mappings))
    got, log = _outcome(extract, spec, sources, policy)
    assert got == _outcome(reference_extract, spec, sources, policy)[0]
    if log is not None:
        _assert_stored_and_shared(log)


@pytest.fixture
def row_loop_rules(monkeypatch):
    """The index of each rule that ``extract`` sends through the E2O row
    loop, in order, recorded by a spy on ``_Pipeline._run_e2o_rule``."""
    indexes, row_loop = [], extraction._Pipeline._run_e2o_rule
    monkeypatch.setattr(extraction._Pipeline, "_run_e2o_rule",
                        lambda self, index, *args: indexes.append(index) or row_loop(self, index, *args))
    return indexes


LMS_RULES = [   # the user, page, file, folder and course columns of an LMS log
    {"kind": "e2o", "source_table": "rows", "object_id_column": column, "qualifier": qualifier}
    for column, qualifier in (("user", "viewer"), ("page", "viewed"), ("file", "viewed"),
                              ("folder", "viewed"), ("course", "course"))
]


def _lms_case(defect=None):
    """(spec, sources) of an LMS log over more than 3 x ``CHUNK_ROWS`` rows,
    each row viewing one of a page, file or folder, some ids padded, and two
    rules over ``more``; ``defect`` puts one fault in the ``rows`` run."""
    n = 3 * CHUNK_ROWS + 5
    objects = [[f"u{k}", "", ""] for k in range(8)]
    rows = [[f"u{i % 5}", "", "", "", " c1" if i % 7 else "c1", "2024-09-02 10:00:00"] for i in range(n)]
    for i, row in enumerate(rows):
        row[1 + i % 3] = f"u{5 + i % 3}" if i % 4 else f" u{5 + i % 3} "
    links = []
    if defect == "dangling":
        rows[2 * CHUNK_ROWS][3] = "ghost"
    elif defect == "duplicate":   # one object viewed as page and file in one row
        rows[CHUNK_ROWS][1:3] = ["u5", "u5 "]
    elif defect == "collected":   # row 3's viewer, related before the run
        links = [["rows:3", "u3"]]
    sources = {
        "users": table("users", ["uid", "name", "role"], objects),
        "courses": table("courses", ["cid", "name"], [["c1", "Modeling"]]),
        "rows": table("rows", ["user", "page", "file", "folder", "course", "ts"], rows),
        "links": table("links", ["eid", "uid"], links),
        "more": table("more", ["uid", "ts"], [["u1", "2024-09-02 11:00:00"], ["", "2024-09-02 12:00:00"]]),
    }
    spec = parse_spec(tiny_spec_doc([
        OBJECT_RULES[0], OBJECT_RULES[2],
        {"kind": "event", "source_table": "rows", "activity": "view page", "time_column": "ts", "time_format": PLAIN},
        {"kind": "event", "source_table": "more", "activity": "view page", "time_column": "ts", "time_format": PLAIN},
        {"kind": "e2o", "source_table": "links", "event_id_column": "eid", "object_id_column": "uid",
         "qualifier": "viewer"},
        *LMS_RULES,
        {"kind": "e2o", "source_table": "more", "object_id_column": "uid", "qualifier": "viewer"},
        {"kind": "e2o", "source_table": "more", "object_id_column": "uid", "qualifier": ""},
    ]))
    return spec, sources


def test_a_clean_run_never_enters_the_row_loop(row_loop_rules, caplog):
    """A clean run of five rules is stored by column, and still gives each
    rule its own report entry, ``info`` line and timing, in rule order."""
    spec, sources = _lms_case()
    got, log = _outcome(extract, spec, sources, "skip")
    assert row_loop_rules == [4]   # only the rule with an event-id column
    assert got == _outcome(reference_extract, spec, sources, "skip")[0]
    _assert_stored_and_shared(log)
    caplog.set_level(logging.INFO, logger="ocedf.extraction")
    report = extract(spec, sources)[1].to_dict()
    assert [r["rule"] for r in report["rules"]] == [t["rule"] for t in report["timings"]["rules"]] == [*range(12)]
    assert all(t["seconds"] > 0 for t in report["timings"]["rules"][5:])
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("rule ")]
    assert [line.split(" (")[0] for line in lines] == [f"rule {i}" for i in range(12)]


@pytest.mark.parametrize("policy", ["skip", "fail"])
@pytest.mark.parametrize("defect", ["dangling", "duplicate", "collected"])
def test_a_faulty_run_goes_to_the_row_loop_alone(defect, policy, row_loop_rules):
    """One dangling cell, duplicate pair or pair collected before sends
    every rule of its run, and no other run, through the row loop, which
    gives the reference's report or error."""
    spec, sources = _lms_case(defect)
    got = _outcome(extract, spec, sources, policy)[0]
    assert got == _outcome(reference_extract, spec, sources, policy)[0]
    if defect == "dangling" and policy == "fail":
        assert got == (DataError, "mappings[8] row 112: e2o references unknown object 'ghost'")
        assert row_loop_rules == [4, 5, 6, 7, 8]
    else:
        assert row_loop_rules == [4, 5, 6, 7, 8, 9]
