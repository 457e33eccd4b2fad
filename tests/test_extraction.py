import pytest

from ocedf import (
    DataError,
    SourceTable,
    extract,
    load_source,
    parse_spec,
    synthesize_event_id,
)
from conftest import FIXTURES, load_fixture


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
    return SourceTable(name, header, [dict(zip(header, r)) for r in rows])


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


class TestLoadSource:
    def test_empty_table(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n", encoding="utf-8")
        t = load_source(p, "t")
        assert t.header == ["a", "b"] and t.rows == []

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
        assert len(load_source(path, "views").rows) == expected
        assert expected > 5000

    def test_quoted_fields(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text('a,b\n"x,1",y\n', encoding="utf-8")
        assert load_source(p, "t").rows == [{"a": "x,1", "b": "y"}]


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

    def test_report_conservation(self, case_study):
        _, _, report = case_study
        for run in report.rule_runs:
            assert run.rows_in == run.rows_loaded + run.rows_skipped
        by_rule = {}
        for s in report.skipped:
            by_rule[s.rule_index] = by_rule.get(s.rule_index, 0) + 1
        for run in report.rule_runs:
            assert by_rule.get(run.rule_index, 0) == run.rows_skipped

    def test_counts_match_log_sizes(self):
        log, report = run_tiny()
        assert report.counts == {"object": len(log.objects), "event": len(log.events),
                                 "e2o": len(log.e2o), "o2o": len(log.o2o)}


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
        reasons = [s.reason for s in report.skipped]
        assert any("ghost" in r for r in reasons)

    def test_fail_fast_raises(self):
        with pytest.raises(DataError, match="ghost"):
            run_tiny(sources=self.bad_sources(), on_dangling="fail")

    def test_unknown_policy(self):
        with pytest.raises(DataError, match="policy"):
            run_tiny(on_dangling="strict")

    def test_empty_link_cells_are_skipped_not_dangling(self):
        sources = dict(BASE_SOURCES)
        sources["events"] = table("events", ["ts", "action", "uid", "cid"],
                                  [["2024-09-02 10:00:00", "view page", "u1", ""]])
        log, report = run_tiny(sources=sources, on_dangling="fail")
        assert len(log.events) == 1
        assert any(s.reason == "empty object id" for s in report.skipped)


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
        assert any("first writer wins" in s.reason for s in report.skipped)

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
        assert any(s.reason == "duplicate o2o relation" for s in report.skipped)


class TestRowErrors:
    def test_unparseable_timestamp(self):
        sources = dict(BASE_SOURCES)
        sources["events"] = table("events", ["ts", "action", "uid", "cid"],
                                  [["yesterday", "view page", "u1", "c1"]])
        with pytest.raises(DataError, match="unparseable timestamp"):
            run_tiny(sources=sources)

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
    assert any("first writer wins" in s.reason for s in report.skipped)


def test_fixture_loads_from_disk_match_api(case_study):
    spec, sources = load_fixture("case_study")
    log2, _ = extract(spec, sources)
    assert case_study[1].structurally_equal(log2)
