import io
import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocedf import (
    AttributeDef,
    AttributeValue,
    EventInstance,
    EventTypeDef,
    ObjectInstance,
    ObjectTypeDef,
    OcelDocumentError,
    SchemaError,
    new_log,
    ocel_from_dict,
    ocel_to_dict,
    read_ocel_json,
    write_ocel_json,
)
from randlog import random_log

T0 = datetime(2024, 9, 2, 10, 0, 0, tzinfo=timezone.utc)

CASE_OBJECT_TYPES = ["User", "Exam", "File", "Page", "Folder", "Assignment", "Group", "Course"]
CASE_EVENT_TYPES = ["view file", "view page", "view folder", "submit assignment",
                    "resubmit assignment", "set assignment grade", "set exam grade"]


def simple_log():
    log = new_log(
        [ObjectTypeDef("User", (AttributeDef("role", "string"),)),
         ObjectTypeDef("Course", ())],
        [EventTypeDef("view page", ()), EventTypeDef("submit assignment", ())],
    )
    log.add_object(ObjectInstance("stu-1", "User", (AttributeValue("role", T0, "Student"),)))
    log.add_object(ObjectInstance("crs-1", "Course", ()))
    return log


class TestSchema:
    def test_empty_log(self):
        log = new_log([], [])
        assert log.object_type_defs == ()
        assert log.event_type_defs == ()
        assert not log.objects and not log.events

    def test_case_study_schema(self):
        log = new_log([ObjectTypeDef(n) for n in CASE_OBJECT_TYPES],
                      [EventTypeDef(n) for n in CASE_EVENT_TYPES])
        assert [td.name for td in log.object_type_defs] == CASE_OBJECT_TYPES
        assert [td.name for td in log.event_type_defs] == CASE_EVENT_TYPES

    def test_duplicate_type_name(self):
        with pytest.raises(SchemaError, match="duplicate"):
            new_log([ObjectTypeDef("A"), ObjectTypeDef("A")], [])

    def test_duplicate_attribute_name(self):
        bad = ObjectTypeDef("A", (AttributeDef("x", "string"), AttributeDef("x", "integer")))
        with pytest.raises(SchemaError, match="duplicate attribute"):
            new_log([bad], [])

    def test_unknown_value_kind(self):
        with pytest.raises(SchemaError, match="kind"):
            new_log([ObjectTypeDef("A", (AttributeDef("x", "text"),))], [])


class TestObjects:
    def test_add_with_discriminator_attribute(self):
        log = simple_log()
        assert log.objects["stu-1"].latest_value("role") == "Student"

    def test_duplicate_id(self):
        log = simple_log()
        with pytest.raises(SchemaError, match="duplicate object id"):
            log.add_object(ObjectInstance("stu-1", "User", ()))

    def test_undeclared_type(self):
        log = simple_log()
        with pytest.raises(SchemaError, match="undeclared"):
            log.add_object(ObjectInstance("g1", "Ghost", ()))

    def test_kind_mismatch(self):
        log = simple_log()
        with pytest.raises(SchemaError, match="kind"):
            log.add_object(ObjectInstance("u2", "User", (AttributeValue("role", T0, 5),)))

    def test_undeclared_attribute(self):
        log = simple_log()
        with pytest.raises(SchemaError, match="not declared"):
            log.add_object(ObjectInstance("u2", "User", (AttributeValue("age", T0, "x"),)))

    def test_time_varying_values_need_distinct_times(self):
        log = simple_log()
        values = (AttributeValue("role", T0, "Student"), AttributeValue("role", T0, "Teacher"))
        with pytest.raises(SchemaError, match="two values"):
            log.add_object(ObjectInstance("u2", "User", values))

    def test_latest_value_uses_newest_timestamp(self):
        log = simple_log()
        values = (AttributeValue("role", T0, "Student"),
                  AttributeValue("role", T0 + timedelta(days=1), "Teacher"))
        log.add_object(ObjectInstance("u2", "User", values))
        assert log.objects["u2"].latest_value("role") == "Teacher"


class TestEvents:
    def test_add_and_retrieve(self):
        log = simple_log()
        log.add_event(EventInstance("e1", "view page", T0))
        assert log.events["e1"].type == "view page"

    def test_duplicate_id(self):
        log = simple_log()
        log.add_event(EventInstance("e1", "view page", T0))
        with pytest.raises(SchemaError, match="duplicate event id"):
            log.add_event(EventInstance("e1", "view page", T0))

    def test_undeclared_type(self):
        log = simple_log()
        with pytest.raises(SchemaError, match="undeclared"):
            log.add_event(EventInstance("e1", "login", T0))

    def test_time_order_with_id_tiebreak(self):
        log = simple_log()
        log.add_event(EventInstance("b", "view page", T0))
        log.add_event(EventInstance("a", "view page", T0))
        log.add_event(EventInstance("c", "view page", T0 - timedelta(seconds=1)))
        assert [e.id for e in log.events_in_order()] == ["c", "a", "b"]

    def test_times_normalize_to_utc_milliseconds(self):
        log = simple_log()
        offset = timezone(timedelta(hours=2))
        log.add_event(EventInstance("e1", "view page",
                                    datetime(2024, 9, 2, 12, 0, 0, 123999, tzinfo=offset)))
        stored = log.events["e1"].time
        assert stored.tzinfo == timezone.utc
        assert stored == datetime(2024, 9, 2, 10, 0, 0, 123000, tzinfo=timezone.utc)


def test_stored_values_are_conformed_to_their_kind():
    offset = timezone(timedelta(hours=2))
    log = new_log([ObjectTypeDef("Item", (AttributeDef("price", "float"),
                                          AttributeDef("due", "timestamp")))],
                  [EventTypeDef("sell", (AttributeDef("amount", "float"),
                                         AttributeDef("at", "timestamp")))])
    local = datetime(2024, 9, 2, 12, 0, 0, 123999, tzinfo=offset)
    log.add_object(ObjectInstance("i1", "Item", (AttributeValue("price", T0, 3),
                                                 AttributeValue("due", T0, local))))
    log.add_event(EventInstance("e1", "sell", T0, (("amount", 2), ("at", local))))
    utc = datetime(2024, 9, 2, 10, 0, 0, 123000, tzinfo=timezone.utc)
    price, due = log.objects["i1"].attribute_values
    assert type(price.value) is float and due.value == utc and due.value.tzinfo == timezone.utc
    amount, at = (value for _, value in log.events["e1"].attribute_values)
    assert type(amount) is float and at == utc and at.tzinfo == timezone.utc


class TestRelations:
    def test_e2o_reflected_in_queries(self):
        log = simple_log()
        log.add_event(EventInstance("e1", "view page", T0))
        log.relate_event_object("e1", "stu-1", "viewer")
        assert [o.id for o in log.objects_of_event("e1")] == ["stu-1"]
        assert [e.id for e in log.events_of_object("stu-1")] == ["e1"]

    def test_e2o_dangling(self):
        log = simple_log()
        log.add_event(EventInstance("e1", "view page", T0))
        with pytest.raises(SchemaError, match="unknown object"):
            log.relate_event_object("e1", "missing")
        with pytest.raises(SchemaError, match="unknown event"):
            log.relate_event_object("missing", "stu-1")

    def test_e2o_duplicate_triple(self):
        log = simple_log()
        log.add_event(EventInstance("e1", "view page", T0))
        log.relate_event_object("e1", "stu-1", "viewer")
        with pytest.raises(SchemaError, match="duplicate e2o"):
            log.relate_event_object("e1", "stu-1", "viewer")
        # a different qualifier is a different relation
        log.relate_event_object("e1", "stu-1", "actor")

    def test_submit_event_relates_four_objects(self):
        log = new_log(
            [ObjectTypeDef(n, (AttributeDef("role", "string"),) if n == "User" else ())
             for n in CASE_OBJECT_TYPES],
            [EventTypeDef(n) for n in CASE_EVENT_TYPES])
        log.add_object(ObjectInstance("stu-1", "User", (AttributeValue("role", T0, "Student"),)))
        for oid, otype in [("asg-1", "Assignment"), ("grp-1", "Group"), ("crs-1", "Course")]:
            log.add_object(ObjectInstance(oid, otype, ()))
        log.add_event(EventInstance("s1", "submit assignment", T0))
        for oid in ["stu-1", "asg-1", "grp-1", "crs-1"]:
            log.relate_event_object("s1", oid)
        assert len(log.objects_of_event("s1")) == 4

    def test_o2o_member_and_contains(self):
        log = simple_log()
        log.relate_objects("crs-1", "stu-1", "contains")
        log.relate_objects("stu-1", "crs-1", "member of")
        assert log.has_o2o("crs-1", "stu-1", "contains")
        with pytest.raises(SchemaError, match="duplicate o2o"):
            log.relate_objects("crs-1", "stu-1", "contains")

    def test_o2o_dangling(self):
        log = simple_log()
        with pytest.raises(SchemaError, match="unknown object"):
            log.relate_objects("stu-1", "missing", "member")

    def test_o2o_self_needs_qualifier(self):
        log = simple_log()
        with pytest.raises(SchemaError, match="qualifier"):
            log.relate_objects("stu-1", "stu-1")
        log.relate_objects("stu-1", "stu-1", "self")


class TestEventsOfObject:
    def test_no_relations(self):
        log = simple_log()
        assert log.events_of_object("stu-1") == []

    def test_sorted_by_time(self):
        log = simple_log()
        log.add_event(EventInstance("e2", "view page", T0 + timedelta(seconds=5)))
        log.add_event(EventInstance("e1", "view page", T0 + timedelta(seconds=3)))
        log.relate_event_object("e2", "stu-1")
        log.relate_event_object("e1", "stu-1")
        assert [e.id for e in log.events_of_object("stu-1")] == ["e1", "e2"]

    def test_unknown_object(self):
        log = simple_log()
        with pytest.raises(SchemaError, match="unknown object"):
            log.events_of_object("nope")

    def test_matches_brute_force_scan(self):
        log = random_log(random.Random(7), max_events=80, max_objects=40)
        for oid in log.objects:
            expected_ids = {rel.event_id for rel in log.e2o if rel.object_id == oid}
            got = log.events_of_object(oid)
            assert {e.id for e in got} == expected_ids
            assert got == sorted(got, key=lambda e: (e.time, e.id))


class TestStructuralEquality:
    def test_insertion_order_ignored(self):
        def build(flip):
            log = simple_log()
            events = [EventInstance("e1", "view page", T0),
                      EventInstance("e2", "view page", T0 + timedelta(seconds=1))]
            for e in reversed(events) if flip else events:
                log.add_event(e)
            rels = [("e1", "stu-1", ""), ("e2", "crs-1", "course")]
            for rel in reversed(rels) if flip else rels:
                log.relate_event_object(*rel)
            return log

        assert build(False).structurally_equal(build(True))

    def test_differences_detected(self):
        a, b = simple_log(), simple_log()
        b.add_event(EventInstance("e1", "view page", T0))
        assert not a.structurally_equal(b)

    def test_timestamp_offsets_normalize(self):
        a, b = simple_log(), simple_log()
        a.add_event(EventInstance("e1", "view page",
                                  datetime(2024, 9, 2, 12, 0, tzinfo=timezone(timedelta(hours=2)))))
        b.add_event(EventInstance("e1", "view page",
                                  datetime(2024, 9, 2, 10, 0, tzinfo=timezone.utc)))
        assert a.structurally_equal(b)


class TestJsonRoundTrip:
    def test_empty_log(self):
        log = new_log([], [])
        doc = ocel_to_dict(log)
        assert doc == {"objectTypes": [], "eventTypes": [], "objects": [], "events": []}
        assert ocel_from_dict(doc).structurally_equal(log)

    def test_all_value_kinds(self):
        kinds = [("s", "string"), ("i", "integer"), ("f", "float"),
                 ("b", "boolean"), ("t", "timestamp")]
        log = new_log([ObjectTypeDef("Thing", tuple(AttributeDef(n, k) for n, k in kinds))],
                      [EventTypeDef("act", tuple(AttributeDef(n, k) for n, k in kinds))])
        values = {"s": "text", "i": -3, "f": 2.5, "b": True, "t": T0}
        log.add_object(ObjectInstance(
            "o1", "Thing", tuple(AttributeValue(n, T0, values[n]) for n, _ in kinds)))
        log.add_event(EventInstance("e1", "act", T0, tuple((n, values[n]) for n, _ in kinds)))
        log.relate_event_object("e1", "o1", "q")

        buf = io.StringIO()
        write_ocel_json(log, buf)
        parsed = read_ocel_json(io.StringIO(buf.getvalue()))
        assert parsed.structurally_equal(log)
        assert parsed.events["e1"].time == T0

    def test_writes_are_canonical(self, tmp_path):
        log = random_log(random.Random(3), max_events=60, max_objects=30)
        a, b = io.StringIO(), io.StringIO()
        write_ocel_json(log, a)
        write_ocel_json(log, b)
        assert a.getvalue() == b.getvalue()
        path = tmp_path / "log.json"
        write_ocel_json(log, path)
        assert read_ocel_json(path).structurally_equal(log)

    def test_event_with_unknown_object_reference(self):
        log = simple_log()
        log.add_event(EventInstance("e1", "view page", T0))
        doc = ocel_to_dict(log)
        doc["events"][0]["relationships"] = [{"objectId": "ghost", "qualifier": ""}]
        with pytest.raises(OcelDocumentError, match="e1") as err:
            ocel_from_dict(doc)
        assert "events[0]" in str(err.value)

    def test_malformed_json(self):
        with pytest.raises(OcelDocumentError, match="malformed"):
            read_ocel_json(io.StringIO("{not json"))

    def test_missing_top_level_key(self):
        with pytest.raises(OcelDocumentError, match="events"):
            ocel_from_dict({"objectTypes": [], "eventTypes": [], "objects": []})

    def test_undeclared_object_type_in_document(self):
        doc = {"objectTypes": [], "eventTypes": [],
               "objects": [{"id": "o1", "type": "Ghost", "attributes": [], "relationships": []}],
               "events": []}
        with pytest.raises(OcelDocumentError, match="objects\\[0\\]"):
            ocel_from_dict(doc)

    def test_zulu_timestamps_accepted(self):
        doc = {"objectTypes": [], "eventTypes": [{"name": "act", "attributes": []}],
               "objects": [],
               "events": [{"id": "e1", "type": "act", "time": "2024-09-02T10:00:00.000Z",
                           "attributes": [], "relationships": []}]}
        log = ocel_from_dict(doc)
        assert log.events["e1"].time == T0

    def test_integer_kind_rejects_float_value(self):
        doc = {"objectTypes": [{"name": "T", "attributes": [{"name": "n", "type": "integer"}]}],
               "eventTypes": [],
               "objects": [{"id": "o1", "type": "T",
                            "attributes": [{"name": "n", "time": "2024-01-01T00:00:00Z", "value": 2.5}],
                            "relationships": []}],
               "events": []}
        with pytest.raises(OcelDocumentError, match="kind"):
            ocel_from_dict(doc)


def test_referential_integrity_full_scan():
    log = random_log(random.Random(99), max_events=120, max_objects=60)
    for rel in log.e2o:
        assert rel.event_id in log.events and rel.object_id in log.objects
    for rel in log.o2o:
        assert rel.source_object_id in log.objects and rel.target_object_id in log.objects


def test_schema_conformance_full_scan():
    log = random_log(random.Random(17), max_events=60, max_objects=60)
    odefs = {td.name: {ad.name for ad in td.attribute_defs} for td in log.object_type_defs}
    for obj in log.objects.values():
        assert obj.type in odefs
        assert {av.name for av in obj.attribute_values} <= odefs[obj.type]


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_round_trip_property(seed):
    log = random_log(random.Random(seed), max_events=25, max_objects=15)
    buf = io.StringIO()
    write_ocel_json(log, buf)
    assert read_ocel_json(io.StringIO(buf.getvalue())).structurally_equal(log)


def test_round_trip_case_study_fixture(case_study, tmp_path):
    _, log, _ = case_study
    path = tmp_path / "cs.ocel.json"
    write_ocel_json(log, path)
    parsed = read_ocel_json(path)
    # independent oracle: compare the five collections directly
    assert {td.name: td.attribute_defs for td in parsed.object_type_defs} == \
        {td.name: td.attribute_defs for td in log.object_type_defs}
    assert {td.name: td.attribute_defs for td in parsed.event_type_defs} == \
        {td.name: td.attribute_defs for td in log.event_type_defs}
    assert set(parsed.objects) == set(log.objects)
    assert set(parsed.events) == set(log.events)
    assert parsed.e2o == log.e2o
    assert parsed.o2o == log.o2o
    assert parsed.structurally_equal(log)


def test_json_document_layout():
    log = simple_log()
    log.add_event(EventInstance("e1", "view page", T0))
    log.relate_event_object("e1", "stu-1", "viewer")
    log.relate_objects("crs-1", "stu-1", "contains")
    doc = ocel_to_dict(log)
    assert doc["objectTypes"][0] == {"name": "User", "attributes": [{"name": "role", "type": "string"}]}
    course = next(o for o in doc["objects"] if o["id"] == "crs-1")
    assert course["relationships"] == [{"objectId": "stu-1", "qualifier": "contains"}]
    event = doc["events"][0]
    assert event["time"].endswith("+00:00")
    assert event["relationships"] == [{"objectId": "stu-1", "qualifier": "viewer"}]
