import dataclasses
import io
import random
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ocel as ref
from ocedf import (
    AttributeDef,
    AttributeValue,
    E2ORelation,
    EventInstance,
    EventTypeDef,
    ObjectInstance,
    ObjectTypeDef,
    OcedLog,
    OcelDocumentError,
    SchemaError,
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
    log = OcedLog(
        [ObjectTypeDef("User", (AttributeDef("role", "string"),)),
         ObjectTypeDef("Course", ())],
        [EventTypeDef("view page", ()), EventTypeDef("submit assignment", ())],
    )
    log.add_object(ObjectInstance("stu-1", "User", (AttributeValue("role", T0, "Student"),)))
    log.add_object(ObjectInstance("crs-1", "Course", ()))
    return log


class TestSchema:
    def test_empty_log(self):
        log = OcedLog([], [])
        assert log.object_type_defs == ()
        assert log.event_type_defs == ()
        assert not log.objects and not log.events

    def test_case_study_schema(self):
        log = OcedLog([ObjectTypeDef(n) for n in CASE_OBJECT_TYPES],
                      [EventTypeDef(n) for n in CASE_EVENT_TYPES])
        assert [td.name for td in log.object_type_defs] == CASE_OBJECT_TYPES
        assert [td.name for td in log.event_type_defs] == CASE_EVENT_TYPES

    def test_duplicate_type_name(self):
        with pytest.raises(SchemaError, match="duplicate"):
            OcedLog([ObjectTypeDef("A"), ObjectTypeDef("A")], [])

    def test_duplicate_attribute_name(self):
        bad = ObjectTypeDef("A", (AttributeDef("x", "string"), AttributeDef("x", "integer")))
        with pytest.raises(SchemaError, match="duplicate attribute"):
            OcedLog([bad], [])

    def test_unknown_value_kind(self):
        with pytest.raises(SchemaError, match="kind"):
            OcedLog([ObjectTypeDef("A", (AttributeDef("x", "text"),))], [])

    @pytest.mark.parametrize("cls", [ObjectTypeDef, EventTypeDef])
    def test_type_defs_are_frozen_values_of_their_own_class(self, cls):
        other = EventTypeDef if cls is ObjectTypeDef else ObjectTypeDef
        tdef = cls("T", [AttributeDef("x", "string")])
        assert tdef.attribute_defs == (AttributeDef("x", "string"),)
        assert tdef == cls("T", (AttributeDef("x", "string"),)) and cls("T") != other("T")
        assert repr(cls("T")) == f"{cls.__name__}(name='T', attribute_defs=())"
        with pytest.raises(dataclasses.FrozenInstanceError):
            tdef.name = "U"
        renamed = dataclasses.replace(tdef, name="U")
        assert type(renamed) is cls and renamed.attribute_defs == tdef.attribute_defs


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

    def test_time_must_be_a_datetime(self):
        log = simple_log()
        for bad in ("2024-09-02", 5, date(2024, 9, 2), None):
            value = AttributeValue("role", bad, "Student")   # held as given until stored
            assert value.time is bad
            with pytest.raises(SchemaError) as err:
                log.add_object(ObjectInstance("u2", "User", (value,)))
            assert str(err.value) == f"object 'u2' attribute 'role': time {bad!r} is not a datetime"
        assert "u2" not in log.objects

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

    def test_id_must_be_a_string(self):
        # The writer encodes each id as a JSON string, as the reader requires.
        log = simple_log()
        for bad in (7, 0, None, b"e1", ("e1",)):
            with pytest.raises(SchemaError) as err:
                log.add_event(EventInstance(bad, "view page", T0))
            assert str(err.value) == f"event id must be a string: {bad!r}"
            with pytest.raises(SchemaError) as err:
                log.add_object(ObjectInstance(bad, "User"))
            assert str(err.value) == f"object id must be a string: {bad!r}"
        assert not log.events and set(log.objects) == set(simple_log().objects)
        write_ocel_json(log, io.StringIO())

    def test_time_must_be_a_datetime(self):
        log = simple_log()
        for bad in ("2024-09-02", 5, date(2024, 9, 2), None):
            event = EventInstance("e1", "view page", bad)   # held as given until stored
            assert event.time is bad
            with pytest.raises(SchemaError) as err:
                log.add_event(event)
            assert str(err.value) == f"event 'e1': time {bad!r} is not a datetime"
        assert not log.events

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
    log = OcedLog([ObjectTypeDef("Item", (AttributeDef("price", "float"),
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


KINDS = {"s": "string", "i": "integer", "f": "float", "b": "boolean", "t": "timestamp"}
DEFS = tuple(AttributeDef(n, k) for n, k in KINDS.items())


def _given(instant, tz):
    """``instant`` as shown in the offset ``tz``, or naive in UTC when None."""
    return instant.astimezone(tz) if tz else instant.replace(tzinfo=None)


# A few instants, each given as stored, naive (read as UTC), in UTC or in another
# offset, and with sub-millisecond noise, so one instant often comes in two forms.
INSTANTS = [T0, T0 + timedelta(milliseconds=1), T0 + timedelta(days=1)]
OFFSETS = [None, timezone.utc, timezone(timedelta(hours=2)), timezone(timedelta(hours=-9, minutes=-30))]
TIMES = st.one_of(
    st.sampled_from(INSTANTS),
    st.builds(lambda t, tz, us: _given(t, tz) + timedelta(microseconds=us),
              st.sampled_from(INSTANTS), st.sampled_from(OFFSETS), st.sampled_from([0, 0, 1, 999])),
    st.datetimes(datetime(1970, 1, 2), datetime(2100, 1, 1), timezones=st.sampled_from(OFFSETS)))
VALUES = {"string": st.text(max_size=2), "integer": st.integers(),
          "float": st.integers() | st.floats(), "boolean": st.booleans(), "timestamp": TIMES}


@st.composite
def instances(draw):
    """An object or event of type "T" (or of an undeclared type) with values
    of the declared kind or of any kind, under declared names or one that is
    not, in a list or a tuple."""
    def value(name):
        kind = KINDS.get(name, "string") if draw(st.integers(0, 7)) else draw(st.sampled_from(list(VALUES)))
        return draw(VALUES[kind])

    names = draw(st.lists(st.sampled_from([*KINDS, *KINDS, "x"]), max_size=4))
    containers = st.sampled_from([tuple, tuple, list])
    container = draw(containers)
    type_ = "Ghost" if draw(st.integers(0, 7)) == 0 else "T"
    if draw(st.booleans()):
        return ObjectInstance("o", type_, container(AttributeValue(n, draw(TIMES), value(n)) for n in names))
    pairs = container(draw(containers)((n, value(n))) for n in names)
    return EventInstance("e", type_, draw(TIMES), pairs)


def _exact(value):
    """``value`` with each part tagged by its type and each time by its offset,
    so that 3 and 3.0, or one instant in two offsets, differ."""
    if isinstance(value, tuple):
        return type(value).__name__, tuple(_exact(v) for v in value)
    return type(value).__name__, value.isoformat() if isinstance(value, datetime) else value


def _add(inst):
    """The instance a log of type "T" stores for ``inst``."""
    log = OcedLog([ObjectTypeDef("T", DEFS)], [EventTypeDef("T", DEFS)])
    if isinstance(inst, ObjectInstance):
        log.add_object(inst)
        return log.objects[inst.id]
    log.add_event(inst)
    return log.events[inst.id]


@given(inst=instances())
@settings(max_examples=400, deadline=None)
def test_add_stores_what_normalizing_at_construction_stored(inst):
    """``add_*`` normalizes times and containers where building an instance
    once did: the stored instance has the same fields, each part of the same
    type and each time in UTC, or the same error is raised."""
    try:
        expected = ref.stored(inst, KINDS if inst.type == "T" else None)
    except Exception as exc:
        with pytest.raises(Exception) as err:
            _add(inst)
        assert (type(err.value), str(err.value)) == (type(exc), str(exc))
        return
    stored = _add(inst)
    assert _exact(stored) == _exact(expected)
    assert _add(stored) is stored   # a normalized instance is stored as it is
    if _exact(inst) == _exact(expected):
        assert stored is inst


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
        log = OcedLog(
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

    def test_qualifier_must_be_a_string(self):
        log = simple_log()
        log.add_event(EventInstance("e1", "view page", T0))
        log.relate_event_object("e1", "stu-1", "viewer")
        log.relate_objects("crs-1", "stu-1", "contains")
        for relate, ids in ((log.relate_event_object, ("e1", "stu-1")),
                            (log.relate_objects, ("crs-1", "stu-1"))):
            with pytest.raises(SchemaError, match="qualifier must be a string"):
                relate(*ids, None)
        assert len(log.e2o) == len(log.o2o) == 1


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
        log = OcedLog([], [])
        doc = ocel_to_dict(log)
        assert doc == {"objectTypes": [], "eventTypes": [], "objects": [], "events": []}
        assert ocel_from_dict(doc).structurally_equal(log)

    def test_all_value_kinds(self):
        kinds = [("s", "string"), ("i", "integer"), ("f", "float"),
                 ("b", "boolean"), ("t", "timestamp")]
        log = OcedLog([ObjectTypeDef("Thing", tuple(AttributeDef(n, k) for n, k in kinds))],
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


def test_relations_are_tuples_of_the_stored_ids():
    log = simple_log()
    log.add_event(EventInstance("e1", "view page", T0))
    event_id, student_id = "".join(["e", "1"]), "".join(["stu-", "1"])   # equal, not the stored strings
    log.relate_event_object(event_id, student_id, "viewer")
    log.relate_objects("crs-1", student_id, "contains")
    (e2o,), (o2o,) = log.e2o, log.o2o
    assert e2o == ("e1", "stu-1", "viewer") and hash(e2o) == hash(("e1", "stu-1", "viewer"))
    assert o2o == ("crs-1", "stu-1", "contains")
    assert e2o.event_id is log.events["e1"].id and e2o.object_id is log.objects["stu-1"].id
    assert o2o.target_object_id is log.objects["stu-1"].id
    assert E2ORelation("e1", "stu-1") == ("e1", "stu-1", "")
