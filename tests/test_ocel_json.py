"""The OCEL JSON writer against the whole-document writer it replaced, its
one-record-per-line layout, atomic output, and the reader on broken documents.
"""

import copy
import gc
import io
import json
import os
import random
import stat
import tempfile
import threading
import tracemalloc
from datetime import datetime, timedelta, timezone
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ocel as ref
from ocedf import (
    AttributeDef,
    AttributeValue,
    EventInstance,
    EventTypeDef,
    ObjectInstance,
    ObjectTypeDef,
    OcedLog,
    OcedfError,
    OcelDocumentError,
    drill_down,
    filter_log,
    ocel,
    ocel_from_dict,
    ocel_to_dict,
    read_ocel_json,
    unfold_events,
    write_ocel_json,
)
from ocedf.fileio import open_atomic
from ocedf.ocel import VALUE_KINDS
from ocedf.timeutil import to_utc_ms
from randlog import random_log

T0 = datetime(2024, 9, 2, 10, 0, 0, tzinfo=timezone.utc)
KINDS = (("s", "string"), ("i", "integer"), ("f", "float"), ("b", "boolean"), ("t", "timestamp"))


def _text(log) -> str:
    out = io.StringIO()
    write_ocel_json(log, out)
    return out.getvalue()


def assert_same_document(log):
    """The streamed document is the very text of the writer that encoded
    one dict per record, and parses to the reference writer's document and
    to ``ocel_to_dict``, with the same keys in the same order and the same
    JSON types (``json.dumps`` of the parsed documents must be equal too)."""
    text = _text(log)
    assert text == ref.write_streamed_text(log)
    got = json.loads(text)
    want = json.loads(ref.write_text(log))
    assert got == want == ocel_to_dict(log)
    assert json.dumps(got) == json.dumps(want) == json.dumps(ocel_to_dict(log))
    assert ref.ocel_to_dict(log) == ocel_to_dict(log)


def awkward_log():
    """Non-ASCII and escaped strings, non-UTC and sub-millisecond inputs,
    years before 1000, timestamp values, and times with and without a
    fractional part under one attribute name."""
    plus = timezone(timedelta(hours=5, minutes=30))
    minus = timezone(timedelta(hours=-8))
    attrs = tuple(AttributeDef(n, k) for n, k in KINDS)
    log = OcedLog([ObjectTypeDef("Ünïcødé ✓", attrs), ObjectTypeDef("日本", ())],
                  [EventTypeDef("vue «page»", attrs), EventTypeDef('q"uote\\', ())])
    values = [
        AttributeValue("s", T0 + timedelta(milliseconds=500), "line\nbreak\t\u2028 \"é\""),
        AttributeValue("s", T0, "zéro"),
        AttributeValue("s", T0 + timedelta(seconds=1), "un"),
        AttributeValue("s", datetime(999, 3, 4, 5, 6, 7, 891234, tzinfo=minus), "ancien"),
        AttributeValue("i", datetime(2024, 9, 2, 15, 30, 0, 999, tzinfo=plus), 2**70),
        AttributeValue("f", T0, -0.0),
        AttributeValue("f", T0 + timedelta(microseconds=1500), 1e-7),
        AttributeValue("b", T0, False),
        AttributeValue("t", datetime(2024, 9, 2, 12, 0, 0, 123999), datetime(5, 1, 1, 1, tzinfo=plus)),
        AttributeValue("t", T0, datetime(2024, 1, 1, 23, 59, 59, 999999, tzinfo=minus)),
    ]
    log.add_object(ObjectInstance("ø-1", "Ünïcødé ✓", tuple(values)))
    log.add_object(ObjectInstance("東京", "日本", ()))
    log.add_object(ObjectInstance("a", "日本", ()))
    log.add_event(EventInstance("é1", "vue «page»", datetime(2024, 9, 2, 12, 0, 0, 123999, tzinfo=plus),
                                (("t", datetime(999, 12, 31, 23, 59, 59, 999999)), ("f", 1e22),
                                 ("s", "→"), ("i", -1), ("b", True))))
    log.add_event(EventInstance("e0", 'q"uote\\', datetime(812, 6, 1, 0, 0, 0, 1)))
    log.add_event(EventInstance("e2", 'q"uote\\', datetime(2024, 9, 2, 10, 0, 0, 123456)))
    for eid, oid, qualifier in [("é1", "東京", "où"), ("é1", "ø-1", ""), ("é1", "ø-1", "b"),
                                ("é1", "a", "z"), ("e0", "a", "")]:
        log.relate_event_object(eid, oid, qualifier)
    for source, target, qualifier in [("ø-1", "東京", "∈"), ("ø-1", "a", ""), ("a", "a", "self"),
                                      ("ø-1", "a", "aa")]:
        log.relate_objects(source, target, qualifier)
    return log


# Characters JSON escapes or that are easy to get wrong: quote, backslash,
# control characters, the line separators JavaScript does not allow in a
# string, and non-ASCII text up to the astral planes.
_AWKWARD = st.text(st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028",
                                    "\u2029", "/", "a", "é", "東", "\U0001F600"])
                   | st.characters(codec="utf-8"), max_size=5)
_TIMES = st.datetimes(min_value=datetime(2, 1, 1), max_value=datetime(9998, 12, 31),
                      timezones=st.none() | st.sampled_from(
                          [timezone.utc, timezone(timedelta(hours=5, minutes=30)),
                           timezone(timedelta(hours=-8))]))
_VALUES = {"string": _AWKWARD, "integer": st.integers(), "boolean": st.booleans(),
           "float": st.floats(allow_nan=False, allow_infinity=False), "timestamp": _TIMES}


@st.composite
def awkward_logs(draw):
    """A small log whose type names, attribute names, ids, qualifiers and
    string values come from ``_AWKWARD``: empty qualifiers and self O2O
    relations included, events with and without attributes, and values of
    every kind, timestamps too."""
    def type_defs(cls):
        names = draw(st.lists(_AWKWARD.filter(bool), min_size=1, max_size=3, unique=True))
        return [cls(name, tuple(AttributeDef(a, draw(st.sampled_from(VALUE_KINDS)))
                                for a in draw(st.lists(_AWKWARD, max_size=3, unique=True))))
                for name in names]

    otypes, etypes = type_defs(ObjectTypeDef), type_defs(EventTypeDef)
    log = OcedLog(otypes, etypes)
    for oid in draw(st.lists(_AWKWARD.filter(bool), min_size=1, max_size=6, unique=True)):
        tdef = draw(st.sampled_from(otypes))
        values = {}
        for ad in tdef.attribute_defs:
            for when in draw(st.lists(_TIMES, max_size=2)):
                values[ad.name, to_utc_ms(when)] = AttributeValue(ad.name, when, draw(_VALUES[ad.kind]))
        log.add_object(ObjectInstance(oid, tdef.name, tuple(values.values())))
    for eid in draw(st.lists(_AWKWARD.filter(bool), max_size=8, unique=True)):
        tdef = draw(st.sampled_from(etypes))
        attrs = tuple((ad.name, draw(_VALUES[ad.kind])) for ad in tdef.attribute_defs if draw(st.booleans()))
        log.add_event(EventInstance(eid, tdef.name, draw(_TIMES), attrs))
    oids, eids = list(log.objects), list(log.events)
    qualifiers = st.just("") | _AWKWARD
    for eid, oid, qualifier in draw(st.lists(st.tuples(
            st.sampled_from(eids or [None]), st.sampled_from(oids), qualifiers), max_size=12)):
        if eid is not None and not log.has_e2o(eid, oid, qualifier):
            log.relate_event_object(eid, oid, qualifier)
    for source, target, qualifier in draw(st.lists(st.tuples(
            st.sampled_from(oids), st.sampled_from(oids), qualifiers), max_size=6)):
        if (source != target or qualifier) and not log.has_o2o(source, target, qualifier):
            log.relate_objects(source, target, qualifier)
    return log


class TestAgainstReference:
    def test_fixtures(self, case_study, conformant):
        for _, log, _ in (case_study, conformant):
            assert_same_document(log)

    def test_awkward_values(self):
        assert_same_document(awkward_log())

    def test_empty_log(self):
        assert_same_document(OcedLog([], []))

    def test_derived_logs(self, case_study):
        _, log, _ = case_study
        assert_same_document(drill_down(log, "User"))
        assert_same_document(unfold_events(log, "view page", "Page", "code"))
        assert_same_document(filter_log(log, keep_object_types={"User", "Page"}))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_logs(self, seed):
        rng = random.Random(seed)
        users = rng.random() < 0.5
        log = random_log(rng, max_events=40, max_objects=20, with_user_hierarchy=users)
        assert_same_document(log)
        assert_same_document(filter_log(log, time_window=(None, max(
            (e.time for e in log.events.values()), default=T0))))
        if users:
            assert_same_document(drill_down(log, "User"))

    @given(log=awkward_logs())
    @settings(max_examples=60, deadline=None)
    def test_generated_awkward_logs(self, log):
        assert_same_document(log)


class TestLayout:
    def test_exact_text(self):
        log = OcedLog([ObjectTypeDef("User", (AttributeDef("role", "string"),)), ObjectTypeDef("Course")],
                      [EventTypeDef("view", ())])
        log.add_object(ObjectInstance("u1", "User", (AttributeValue("role", T0, "Student"),)))
        log.add_object(ObjectInstance("c1", "Course"))
        log.add_event(EventInstance("e1", "view", T0))
        log.relate_event_object("e1", "u1", "viewer")
        log.relate_objects("c1", "u1", "contains")
        assert _text(log) == (
            '{\n'
            '"objectTypes": [\n'
            '{"name": "User", "attributes": [{"name": "role", "type": "string"}]},\n'
            '{"name": "Course", "attributes": []}\n'
            '],\n'
            '"eventTypes": [\n'
            '{"name": "view", "attributes": []}\n'
            '],\n'
            '"objects": [\n'
            '{"id": "c1", "type": "Course", "attributes": [], '
            '"relationships": [{"objectId": "u1", "qualifier": "contains"}]},\n'
            '{"id": "u1", "type": "User", "attributes": [{"name": "role", '
            '"time": "2024-09-02T10:00:00.000+00:00", "value": "Student"}], "relationships": []}\n'
            '],\n'
            '"events": [\n'
            '{"id": "e1", "type": "view", "time": "2024-09-02T10:00:00.000+00:00", "attributes": [], '
            '"relationships": [{"objectId": "u1", "qualifier": "viewer"}]}\n'
            ']\n'
            '}\n')

    def test_empty_sections(self):
        assert _text(OcedLog([], [])) == \
            '{\n"objectTypes": [\n],\n"eventTypes": [\n],\n"objects": [\n],\n"events": [\n]\n}\n'

    @pytest.mark.parametrize("which", ["case_study", "awkward"])
    def test_one_record_per_line(self, which, request, tmp_path):
        log = awkward_log() if which == "awkward" else request.getfixturevalue("case_study")[1]
        text = _text(log)
        path = tmp_path / "log.json"
        write_ocel_json(log, path)
        assert path.read_bytes() == text.encode("utf-8")

        doc = ocel_to_dict(log)
        lines = text.split("\n")   # not splitlines(): a raw U+2028 inside a string is no line break
        assert lines.pop() == ""
        assert [line for line in lines if not line.startswith("{\"")] == [
            "{", '"objectTypes": [', "],", '"eventTypes": [', "],",
            '"objects": [', "],", '"events": [', "]", "}"]
        records = [json.loads(line.removesuffix(",")) for line in lines if line.startswith("{\"")]
        assert records == doc["objectTypes"] + doc["eventTypes"] + doc["objects"] + doc["events"]
        assert len(lines) == len(records) + 10


    def test_a_handle_gets_the_text_in_blocks_of_lines(self, case_study):
        _, log, _ = case_study
        writes = []

        class Recording:   # a handle with nothing but write
            def write(self, text):
                writes.append(text)
                return len(text)

        write_ocel_json(log, Recording())
        text = "".join(writes)
        assert text == ref.write_streamed_text(log)
        pieces = text.count("\n")   # as many as the writer's pieces: "{", a key, a record, a "]", the "}"
        assert len(writes) == -(-pieces // ocel._PIECES_PER_WRITE) and len(writes) * 100 < pieces


class TestAtomicOutput:
    def _old_file(self, tmp_path):
        path = tmp_path / "log.json"
        path.write_bytes(b"old contents\n")
        return path

    def test_encoder_failing_mid_stream(self, case_study, tmp_path, monkeypatch):
        _, log, _ = case_study
        path = self._old_file(tmp_path)
        calls = []

        class FailingEncoder(json.JSONEncoder):
            def encode(self, o):
                calls.append(1)
                if len(calls) > 300:
                    raise ValueError("encoder failed")
                return super().encode(o)

        monkeypatch.setattr(ocel.json, "JSONEncoder", FailingEncoder)
        with pytest.raises(ValueError, match="encoder failed"):
            write_ocel_json(log, path)
        assert len(calls) == 301
        assert path.read_bytes() == b"old contents\n"
        assert os.listdir(tmp_path) == ["log.json"]

    def test_unencodable_text_mid_stream(self, tmp_path):
        log = awkward_log()
        log.add_event(EventInstance("e3", "vue «page»", T0, (("s", "lone \udc80 surrogate"),)))
        path = self._old_file(tmp_path)
        with pytest.raises(UnicodeEncodeError):
            write_ocel_json(log, path)
        assert path.read_bytes() == b"old contents\n"
        assert os.listdir(tmp_path) == ["log.json"]

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_ocel_json(OcedLog([], []), tmp_path / "log.json")
            with open_atomic(tmp_path / "out.csv", newline="") as fh:
                fh.write("a\r\n")
        finally:
            os.umask(old)
        for name in ("log.json", "out.csv"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o640
        assert (tmp_path / "out.csv").read_bytes() == b"a\r\n"
        assert sorted(os.listdir(tmp_path)) == ["log.json", "out.csv"]

    def test_replaces_an_existing_file(self, tmp_path):
        path = self._old_file(tmp_path)
        write_ocel_json(OcedLog([], []), path)
        assert read_ocel_json(path).structurally_equal(OcedLog([], []))
        assert os.listdir(tmp_path) == ["log.json"]

    def test_symlink_is_kept_and_its_target_replaced(self, tmp_path):
        target = self._old_file(tmp_path)
        link = tmp_path / "link.json"
        link.symlink_to(target)
        with open_atomic(link) as fh:
            fh.write("new\n")
        assert link.is_symlink() and target.read_text(encoding="utf-8") == "new\n"
        assert sorted(os.listdir(tmp_path)) == ["link.json", "log.json"]

    def test_fifo_is_written_directly(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            with open_atomic(fifo) as fh:
                fh.write("through the pipe\n")
        finally:
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [b"through the pipe\n"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)


# -- the reader on broken documents -----------------------------------------------


def _base_document():
    log = OcedLog([ObjectTypeDef("O", tuple(AttributeDef(n, k) for n, k in KINDS))],
                  [EventTypeDef("E", tuple(AttributeDef(n, k) for n, k in KINDS))])
    values = {"s": "x", "i": 1, "f": 1.5, "b": True, "t": T0}
    log.add_object(ObjectInstance("o1", "O", tuple(AttributeValue(n, T0, values[n]) for n, _ in KINDS)))
    log.add_object(ObjectInstance("o2", "O"))
    log.add_event(EventInstance("e1", "E", T0, tuple((n, values[n]) for n, _ in KINDS)))
    log.relate_event_object("e1", "o1", "q")
    log.relate_objects("o1", "o2", "r")
    return ocel_to_dict(log)


BASE_DOCUMENT = _base_document()


def _set(path, value):
    def edit(doc):
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
    return edit


# Non-list containers and non-string or unhashable names, types and ids, with
# the JSON path the reader must name.
BROKEN = {
    "object attributes not a list": (_set(["objects", 0, "attributes"], 5), "objects[0].attributes"),
    "event relationships not a list": (_set(["events", 0, "relationships"], 5), "events[0].relationships"),
    "object relationships not a list": (_set(["objects", 0, "relationships"], None),
                                        "objects[0].relationships"),
    "type attributes not a list": (_set(["objectTypes", 0, "attributes"], 5), "objectTypes[0].attributes"),
    "unhashable object type": (_set(["objects", 0, "type"], ["O"]), "objects[0]"),
    "unhashable event type": (_set(["events", 0, "type"], {"E": 1}), "events[0]"),
    "unhashable attribute name": (_set(["objects", 0, "attributes", 0, "name"], ["s"]),
                                  "objects[0].attributes[0]"),
    "unhashable event attribute name": (_set(["events", 0, "attributes", 0, "name"], {}),
                                        "events[0].attributes[0]"),
    "unhashable objectId": (_set(["events", 0, "relationships", 0, "objectId"], ["o1"]),
                            "events[0].relationships[0]"),
    "integer objectId": (_set(["objects", 0, "relationships", 0, "objectId"], 2),
                         "objects[0].relationships[0]"),
    "integer qualifier": (_set(["events", 0, "relationships", 0, "qualifier"], 7),
                          "events[0].relationships[0]"),
    "integer attribute definition name": (_set(["eventTypes", 0, "attributes", 0, "name"], 3),
                                          "eventTypes[0].attributes[0]"),
    "unhashable attribute definition name": (_set(["objectTypes", 0, "attributes", 1, "name"], ["i"]),
                                             "objectTypes[0].attributes[1]"),
    "unhashable objectId after its pair": (
        _set(["events", 0, "relationships"], [{"objectId": "o2", "qualifier": "r"}, {"objectId": {}}]),
        "events[0].relationships[1]"),
    "unhashable qualifier after its pair": (
        _set(["events", 0, "relationships"], [{"objectId": "o2", "qualifier": "r"},
                                              {"objectId": "o2", "qualifier": {}}]),
        "events[0].relationships[1]"),
}


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_broken_document_names_its_path(name):
    edit, path = BROKEN[name]
    doc = copy.deepcopy(BASE_DOCUMENT)
    edit(doc)
    with pytest.raises(OcelDocumentError) as err:
        ocel_from_dict(doc)
    assert err.value.path == path


@pytest.mark.parametrize("text", ["[" * 100_000, "\"\\ud800\" 1", "",
                                  '{"objectTypes": ' + "1" * 5000 + "}"],
                         ids=["nested-too-deeply", "trailing-data", "empty", "beyond-the-digit-limit"])
def test_unreadable_text(text):
    with pytest.raises(OcelDocumentError, match="malformed JSON"):
        read_ocel_json(io.StringIO(text))


def test_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"objectTypes": [{"name": "Café"}]}'.encode("latin-1"))
    with pytest.raises(OcelDocumentError, match="UTF-8"):
        read_ocel_json(path)


def test_a_handle_whose_text_is_not_utf8():
    handle = io.TextIOWrapper(io.BytesIO('{"objectTypes": [{"name": "Café"}]}'.encode("latin-1")),
                              encoding="utf-8")
    with pytest.raises(OcelDocumentError, match="^not UTF-8 text: "):
        read_ocel_json(handle)


def test_a_failure_to_read_the_source_is_the_callers():
    """Only text that is not UTF-8 makes a read failure a document defect."""
    source = io.StringIO(_text(ocel_from_dict(copy.deepcopy(BASE_DOCUMENT))))
    source.close()
    with pytest.raises(ValueError, match="closed file"):
        read_ocel_json(source)


def test_base_document_reads():
    assert ocel_to_dict(ocel_from_dict(copy.deepcopy(BASE_DOCUMENT))) == BASE_DOCUMENT


def _slots(node, out):
    """Every (container, key) pair inside a parsed document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        out.append((node, key))
        _slots(child, out)
    return out


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
    | st.sampled_from(["o1", "o2", "e1", "O", "E", "s", "t", "", "2024-01-01T00:00:00Z"]),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children,
                                                                       max_size=3),
    max_leaves=6)


def _only_ocedf_errors(read, arg):
    try:
        read(arg)
    except OcedfError:
        pass


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_documents_raise_only_ocedf_errors(data):
    doc = copy.deepcopy(BASE_DOCUMENT)
    for _ in range(data.draw(st.integers(1, 3))):
        slots = _slots(doc, [])
        if not slots:
            break
        container, key = data.draw(st.sampled_from(slots))
        if data.draw(st.booleans()):
            del container[key]
        else:
            container[key] = data.draw(JSON_VALUES)
    _only_ocedf_errors(ocel_from_dict, doc)
    text = json.dumps(doc)
    _only_ocedf_errors(read_ocel_json, io.StringIO(text[:data.draw(st.integers(0, len(text)))]))


@given(seed=st.integers(0, 10_000), cut=st.floats(0, 1))
@settings(max_examples=60, deadline=None)
def test_truncated_documents_raise_only_ocedf_errors(seed, cut):
    text = _text(random_log(random.Random(seed), max_events=10, max_objects=6))
    _only_ocedf_errors(read_ocel_json, io.StringIO(text[:int(len(text) * cut)]))



@pytest.mark.parametrize("section, name, value, message", [
    ("objects", "i", 2.5, "value 2.5 does not match declared kind 'integer'"),
    ("events", "i", "7", "value '7' does not match declared kind 'integer'"),
    ("objects", "f", float("nan"), "non-finite float value"),
    ("events", "f", float("inf"), "non-finite float value"),
    ("objects", "f", 10**400, "non-finite float value"),
    ("events", "t", 5, "value 5 does not match declared kind 'timestamp'"),
], ids=["object-kind", "event-kind", "object-nan", "event-inf", "int-beyond-float", "timestamp-kind"])
def test_value_errors_name_their_path_once(section, name, value, message):
    """add_object/add_event check each value once; the reader reports their
    error at the instance's path, which the message holds once."""
    doc = copy.deepcopy(BASE_DOCUMENT)
    next(a for a in doc[section][0]["attributes"] if a["name"] == name)["value"] = value
    with pytest.raises(OcelDocumentError) as err:
        ocel_from_dict(doc)
    what = section[:-1]
    assert err.value.path == f"{section}[0]"
    assert str(err.value) == f"{section}[0]: {what} '{what[0]}1' attribute {name!r}: {message}"


# -- the reader against the reference that relates one relation at a time ----------


def assert_reads_as_reference(doc):
    """``ocel_from_dict`` gives the reference reader's relations, stored in
    the same order and holding the stored instances' id strings, or raises
    the reference's error with the same message and path."""
    try:
        want = ref.ocel_from_dict(copy.deepcopy(doc))
    except Exception as exc:
        with pytest.raises(Exception) as err:
            ocel_from_dict(doc)
        assert type(err.value) is type(exc)
        assert str(err.value) == str(exc)
        assert getattr(err.value, "path", None) == getattr(exc, "path", None)
        return False
    got = ocel_from_dict(doc)
    assert (got.e2o, got.o2o) == (want.e2o, want.o2o)
    assert (got._e2o_by_event, got._o2o_by_source) == (want._e2o_by_event, want._o2o_by_source)
    for eid in want.events:
        assert got.objects_of_event(eid) == want.objects_of_event(eid)
    for by_key, owners in ((got._e2o_by_event, got.events), (got._o2o_by_source, got.objects)):
        for owner, pairs in by_key.items():
            assert owner is owners[owner].id
            for target, _ in pairs:
                assert target is got.objects[target].id
    return True


RELATION_EDITS = ("duplicate", "dangling", "self without qualifier", "self with qualifier",
                  "malformed", "bad qualifier", "new", "shuffle")


def _edit_relationships(doc, data):
    """Apply one to four edits to the relationships of random records, or
    all of them to one record."""
    records = [*doc["objects"], *doc["events"]]
    object_ids = [entry["id"] for entry in doc["objects"]]
    one_record = data.draw(st.booleans())
    entry = data.draw(st.sampled_from(records))
    for _ in range(data.draw(st.integers(1, 4))):
        if not one_record:
            entry = data.draw(st.sampled_from(records))
        rels = entry.setdefault("relationships", [])
        edit = data.draw(st.sampled_from(RELATION_EDITS))
        qualifier = data.draw(st.sampled_from(["", "q", "r"]))
        if edit == "shuffle":
            rels[:] = data.draw(st.permutations(rels))
            continue
        if edit == "duplicate":
            if not rels:
                continue
            new = copy.deepcopy(data.draw(st.sampled_from(rels)))
        elif edit == "dangling":
            new = {"objectId": "missing", "qualifier": qualifier}
        elif edit == "self without qualifier":
            new = data.draw(st.sampled_from([{"objectId": entry["id"]},
                                             {"objectId": entry["id"], "qualifier": ""}]))
        elif edit == "self with qualifier":
            new = {"objectId": entry["id"], "qualifier": "self"}
        elif edit == "malformed":
            new = data.draw(st.sampled_from([5, None, "o1", [], ["objectId"], {"qualifier": "q"}]))
        elif edit == "bad qualifier":
            new = {"objectId": data.draw(st.sampled_from(object_ids)),
                   "qualifier": data.draw(st.sampled_from([7, None, ["q"]]))}
        else:
            new = {"objectId": data.draw(st.sampled_from(object_ids)), "qualifier": qualifier}
        rels.insert(data.draw(st.integers(0, len(rels))), new)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_reader_matches_reference_on_edited_relationships(data):
    if data.draw(st.booleans()):
        doc = copy.deepcopy(BASE_DOCUMENT)
    else:
        log = random_log(random.Random(data.draw(st.integers(0, 10_000))), max_events=8, max_objects=5)
        doc = ocel_to_dict(log)
    _edit_relationships(doc, data)
    assert_reads_as_reference(json.loads(json.dumps(doc)))   # ids in new strings, as read


def _edited_doc(edit):
    """BASE_DOCUMENT with ``edit`` applied."""
    doc = copy.deepcopy(BASE_DOCUMENT)
    edit(doc)
    return doc


def _relationships(*rels, record=("events", 0)):
    """BASE_DOCUMENT with ``rels`` as the relationships of ``record``."""
    doc = copy.deepcopy(BASE_DOCUMENT)
    key, i = record
    doc[key][i]["relationships"] = list(rels)
    return doc


# Defective records, with the path and message the first defect in each gives.
RECORD_DEFECTS = {
    "dangling before malformed": (
        _relationships({"objectId": "o2"}, {"objectId": "nope"}, 5),
        "events[0].relationships[1]", "unknown object 'nope'"),
    "malformed before dangling": (
        _relationships({"objectId": "o2"}, {"objectId": "o1", "qualifier": 7}, {"objectId": "nope"}),
        "events[0].relationships[1]", "need a string 'objectId'"),
    "duplicate before dangling": (
        _relationships({"objectId": "o1"}, {"objectId": "o1", "qualifier": ""}, {"objectId": "nope"}),
        "events[0].relationships[1]", "duplicate e2o relation"),
    "self without qualifier": (
        _relationships({"objectId": "o1", "qualifier": "x"}, {"objectId": "o2"}, record=("objects", 1)),
        "objects[1].relationships[1]", "requires a non-empty qualifier"),
}


def _warm(*rels, record=("events", 1)):
    """BASE_DOCUMENT with a second event ``e2``, and ``rels`` as the
    relationships of ``record``. The records before ``e2`` relate ``o1`` to
    ``(o2, "r")`` and ``(o2, "")``, and ``e1`` to ``(o1, "q")``, so a defect
    of ``rels`` meets those pairs already checked and stored by the read."""
    doc = copy.deepcopy(BASE_DOCUMENT)
    doc["objects"][0]["relationships"].append({"objectId": "o2"})
    doc["events"].append({**doc["events"][0], "id": "e2"})
    key, i = record
    doc[key][i]["relationships"] = list(rels)
    return doc


WARM = {"objectId": "o1", "qualifier": "q"}   # the pair e1 relates
MALFORMED = "need a string 'objectId'"

# The same defects in a record that follows one using the same pair.
RECORD_DEFECTS.update({
    "warm: non-dict relation": (_warm(WARM, 5), "events[1].relationships[1]", MALFORMED),
    "warm: list relation": (_warm(WARM, ["objectId"]), "events[1].relationships[1]", MALFORMED),
    "warm: integer objectId": (_warm(WARM, {"objectId": 1, "qualifier": "q"}),
                               "events[1].relationships[1]", MALFORMED),
    "warm: unhashable objectId": (_warm(WARM, {"objectId": ["o1"], "qualifier": "q"}),
                                  "events[1].relationships[1]", MALFORMED),
    "warm: integer qualifier": (_warm(WARM, {"objectId": "o1", "qualifier": 7}),
                                "events[1].relationships[1]", MALFORMED),
    "warm: unhashable qualifier": (_warm(WARM, {"objectId": "o1", "qualifier": ["q"]}),
                                   "events[1].relationships[1]", MALFORMED),
    "warm: unknown object": (_warm(WARM, {"objectId": "nope", "qualifier": "q"}),
                             "events[1].relationships[1]", "unknown object 'nope'"),
    "warm: duplicate pair": (_warm(WARM, {"objectId": "o1", "qualifier": "q"}),
                             "events[1].relationships[1]", "duplicate e2o relation"),
    "warm: self O2O without qualifier": (_warm({"objectId": "o2"}, record=("objects", 1)),
                                         "objects[1].relationships[0]",
                                         "requires a non-empty qualifier"),
})


# Records near o1's O2O tuple ((o2, ""), (o2, "r")), stored before any event:
# its pairs in another order, or with a repeat or an unknown object added,
# miss the one lookup and are checked pair by pair; its very pairs found by
# the lookup for o2 itself still meet the check of an unqualified self O2O.
EARLIER = [{"objectId": "o2", "qualifier": ""}, {"objectId": "o2", "qualifier": "r"}]
RECORD_DEFECTS.update({
    "warm: an earlier tuple's pairs in another order, repeated": (
        _warm(*EARLIER[::-1], EARLIER[1]), "events[1].relationships[2]", "duplicate e2o relation"),
    "warm: an earlier tuple's pairs plus a repeat": (
        _warm(*EARLIER, EARLIER[0]), "events[1].relationships[2]", "duplicate e2o relation"),
    "warm: an earlier O2O tuple, then an unknown object": (
        _warm(*EARLIER, {"objectId": "nope", "qualifier": ""}),
        "events[1].relationships[2]", "unknown object 'nope'"),
    "warm: an earlier O2O tuple as its own object's, unqualified": (
        _warm(*EARLIER, record=("objects", 1)), "objects[1].relationships[0]",
        "requires a non-empty qualifier"),
})

# A time that is not a string, of an event and of an object attribute.
RECORD_DEFECTS.update({
    "event time not a string": (_edited_doc(_set(["events", 0, "time"], 5)), "events[0]",
                                ": event 'e1': timestamp 5 is not a string$"),
    "object attribute time not a string": (
        _edited_doc(_set(["objects", 0, "attributes", 0, "time"], None)), "objects[0].attributes[0]",
        ": timestamp None is not a string$"),
})


def _then_undeclared_event(doc):
    """``doc`` with a last event ``e2`` of an undeclared type."""
    doc["events"].append({**doc["events"][0], "id": "e2", "type": "undeclared"})
    return doc


# Two defective records: every object and its O2O relations come first, then
# each event with its E2O relations, so a relation defect comes before a
# defect of a later event.
RECORD_DEFECTS.update({
    "E2O before a later event": (_then_undeclared_event(_relationships({"objectId": "nope"})),
                                 "events[0].relationships[0]", "unknown object 'nope'"),
    "O2O before an event": (_then_undeclared_event(_relationships({"objectId": "nope"},
                                                                  record=("objects", 0))),
                            "objects[0].relationships[0]", "unknown object 'nope'"),
})


def _layout(doc) -> str:
    """``doc`` in the writer's layout, whatever its records hold."""
    return "".join(ref._streamed_chunks(doc))


@pytest.mark.parametrize("name", sorted(RECORD_DEFECTS))
def test_first_defect_of_a_record_is_reported(name):
    doc, path, message = RECORD_DEFECTS[name]
    assert not assert_reads_as_reference(doc)
    with pytest.raises(OcelDocumentError, match=message) as err:
        ocel_from_dict(doc)
    assert err.value.path == path
    for text in (json.dumps(doc), _layout(doc)):   # parsed whole, and read a record at a time
        with pytest.raises(OcelDocumentError) as read:
            read_ocel_json(io.StringIO(text))
        assert (str(read.value), read.value.path) == (str(err.value), path)


# -- events stored as read, and those added through add_event ---------------------------

# Edits of a plain event (a declared type, no attributes, a new non-empty id).
# The four after the empty edit send it through add_event, which stores or
# rejects it; the time edits keep it plain, some with a time parse_iso normalizes.
PLAIN_EVENT_EDITS = {
    "plain": {},
    "attributes": {"attributes": [{"name": "s", "value": "y"}]},
    "undeclared type": {"type": "undeclared"},
    "empty id": {"id": ""},
    "duplicate id": {"id": "e1"},
    "+02:00 offset": {"time": "2024-09-02T12:00:00.000+02:00"},
    "sub-millisecond time": {"time": "2024-09-02T10:00:00.000999+00:00"},
    "Z suffix": {"time": "2024-09-02T10:00:00.000Z"},
    "padded time": {"time": " 2024-09-02T10:00:00.000+00:00\t"},
}


@pytest.mark.parametrize("name", sorted(PLAIN_EVENT_EDITS))
def test_an_edited_plain_event_reads_as_parsed_whole_and_as_the_reference(name):
    """A writer-layout text whose last event is plain but for one edit reads as
    ``ocel_from_dict`` of its whole parse and as the reference reader, or
    raises their error with the same message and path. Each event read holds
    its type definition's own string, a UTC time and, without values, ``()``."""
    doc = copy.deepcopy(BASE_DOCUMENT)   # a one-character type name is one cached string anyway
    doc["eventTypes"].append({"name": "plain", "attributes": [{"name": "s", "type": "string"}]})
    doc["events"].append({"id": "e2", "type": "plain", "time": "2024-09-02T10:00:00.000+00:00",
                          "attributes": [], "relationships": [{"objectId": "o2", "qualifier": ""}],
                          **PLAIN_EVENT_EDITS[name]})
    text = _layout(doc)
    assert_reads_as_parsed_whole(text)
    if not assert_reads_as_reference(json.loads(text)):
        return
    got, want = read_ocel_json(io.StringIO(text)), ref.ocel_from_dict(json.loads(text))
    assert got.events == want.events and got.events["e2"].time == T0
    assert (got.events["e2"].attribute_values == ()) is (name != "attributes")
    for event in got.events.values():
        assert type(event) is EventInstance and event.type is got._event_types[event.type].name
        assert type(event.attribute_values) is tuple
        assert event.time.tzinfo is timezone.utc and to_utc_ms(event.time) is event.time


# -- the collector is paused during a read, and the caller's state restored --------


class TestGcPause:
    def test_paused_during_the_read(self, monkeypatch):
        seen = []
        build = ocel.ocel_from_dict

        def spy(doc):
            seen.append(gc.isenabled())
            return build(doc)

        monkeypatch.setattr(ocel, "ocel_from_dict", spy)
        read_ocel_json(io.StringIO(json.dumps(BASE_DOCUMENT)))
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("text", ["{", json.dumps(_relationships({"objectId": "nope"}))],
                             ids=["malformed JSON", "bad relationship"])
    def test_enabled_again_after_a_failed_read(self, text):
        with pytest.raises(OcelDocumentError) as err:
            read_ocel_json(io.StringIO(text))
        assert gc.isenabled()
        if "nope" in text:
            assert err.value.path == "events[0].relationships[0]"

    def test_stays_disabled_when_the_caller_disabled_it(self):
        gc.disable()
        try:
            read_ocel_json(io.StringIO(json.dumps(BASE_DOCUMENT)))
            assert not gc.isenabled()
            with pytest.raises(OcelDocumentError):
                read_ocel_json(io.StringIO("{"))
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_paused_while_the_writer_layout_is_stored(self, monkeypatch):
        """Text in the writer's layout is built as it is scanned, never
        through ``ocel_from_dict``; the collector is off for each stored
        record's relations too."""
        seen = []
        stored = ocel._Pairs.stored

        def spy(pairs, rels):
            seen.append(gc.isenabled())
            return stored(pairs, rels)

        monkeypatch.setattr(ocel._Pairs, "stored", spy)
        monkeypatch.setattr(ocel, "ocel_from_dict", None)
        log = read_ocel_json(io.StringIO(_text(awkward_log())))
        assert log.structurally_equal(awkward_log())
        assert seen == [False] * 4   # two sources' O2O, then two events' E2O
        assert gc.isenabled()


def test_stored_relations_leave_the_cyclic_gc(case_study):
    """Each stored relation is an exact tuple of two strings, so a collection
    stops tracking it, after ``extract`` and after a read; a ``NamedTuple``
    relation stays tracked for good. CPython untracks a tuple only once its
    items are untracked, and the reachability pass moves a young pair behind
    its key's tuple, so that tuple goes at the next collection."""
    _, extracted, _ = case_study
    out = io.StringIO()
    write_ocel_json(extracted, out)
    read = read_ocel_json(io.StringIO(out.getvalue()))
    logs = (extracted, read)
    gc.collect()
    for log in logs:
        for by_key in (log._e2o_by_event, log._o2o_by_source):
            assert by_key
            for pair in chain.from_iterable(by_key.values()):
                assert type(pair) is tuple and not gc.is_tracked(pair)
    gc.collect()
    for log in logs:
        for by_key in (log._e2o_by_event, log._o2o_by_source):
            assert not any(map(gc.is_tracked, by_key.values()))


def _pairs_shared(log) -> bool:
    """Whether each distinct stored pair is one tuple, over E2O and O2O."""
    pairs = [p for by_key in (log._e2o_by_event, log._o2o_by_source)
             for rels in by_key.values() for p in rels]
    return len({id(p) for p in pairs}) == len(set(pairs))


@pytest.mark.parametrize("fixture", ["case_study", "conformant"])
def test_equal_stored_pairs_are_one_tuple(fixture, request):
    """``extract`` and the reader store each distinct (other id, qualifier)
    pair once and share it between the keys that hold it."""
    _, extracted, _ = request.getfixturevalue(fixture)
    read = read_ocel_json(io.StringIO(_text(extracted)))
    for log in (extracted, read):
        pairs = [p for rels in log._e2o_by_event.values() for p in rels]
        assert len(set(pairs)) < len(pairs)   # some pair is held twice
        assert _pairs_shared(log)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_read_of_a_random_log_shares_its_pairs(seed):
    log = random_log(random.Random(seed), max_events=60, max_objects=8)
    read = read_ocel_json(io.StringIO(_text(log)))
    assert read.structurally_equal(log)
    assert _pairs_shared(read)


def test_a_record_repeating_earlier_pairs_stores_their_tuple(monkeypatch):
    """A record whose pairs, in the writer's order, are an earlier record's
    stores that record's very tuple, found by one lookup: only the first
    record of each pair set sorts and shares a tuple (``_shared_sorted``)."""
    doc = _warm(*EARLIER)   # e2 holds o1's O2O pairs
    plain = {**doc["events"][0], "attributes": []}
    doc["events"] += [{**plain, "id": "e3"}, {**plain, "id": "e4", "relationships": EARLIER}]
    sorts = []
    shared_sorted = ocel._shared_sorted
    monkeypatch.setattr(ocel, "_shared_sorted", lambda *args: sorts.append(args) or shared_sorted(*args))
    for text in (_layout(doc), json.dumps(doc)):
        sorts.clear()
        log = read_ocel_json(io.StringIO(text))
        assert len(sorts) == 2   # o1's pairs, with a qualifier left out, and e1's
        o1, e2o = log._o2o_by_source["o1"], log._e2o_by_event
        assert o1 == (("o2", ""), ("o2", "r")) and e2o["e2"] is o1 and e2o["e4"] is o1
        assert e2o["e3"] is e2o["e1"] == (("o1", "q"),)
        assert log.events["e3"].attribute_values == () and log.events["e4"].type is log.events["e1"].type


# -- the record-at-a-time read of the writer's layout against the whole parse ------


def _sharing(log):
    """The stored pairs, O2O then E2O, each as the index of the first stored
    pair that is the same object, with the owner keys in stored order."""
    first = {}
    return [(owner, [first.setdefault(id(pair), len(first)) for pair in rels])
            for by_key in (log._o2o_by_source, log._e2o_by_event) for owner, rels in by_key.items()]


class _Unseekable(io.StringIO):
    """A text handle that cannot seek, as a pipe's."""

    def seekable(self):
        return False


def assert_reads_as_parsed_whole(text):
    """``read_ocel_json`` of ``text`` gives the log that ``ocel_from_dict``
    builds from the whole parsed text, in the same order and sharing the
    same pairs, or raises its error with the same message and path; from a
    seekable handle, from one that cannot seek, and from a path, whose whole
    text is what ``Path.read_text`` gives (newlines translated)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.json"
        path.write_bytes(text.encode("utf-8"))
        for source, whole in ((io.StringIO(text), text), (_Unseekable(text), text),
                              (path, path.read_text(encoding="utf-8"))):
            _assert_reads_as(source, whole)


def _assert_reads_as(source, whole):
    try:
        want = ocel_from_dict(ocel._load_document(whole))
    except OcelDocumentError as exc:
        with pytest.raises(OcelDocumentError) as err:
            read_ocel_json(source)
        assert (str(err.value), err.value.path) == (str(exc), exc.path)
        return
    got = read_ocel_json(source)
    assert got.structurally_equal(want)
    assert list(got.objects) == list(want.objects)
    assert list(got.events) == list(want.events)
    assert _sharing(got) == _sharing(want)
    for by_key, owners in ((got._e2o_by_event, got.events), (got._o2o_by_source, got.objects)):
        for owner, rels in by_key.items():
            assert owner is owners[owner].id
            assert all(target is got.objects[target].id for target, _ in rels)


_WHITESPACE = st.sampled_from([" ", "\t", "\n", "\r", "\x0b", "\u2028", "\ufeff"])


def _edited(text, data):
    """``text`` with one edit drawn from ``data``, and half the time a second
    one, so that a record defect may meet a later break of the frame."""
    text = _edit(text, data)
    return _edit(text, data) if data.draw(st.booleans()) else text


def _edit(text, data):
    """``text`` with one edit drawn from ``data``: a line deleted, duplicated
    or swapped with another, a character changed or removed, whitespace added
    inside or after the document, a BOM, CRLF line ends, a cut, a duplicate
    key in a record, a record split over two lines, a record's relationships
    reordered, or an empty qualifier's key dropped from one."""
    lines = text.split("\n")   # not splitlines(): a raw U+2028 inside a string is no line break
    records = [i for i, line in enumerate(lines) if line.startswith('{"')]
    # half the time a record's line; integers() would favour the first lines
    line = st.sampled_from(records or [0]) | st.sampled_from(range(len(lines)))
    at = data.draw(st.sampled_from(range(len(text) + 1)))
    edit = data.draw(st.sampled_from(["delete line", "duplicate line", "swap lines", "change",
                                      "remove", "whitespace", "trailing whitespace", "BOM", "CRLF",
                                      "cut", "duplicate key", "split record",
                                      "reorder relationships", "drop empty qualifier"]))
    related = [i for i in records if '"relationships": [{' in lines[i]]
    if edit in ("duplicate key", "split record") and not records \
            or edit in ("reorder relationships", "drop empty qualifier") and not related:
        edit = "cut"
    if edit == "delete line":
        del lines[data.draw(line)]
    elif edit == "duplicate line":
        i = data.draw(line)
        lines.insert(i, lines[i])
    elif edit == "swap lines":
        i, j = data.draw(line), data.draw(line)
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == "change":
        return text[:at] + data.draw(st.sampled_from('{}[],:"\\ 0a\n')) + text[at + 1:]
    elif edit == "remove":
        return text[:at] + text[at + 1:]
    elif edit == "whitespace":
        return text[:at] + data.draw(_WHITESPACE) + text[at:]
    elif edit == "trailing whitespace":
        return text + "".join(data.draw(st.lists(_WHITESPACE, min_size=1, max_size=3)))
    elif edit == "BOM":
        return "\ufeff" + text
    elif edit == "CRLF":
        return text.replace("\n", "\r\n")
    elif edit == "cut":
        return text[:at]
    elif edit == "duplicate key":
        i = data.draw(st.sampled_from(records))
        try:
            record = json.loads(lines[i].removesuffix(","))
        except ValueError:   # a record line an earlier edit broke
            return text[:at]
        key = data.draw(st.sampled_from(sorted(record)))
        value = data.draw(st.sampled_from([json.dumps(record[key], ensure_ascii=False),
                                           '"dup"', "[]", "5"]))
        if data.draw(st.booleans()):   # the first of two equal keys loses
            lines[i] = f'{{"{key}": {value}, ' + lines[i][1:]
        else:
            end = lines[i].rindex("}")
            lines[i] = f'{lines[i][:end]}, "{key}": {value}' + lines[i][end:]
    elif edit == "split record":
        i = data.draw(st.sampled_from(records))
        lines[i] = lines[i].replace(', "', ',\n"', 1)
    else:   # the rest of the line kept, so the frame still holds
        i = data.draw(st.sampled_from(related))
        head, _, rest = lines[i].partition('"relationships": ')
        try:
            rels, end = json.JSONDecoder().raw_decode(rest)
        except ValueError:   # a record line an earlier edit broke
            return text[:at]
        if edit == "reorder relationships":
            rels = data.draw(st.permutations(rels))
        else:
            empty = [rel for rel in rels if isinstance(rel, dict) and rel.get("qualifier") == ""]
            if empty:
                del data.draw(st.sampled_from(empty))["qualifier"]
        lines[i] = head + '"relationships": ' + json.dumps(rels, ensure_ascii=False) + rest[end:]
    return "\n".join(lines)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_writer_layout_reads_as_parsed_whole(data):
    if data.draw(st.booleans()):
        log = random_log(random.Random(data.draw(st.integers(0, 10_000))), max_events=12, max_objects=6)
    else:
        log = data.draw(awkward_logs())
    text = _text(log)
    assert ocel._read_writer_layout(io.StringIO(text)) is not None
    assert_reads_as_parsed_whole(text)
    edited = _edited(text, data)
    assert_reads_as_parsed_whole(edited)
    try:
        doc = json.loads(edited)
    except ValueError:
        return
    assert_reads_as_reference(doc)   # the reader relation by relation, of the same document


@pytest.mark.parametrize("fixture", ["case_study", "conformant"])
def test_fixtures_read_as_parsed_whole(fixture, request):
    _, log, _ = request.getfixturevalue(fixture)
    text = _text(log)
    assert ocel._read_writer_layout(io.StringIO(text)) is not None
    assert_reads_as_parsed_whole(text)


@pytest.mark.parametrize("edit, path", [
    (_set(["objects", 1, "type"], "undeclared"), "objects[1]"),
    (_set(["objects", 0, "relationships", 0, "objectId"], "nope"), "objects[0].relationships[0]"),
    (_set(["events", 0, "type"], "undeclared"), "events[0]"),
    (_set(["events", 0, "relationships", 0, "objectId"], "nope"), "events[0].relationships[0]"),
], ids=["object", "O2O", "event", "E2O"])
def test_a_defect_in_the_writer_layout_is_raised_by_the_whole_parse(edit, path, monkeypatch):
    """A record defect in text of the writer's layout from a seekable source
    ends the one pass (``_read_writer_layout`` gives None), and the whole
    parse raises it with the message and path ``ocel_from_dict`` gives; a
    source that cannot seek is only parsed whole. Every build runs with the
    GC paused, and the caller's GC state is restored."""
    doc = copy.deepcopy(BASE_DOCUMENT)
    edit(doc)
    text = _layout(doc)
    with pytest.raises(OcelDocumentError) as want:
        ocel_from_dict(ocel._load_document(text))
    assert want.value.path == path
    add_records = ocel._add_records
    for source, want_builds in ((io.StringIO(text), [False, False]), (_Unseekable(text), [False])):
        builds = []

        def spy(*args):
            builds.append(gc.isenabled())
            return add_records(*args)

        monkeypatch.setattr(ocel, "_add_records", spy)
        with pytest.raises(OcelDocumentError) as err:
            read_ocel_json(source)
        assert (str(err.value), err.value.path) == (str(want.value), path)
        assert builds == want_builds
        assert gc.isenabled()


def _undeclared_first(section):
    """BASE_DOCUMENT in the writer's layout, the type of the first record of
    ``section`` undeclared."""
    doc = copy.deepcopy(BASE_DOCUMENT)
    doc[section][0]["type"] = "undeclared"
    return _layout(doc)


@pytest.mark.parametrize("text, error", [
    (_undeclared_first("objects").replace('"id": "e1"', '"id" "e1"'), "malformed JSON"),
    (_undeclared_first("events").removesuffix("\n}\n") + ',\n"events": []\n}\n', None),
    (_undeclared_first("events") + "\x0b", "malformed JSON"),
], ids=["later syntax error", "events key repeated", "vertical tab after"])
def test_a_record_defect_waits_for_the_end_of_the_frame(text, error):
    """A record defect of the writer's layout is raised only once the frame
    holds to the end: a later syntax error makes the text malformed JSON,
    and a repeated key replaces the first, as ``json.loads`` keeps the last."""
    assert_reads_as_parsed_whole(text)
    if error is None:
        assert not read_ocel_json(io.StringIO(text)).events
    else:
        with pytest.raises(OcelDocumentError, match=error):
            read_ocel_json(io.StringIO(text))


_NO_EVENTS = _layout({**copy.deepcopy(BASE_DOCUMENT), "eventTypes": [], "events": []})


@pytest.mark.parametrize("old, new", [
    ('"relationships": []}\n],', '"relationships": []}x\n],'),
    ('"relationships": []}\n],', '"relationships": []},\n],'),
    ('"qualifier": "r"}]},\n', '"qualifier": "r"}]} ,\n'),
    ('"eventTypes": [\n],\n', '"eventTypes": [\n]\n'),
    ('"eventTypes": [\n],\n', '"eventTypes": [\n] ,\n'),
    ('"events": [\n]\n}', '"events": [\n],\n}'),
], ids=["junk after a last record", "trailing comma", "space before a comma",
        "empty section without its comma", "space in a closing line", "comma after the last section"])
def test_a_break_of_the_frame_reads_as_parsed_whole(old, new):
    """Each line of the frame is matched whole: a text that breaks it,
    valid JSON or not, is read whole, as ``json.loads`` reads it."""
    assert ocel._read_writer_layout(io.StringIO(_NO_EVENTS)) is not None
    text = _NO_EVENTS.replace(old, new, 1)
    assert text != _NO_EVENTS
    assert ocel._read_writer_layout(io.StringIO(text)) is None
    assert_reads_as_parsed_whole(text)


def test_writer_layout_peaks_below_the_whole_parse(case_study):
    """Read a record at a time, the written fixture peaks below the same
    text parsed whole and then built."""
    _, log, _ = case_study
    text = _text(log)
    source = io.StringIO(text)
    peaks = []
    for read in (lambda: read_ocel_json(source), lambda: ocel_from_dict(json.loads(text))):
        tracemalloc.start()
        try:
            read()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    streamed, whole = peaks
    assert streamed < whole


def test_a_path_read_peaks_under_half_its_file_above_the_log(case_study, tmp_path):
    """Read from a path a line at a time, the text is never held whole: what
    the read holds at its peak, beyond the log it returns, is under half the
    size of the file."""
    _, log, _ = case_study
    path = tmp_path / "log.json"
    write_ocel_json(log, path)
    tracemalloc.start()
    try:
        read = read_ocel_json(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert read.structurally_equal(log)
    assert peak - held < path.stat().st_size / 2


@pytest.mark.parametrize("source", ["path", "handle", "parsed whole"])
def test_a_read_shares_type_strings_and_relation_tuples(source, case_study, tmp_path):
    """Each instance's type is its declared type's own string, and events
    with equal relations hold one tuple, whichever way the text is read."""
    _, log, _ = case_study
    text = _text(log)
    path = tmp_path / "log.json"
    path.write_text(text, encoding="utf-8")
    if source == "path":
        read = read_ocel_json(path)
    elif source == "handle":
        with path.open(encoding="utf-8") as handle:
            read = read_ocel_json(handle)
    else:
        read = read_ocel_json(io.StringIO(json.dumps(json.loads(text))))   # one line: no writer layout
    assert read.structurally_equal(log)
    for instances, types in ((read.events, read._event_types), (read.objects, read._object_types)):
        assert all(inst.type is types[inst.type].name for inst in instances.values())
    for by_key in (read._e2o_by_event, read._o2o_by_source):
        tuples = list(by_key.values())
        assert len({id(rels) for rels in tuples}) == len(set(tuples))
    assert len(set(read._e2o_by_event.values())) < len(read._e2o_by_event)   # some tuple is shared


@pytest.mark.parametrize("late", [False, True], ids=["early", "late"])
def test_text_that_is_not_utf8_gives_the_whole_reads_position(late, case_study, tmp_path):
    """A byte that is not UTF-8, early in the file or past the first blocks
    a line-at-a-time read decodes, is reported with the message and absolute
    position that reading the whole text gives, from a path and a handle."""
    _, log, _ = case_study
    data = bytearray(_text(log).encode("utf-8"))
    data[len(data) - 200 if late else 20] = 0xFF
    path = tmp_path / "log.json"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole:
        path.read_text(encoding="utf-8")
    assert whole.value.start == (len(data) - 200 if late else 20)
    with pytest.raises(OcelDocumentError) as err:
        read_ocel_json(path)
    assert str(err.value) == f"not UTF-8 text: {whole.value}"
    with path.open(encoding="utf-8") as handle, pytest.raises(OcelDocumentError) as err:
        read_ocel_json(handle)
    assert str(err.value) == f"not UTF-8 text: {whole.value}"
