"""The log's cached indexes and relation tuples against a brute force over
``events``, ``e2o`` and ``o2o``.

``OcedLog`` builds its event order and object traces on the first query and
drops them when a change makes them stale; derived logs reuse their input's
indexes. It stores each relation once, in its event's or source object's
tuple, kept sorted as each relation is added. Every answer of
``events_in_order``, ``events_of_object`` and ``objects_of_event``, each
relation tuple, ``has_e2o``/``has_o2o`` and the duplicate check must agree
with a scan of the log's events and relations, while the log grows between
queries and after a derived log that shares the input's tuples grows. Every
event ``events_in_order`` and ``events_of_object`` return must be the very
instance the log stores under its id, and a derived log's events dict is in
its event order.
"""

import io
import random
from datetime import timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ocedf import (
    AttributeValue,
    EventInstance,
    EventTypeDef,
    ObjectInstance,
    OcedLog,
    SchemaError,
    SourceTable,
    drill_down,
    extract,
    filter_log,
    parse_spec,
    read_ocel_json,
    roll_up,
    unfold_events,
    write_ocel_json,
)
from ocedf.ocel import _in_event_order, relabel
from randlog import BASE, QUALIFIERS, random_log


def _brute_force(log):
    """(order, traces, objects per event) of ``log``, from its events and e2o."""
    order = sorted(log.events.values(), key=lambda e: (e.time, e.id))
    related = {(r.event_id, r.object_id) for r in log.e2o}
    traces = {oid: [e for e in order if (e.id, oid) in related] for oid in log.objects}
    objects = {eid: [o for _, o in sorted(log.objects.items()) if (eid, o.id) in related]
               for eid in log.events}
    return order, traces, objects


def _answers(log):
    return (log.events_in_order(),
            {oid: log.events_of_object(oid) for oid in log.objects},
            {eid: log.objects_of_event(eid) for eid in log.events})


def _assert_relations_right(log):
    """Each relation sits once in its key's tuple as an (other id, qualifier)
    pair of the stored instances' ids, sorted; ``has_*`` and re-adding a
    stored relation agree with a scan."""
    for kind, rels, by_key, keys, has, relate in (
            ("e2o", log.e2o, log._e2o_by_event, log.events, log.has_e2o, log.relate_event_object),
            ("o2o", log.o2o, log._o2o_by_source, log.objects, log.has_o2o, log.relate_objects)):
        grouped = {}
        for key, other, qualifier in rels:
            grouped.setdefault(key, []).append((other, qualifier))
        assert by_key == {key: tuple(sorted(group)) for key, group in grouped.items()}, kind
        for key, pairs in by_key.items():
            assert key is keys[key].id, kind
            assert all(other is log.objects[other].id for other, _ in pairs), kind
        probes = {(key, oid, q) for key, oid, _ in rels for q in QUALIFIERS}
        probes |= {(key, oid, "") for key in keys for oid in sorted(log.objects)[:2]}
        for probe in probes:
            assert has(*probe) == (probe in rels), (kind, probe)
        for rel in rels:
            before = by_key[rel[0]]
            with pytest.raises(SchemaError, match=f"duplicate {kind} relation"):
                relate(*rel)
            assert by_key[rel[0]] is before


def _assert_indexes_right(log):
    answers = _answers(log)
    assert answers == _brute_force(log)
    # no trace holds an instance its log does not store
    in_order, traces, _ = answers
    assert all(e is log.events[e.id] for events in (in_order, *traces.values()) for e in events)
    _assert_relations_right(log)


def _grow(log, rng, step):
    """One change to ``log``: an event (sometimes before every stored one),
    an object, or an e2o or o2o relation."""
    kind = rng.choice(["event", "object", "relate", "relate", "relate_objects"])
    if kind == "event":
        times = [e.time for e in log.events.values()]
        early = not times or rng.random() < 0.5
        when = (min(times, default=BASE) - timedelta(seconds=rng.randint(1, 99)) if early
                else rng.choice(times))
        log.add_event(EventInstance(f"grown-e{step}", rng.choice(log.event_type_defs).name, when))
    elif kind == "object":
        tdef = rng.choice(log.object_type_defs)
        values = (AttributeValue("role", BASE, rng.choice(["Student", "Teacher"])),) \
            if tdef.name == "User" else ()
        log.add_object(ObjectInstance(f"grown-o{step}", tdef.name, values))
    elif kind == "relate_objects":
        src, tgt = rng.choice(sorted(log.objects)), rng.choice(sorted(log.objects))
        qualifier = rng.choice(QUALIFIERS)
        if (src != tgt or qualifier) and not log.has_o2o(src, tgt, qualifier):
            log.relate_objects(src, tgt, qualifier)
    elif log.events and log.objects:
        eid, oid = rng.choice(sorted(log.events)), rng.choice(sorted(log.objects))
        qualifier = rng.choice(QUALIFIERS)
        if not log.has_e2o(eid, oid, qualifier):
            log.relate_event_object(eid, oid, qualifier)


@given(seed=st.integers(0, 10_000), steps=st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_indexes_follow_every_change(seed, steps):
    rng = random.Random(seed)
    log = random_log(rng, max_events=40, max_objects=15, with_user_hierarchy=True)
    _assert_indexes_right(log)
    for step in range(steps):
        _grow(log, rng, step)
        _assert_indexes_right(log)


def _derived_logs(log, rng):
    """Drill-down, roll-up, unfold and a subset filter of ``log``, by name."""
    drilled = drill_down(log, "User")
    labels = {"Student", "Teacher"} & {td.name for td in drilled.object_type_defs}
    out = {"drill_down": drilled, "roll_up": roll_up(drilled, labels, "User")}
    try:
        out["unfold_events"] = unfold_events(log, rng.choice(log.event_type_defs).name, "User", "role")
    except SchemaError:   # an event related to two users cannot be unfolded
        pass
    object_types = [td.name for td in log.object_type_defs]
    event_types = [td.name for td in log.event_type_defs]
    times = sorted(e.time for e in log.events.values()) or [BASE]
    out["filter_log"] = filter_log(
        log, keep_event_types=set(rng.sample(event_types, rng.randint(1, len(event_types)))),
        keep_object_types=set(rng.sample(object_types, rng.randint(1, len(object_types)))),
        time_window=(rng.choice(times), None))
    return out


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_derived_logs_share_indexes_without_sharing_changes(seed):
    rng = random.Random(seed)
    log = random_log(rng, max_events=40, max_objects=15, with_user_hierarchy=True)
    before = _answers(log), log.e2o, log.o2o   # fills the caches derived logs may take over
    for name, derived in _derived_logs(log, rng).items():
        _assert_indexes_right(derived)
        # an event before every other, related to an object, plus one more
        # relation on an event and one on an object the derived log shares
        # with its input
        times = [e.time for e in derived.events.values()]
        derived.add_event(EventInstance("probe", derived.event_type_defs[0].name,
                                        min(times, default=BASE) - timedelta(seconds=1)))
        _assert_indexes_right(derived)
        if derived.objects:
            oid = rng.choice(sorted(derived.objects))
            derived.relate_event_object("probe", oid, "probe")
            shared = rng.choice(sorted(derived.events))
            if not derived.has_e2o(shared, oid, "probe"):
                derived.relate_event_object(shared, oid, "probe")
            source = rng.choice(sorted(derived.objects))
            if not derived.has_o2o(source, oid, "probe"):
                derived.relate_objects(source, oid, "probe")
        _assert_indexes_right(derived)
        assert (_answers(log), log.e2o, log.o2o) == before, name
    _assert_indexes_right(log)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_derived_logs_hold_their_events_in_their_order(seed):
    """A derived log of a log whose events were added out of (time, id)
    order, with its order cached, holds its events dict in that order, and
    its order is that dict's own instances."""
    rng = random.Random(seed)
    log = random_log(rng, max_events=40, max_objects=15, with_user_hierarchy=True)
    etype = log.event_type_defs[0].name
    log.add_event(EventInstance("late", etype, BASE + timedelta(days=400)))
    log.add_event(EventInstance("early", etype, BASE - timedelta(seconds=1)))
    assert log.events_in_order() != list(log.events.values())
    for name, derived in {**_derived_logs(log, rng), "relabel": relabel(log)}.items():
        in_order = derived.events_in_order()
        assert in_order == list(derived.events.values()), name
        assert all(e is derived.events[e.id] for e in in_order), name


def test_events_in_order_returns_a_fresh_list():
    log = random_log(random.Random(1), max_events=20, max_objects=5)
    returned = log.events_in_order()
    kept = list(returned)
    returned.clear()
    assert kept and log.events_in_order() == kept


# -- the event order against a sort by (time, id) -----------------------------


def _assert_in_time_then_id_order(log):
    in_order = log.events_in_order()
    assert in_order == sorted(log.events.values(), key=lambda e: (e.time, e.id))
    assert all(e is log.events[e.id] for e in in_order)


@given(events=st.lists(st.tuples(st.text("e19 :", min_size=1, max_size=4), st.integers(0, 3)),
                       max_size=40, unique_by=lambda drawn: drawn[0]))
@example(events=[("a", 0), ("b", 0), ("c", 1)])   # stored in order already
@example(events=[("a", 0), ("c", 1), ("b", 1)])   # in time order, but a tie out of id order
@example(events=[("a", 1), ("b", 0)])
@settings(max_examples=200, deadline=None)
def test_events_in_order_sorts_by_time_then_id(events):
    """Few distinct times, so most events tie on time and the id decides;
    ids whose string order differs from their insertion order, and events
    stored in (time, id) order already, which need no sort."""
    log = OcedLog((), [EventTypeDef("a")])
    for eid, minute in events:
        log.add_event(EventInstance(eid, "a", BASE + timedelta(minutes=minute)))
    _assert_in_time_then_id_order(log)


def test_an_extracted_log_sorts_rows_out_of_time_order():
    """Rows out of time order with repeated times, and synthesized ids
    (``rows:10`` before ``rows:9``) whose string order is not row order."""
    times = ["2024-09-02 10:00:00", "2024-09-01 09:00:00", "2024-09-02 10:00:00",
             "2024-09-01 08:00:00", "2024-09-02 10:00:00", "2024-09-01 09:00:00"] * 2
    spec = parse_spec({
        "schema": {"object_types": ["User"]},
        "extraction_matrix": {"columns": ["User"], "rows": {"view page": {"User": "1"}}},
        "mappings": [{"kind": "event", "source_table": "rows", "activity": "view page",
                      "time_column": "ts", "time_format": "%Y-%m-%d %H:%M:%S"}],
    })
    log, _ = extract(spec, {"rows": SourceTable.from_rows("rows", ["ts"], [[t] for t in times])})
    assert [e.id for e in log.events.values()] == [f"rows:{i}" for i in range(len(times))]
    _assert_in_time_then_id_order(log)
    assert [e.id for e in log.events_in_order()][:4] == ["rows:3", "rows:9", "rows:1", "rows:11"]


@pytest.mark.parametrize("first, second", [(0, 1), (0, 2), (1, 3)],
                         ids=["tied times", "later time first", "ids and times"])
def test_a_read_log_sorts_event_lines_out_of_order(first, second):
    """Text in the writer's layout with two event lines swapped reads to
    events stored out of (time, id) order, which ``events_in_order`` sorts."""
    log = OcedLog((), [EventTypeDef("a")])
    for eid, minute in (("a", 0), ("b", 0), ("c", 1), ("d", 2), ("e", 3)):
        log.add_event(EventInstance(eid, "a", BASE + timedelta(minutes=minute)))
    out = io.StringIO()
    write_ocel_json(log, out)
    lines = out.getvalue().split("\n")
    at = lines.index('"events": [') + 1   # no line is the last event's, which has no comma
    lines[at + first], lines[at + second] = lines[at + second], lines[at + first]
    read = read_ocel_json(io.StringIO("\n".join(lines)))
    assert not _in_event_order(list(read.events.values()))
    assert read.structurally_equal(log)
    _assert_in_time_then_id_order(read)
    assert [e.id for e in read.events_in_order()] == ["a", "b", "c", "d", "e"]
