"""Derived logs against the rebuild they replace, and their isolation from the input.

``reference_analysis`` keeps the operations as they were when every derived
log went through ``add_*``/``relate_*`` again. The shared-instance path must
give the same log (down to the OCEL JSON bytes and the iteration order) or
raise the same error.
"""

import io
import random
import tracemalloc
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_analysis as ref
from ocedf import (
    AttributeDef,
    AttributeValue,
    EventInstance,
    EventTypeDef,
    ObjectInstance,
    ObjectTypeDef,
    OcedLog,
    SchemaError,
    drill_down,
    filter_log,
    ocel,
    read_ocel_json,
    roll_up,
    unfold_events,
    write_ocel_json,
)
from randlog import BASE, random_log


def _outcome(op, *args, **kwargs):
    try:
        return op(*args, **kwargs), None
    except Exception as exc:  # the error itself is the outcome compared
        return None, (type(exc), str(exc))


def _json(log) -> str:
    out = io.StringIO()
    write_ocel_json(log, out)
    return out.getvalue()


def assert_same(new_op, ref_op, *args, **kwargs):
    """Run both versions of one operation; return the new result (or None when it raised)."""
    got, got_error = _outcome(new_op, *args, **kwargs)
    want, want_error = _outcome(ref_op, *args, **kwargs)
    assert got_error == want_error
    if want is not None:
        assert got.structurally_equal(want)
        assert _json(got) == _json(want)
        assert list(got.objects) == list(want.objects)
        assert list(got.events) == list(want.events)
        assert got.object_type_defs == want.object_type_defs
        assert got.event_type_defs == want.event_type_defs
    return got


def _type_names(log, which):
    return sorted(td.name for td in getattr(log, which))


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_derived_logs_match_the_rebuild(seed):
    rng = random.Random(seed)
    log = random_log(rng, max_events=120, max_objects=60, with_user_hierarchy=True)
    object_types = _type_names(log, "object_type_defs")
    event_types = _type_names(log, "event_type_defs")
    attrs = ["role", "name", "a0", "a1", "a2"]

    drilled = assert_same(drill_down, ref.drill_down, log, "User")
    assert_same(roll_up, ref.roll_up, drilled, {"Student", "Teacher"}, "User")
    assert_same(drill_down, ref.drill_down, log, rng.choice(object_types), rng.choice(attrs))

    # roll-ups into new and existing types, with clashing kinds or missing attributes
    labels = set(rng.sample(object_types, rng.randint(0, len(object_types))))
    into = rng.choice([*object_types, "Merged"])
    assert_same(roll_up, ref.roll_up, log, labels, into, rng.choice(["role", "a0"]))
    assert_same(roll_up, ref.roll_up, drilled, {"Student"}, rng.choice(["User", "Teacher"]))
    others = [t for t in object_types if t != "User"]
    if len(others) > 1:  # random types share the names a0..a2, each with a random kind
        source, target = rng.sample(others, 2)
        assert_same(roll_up, ref.roll_up, log, {source}, target)

    unfolded = assert_same(unfold_events, ref.unfold_events, log, rng.choice(event_types),
                           rng.choice(object_types), rng.choice(attrs))
    # pairs where no event is ambiguous, so that most unfoldings get as far as relabelling
    unambiguous = [(et, ot) for et in event_types for ot in object_types
                   if all(sum(o.type == ot for o in log.objects_of_event(e.id)) <= 1
                          for e in log.events.values() if e.type == et)]
    if unambiguous:
        et, ot = rng.choice([p for p in unambiguous if p[1] == "User"] or unambiguous)
        unfolded = assert_same(unfold_events, ref.unfold_events, log, et, ot,
                               "role" if ot == "User" else rng.choice(attrs)) or unfolded

    times = sorted(e.time for e in log.events.values()) or [BASE]
    window = rng.choice([None, (rng.choice(times), None), (None, rng.choice(times)),
                         (rng.choice(times), rng.choice(times) + timedelta(days=30))])
    keep_events = rng.choice([None, set(rng.sample(event_types, rng.randint(0, len(event_types))))])
    keep_objects = rng.choice([None, set(rng.sample(object_types, rng.randint(0, len(object_types))))])
    assert_same(filter_log, ref.filter_log, log, keep_events, keep_objects, window)
    if drilled is not None:
        assert_same(filter_log, ref.filter_log, drilled, None, {"Student"}, window)
    if unfolded is not None:
        assert_same(filter_log, ref.filter_log, unfolded, keep_events, None, None)



def _reshaped(rng, shape, defs):
    """``defs`` as they are, in reverse order, or with one attribute's kind changed."""
    if shape == "equal" or not defs:
        return defs
    if shape == "reordered":
        return defs[::-1]
    i = rng.randrange(len(defs))
    return (*defs[:i], AttributeDef(defs[i].name, "integer" if defs[i].kind != "integer" else "string"),
            *defs[i + 1:])


def _declaring(log, object_defs=(), event_defs=(), e2o=None):
    """``log`` rebuilt with more declared types, and with ``e2o`` if given."""
    return ref._rebuild([*log.object_type_defs, *object_defs], [*log.event_type_defs, *event_defs],
                        log.objects.values(), log.events_in_order(),
                        log.e2o if e2o is None else e2o, log.o2o)


def _values_kept(derived, log, instances):
    """Whether each of ``derived``'s instances holds ``log``'s own values tuple."""
    mine, theirs = getattr(derived, instances), getattr(log, instances)
    return all(inst.attribute_values is theirs[key].attribute_values for key, inst in mine.items())


@given(seed=st.integers(min_value=0, max_value=10_000),
       shape=st.sampled_from(["equal", "reordered", "one kind"]))
@settings(max_examples=90, deadline=None)
def test_moves_to_declared_types_match_the_rebuild(seed, shape):
    """Drill-down, roll-up and unfold into declared types whose attribute
    defs equal the old type's, list them in another order, or differ in one
    kind: the same log as the rebuild, or the same error. When the defs are
    equal, a move cannot fail a check, and each moved instance keeps the
    input's own values tuple."""
    rng = random.Random(seed)
    log = random_log(rng, max_events=80, max_objects=40, with_user_hierarchy=True)
    user_defs = next(td for td in log.object_type_defs if td.name == "User").attribute_defs

    # drill-down into a declared Student
    twin = _declaring(log, [ObjectTypeDef("Student", _reshaped(rng, shape, user_defs))])
    drilled = assert_same(drill_down, ref.drill_down, twin, "User")
    if shape == "equal":
        assert drilled is not None and _values_kept(drilled, twin, "objects")

    # roll-up of one role into a declared Pupil
    drilled = drill_down(log, "User")
    role = rng.choice(sorted({td.name for td in drilled.object_type_defs} & {"Student", "Teacher"}))
    role_defs = next(td for td in drilled.object_type_defs if td.name == role).attribute_defs
    twin = _declaring(drilled, [ObjectTypeDef("Pupil", _reshaped(rng, shape, role_defs))])
    rolled = assert_same(roll_up, ref.roll_up, twin, {role}, "Pupil")
    if shape == "equal":
        assert rolled is not None and _values_kept(rolled, twin, "objects")

    # unfold by role into declared "<event type> Student" and "<event type> Teacher",
    # each event related to one User at most, so that no unfolding is ambiguous
    user_of = {}
    for rel in sorted(log.e2o):
        if log.objects[rel.object_id].type == "User":
            user_of.setdefault(rel.event_id, rel.object_id)
    e2o = [rel for rel in log.e2o if user_of.get(rel.event_id, rel.object_id) == rel.object_id
           or log.objects[rel.object_id].type != "User"]
    etype = rng.choice(log.event_type_defs)
    twin = _declaring(log, event_defs=[EventTypeDef(f"{etype.name} {label}",
                                                    _reshaped(rng, shape, etype.attribute_defs))
                                       for label in ("Student", "Teacher")], e2o=e2o)
    unfolded = assert_same(unfold_events, ref.unfold_events, twin, etype.name, "User", "role")
    if shape == "equal":
        assert unfolded is not None and _values_kept(unfolded, twin, "events")


def test_only_a_move_that_could_fail_is_checked(monkeypatch):
    """A move to a type of equal attribute defs skips ``_stored_object`` and
    ``_stored_event``; a move to reordered defs or defs of another kind, or
    one that gains values, goes through them."""
    user = (AttributeDef("role", "string"), AttributeDef("name", "string"))
    log = OcedLog([ObjectTypeDef("User", user), ObjectTypeDef("Guest"), ObjectTypeDef("Pupil", user[::-1]),
                   ObjectTypeDef("Tutor", (user[0], AttributeDef("name", "integer")))],
                  [EventTypeDef("view", (AttributeDef("page", "string"),))])
    log.add_object(ObjectInstance("u1", "User", (AttributeValue("role", BASE, "Student"),
                                                 AttributeValue("name", BASE, "ann"))))
    log.add_object(ObjectInstance("u2", "User", (AttributeValue("role", BASE, "Teacher"),)))
    log.add_object(ObjectInstance("g1", "Guest"))
    log.add_event(EventInstance("e1", "view", BASE, (("page", "p1"),)))
    log.add_event(EventInstance("e2", "view", BASE + timedelta(hours=1)))
    log.relate_event_object("e1", "u1")
    log.relate_event_object("e2", "u2")
    drilled = drill_down(log, "User")

    checked = []
    for name in ("_stored_object", "_stored_event"):
        stored = getattr(ocel, name)
        monkeypatch.setattr(ocel, name, lambda inst, tdef, stored=stored:
                            checked.append(inst.id) or stored(inst, tdef))

    def checks(operation, *args):
        checked.clear()
        _, error = _outcome(operation, *args)
        return sorted(checked), error

    assert checks(drill_down, log, "User") == ([], None)
    assert checks(roll_up, drilled, {"Student", "Teacher"}, "User") == ([], None)
    assert checks(unfold_events, log, "view", "User", "role") == ([], None)
    assert checks(roll_up, drilled, {"Student"}, "Pupil") == (["u1"], None)
    assert checks(roll_up, drilled, {"Student"}, "Tutor") == (["u1"], (SchemaError,
        "object 'u1' attribute 'name': value 'ann' does not match declared kind 'integer'"))
    assert checks(roll_up, log, {"Guest"}, "Member") == (["g1"], None)   # gains its role


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_relabelling_objects_only_shares_every_event(seed):
    """``drill_down`` and ``roll_up`` relabel no event and keep the event
    types, so the derived log holds the input's own event instances, in
    (time, id) order."""
    log = random_log(random.Random(seed), max_events=60, max_objects=30, with_user_hierarchy=True)
    drilled = drill_down(log, "User")
    roles = {td.name for td in drilled.object_type_defs} & {"Student", "Teacher"}
    for derived in (drilled, roll_up(drilled, roles, "User"), roll_up(log, set(), "User")):
        assert list(derived.events) == [e.id for e in log.events_in_order()]
        assert all(derived.events[eid] is event for eid, event in log.events.items())


def _snapshot(log):
    e2o = log.e2o
    return (dict(log.objects), dict(log.events), e2o, log.o2o,
            {oid: log.events_of_object(oid) for oid in log.objects},
            {eid: sorted(r for r in e2o if r.event_id == eid) for eid in log.events},
            {eid: log.objects_of_event(eid) for eid in log.events})


_MUTATORS = ("add_object", "add_event", "relate_event_object", "relate_objects")


def _build_onto(log, first):
    """Change ``log`` through all four mutators, the one named ``first``
    first, then relate a new object and event to the rest: what a caller
    may do to any log, derived or not."""
    some_object, some_event = next(iter(log.objects)), next(iter(log.events))
    steps = {
        "add_object": lambda: log.add_object(
            ObjectInstance("isolation-probe", log.object_type_defs[0].name, ())),
        "add_event": lambda: log.add_event(
            EventInstance("isolation-probe", log.event_type_defs[0].name, BASE)),
        "relate_event_object": lambda: log.relate_event_object(some_event, some_object, "isolation-probe"),
        "relate_objects": lambda: log.relate_objects(some_object, some_object, "isolation-probe"),
    }
    steps.pop(first)()
    for step in steps.values():
        step()
    for oid in log.objects:
        log.relate_event_object("isolation-probe", oid, "probe")
        log.relate_objects("isolation-probe", oid, "probe")
        for eid in log.events:
            if not log.has_e2o(eid, oid, "probe"):
                log.relate_event_object(eid, oid, "probe")


def _drop_the_first_event_type(log):
    """A filter by event type that drops events and keeps every object."""
    return filter_log(log, keep_event_types={td.name for td in log.event_type_defs[1:]})


_OPERATIONS = pytest.mark.parametrize("operation", [
    lambda log: drill_down(log, "User"),
    lambda log: roll_up(drill_down(log, "User"), {"Student", "Teacher"}, "User"),
    lambda log: unfold_events(log, "ET0", "User", "role"),
    lambda log: filter_log(log),
    lambda log: filter_log(log, keep_object_types={"User"}),
    _drop_the_first_event_type,   # shares the O2O dict
], ids=["drill_down", "roll_up", "unfold_events", "filter_log", "filter_log_subset",
        "filter_log_event_types"])


def _derive(operation):
    """A random log, read back from its OCEL JSON so that its events are in
    (time, id) order and derived logs share the most, and ``operation``'s
    derived log of it, which holds events and objects."""
    for seed in range(40):
        log = read_ocel_json(io.StringIO(_json(random_log(
            random.Random(seed), max_events=80, max_objects=40, with_user_hierarchy=True))))
        derived, error = _outcome(operation, log)
        if error is None and derived.events and derived.objects:
            return log, derived
    pytest.fail("no seed gave a derived log with events and objects")


@_OPERATIONS
def test_building_onto_a_derived_log_leaves_its_input_alone(operation):
    for first in _MUTATORS:
        log, derived = _derive(operation)
        before = _snapshot(log)
        _build_onto(derived, first)
        assert _snapshot(log) == before, first
        assert "isolation-probe" not in log.events and "isolation-probe" not in log.objects


@_OPERATIONS
def test_building_onto_the_input_leaves_its_derived_log_alone(operation):
    """A derived log may hold its input's own dicts; a change to the input
    after deriving must not show in it either."""
    for first in _MUTATORS:
        log, derived = _derive(operation)
        before = _snapshot(derived)
        _build_onto(log, first)
        assert _snapshot(derived) == before, first
        assert "isolation-probe" not in derived.events and "isolation-probe" not in derived.objects


def test_filtering_events_only_keeps_the_inputs_relations():
    """A filter that drops events and keeps every object holds its input's
    O2O dict and each kept event's very E2O tuple, until either log changes."""
    log, derived = _derive(_drop_the_first_event_type)
    assert len(derived.events) < len(log.events) and derived.objects.keys() == log.objects.keys()
    assert derived._o2o_by_source is log._o2o_by_source
    assert derived._e2o_by_event.keys() == {eid for eid in derived.events if log._e2o_by_event.get(eid)}
    assert all(rels is log._e2o_by_event[eid] for eid, rels in derived._e2o_by_event.items())


def test_relabelling_objects_only_shares_the_read_logs_dicts():
    """A read log's events are in (time, id) order, so ``drill_down`` and
    ``roll_up``, which relabel no event and drop no id, hold its very event
    and E2O dicts until either log changes."""
    log = random_log(random.Random(7), max_events=80, max_objects=40, with_user_hierarchy=True)
    read = read_ocel_json(io.StringIO(_json(log)))
    drilled = drill_down(read, "User")
    roles = {td.name for td in drilled.object_type_defs} & {"Student", "Teacher"}
    for derived in (drilled, roll_up(drilled, roles, "User")):
        assert derived._events is read._events
        assert derived._e2o_by_event is read._e2o_by_event


def test_drill_down_and_roll_up_keep_little_beyond_the_read_log(case_study, tmp_path):
    """Deriving copies no dict it leaves unchanged: a drill-down and the
    roll-up back of the read case study keep under a tenth of what the read
    log holds."""
    path = tmp_path / "log.json"
    write_ocel_json(case_study[1], path)
    tracemalloc.start()
    try:
        read = read_ocel_json(path)
        log_size = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        drilled = drill_down(read, "User")
        rolled = roll_up(drilled, {"Student", "Teacher"}, "User")
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert rolled.structurally_equal(read)
    assert kept < log_size / 10


def test_relabelled_instances_hold_their_types_own_string(case_study):
    """Like the reader, ``drill_down``, ``roll_up`` and ``unfold_events``
    give each instance they relabel its type definition's own name string,
    so a label is one string however many instances hold it."""
    log = read_ocel_json(io.StringIO(_json(case_study[1])))
    drilled = drill_down(log, "User")
    for derived in (drilled, roll_up(drilled, {"Student", "Teacher"}, "User"),
                    unfold_events(log, "view page", "Page", "code")):
        for instances, types in ((derived.events, derived._event_types),
                                 (derived.objects, derived._object_types)):
            assert all(inst.type is types[inst.type].name for inst in instances.values())


def test_relabelling_keeps_conforming_values_as_they_are():
    """drill_down and roll_up check the objects they move as add_object does.
    A value whose declared kind did not change comes out as the same object,
    timestamps included, and so does every instance they do not move; a
    value whose kind changed is conformed to it."""
    user_attrs = (AttributeDef("role", "string"), AttributeDef("since", "timestamp"),
                  AttributeDef("score", "float"))
    log = OcedLog([ObjectTypeDef("User", user_attrs),
                   ObjectTypeDef("Course", (AttributeDef("opened", "timestamp"),)),
                   ObjectTypeDef("Guest", (AttributeDef("score", "integer"),)),
                   ObjectTypeDef("Member", (AttributeDef("score", "float"), AttributeDef("role", "string")))],
                  [EventTypeDef("view", (AttributeDef("at", "timestamp"),))])
    plus_two = timezone(timedelta(hours=2))
    log.add_object(ObjectInstance("u1", "User", (
        AttributeValue("role", BASE, "Student"), AttributeValue("since", BASE, BASE + timedelta(days=1)),
        AttributeValue("score", BASE, 1.5))))
    log.add_object(ObjectInstance("u2", "User", (
        AttributeValue("role", BASE, "Teacher"),
        AttributeValue("since", BASE, datetime(2024, 3, 1, 12, 0, 0, 250999, tzinfo=plus_two)))))
    log.add_object(ObjectInstance("c1", "Course", (AttributeValue("opened", BASE, BASE),)))
    log.add_object(ObjectInstance("g1", "Guest", (AttributeValue("score", BASE, 3),)))
    log.add_event(EventInstance("e1", "view", BASE, (("at", BASE + timedelta(hours=1)),)))
    log.relate_event_object("e1", "u1", "viewer")

    drilled = drill_down(log, "User")
    rolled = roll_up(drilled, {"Student", "Teacher"}, "User")
    assert rolled.structurally_equal(log)
    for derived, moved in ((drilled, {"u1": "Student", "u2": "Teacher"}),
                           (rolled, {"u1": "User", "u2": "User"})):
        assert derived.events["e1"] is log.events["e1"]
        for oid, obj in derived.objects.items():
            if oid not in moved:
                assert obj is log.objects[oid]
                continue
            assert obj.type == moved[oid]
            assert len(obj.attribute_values) == len(log.objects[oid].attribute_values)
            for got, stored in zip(obj.attribute_values, log.objects[oid].attribute_values):
                assert got is stored

    merged = roll_up(log, {"Guest"}, "Member")
    score, role = merged.objects["g1"].attribute_values
    assert score.value == 3.0 and isinstance(score.value, float)
    assert score.time is log.objects["g1"].attribute_values[0].time
    assert (role.name, role.value) == ("role", "Guest")


def test_relabel_walks_the_events_once_to_find_them_in_order():
    """Whether a log's events dict is its (time, id) order is found out once,
    with the order; drill-down and roll-up then read that answer."""
    walks = []

    class Walked(dict):
        def values(self):
            walks.append(1)
            return super().values()

    log = random_log(random.Random(7), max_events=80, max_objects=40, with_user_hierarchy=True)
    read = read_ocel_json(io.StringIO(_json(log)))
    read._events = Walked(read._events)
    drilled = drill_down(read, "User")
    roles = {td.name for td in drilled.object_type_defs} & {"Student", "Teacher"}
    rolled = roll_up(drilled, roles, "User")
    assert rolled._events is read._events and len(walks) == 1
