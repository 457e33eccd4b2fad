"""Derived logs against the rebuild they replace, and their isolation from the input.

``reference_analysis`` keeps the operations as they were when every derived
log went through ``add_*``/``relate_*`` again. The shared-instance path must
give the same log (down to the OCEL JSON bytes and the iteration order) or
raise the same error.
"""

import io
import random
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_analysis as ref
from ocedf import EventInstance, drill_down, filter_log, roll_up, unfold_events, write_ocel_json
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


def _snapshot(log):
    return (dict(log.events), log.e2o,
            {oid: log.events_of_object(oid) for oid in log.objects},
            {eid: log.relations_of_event(eid) for eid in log.events})


@pytest.mark.parametrize("operation", [
    lambda log: drill_down(log, "User"),
    lambda log: roll_up(drill_down(log, "User"), {"Student", "Teacher"}, "User"),
    lambda log: unfold_events(log, "ET0", "User", "role"),
    lambda log: filter_log(log),
    lambda log: filter_log(log, keep_object_types={"User"}),
], ids=["drill_down", "roll_up", "unfold_events", "filter_log", "filter_log_subset"])
def test_building_onto_a_derived_log_leaves_its_input_alone(operation):
    for seed in range(40):
        log = random_log(random.Random(seed), max_events=80, max_objects=40,
                         with_user_hierarchy=True)
        derived, error = _outcome(operation, log)
        if error is None and derived.events and derived.objects:
            break
    else:
        pytest.fail("no seed gave a derived log with events and objects")

    before = _snapshot(log)
    event_type = derived.event_type_defs[0].name
    derived.add_event(EventInstance("isolation-probe", event_type, BASE))
    for oid in derived.objects:
        derived.relate_event_object("isolation-probe", oid, "probe")
        for eid in derived.events:
            if not derived.has_e2o(eid, oid, "probe"):
                derived.relate_event_object(eid, oid, "probe")
    assert _snapshot(log) == before
    assert "isolation-probe" not in log.events
