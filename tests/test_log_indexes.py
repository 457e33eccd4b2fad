"""The log's cached indexes against a brute force over ``events`` and ``e2o``.

``OcedLog`` builds its event order and object traces on the first query and
drops them when a change makes them stale; derived logs reuse their input's
indexes. Every answer of ``events_in_order``, ``events_of_object`` and
``objects_of_event`` must equal what a scan of the log's events and
relations gives, while the log grows between queries and after a derived log
that shares the input's indexes grows.
"""

import random
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from ocedf import (
    AttributeValue,
    EventInstance,
    ObjectInstance,
    SchemaError,
    drill_down,
    filter_log,
    roll_up,
    unfold_events,
)
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


def _assert_indexes_right(log):
    assert _answers(log) == _brute_force(log)


def _grow(log, rng, step):
    """One change to ``log``: an event (sometimes before every stored one),
    an object, or an e2o relation."""
    kind = rng.choice(["event", "object", "relate", "relate"])
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
    before = _answers(log)   # fills the input's caches, which derived logs may take over
    for name, derived in _derived_logs(log, rng).items():
        _assert_indexes_right(derived)
        # an event before every other, related to an object, plus one more
        # relation on an event the derived log shares with its input
        times = [e.time for e in derived.events.values()]
        derived.add_event(EventInstance("probe", derived.event_type_defs[0].name,
                                        min(times, default=BASE) - timedelta(seconds=1)))
        if derived.objects:
            oid = rng.choice(sorted(derived.objects))
            derived.relate_event_object("probe", oid, "probe")
            shared = rng.choice(sorted(derived.events))
            if not derived.has_e2o(shared, oid, "probe"):
                derived.relate_event_object(shared, oid, "probe")
        _assert_indexes_right(derived)
        assert _answers(log) == before, name
    _assert_indexes_right(log)
