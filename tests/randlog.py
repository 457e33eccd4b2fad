"""Seeded random log corpus used by property suites and acceptance tests."""

import random
from datetime import datetime, timedelta, timezone

from ocedf import (
    AttributeDef,
    AttributeValue,
    EventInstance,
    EventTypeDef,
    ObjectInstance,
    ObjectTypeDef,
    OcedLog,
)

WORDS = ["alpha", "beta", "gamma", "delta", "omega", "kappa", "sigma", "tau"]
QUALIFIERS = ["", "actor", "target", "part", "owner"]
BASE = datetime(2024, 1, 1, tzinfo=timezone.utc)


def _random_time(rng: random.Random) -> datetime:
    return BASE + timedelta(milliseconds=rng.randint(0, 365 * 24 * 3600 * 1000))


def _random_value(rng: random.Random, kind: str):
    if kind == "string":
        return rng.choice(WORDS) + str(rng.randint(0, 99))
    if kind == "integer":
        return rng.randint(-10_000, 10_000)
    if kind == "float":
        return round(rng.uniform(-1e4, 1e4), 6)
    if kind == "boolean":
        return rng.random() < 0.5
    return _random_time(rng)


def _random_defs(rng: random.Random, prefix: str, count: int, cls):
    kinds = ["string", "integer", "float", "boolean", "timestamp"]
    defs = []
    for i in range(count):
        attrs = tuple(AttributeDef(f"a{j}", rng.choice(kinds)) for j in range(rng.randint(0, 3)))
        defs.append(cls(f"{prefix}{i}", attrs))
    return defs


def random_log(rng: random.Random, max_events: int = 500, max_objects: int = 300,
               with_user_hierarchy: bool = False) -> OcedLog:
    """A structurally valid random log.

    With ``with_user_hierarchy`` every log declares a ``User`` type whose
    ``role`` attribute is set on all instances (full discriminators), as
    drill-down/roll-up round trips require.
    """
    object_defs = _random_defs(rng, "OT", rng.randint(1, 4), ObjectTypeDef)
    event_defs = _random_defs(rng, "ET", rng.randint(1, 3), EventTypeDef)
    if with_user_hierarchy:
        user_attrs = (AttributeDef("role", "string"), AttributeDef("name", "string"))
        object_defs.append(ObjectTypeDef("User", user_attrs))

    log = OcedLog(object_defs, event_defs)

    n_objects = rng.randint(1, max_objects)
    for i in range(n_objects):
        if with_user_hierarchy and (i == 0 or rng.random() < 0.5):
            values = [AttributeValue("role", _random_time(rng), rng.choice(["Teacher", "Student"]))]
            if rng.random() < 0.5:
                values.append(AttributeValue("name", _random_time(rng), rng.choice(WORDS)))
            log.add_object(ObjectInstance(f"o{i}", "User", tuple(values)))
            continue
        tdef = rng.choice(object_defs[: len(object_defs) - 1] if with_user_hierarchy else object_defs)
        values = []
        for ad in tdef.attribute_defs:
            times = set()
            for _ in range(rng.randint(0, 2)):
                t = _random_time(rng)
                if t in times:
                    continue
                times.add(t)
                values.append(AttributeValue(ad.name, t, _random_value(rng, ad.kind)))
        log.add_object(ObjectInstance(f"o{i}", tdef.name, tuple(values)))

    n_events = rng.randint(0, max_events)
    for i in range(n_events):
        tdef = rng.choice(event_defs)
        attrs = [(ad.name, _random_value(rng, ad.kind))
                 for ad in tdef.attribute_defs if rng.random() < 0.6]
        log.add_event(EventInstance(f"e{i}", tdef.name, _random_time(rng), tuple(attrs)))

    object_ids = list(log.objects)
    for eid in list(log.events):
        for oid in rng.sample(object_ids, k=min(rng.randint(0, 4), len(object_ids))):
            qualifier = rng.choice(QUALIFIERS)
            if not log.has_e2o(eid, oid, qualifier):
                log.relate_event_object(eid, oid, qualifier)

    for _ in range(rng.randint(0, n_objects)):
        src, tgt = rng.choice(object_ids), rng.choice(object_ids)
        qualifier = rng.choice(QUALIFIERS)
        if src == tgt and not qualifier:
            continue
        if not log.has_o2o(src, tgt, qualifier):
            log.relate_objects(src, tgt, qualifier)

    return log


def clone_log(log: OcedLog, drop_e2o=None, add_e2o=None) -> OcedLog:
    """A copy of ``log`` built through ``add_*``/``relate_*``, without the
    ``drop_e2o`` relation triple and with the ``add_e2o`` one."""
    out = OcedLog(log.object_type_defs, log.event_type_defs)
    for obj in log.objects.values():
        out.add_object(obj)
    for event in log.events_in_order():
        out.add_event(event)
    for rel in log.e2o:
        triple = (rel.event_id, rel.object_id, rel.qualifier)
        if drop_e2o and triple == drop_e2o:
            continue
        out.relate_event_object(*triple)
    for rel in log.o2o:
        out.relate_objects(rel.source_object_id, rel.target_object_id, rel.qualifier)
    if add_e2o:
        out.relate_event_object(*add_e2o)
    return out
