"""The log rebuild that drill-down, roll-up, unfold and filter used before
derived logs shared their input's instances: every object, event and
relation goes through ``add_*``/``relate_*`` again. Also ``flatten`` as it
was before it handed over the stored traces: one ``FlatRow`` per trace entry.

Kept as the reference for the differential tests in ``test_derived_logs.py``
and ``test_analysis.py``.
"""

from __future__ import annotations

from datetime import datetime, timezone
from typing import Iterable

from ocedf import (AttributeDef, AttributeValue, EventTypeDef, FlatRow, ObjectTypeDef, OcedLog,
                   SchemaError)

_ROLLUP_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _rebuild(object_type_defs: Iterable[ObjectTypeDef],
             event_type_defs: Iterable[EventTypeDef],
             objects,
             events,
             e2o,
             o2o) -> OcedLog:
    out = OcedLog(object_type_defs, event_type_defs)
    for obj in objects:
        out.add_object(obj)
    for event in events:
        out.add_event(event)
    for rel in e2o:
        out.relate_event_object(rel.event_id, rel.object_id, rel.qualifier)
    for rel in o2o:
        out.relate_objects(rel.source_object_id, rel.target_object_id, rel.qualifier)
    return out


def _check_declared(names: Iterable[str], declared: set[str], what: str) -> None:
    for name in names:
        if name not in declared:
            raise SchemaError(f"unknown {what} {name!r}")


def flatten(log: OcedLog, object_type: str) -> tuple[FlatRow, ...]:
    """The rows of one case per object of the type, by (case, time, event id)."""
    _check_declared([object_type], {td.name for td in log.object_type_defs}, "object type")
    cases = sorted(oid for oid, obj in log.objects.items() if obj.type == object_type)
    return tuple(FlatRow(oid, event.type, event.time, event.id)
                 for oid in cases for event in log.events_of_object(oid))


def filter_log(log: OcedLog,
               keep_event_types: set[str] | None = None,
               keep_object_types: set[str] | None = None,
               time_window: tuple[datetime | None, datetime | None] | None = None) -> OcedLog:
    """Project the log onto selected event/object types and a time window.

    ``None`` keeps everything for that dimension; the window bounds are
    inclusive and either end may be None. Relations are pruned to
    surviving endpoints. Keeping everything returns a structural copy.
    """
    if keep_event_types is not None:
        _check_declared(keep_event_types, {td.name for td in log.event_type_defs}, "event type")
    if keep_object_types is not None:
        _check_declared(keep_object_types, {td.name for td in log.object_type_defs}, "object type")

    lo, hi = time_window if time_window else (None, None)

    def keep_event(e) -> bool:
        if keep_event_types is not None and e.type not in keep_event_types:
            return False
        if lo is not None and e.time < lo:
            return False
        if hi is not None and e.time > hi:
            return False
        return True

    objects = [o for o in log.objects.values()
               if keep_object_types is None or o.type in keep_object_types]
    events = [e for e in log.events_in_order() if keep_event(e)]
    object_ids = {o.id for o in objects}
    event_ids = {e.id for e in events}
    e2o = [r for r in log.e2o if r.event_id in event_ids and r.object_id in object_ids]
    o2o = [r for r in log.o2o
           if r.source_object_id in object_ids and r.target_object_id in object_ids]
    return _rebuild(log.object_type_defs, log.event_type_defs, objects, events, e2o, o2o)


def drill_down(log: OcedLog, supertype: str, discriminator_attr: str = "role") -> OcedLog:
    """Split a supertype into per-discriminator object types.

    Each object of ``supertype`` is relabeled to its latest discriminator
    value; objects carrying no value become ``<supertype>:unknown``. The
    discriminator must be a declared string attribute of the supertype.
    """
    defs = {td.name: td for td in log.object_type_defs}
    if supertype not in defs:
        raise SchemaError(f"unknown object type {supertype!r}")
    sdef = defs[supertype]
    disc = next((ad for ad in sdef.attribute_defs if ad.name == discriminator_attr), None)
    if disc is None or disc.kind != "string":
        raise SchemaError(
            f"type {supertype!r} has no string discriminator attribute {discriminator_attr!r}")

    relabeled = []
    new_labels = []
    for obj in log.objects.values():
        if obj.type != supertype:
            relabeled.append(obj)
            continue
        value = obj.latest_value(discriminator_attr)
        label = value if isinstance(value, str) and value else f"{supertype}:unknown"
        if label not in new_labels:
            new_labels.append(label)
        relabeled.append(obj._replace(type=label))

    out_defs = [td for td in log.object_type_defs if td.name != supertype]
    existing = {td.name: td for td in out_defs}
    for label in sorted(new_labels):
        if label in existing:
            if existing[label].attribute_defs != sdef.attribute_defs:
                raise SchemaError(
                    f"drill-down label {label!r} collides with a differently-shaped type")
            continue
        out_defs.append(ObjectTypeDef(label, sdef.attribute_defs))

    return _rebuild(out_defs, log.event_type_defs, relabeled,
                    log.events_in_order(), log.e2o, log.o2o)


def roll_up(log: OcedLog, subtype_labels: set[str], into: str,
            discriminator_attr: str = "role") -> OcedLog:
    """Merge object types under one supertype, preserving labels in the
    discriminator attribute. Inverse of drill_down when every instance
    carries a discriminator value."""
    if not subtype_labels:
        return filter_log(log)  # structural copy

    defs = {td.name: td for td in log.object_type_defs}
    for label in sorted(subtype_labels):
        if label not in defs:
            raise SchemaError(f"unknown object type label {label!r}")

    # target def: reuse the declared one or merge the subtype defs
    if into in defs:
        target_attrs = list(defs[into].attribute_defs)
    else:
        target_attrs = []
        for label in sorted(subtype_labels):
            for ad in defs[label].attribute_defs:
                if ad not in target_attrs:
                    target_attrs.append(ad)
    if discriminator_attr not in {ad.name for ad in target_attrs}:
        target_attrs.append(AttributeDef(discriminator_attr, "string"))

    relabeled = []
    for obj in log.objects.values():
        if obj.type not in subtype_labels:
            relabeled.append(obj)
            continue
        current = obj.latest_value(discriminator_attr)
        if current is None:
            values = (*obj.attribute_values,
                      AttributeValue(discriminator_attr, _ROLLUP_EPOCH, obj.type))
            relabeled.append(obj._replace(type=into, attribute_values=values))
        elif current != obj.type:
            raise SchemaError(
                f"object {obj.id!r}: discriminator says {current!r} but type label is {obj.type!r}")
        else:
            relabeled.append(obj._replace(type=into))

    out_defs = []
    inserted = False
    for td in log.object_type_defs:
        if td.name in subtype_labels:
            if not inserted:
                out_defs.append(ObjectTypeDef(into, tuple(target_attrs)))
                inserted = True
            continue
        if td.name == into:
            if not inserted:
                out_defs.append(ObjectTypeDef(into, tuple(target_attrs)))
                inserted = True
            continue
        out_defs.append(td)
    if not inserted:
        out_defs.append(ObjectTypeDef(into, tuple(target_attrs)))

    return _rebuild(out_defs, log.event_type_defs, relabeled,
                    log.events_in_order(), log.e2o, log.o2o)


def unfold_events(log: OcedLog, event_type: str, by_object_type: str,
                  name_attribute: str) -> OcedLog:
    """Refine an event type by the name of its related object.

    Events of ``event_type`` related to exactly one object of
    ``by_object_type`` are relabeled ``"<event_type> <name>"`` from the
    object's latest ``name_attribute`` value; events with none keep their
    label; more than one is ambiguous and rejected. Relations, times and
    attributes are untouched.
    """
    event_defs = {td.name: td for td in log.event_type_defs}
    if event_type not in event_defs:
        raise SchemaError(f"unknown event type {event_type!r}")
    _check_declared([by_object_type], {td.name for td in log.object_type_defs}, "object type")
    base = event_defs[event_type]

    relabeled = []
    new_labels = []
    for event in log.events_in_order():
        if event.type != event_type:
            relabeled.append(event)
            continue
        related = [o for o in log.objects_of_event(event.id) if o.type == by_object_type]
        if not related:
            relabeled.append(event)
            continue
        if len(related) > 1:
            raise SchemaError(
                f"event {event.id!r} relates to {len(related)} objects of type "
                f"{by_object_type!r}; unfolding needs at most one")
        name = related[0].latest_value(name_attribute)
        if not isinstance(name, str) or not name:
            raise SchemaError(
                f"object {related[0].id!r} has no string value for attribute {name_attribute!r}")
        label = f"{event_type} {name}"
        if label not in new_labels:
            new_labels.append(label)
        relabeled.append(event._replace(type=label))

    out_defs = list(log.event_type_defs)
    existing = {td.name: td for td in out_defs}
    for label in sorted(new_labels):
        if label in existing:
            if existing[label].attribute_defs != base.attribute_defs:
                raise SchemaError(
                    f"unfolded label {label!r} collides with a differently-shaped event type")
            continue
        out_defs.append(EventTypeDef(label, base.attribute_defs))

    return _rebuild(log.object_type_defs, out_defs, log.objects.values(),
                    relabeled, log.e2o, log.o2o)
