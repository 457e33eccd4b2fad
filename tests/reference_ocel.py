"""The OCEL JSON writer as it was before records were streamed and while it
streamed one dict per record, the reader as it was before each record's
relations were stored in one step, and what ``add_*`` stored while instances
normalized themselves when built.

``ocel_to_dict`` builds the whole document from the log's public relation
sets, formatting every time through ``format_iso``, and ``write_text``
renders it with ``json.dumps(indent=2)``. ``write_streamed_text`` lays the
same records out one per line, each encoded whole by ``json.JSONEncoder``.
``ocel_from_dict`` checks each record's shape with its own copy of the
reader's per-record code as it was before each event was added and related
by one function, and relates every relation through ``relate_*``, one at a
time, in the reader's order. The differential tests in ``test_ocel_json.py``
require the writer to give the same document, and the very bytes of
``write_streamed_text``, and the reader the same log or the same error.
``stored`` is the oracle for the differential test of ``add_*`` in
``test_ocel.py``.
"""

import json
from datetime import datetime

from ocedf import (AttributeValue, E2ORelation, EventInstance, O2ORelation, ObjectInstance, OcedLog,
                   OcelDocumentError, SchemaError, ocel)
from ocedf.timeutil import format_iso, parse_iso, to_utc_ms


def _value_to_json(value):
    return format_iso(value) if isinstance(value, datetime) else value


def ocel_to_dict(log: OcedLog) -> dict:
    o2o_by_source: dict[str, list[O2ORelation]] = {}
    for rel in log.o2o:
        o2o_by_source.setdefault(rel.source_object_id, []).append(rel)
    e2o_by_event: dict[str, list[E2ORelation]] = {}
    for rel in log.e2o:
        e2o_by_event.setdefault(rel.event_id, []).append(rel)

    objects = []
    for obj in sorted(log.objects.values(), key=lambda o: o.id):
        rels = sorted(o2o_by_source.get(obj.id, ()), key=lambda r: (r.target_object_id, r.qualifier))
        objects.append({
            "id": obj.id,
            "type": obj.type,
            "attributes": [
                {"name": av.name, "time": format_iso(av.time), "value": _value_to_json(av.value)}
                for av in sorted(obj.attribute_values, key=lambda a: (a.name, a.time.isoformat()))
            ],
            "relationships": [
                {"objectId": r.target_object_id, "qualifier": r.qualifier} for r in rels
            ],
        })

    events = []
    for event in log.events_in_order():
        rels = sorted(e2o_by_event.get(event.id, ()), key=lambda r: (r.object_id, r.qualifier))
        events.append({
            "id": event.id,
            "type": event.type,
            "time": format_iso(event.time),
            "attributes": [
                {"name": name, "value": _value_to_json(value)}
                for name, value in sorted(event.attribute_values)
            ],
            "relationships": [
                {"objectId": r.object_id, "qualifier": r.qualifier} for r in rels
            ],
        })

    return {
        "objectTypes": [
            {"name": td.name,
             "attributes": [{"name": ad.name, "type": ad.kind} for ad in td.attribute_defs]}
            for td in log.object_type_defs
        ],
        "eventTypes": [
            {"name": td.name,
             "attributes": [{"name": ad.name, "type": ad.kind} for ad in td.attribute_defs]}
            for td in log.event_type_defs
        ],
        "objects": objects,
        "events": events,
    }


def write_text(log: OcedLog) -> str:
    """The whole document as the old ``write_ocel_json`` wrote it."""
    return json.dumps(ocel_to_dict(log), indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def write_streamed_text(log: OcedLog) -> str:
    """The document as the writer streamed it while it built one dict per
    record: each top-level key on its own line, and below it each record of
    ``ocel_to_dict`` encoded whole, on its own line."""
    return "".join(_streamed_chunks(ocel_to_dict(log)))


def _streamed_chunks(doc: dict):
    encode = json.JSONEncoder(ensure_ascii=False, allow_nan=False).encode
    yield "{"
    for i, (key, records) in enumerate(doc.items()):
        yield f'{"," if i else ""}\n"{key}": ['
        separator = "\n"
        for record in records:
            yield separator + encode(record)
            separator = ",\n"
        yield "\n]"
    yield "\n}\n"


def ocel_from_dict(doc) -> OcedLog:
    """The log of ``doc``, each relation checked and related on its own: every
    object, then each O2O relation, then each event added and related in turn."""
    if not isinstance(doc, dict):
        raise OcelDocumentError("top level must be a JSON object")
    for key in ("objectTypes", "eventTypes", "objects", "events"):
        if key not in doc:
            raise OcelDocumentError(f"missing top-level key {key!r}")
    log = ocel._typed_log(doc["objectTypes"], doc["eventTypes"])
    if not isinstance(doc["objects"], list) or not isinstance(doc["events"], list):
        raise OcelDocumentError("'objects' and 'events' must be lists")
    for i, entry in enumerate(doc["objects"]):
        _add_object_entry(log, i, entry)
    for i, entry in enumerate(doc["objects"]):
        _relate(log.relate_objects, "objects", i, entry)
    for i, entry in enumerate(doc["events"]):
        _add_event_entry(log, i, entry)
        _relate(log.relate_event_object, "events", i, entry)
    return log


def _json_time(raw, path):
    try:
        return parse_iso(raw)
    except Exception as exc:
        raise OcelDocumentError(str(exc), path) from None


def _json_value(raw, kind, path):
    return _json_time(raw, path) if kind == "timestamp" and isinstance(raw, str) else raw


def _list_at(entry, key, path):
    value = entry.get(key, [])
    if not isinstance(value, list):
        raise OcelDocumentError(f"{key!r} must be a list", f"{path}.{key}")
    return value


def _add_object_entry(log, i, entry):
    """Check the shape of ``objects[i]`` and add its object, unrelated."""
    path = f"objects[{i}]"
    if not isinstance(entry, dict) or not isinstance(entry.get("id"), str) \
            or not isinstance(entry.get("type"), str):
        raise OcelDocumentError("object entry must carry a string 'id' and 'type'", path)
    kinds = getattr(log._object_types.get(entry["type"]), "_kinds", {})
    values = []
    for j, a in enumerate(_list_at(entry, "attributes", path)):
        apath = f"{path}.attributes[{j}]"
        if not isinstance(a, dict) or not isinstance(a.get("name"), str) \
                or "time" not in a or "value" not in a:
            raise OcelDocumentError("object attribute entries need a string 'name', "
                                    "'time' and 'value'", apath)
        values.append(AttributeValue(a["name"], _json_time(a["time"], apath),
                                     _json_value(a["value"], kinds.get(a["name"]), apath)))
    _list_at(entry, "relationships", path)
    try:
        log.add_object(ObjectInstance(entry["id"], entry["type"], tuple(values)))
    except SchemaError as exc:
        raise OcelDocumentError(str(exc), path) from None


def _add_event_entry(log, i, entry):
    """Check the shape of ``events[i]`` and add its event, unrelated."""
    if not isinstance(entry, dict) or not isinstance(entry.get("id"), str) \
            or not isinstance(entry.get("type"), str):
        raise OcelDocumentError("event entry must carry a string 'id' and 'type'", f"events[{i}]")
    try:
        when = parse_iso(entry.get("time", ""))
    except Exception as exc:
        raise OcelDocumentError(f"event {entry['id']!r}: {exc}", f"events[{i}]") from None
    attrs, rels = entry.get("attributes", []), entry.get("relationships", [])
    if not isinstance(attrs, list):
        raise OcelDocumentError("'attributes' must be a list", f"events[{i}].attributes")
    if attrs:
        kinds = getattr(log._event_types.get(entry["type"]), "_kinds", {})
        values = []
        for j, a in enumerate(attrs):
            apath = f"events[{i}].attributes[{j}]"
            if not isinstance(a, dict) or not isinstance(a.get("name"), str) or "value" not in a:
                raise OcelDocumentError("event attribute entries need a string 'name' and 'value'",
                                        apath)
            values.append((a["name"], _json_value(a["value"], kinds.get(a["name"]), apath)))
        attrs = tuple(values)
    if not isinstance(rels, list):
        raise OcelDocumentError("'relationships' must be a list", f"events[{i}].relationships")
    try:
        log.add_event(EventInstance(entry["id"], entry["type"], when, attrs or ()))
    except SchemaError as exc:
        raise OcelDocumentError(str(exc), f"events[{i}]") from None


def _relate(relate, key, i, entry):
    """Relate record ``key[i]``'s relationships one at a time through ``relate``."""
    for j, rel in enumerate(entry.get("relationships", ())):
        qualifier = rel.get("qualifier", "") if isinstance(rel, dict) else None
        if not isinstance(qualifier, str) or not isinstance(rel.get("objectId"), str):
            raise OcelDocumentError("relationship entries need a string 'objectId' and, "
                                    "if any, a string 'qualifier'", f"{key}[{i}].relationships[{j}]")
        try:
            relate(entry["id"], rel["objectId"], qualifier)
        except SchemaError as exc:
            raise OcelDocumentError(f"{key[:-1]} {entry['id']!r}: {exc}",
                                    f"{key}[{i}].relationships[{j}]") from None


def stored(inst, kinds):
    """The instance ``add_object``/``add_event`` stored for ``inst`` under a
    type with attribute ``kinds`` when building an instance normalized it:
    every time through ``to_utc_ms`` and every container made a tuple. Then
    each value was checked and conformed to its declared kind."""
    is_object = isinstance(inst, ObjectInstance)
    if is_object:
        inst = inst._replace(attribute_values=tuple(
            av._replace(time=to_utc_ms(av.time)) for av in inst.attribute_values))
    else:
        inst = inst._replace(time=to_utc_ms(inst.time),
                             attribute_values=tuple(tuple(p) for p in inst.attribute_values))
    what = "object" if is_object else "event"
    if kinds is None:
        raise SchemaError(f"{what} {inst.id!r}: undeclared {what} type {inst.type!r}")
    seen = set()
    values = inst.attribute_values
    for i, entry in enumerate(inst.attribute_values):
        name, value = (entry.name, entry.value) if is_object else entry
        kind = kinds.get(name)
        if kind is None:
            raise SchemaError(
                f"{what} {inst.id!r}: attribute {name!r} not declared on type {inst.type!r}")
        key = (name, entry.time) if is_object else name
        if key in seen:
            raise SchemaError(
                f"object {inst.id!r}: attribute {name!r} has two values at {format_iso(entry.time)}"
                if is_object else f"event {inst.id!r}: duplicate attribute {name!r}")
        seen.add(key)
        conformed = ocel._conform_value(value, kind, f"{what} {inst.id!r} attribute {name!r}")
        if conformed is not value:
            entry = entry._replace(value=conformed) if is_object else (name, conformed)
            values = (*values[:i], entry, *values[i + 1:])
    return inst if values is inst.attribute_values else inst._replace(attribute_values=values)
