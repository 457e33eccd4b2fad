"""In-memory object-centric event log and its JSON serialization.

A log holds typed events, typed objects, timestamped object attribute
values, untimed event attribute values, and qualified event-to-object and
object-to-object relations. Logs are built once through the ``add_*`` /
``relate_*`` methods and treated as immutable afterwards; every query is
pure, so a finished log is safe to share across threads.

A derived log (``relabel``) shares its input's frozen instances and relations,
re-checks only what it changes, and owns its containers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime
from itertools import chain
from pathlib import Path
from typing import IO, Any, Iterable, Mapping

from .errors import OcelDocumentError, SchemaError
from .timeutil import format_iso, parse_iso, to_utc_ms

VALUE_KINDS = ("string", "integer", "float", "boolean", "timestamp")


@dataclass(frozen=True)
class AttributeDef:
    """Declared attribute: a name plus one of the five value kinds."""

    name: str
    kind: str


@dataclass(frozen=True)
class ObjectTypeDef:
    name: str
    attribute_defs: tuple[AttributeDef, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "attribute_defs", tuple(self.attribute_defs))


@dataclass(frozen=True)
class EventTypeDef:
    name: str
    attribute_defs: tuple[AttributeDef, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "attribute_defs", tuple(self.attribute_defs))


@dataclass(frozen=True)
class AttributeValue:
    """One timestamped value of an object attribute (values may vary over time)."""

    name: str
    time: datetime
    value: Any

    def __post_init__(self):
        object.__setattr__(self, "time", to_utc_ms(self.time))


@dataclass(frozen=True)
class ObjectInstance:
    id: str
    type: str
    attribute_values: tuple[AttributeValue, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "attribute_values", tuple(self.attribute_values))

    def latest_value(self, attribute: str) -> Any:
        """Most recent value of ``attribute``, or None when never set."""
        best = None
        for av in self.attribute_values:
            if av.name == attribute and (best is None or av.time >= best.time):
                best = av
        return best.value if best is not None else None


@dataclass(frozen=True)
class EventInstance:
    id: str
    type: str
    time: datetime
    attribute_values: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "time", to_utc_ms(self.time))
        object.__setattr__(self, "attribute_values", tuple(tuple(p) for p in self.attribute_values))


@dataclass(frozen=True)
class E2ORelation:
    event_id: str
    object_id: str
    qualifier: str = ""


@dataclass(frozen=True)
class O2ORelation:
    source_object_id: str
    target_object_id: str
    qualifier: str = ""


def _checked_defs(defs: Iterable, label: str) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for td in defs:
        if not td.name:
            raise SchemaError(f"empty {label} name")
        if td.name in out:
            raise SchemaError(f"duplicate {label} name: {td.name!r}")
        seen = set()
        for ad in td.attribute_defs:
            if ad.kind not in VALUE_KINDS:
                raise SchemaError(f"{label} {td.name!r}: unknown value kind {ad.kind!r}")
            if ad.name in seen:
                raise SchemaError(f"{label} {td.name!r}: duplicate attribute name {ad.name!r}")
            seen.add(ad.name)
        out[td.name] = td
    return out


def _conform_value(value: Any, kind: str, where: str) -> Any:
    """Check ``value`` against a declared kind, returning the normalized value."""
    if kind == "string":
        if isinstance(value, str):
            return value
    elif kind == "integer":
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif kind == "float":
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            value = float(value)
            if not math.isfinite(value):
                raise SchemaError(f"{where}: non-finite float value")
            return value
    elif kind == "boolean":
        if isinstance(value, bool):
            return value
    elif kind == "timestamp":
        if isinstance(value, datetime):
            return to_utc_ms(value)
    raise SchemaError(f"{where}: value {value!r} does not match declared kind {kind!r}")


def _with(instance, **changes):
    """Copy of a normalized frozen instance with ``changes``; skips ``__post_init__``.
    Fields are set one by one: touching ``__dict__`` would give the copy a real dict."""
    out = object.__new__(type(instance))
    for name in instance.__dataclass_fields__:
        object.__setattr__(out, name, changes.get(name, getattr(instance, name)))
    return out


def _kinds(tdef) -> dict[str, str]:
    return {ad.name: ad.kind for ad in tdef.attribute_defs}


def _stored(inst, kinds: Mapping[str, str] | None,
            known: Mapping[str, str] | None = None, trusted: int = 0):
    """The object or event to store for ``inst`` under a type with attribute
    ``kinds``: each value conformed to its declared kind, except among the
    first ``trusted`` values, where ``known`` vouches for a kind already."""
    is_object = isinstance(inst, ObjectInstance)
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
        if i >= trusted or known.get(name) != kind:
            conformed = _conform_value(value, kind, f"{what} {inst.id!r} attribute {name!r}")
            if conformed is not value:
                entry = _with(entry, value=conformed) if is_object else (name, conformed)
                values = (*values[:i], entry, *values[i + 1:])
    return inst if values is inst.attribute_values else _with(inst, attribute_values=values)


class OcedLog:
    """Mutable while being built, then used as a read-only value."""

    def __init__(self, object_type_defs: Iterable[ObjectTypeDef] = (),
                 event_type_defs: Iterable[EventTypeDef] = ()):
        self._object_types = _checked_defs(object_type_defs, "object type")
        self._event_types = _checked_defs(event_type_defs, "event type")
        self._objects: dict[str, ObjectInstance] = {}
        self._events: dict[str, EventInstance] = {}
        self._e2o: set[E2ORelation] = set()
        self._o2o: set[O2ORelation] = set()
        self._e2o_by_event: dict[str, list[E2ORelation]] = {}
        self._e2o_by_object: dict[str, list[E2ORelation]] = {}

    # -- schema ----------------------------------------------------------

    @property
    def object_type_defs(self) -> tuple[ObjectTypeDef, ...]:
        return tuple(self._object_types.values())

    @property
    def event_type_defs(self) -> tuple[EventTypeDef, ...]:
        return tuple(self._event_types.values())

    # -- construction ----------------------------------------------------

    def add_object(self, obj: ObjectInstance) -> None:
        if not obj.id:
            raise SchemaError("empty object id")
        if obj.id in self._objects:
            raise SchemaError(f"duplicate object id: {obj.id!r}")
        tdef = self._object_types.get(obj.type)
        self._objects[obj.id] = _stored(obj, None if tdef is None else _kinds(tdef))

    def add_event(self, event: EventInstance) -> None:
        if not event.id:
            raise SchemaError("empty event id")
        if event.id in self._events:
            raise SchemaError(f"duplicate event id: {event.id!r}")
        tdef = self._event_types.get(event.type)
        self._events[event.id] = _stored(event, None if tdef is None else _kinds(tdef))

    def relate_event_object(self, event_id: str, object_id: str, qualifier: str = "") -> None:
        if event_id not in self._events:
            raise SchemaError(f"e2o relation references unknown event {event_id!r}")
        if object_id not in self._objects:
            raise SchemaError(f"e2o relation references unknown object {object_id!r}")
        rel = E2ORelation(event_id, object_id, qualifier)
        if rel in self._e2o:
            raise SchemaError(f"duplicate e2o relation {(event_id, object_id, qualifier)!r}")
        self._e2o.add(rel)
        self._e2o_by_event.setdefault(event_id, []).append(rel)
        self._e2o_by_object.setdefault(object_id, []).append(rel)

    def relate_objects(self, source_id: str, target_id: str, qualifier: str = "") -> None:
        for oid in (source_id, target_id):
            if oid not in self._objects:
                raise SchemaError(f"o2o relation references unknown object {oid!r}")
        if source_id == target_id and not qualifier:
            raise SchemaError(f"self o2o relation on {source_id!r} requires a non-empty qualifier")
        rel = O2ORelation(source_id, target_id, qualifier)
        if rel in self._o2o:
            raise SchemaError(f"duplicate o2o relation {(source_id, target_id, qualifier)!r}")
        self._o2o.add(rel)

    # -- queries ---------------------------------------------------------

    @property
    def objects(self) -> Mapping[str, ObjectInstance]:
        return self._objects

    @property
    def events(self) -> Mapping[str, EventInstance]:
        return self._events

    @property
    def e2o(self) -> frozenset[E2ORelation]:
        return frozenset(self._e2o)

    @property
    def o2o(self) -> frozenset[O2ORelation]:
        return frozenset(self._o2o)

    def has_e2o(self, event_id: str, object_id: str, qualifier: str = "") -> bool:
        return E2ORelation(event_id, object_id, qualifier) in self._e2o

    def has_o2o(self, source_id: str, target_id: str, qualifier: str = "") -> bool:
        return O2ORelation(source_id, target_id, qualifier) in self._o2o

    def events_in_order(self) -> list[EventInstance]:
        """All events sorted by (time, event id); ties break on the id."""
        return sorted(self._events.values(), key=lambda e: (e.time, e.id))

    def events_of_object(self, object_id: str) -> list[EventInstance]:
        """Events related to the object, sorted by (time, event id)."""
        if object_id not in self._objects:
            raise SchemaError(f"unknown object id {object_id!r}")
        seen: set[str] = set()
        out = []
        for rel in self._e2o_by_object.get(object_id, ()):
            if rel.event_id not in seen:
                seen.add(rel.event_id)
                out.append(self._events[rel.event_id])
        out.sort(key=lambda e: (e.time, e.id))
        return out

    def objects_of_event(self, event_id: str) -> list[ObjectInstance]:
        """Distinct objects related to the event, sorted by object id."""
        if event_id not in self._events:
            raise SchemaError(f"unknown event id {event_id!r}")
        seen: set[str] = set()
        out = []
        for rel in self._e2o_by_event.get(event_id, ()):
            if rel.object_id not in seen:
                seen.add(rel.object_id)
                out.append(self._objects[rel.object_id])
        out.sort(key=lambda o: o.id)
        return out

    def relations_of_event(self, event_id: str) -> list[E2ORelation]:
        return list(self._e2o_by_event.get(event_id, ()))

    # -- derived logs ----------------------------------------------------

    def _derived(self, objects: dict[str, ObjectInstance], events: dict[str, EventInstance],
                 object_types: Mapping[str, ObjectTypeDef] | None = None,
                 event_types: Mapping[str, EventTypeDef] | None = None) -> "OcedLog":
        """A log over valid ``objects`` and ``events`` of this log (dicts it
        takes over), checking nothing. It keeps the relations between them and
        owns copies of every container, down to the E2O index lists."""
        out = OcedLog.__new__(OcedLog)
        out._object_types = dict(self._object_types if object_types is None else object_types)
        out._event_types = dict(self._event_types if event_types is None else event_types)
        out._objects, out._events = objects, events
        if objects.keys() == self._objects.keys() and events.keys() == self._events.keys():
            out._e2o, out._o2o = set(self._e2o), set(self._o2o)
            out._e2o_by_event = {k: list(rels) for k, rels in self._e2o_by_event.items()}
            out._e2o_by_object = {k: list(rels) for k, rels in self._e2o_by_object.items()}
            return out
        out._e2o_by_event = {k: kept for k, rels in self._e2o_by_event.items() if k in events
                             and (kept := [r for r in rels if r.object_id in objects])}
        out._e2o_by_object = {k: kept for k, rels in self._e2o_by_object.items() if k in objects
                              and (kept := [r for r in rels if r.event_id in events])}
        out._e2o = set(chain.from_iterable(out._e2o_by_event.values()))
        out._o2o = {r for r in self._o2o
                    if r.source_object_id in objects and r.target_object_id in objects}
        return out

    # -- equality --------------------------------------------------------

    def structurally_equal(self, other: "OcedLog") -> bool:
        """Equality ignoring collection order; timestamps compare in UTC."""
        return _canonical(self) == _canonical(other)


def _canonical(log: OcedLog):
    return (
        {td.name: td.attribute_defs for td in log.object_type_defs},
        {td.name: td.attribute_defs for td in log.event_type_defs},
        {o.id: (o.type, tuple(sorted(o.attribute_values, key=lambda a: (a.name, a.time.isoformat()))))
         for o in log.objects.values()},
        {e.id: (e.type, e.time, tuple(sorted(e.attribute_values))) for e in log.events.values()},
        log.e2o,
        log.o2o,
    )


def new_log(object_type_defs: Iterable[ObjectTypeDef] = (),
            event_type_defs: Iterable[EventTypeDef] = ()) -> OcedLog:
    """Create an empty log with a validated schema."""
    return OcedLog(object_type_defs, event_type_defs)


def relabel(log: OcedLog,
            object_types: Iterable[ObjectTypeDef] | None = None,
            event_types: Iterable[EventTypeDef] | None = None, *,
            object_labels: Mapping[str, str] | None = None,
            event_labels: Mapping[str, str] | None = None,
            added_values: Mapping[str, Iterable[AttributeValue]] | None = None) -> OcedLog:
    """``log`` with new type definitions (None keeps them), instances moved to
    the types ``object_labels``/``event_labels`` give by id, and
    ``added_values`` appended to objects by id. Instances that move, gain values
    or whose type definition changed are checked as ``add_*`` checks them, but
    conformed again only where a value's declared kind changed; the rest is
    shared. Objects keep their order; events are in (time, id) order."""
    otypes = log._object_types if object_types is None else _checked_defs(object_types, "object type")
    etypes = log._event_types if event_types is None else _checked_defs(event_types, "event type")
    objects = _relabeled(log._objects.values(), log._object_types, otypes,
                         object_labels or {}, added_values or {})
    events = _relabeled(log.events_in_order(), log._event_types, etypes, event_labels or {}, {})
    return log._derived(objects, events, otypes, etypes)


def _relabeled(instances, old_types, new_types, labels, added) -> dict:
    old_kinds = {name: _kinds(td) for name, td in old_types.items()}
    new_kinds = {name: _kinds(td) for name, td in new_types.items()}
    out = {}
    for inst in instances:
        label = labels.get(inst.id, inst.type)
        extra = tuple(added.get(inst.id, ()))
        if label != inst.type or extra or new_types.get(label) is not old_types[inst.type]:
            moved = _with(inst, type=label, attribute_values=inst.attribute_values + extra)
            inst = _stored(moved, new_kinds.get(label), old_kinds[inst.type], len(inst.attribute_values))
        out[inst.id] = inst
    return out


# -- OCEL JSON interchange -------------------------------------------------


def _value_to_json(value: Any) -> Any:
    if isinstance(value, datetime):
        return format_iso(value)
    return value


def ocel_to_dict(log: OcedLog) -> dict:
    """Render a log as the OCEL 2.0 JSON document structure.

    Collections are emitted in canonical order (objects by id, events by
    time then id, relationships by target then qualifier) so that equal
    logs serialize to identical bytes.
    """
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


def write_ocel_json(log: OcedLog, destination: str | Path | IO[str]) -> None:
    """Serialize to an OCEL 2.0 JSON document (UTF-8, canonical ordering)."""
    text = json.dumps(ocel_to_dict(log), indent=2, ensure_ascii=False, allow_nan=False) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8")


def _json_value(raw: Any, kind: str, path: str) -> Any:
    try:
        if kind == "timestamp":
            if not isinstance(raw, str):
                raise SchemaError("timestamp values must be ISO-8601 strings")
            return parse_iso(raw)
        return _conform_value(raw, kind, path)
    except Exception as exc:
        raise OcelDocumentError(str(exc), path) from None


def _parse_type_defs(entries: Any, cls, path: str):
    if not isinstance(entries, list):
        raise OcelDocumentError("expected a list", path)
    defs = []
    for i, entry in enumerate(entries):
        here = f"{path}[{i}]"
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise OcelDocumentError("type entry must carry a string 'name'", here)
        attrs = entry.get("attributes", [])
        if not isinstance(attrs, list):
            raise OcelDocumentError("'attributes' must be a list", here)
        adefs = []
        for j, a in enumerate(attrs):
            if not isinstance(a, dict) or "name" not in a or "type" not in a:
                raise OcelDocumentError("attribute entries need 'name' and 'type'", f"{here}.attributes[{j}]")
            adefs.append(AttributeDef(a["name"], a["type"]))
        defs.append(cls(entry["name"], tuple(adefs)))
    return defs


def ocel_from_dict(doc: Any) -> OcedLog:
    """Build and fully validate a log from an OCEL 2.0 JSON document."""
    if not isinstance(doc, dict):
        raise OcelDocumentError("top level must be a JSON object")
    for key in ("objectTypes", "eventTypes", "objects", "events"):
        if key not in doc:
            raise OcelDocumentError(f"missing top-level key {key!r}")

    otypes = _parse_type_defs(doc["objectTypes"], ObjectTypeDef, "objectTypes")
    etypes = _parse_type_defs(doc["eventTypes"], EventTypeDef, "eventTypes")
    try:
        log = new_log(otypes, etypes)
    except SchemaError as exc:
        raise OcelDocumentError(str(exc), "objectTypes/eventTypes") from None
    okinds = {td.name: {ad.name: ad.kind for ad in td.attribute_defs} for td in otypes}
    ekinds = {td.name: {ad.name: ad.kind for ad in td.attribute_defs} for td in etypes}

    if not isinstance(doc["objects"], list) or not isinstance(doc["events"], list):
        raise OcelDocumentError("'objects' and 'events' must be lists")

    for i, entry in enumerate(doc["objects"]):
        path = f"objects[{i}]"
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
            raise OcelDocumentError("object entry must carry a string 'id'", path)
        kinds = okinds.get(entry.get("type"))
        if kinds is None:
            raise OcelDocumentError(
                f"object {entry['id']!r} has undeclared type {entry.get('type')!r}", path)
        values = []
        for j, a in enumerate(entry.get("attributes", [])):
            apath = f"{path}.attributes[{j}]"
            if not isinstance(a, dict) or "name" not in a or "time" not in a or "value" not in a:
                raise OcelDocumentError("object attribute entries need 'name', 'time', 'value'", apath)
            if a["name"] not in kinds:
                raise OcelDocumentError(
                    f"object {entry['id']!r}: attribute {a['name']!r} not declared", apath)
            try:
                when = parse_iso(a["time"])
            except Exception as exc:
                raise OcelDocumentError(str(exc), apath) from None
            values.append(AttributeValue(a["name"], when, _json_value(a["value"], kinds[a["name"]], apath)))
        try:
            log.add_object(ObjectInstance(entry["id"], entry["type"], tuple(values)))
        except SchemaError as exc:
            raise OcelDocumentError(str(exc), path) from None

    for i, entry in enumerate(doc["events"]):
        path = f"events[{i}]"
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
            raise OcelDocumentError("event entry must carry a string 'id'", path)
        kinds = ekinds.get(entry.get("type"))
        if kinds is None:
            raise OcelDocumentError(
                f"event {entry['id']!r} has undeclared type {entry.get('type')!r}", path)
        try:
            when = parse_iso(entry.get("time", ""))
        except Exception as exc:
            raise OcelDocumentError(f"event {entry['id']!r}: {exc}", path) from None
        attrs = []
        for j, a in enumerate(entry.get("attributes", [])):
            apath = f"{path}.attributes[{j}]"
            if not isinstance(a, dict) or "name" not in a or "value" not in a:
                raise OcelDocumentError("event attribute entries need 'name' and 'value'", apath)
            if a["name"] not in kinds:
                raise OcelDocumentError(
                    f"event {entry['id']!r}: attribute {a['name']!r} not declared", apath)
            attrs.append((a["name"], _json_value(a["value"], kinds[a["name"]], apath)))
        try:
            log.add_event(EventInstance(entry["id"], entry["type"], when, tuple(attrs)))
        except SchemaError as exc:
            raise OcelDocumentError(str(exc), path) from None

    # Relationships resolve only after every instance is registered.
    for key, relate in (("objects", log.relate_objects), ("events", log.relate_event_object)):
        for i, entry in enumerate(doc[key]):
            for j, rel in enumerate(entry.get("relationships", [])):
                path = f"{key}[{i}].relationships[{j}]"
                if not isinstance(rel, dict) or "objectId" not in rel:
                    raise OcelDocumentError("relationship entries need 'objectId'", path)
                try:
                    relate(entry["id"], rel["objectId"], rel.get("qualifier", ""))
                except SchemaError as exc:
                    raise OcelDocumentError(f"{key[:-1]} {entry['id']!r}: {exc}", path) from None

    return log


def read_ocel_json(source: str | Path | IO[str]) -> OcedLog:
    """Parse an OCEL 2.0 JSON document from a path or open file."""
    if hasattr(source, "read"):
        raw = source.read()
    else:
        raw = Path(source).read_text(encoding="utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise OcelDocumentError(f"malformed JSON: {exc}") from None
    return ocel_from_dict(doc)
