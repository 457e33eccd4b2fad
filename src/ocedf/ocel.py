"""In-memory object-centric event log and its OCEL 2.0 JSON interchange:
type definitions, instances and relations; ``OcedLog`` and ``relabel``; the
writer (``write_ocel_json``, ``ocel_to_dict``); and the reader
(``read_ocel_json``, ``ocel_from_dict``), which reads the writer's layout
one line at a time (``_read_writer_layout``) and builds every record
through one loop (``_add_records``)."""

from __future__ import annotations

import gc
import json
import math
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cache
from itertools import chain, compress, islice, starmap
from operator import attrgetter, eq, itemgetter, le, lt
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Mapping, NamedTuple

from .errors import OcelDocumentError, SchemaError
from .fileio import open_atomic
from .timeutil import format_iso, parse_iso, to_utc_ms

VALUE_KINDS = ("string", "integer", "float", "boolean", "timestamp")


@dataclass(frozen=True)
class AttributeDef:
    """Declared attribute: a name plus one of the five value kinds."""

    name: str
    kind: str


@dataclass(frozen=True)
class _TypeDef:
    """A declared type: its name and its attribute definitions, frozen to a
    tuple, with the map from attribute name to kind, built once, that each
    instance is checked with. An object type never equals an event type."""

    name: str
    attribute_defs: tuple[AttributeDef, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "attribute_defs", tuple(self.attribute_defs))
        object.__setattr__(self, "_kinds", {ad.name: ad.kind for ad in self.attribute_defs})


class ObjectTypeDef(_TypeDef):
    """A declared object type."""


class EventTypeDef(_TypeDef):
    """A declared event type."""


class AttributeValue(NamedTuple):
    """One timestamped value of an object attribute (values may vary over time)."""

    name: str
    time: datetime
    value: Any


class ObjectInstance(NamedTuple):
    id: str
    type: str
    attribute_values: tuple[AttributeValue, ...] = ()

    def latest_value(self, attribute: str) -> Any:
        """Most recent value of ``attribute``, or None when never set."""
        best = None
        for av in self.attribute_values:
            if av.name == attribute and (best is None or av.time >= best.time):
                best = av
        return best.value if best is not None else None


class EventInstance(NamedTuple):
    id: str
    type: str
    time: datetime
    attribute_values: tuple[tuple[str, Any], ...] = ()


class E2ORelation(NamedTuple):
    """A qualified event-to-object relation. It is a tuple, hashed in C, and
    equals the plain tuple ``(event_id, object_id, qualifier)``."""

    event_id: str
    object_id: str
    qualifier: str = ""


class O2ORelation(NamedTuple):
    """A qualified object-to-object relation. It is a tuple, hashed in C, and
    equals the plain tuple ``(source_object_id, target_object_id, qualifier)``."""

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
            try:
                value = float(value)
            except OverflowError:   # an int beyond the float range
                value = math.inf
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


def _insert(by_key: dict[str, tuple], key: str, other: str, qualifier: str, kind: str) -> None:
    """Replace ``by_key[key]`` with a sorted tuple that holds ``(other, qualifier)`` too."""
    if not isinstance(qualifier, str):
        raise SchemaError(f"{kind} relation {(key, other, qualifier)!r}: qualifier must be a string")
    rels, pair = by_key.get(key, ()), (other, qualifier)
    i = bisect_left(rels, pair)
    if i < len(rels) and rels[i] == pair:
        raise SchemaError(f"duplicate {kind} relation {(key, other, qualifier)!r}")
    by_key[key] = rels[:i] + (pair,) + rels[i:]


def _shared_sorted(pairs: list, shared: dict[tuple, tuple]) -> tuple:
    """``pairs``, one key's, checked as ``relate_*`` checks them, as a sorted
    tuple: the equal one in ``shared``, or a new one entered there, so equal
    tuples are one object per log. ``relate_*`` adds tuples of its own
    (``_insert``); which tuples are shared is not part of the API."""
    pairs.sort()
    pairs = tuple(pairs)
    return shared.setdefault(pairs, pairs)


def _pruned(by_key: dict[str, tuple], keys, ends) -> dict[str, tuple]:
    """``by_key`` restricted to ``keys``, each tuple to the pairs whose other
    id is in ``ends``; a pruned sorted tuple is still sorted."""
    return {k: kept for k, rels in by_key.items()
            if k in keys and (kept := tuple(r for r in rels if r[0] in ends))}


def _in_event_order(events: list[EventInstance]) -> bool:
    """Whether ``events`` are sorted by (time, id): each time is compared
    with the next, and each id with the next where the two times tie,
    through ``map`` and ``compress``, with no Python call per event."""
    times = list(map(attrgetter("time"), events))
    if not all(map(le, times, islice(times, 1, None))):
        return False
    tied = list(map(eq, times, islice(times, 1, None)))
    ids = attrgetter("id")
    return all(map(lt, map(ids, compress(events, tied)), map(ids, compress(islice(events, 1, None), tied))))


def _check_new_id(key: Any, stored: Mapping[str, Any], kind: str) -> None:
    """Raise ``SchemaError`` unless ``key`` is a non-empty string that names
    none of the ``stored`` instances of its ``kind``."""
    if not isinstance(key, str):   # the writer encodes each id as a JSON string
        raise SchemaError(f"{kind} id must be a string: {key!r}")
    if not key:
        raise SchemaError(f"empty {kind} id")
    if key in stored:
        raise SchemaError(f"duplicate {kind} id: {key!r}")


def _stored_object(obj: ObjectInstance, tdef: ObjectTypeDef | None) -> ObjectInstance:
    """The object to store for ``obj`` under its type (None if undeclared): its
    values a tuple, each time normalized by ``to_utc_ms`` and each value
    conformed to its kind. Entries, and ``obj``, with nothing to change are kept."""
    if tdef is None:
        raise SchemaError(f"object {obj.id!r}: undeclared object type {obj.type!r}")
    seen, out = set(), None
    values = tuple(obj.attribute_values)   # the very tuple when it is one already
    for i, entry in enumerate(values):
        name, value = entry.name, entry.value
        kind = tdef._kinds.get(name)
        if kind is None:
            raise SchemaError(f"object {obj.id!r}: attribute {name!r} not declared on type {obj.type!r}")
        where = f"object {obj.id!r} attribute {name!r}"
        if not isinstance(entry.time, datetime):
            raise SchemaError(f"{where}: time {entry.time!r} is not a datetime")
        when = to_utc_ms(entry.time)
        key = (name, when)
        if key in seen:
            raise SchemaError(f"object {obj.id!r}: attribute {name!r} has two values at {format_iso(when)}")
        seen.add(key)
        conformed = _conform_value(value, kind, where)
        if when is not entry.time or conformed is not value:
            out = out or list(values)
            out[i] = entry._replace(time=when, value=conformed)
    if out is None and values is obj.attribute_values:
        return obj
    return obj._replace(attribute_values=values if out is None else tuple(out))


def _stored_event(event: EventInstance, tdef: EventTypeDef | None) -> EventInstance:
    """The event to store for ``event`` under its type (None if undeclared): its
    time normalized by ``to_utc_ms``, its values a tuple of (name, value) tuples,
    each conformed to its kind. Pairs, and ``event``, with nothing to change are
    kept, so an event with a normalized time and a tuple of conformed pairs,
    such as one with no values, is returned as it is. The reader's plain
    events and extract's events are stored without this call by checks that
    cover it; it returns each of them as it is."""
    if tdef is None:
        raise SchemaError(f"event {event.id!r}: undeclared event type {event.type!r}")
    if not isinstance(event.time, datetime):
        raise SchemaError(f"event {event.id!r}: time {event.time!r} is not a datetime")
    when, seen, out, values = to_utc_ms(event.time), set(), None, tuple(event.attribute_values)
    for i, entry in enumerate(values):
        name, value = pair = tuple(entry)
        kind = tdef._kinds.get(name)
        if kind is None:
            raise SchemaError(f"event {event.id!r}: attribute {name!r} not declared on type {event.type!r}")
        if name in seen:
            raise SchemaError(f"event {event.id!r}: duplicate attribute {name!r}")
        seen.add(name)
        conformed = _conform_value(value, kind, f"event {event.id!r} attribute {name!r}")
        if conformed is not value or pair is not entry:
            out = out or list(values)
            out[i] = (name, conformed)
    if out is None and when is event.time and values is event.attribute_values:
        return event
    return event._replace(time=when, attribute_values=values if out is None else tuple(out))


class OcedLog:
    """Typed objects with timestamped attribute values, typed events with
    untimed ones, and qualified E2O and O2O relations. ``add_*``/``relate_*``
    normalize and check each immutable instance once, as they store it. The
    reader's plain events and extract's events are stored without
    ``add_event`` or ``_stored_event``, by checks of their own that cover
    that call's. The finished log is used as a read-only value.

    A relation is a plain ``(other id, qualifier)`` pair in a sorted,
    non-empty tuple under its event (E2O) or source object (O2O): the order
    the readers and the writer want, so none of them sorts. Adding one
    replaces the tuple. The cyclic GC stops tracking a pair at its first
    collection, and the tuple by the next, as it never does a ``NamedTuple``;
    ``E2ORelation``/``O2ORelation`` are built only by ``e2o``/``o2o``.

    A derived log (``relabel``, ``_derived``) checks only what its change
    could make fail: an instance moved to a type of the very same attribute
    defs is stored as it is, and so is a kept event's E2O tuple when no
    object is dropped.

    The event order (the stored events by time, then id) and the object
    traces (per object, its distinct stored events in that order) are built
    on first use and rebound to None by the methods that change them. A
    derived log takes its input's two only with its input's own events dict
    (``_derived``). Every per-object walk goes through ``events_of_object``,
    but ``analysis.flatten`` hands the trace tuples of ``_object_traces``
    over as they are: the log rebinds its traces and never mutates one. Two
    threads making that first query at once compute equal values, so a
    finished log is safe to share across threads."""

    def __init__(self, object_type_defs: Iterable[ObjectTypeDef] = (),
                 event_type_defs: Iterable[EventTypeDef] = ()):
        self._object_types = _checked_defs(object_type_defs, "object type")
        self._event_types = _checked_defs(event_type_defs, "event type")
        self._objects: dict[str, ObjectInstance] = {}
        self._events: dict[str, EventInstance] = {}
        self._e2o_by_event: dict[str, tuple[tuple[str, str], ...]] = {}
        self._o2o_by_source: dict[str, tuple[tuple[str, str], ...]] = {}
        self._order: tuple[EventInstance, ...] | None = None
        self._ordered = False   # with ``_order`` built: whether it is the events dict's own order
        self._traces: dict[str, tuple[EventInstance, ...]] | None = None
        self._shared = False

    # -- schema ----------------------------------------------------------

    @property
    def object_type_defs(self) -> tuple[ObjectTypeDef, ...]:
        return tuple(self._object_types.values())

    @property
    def event_type_defs(self) -> tuple[EventTypeDef, ...]:
        return tuple(self._event_types.values())

    # -- construction ----------------------------------------------------

    def _own(self) -> None:
        """Copy the dicts this log shares, if any (``_shared``), so that the
        write that follows changes it alone. ``extract`` and the reader write
        into a fresh log's dicts directly: it shares nothing, and has cached
        no event order, until it is returned."""
        if not self._shared:
            return
        self._objects = dict(self._objects)
        self._events = dict(self._events)
        self._e2o_by_event = dict(self._e2o_by_event)
        self._o2o_by_source = dict(self._o2o_by_source)
        self._shared = False

    def add_object(self, obj: ObjectInstance) -> None:
        self._own()
        _check_new_id(obj.id, self._objects, "object")
        self._objects[obj.id] = _stored_object(obj, self._object_types.get(obj.type))

    def add_event(self, event: EventInstance) -> None:
        self._own()
        _check_new_id(event.id, self._events, "event")
        self._events[event.id] = _stored_event(event, self._event_types.get(event.type))
        self._order = self._traces = None

    def relate_event_object(self, event_id: str, object_id: str, qualifier: str = "") -> None:
        """Relate a stored event to a stored object, by their own id strings."""
        self._own()
        event, obj = self._events.get(event_id), self._objects.get(object_id)
        if event is None:
            raise SchemaError(f"e2o relation references unknown event {event_id!r}")
        if obj is None:
            raise SchemaError(f"e2o relation references unknown object {object_id!r}")
        _insert(self._e2o_by_event, event.id, obj.id, qualifier, "e2o")
        self._traces = None

    def relate_objects(self, source_id: str, target_id: str, qualifier: str = "") -> None:
        """Relate two stored objects, by their own id strings."""
        self._own()
        source, target = self._objects.get(source_id), self._objects.get(target_id)
        for oid, obj in ((source_id, source), (target_id, target)):
            if obj is None:
                raise SchemaError(f"o2o relation references unknown object {oid!r}")
        if source_id == target_id and not qualifier:
            raise SchemaError(f"self o2o relation on {source_id!r} requires a non-empty qualifier")
        _insert(self._o2o_by_source, source.id, target.id, qualifier, "o2o")

    # -- queries ---------------------------------------------------------

    @property
    def objects(self) -> Mapping[str, ObjectInstance]:
        return self._objects

    @property
    def events(self) -> Mapping[str, EventInstance]:
        return self._events

    @property
    def e2o(self) -> frozenset[E2ORelation]:
        return frozenset(E2ORelation(eid, oid, qualifier)
                         for eid, rels in self._e2o_by_event.items() for oid, qualifier in rels)

    @property
    def o2o(self) -> frozenset[O2ORelation]:
        return frozenset(O2ORelation(sid, tid, qualifier)
                         for sid, rels in self._o2o_by_source.items() for tid, qualifier in rels)

    def has_e2o(self, event_id: str, object_id: str, qualifier: str = "") -> bool:
        return (object_id, qualifier) in self._e2o_by_event.get(event_id, ())

    def has_o2o(self, source_id: str, target_id: str, qualifier: str = "") -> bool:
        return (target_id, qualifier) in self._o2o_by_source.get(source_id, ())

    def _event_order(self) -> tuple[EventInstance, ...]:
        """The stored events by (time, id), built once per change of the
        events. Events stored in that order already, as the reader stores
        a written log's, are the order as they are, and ``_ordered`` records
        that they were; others are sorted by id and then stably by time.
        Neither builds a key tuple per event, which the cyclic GC would have
        to walk."""
        if self._order is None:
            order = list(self._events.values())
            self._ordered = _in_event_order(order)
            if not self._ordered:
                order.sort(key=attrgetter("id"))
                order.sort(key=attrgetter("time"))
            self._order = tuple(order)
        return self._order

    def _object_traces(self) -> dict[str, tuple[EventInstance, ...]]:
        """Per related object id, its distinct stored events by (time, id):
        one walk of the event order, with no sort. An event related to an
        object under two qualifiers comes twice in a row and is kept once."""
        if self._traces is None:
            traces: dict[str, list[EventInstance]] = {}
            by_event = self._e2o_by_event
            for event in self._event_order():
                for oid, _ in by_event.get(event.id, ()):
                    trace = traces.get(oid)
                    if trace is None:
                        traces[oid] = [event]
                    elif trace[-1] is not event:
                        trace.append(event)
            self._traces = {oid: tuple(trace) for oid, trace in traces.items()}
        return self._traces

    def events_in_order(self) -> list[EventInstance]:
        """All events sorted by (time, event id); ties break on the id."""
        return list(self._event_order())

    def events_of_object(self, object_id: str) -> list[EventInstance]:
        """Events related to the object, sorted by (time, event id)."""
        if object_id not in self._objects:
            raise SchemaError(f"unknown object id {object_id!r}")
        return list(self._object_traces().get(object_id, ()))

    def objects_of_event(self, event_id: str) -> list[ObjectInstance]:
        """Distinct objects related to the event, sorted by object id."""
        if event_id not in self._events:
            raise SchemaError(f"unknown event id {event_id!r}")
        objects = self._objects
        out, last = [], None
        for oid, _ in self._e2o_by_event.get(event_id, ()):   # by (object, qualifier)
            if oid != last:
                out.append(objects[oid])
                last = oid
        return out

    # -- derived logs ----------------------------------------------------

    def _derived(self, objects: dict[str, ObjectInstance], events: dict[str, EventInstance],
                 object_types: Mapping[str, ObjectTypeDef] | None = None,
                 event_types: Mapping[str, EventTypeDef] | None = None) -> "OcedLog":
        """A log over valid ``objects`` and ``events`` of this log (dicts it
        takes over, maybe this log's own), checking nothing. When no id is
        dropped it shares this log's relation dicts. When only events are
        dropped it shares the O2O dict and keeps the E2O tuples of the kept
        events as they are, since every object they name is kept. Otherwise
        it keeps the relations between its instances, sharing their tuples.
        The event order and the traces hold the stored instances, so it
        takes this log's two only with this log's own events dict; any other
        ``events`` must be in (time, id) order, which then is its order.
        Each dict it shares with this log sets ``_shared`` on both, so the
        first change to either copies them (``_own``); two threads deriving
        at once set the same flag, so a finished log stays safe to share."""
        out = OcedLog.__new__(OcedLog)
        out._object_types = dict(self._object_types if object_types is None else object_types)
        out._event_types = dict(self._event_types if event_types is None else event_types)
        out._objects, out._events = objects, events
        if events is self._events:
            out._order, out._ordered, out._traces = self._order, self._ordered, self._traces
        else:
            out._order, out._ordered, out._traces = tuple(events.values()), True, None
        every_object = objects is self._objects or objects.keys() == self._objects.keys()
        if every_object:
            by_event = self._e2o_by_event
            out._e2o_by_event = (
                by_event if events is self._events or events.keys() == self._events.keys()
                else {eid: rels for eid in events if (rels := by_event.get(eid))})
            out._o2o_by_source = self._o2o_by_source
            out._shared = True
        else:
            out._e2o_by_event = _pruned(self._e2o_by_event, events, objects)
            out._o2o_by_source = _pruned(self._o2o_by_source, objects, objects)
            out._shared = objects is self._objects or events is self._events
        if out._shared:
            self._shared = True
        return out

    # -- equality --------------------------------------------------------

    def structurally_equal(self, other: "OcedLog") -> bool:
        """Equality ignoring collection order; timestamps compare in UTC."""
        return _canonical(self) == _canonical(other)


def _canonical(log: OcedLog):
    """Equal relations give equal stored dicts, as each key's tuple is sorted."""
    return (
        {td.name: td.attribute_defs for td in log.object_type_defs},
        {td.name: td.attribute_defs for td in log.event_type_defs},
        {o.id: (o.type, tuple(sorted(o.attribute_values))) for o in log.objects.values()},
        {e.id: (e.type, e.time, tuple(sorted(e.attribute_values))) for e in log.events.values()},
        log._e2o_by_event,
        log._o2o_by_source,
    )


def relabel(log: OcedLog,
            object_types: Iterable[ObjectTypeDef] | None = None,
            event_types: Iterable[EventTypeDef] | None = None, *,
            object_labels: Mapping[str, str] | None = None,
            event_labels: Mapping[str, str] | None = None,
            added_values: Mapping[str, Iterable[AttributeValue]] | None = None) -> OcedLog:
    """``log`` with new type definitions (None keeps them), instances moved
    to the types ``object_labels``/``event_labels`` give by id, and
    ``added_values`` appended to objects by id. An instance whose type
    definition is the one it had is shared. One that gains no values and
    moves to a declared type whose attribute defs equal its old type's
    (same names, kinds and order) cannot fail a check, so it is stored as it
    is, under the definition's own name string. Any other instance that
    moves, gains values or whose type definition changed is checked as
    ``add_*`` checks it and takes its definition's own name string. A side
    left unchanged is the input's own dict (events only when it is in
    (time, id) order already, as a read log's is). Objects keep their
    order; events are in (time, id) order."""
    otypes = log._object_types if object_types is None else _checked_defs(object_types, "object type")
    etypes = log._event_types if event_types is None else _checked_defs(event_types, "event type")
    if otypes is log._object_types and not object_labels and not added_values:
        objects = log._objects
    else:
        objects = _relabeled(log._objects.values(), log._object_types, otypes,
                             object_labels or {}, added_values or {}, _stored_object)
    if etypes is log._event_types and not event_labels:
        order = log._event_order()
        events = log._events if log._ordered else {e.id: e for e in order}
    else:
        events = _relabeled(log._event_order(), log._event_types, etypes, event_labels or {}, {},
                            _stored_event)
    return log._derived(objects, events, otypes, etypes)


def _relabeled(instances, old_types, new_types, labels, added, stored) -> dict:
    """``instances`` by id, each under the type ``labels`` gives it (``relabel``)."""
    out, new = {}, tuple.__new__
    for inst in instances:
        label = labels.get(inst.id, inst.type)
        extra = tuple(added.get(inst.id, ())) if added else ()
        tdef = new_types.get(label)
        if extra or tdef is not old_types[inst.type]:
            if (not extra and tdef is not None
                    and tdef.attribute_defs == old_types[inst.type].attribute_defs):
                # tuple.__new__ skips the NamedTuple's __new__
                inst = new(type(inst), (inst[0], tdef.name, *inst[2:]))
            else:
                moved = inst._replace(type=label if tdef is None else tdef.name,
                                      attribute_values=inst.attribute_values + extra)
                inst = stored(moved, tdef)
        out[inst.id] = inst
    return out


# -- OCEL JSON interchange -------------------------------------------------


def _value_to_json(value: Any) -> Any:
    return value.isoformat(timespec="milliseconds") if isinstance(value, datetime) else value


def _type_records(type_defs: Iterable) -> Iterator[dict]:
    for td in type_defs:
        yield {"name": td.name,
               "attributes": [{"name": ad.name, "type": ad.kind} for ad in td.attribute_defs]}


_TWO_DIGITS = tuple(f"{i:02d}" for i in range(100))
_THREE_DIGITS = tuple(f"{i:03d}" for i in range(1000))


def _object_attributes(values: tuple[AttributeValue, ...]) -> list[dict]:
    return [{"name": av.name, "time": av.time.isoformat(timespec="milliseconds"),
             "value": _value_to_json(av.value)} for av in sorted(values)]   # by (name, time)


def _event_attributes(values: tuple[tuple[str, Any], ...]) -> list[dict]:
    return [{"name": name, "value": _value_to_json(value)} for name, value in sorted(values)]


def _document_chunks(log: OcedLog) -> Iterator[str]:
    """The document's text in pieces. An object or event line is the text
    ``encode`` gives its dict, joined from encoded parts; a type name or a
    relationship is encoded on first use only, as a log has few, shared by
    E2O and O2O. An id is encoded by ``encode_basestring``, which is what
    ``encode`` does for a ``str``. Stored times and values are UTC in whole
    ms, so each is formatted as it is, and an event time is built from its
    fields."""
    encode = json.JSONEncoder(ensure_ascii=False, allow_nan=False).encode
    quoted = json.encoder.encode_basestring
    type_name = cache(encode)
    relationship = cache(lambda oid, qualifier: encode({"objectId": oid, "qualifier": qualifier}))
    date = cache(lambda year, month, day: f"{year:04d}-{month:02d}-{day:02d}")
    two, three = _TWO_DIGITS, _THREE_DIGITS

    def record_lines(instances, relations, attributes, timed: bool) -> Iterator[str]:
        for inst in instances:
            values, t = inst.attribute_values, inst.time if timed else None
            time = (f'"time": "{date(t.year, t.month, t.day)}T{two[t.hour]}:{two[t.minute]}:'
                    f'{two[t.second]}.{three[t.microsecond // 1000]}+00:00", ') if timed else ""
            rels = ", ".join(starmap(relationship, relations.get(inst.id, ())))
            yield (f'{{"id": {quoted(inst.id)}, "type": {type_name(inst.type)}, {time}"attributes": '
                   f'{encode(attributes(values)) if values else "[]"}, "relationships": [{rels}]}}')

    objects = sorted(log._objects.values(), key=lambda o: o.id)
    sections = (("objectTypes", map(encode, _type_records(log.object_type_defs))),
                ("eventTypes", map(encode, _type_records(log.event_type_defs))),
                ("objects", record_lines(objects, log._o2o_by_source, _object_attributes, False)),
                ("events", record_lines(log._event_order(), log._e2o_by_event, _event_attributes, True)))
    yield "{"
    for i, (key, lines) in enumerate(sections):
        yield f'{"," if i else ""}\n"{key}": ['
        separator = "\n"
        for line in lines:
            yield separator + line
            separator = ",\n"
        yield "\n]"
    yield "\n}\n"


def ocel_to_dict(log: OcedLog) -> dict:
    """Render a log as the OCEL 2.0 JSON document structure: the parsed text
    ``write_ocel_json`` writes. Collections are in canonical order (objects by
    id, events by time then id, attribute values by name then time,
    relationships by target then qualifier), so equal logs give equal bytes."""
    return json.loads("".join(_document_chunks(log)))


# write_ocel_json hands its destination this many pieces of text per write.
_PIECES_PER_WRITE = 512


def write_ocel_json(log: OcedLog, destination: str | Path | IO[str]) -> None:
    """Serialize to an OCEL 2.0 JSON document (UTF-8, canonical ordering), one
    line per top-level key and per type, object and event record, so a diff
    of two logs shows whole records. Lines are built as they are written,
    ``_PIECES_PER_WRITE`` of them joined into one ``write``, so the whole
    document is never held in memory and the file gets one call per block
    of lines, not per line. A path is replaced only once the document is
    complete (``fileio.open_atomic``); an open file, anything with a
    ``write`` method, is written directly."""
    chunks = _document_chunks(log)
    with nullcontext(destination) if hasattr(destination, "write") else open_atomic(destination) as fh:
        for block in iter(lambda: "".join(islice(chunks, _PIECES_PER_WRITE)), ""):   # no piece is empty
            fh.write(block)


def _json_time(raw: Any, path: str) -> datetime:
    try:
        return parse_iso(raw)
    except Exception as exc:
        raise OcelDocumentError(str(exc), path) from None


def _json_value(raw: Any, kind: str | None, path: str) -> Any:
    """A JSON attribute value, with a string of a timestamp kind parsed."""
    return _json_time(raw, path) if kind == "timestamp" and isinstance(raw, str) else raw


def _list_at(entry: dict, key: str, path: str) -> list:
    """``entry[key]``, which must be a list when present."""
    value = entry.get(key, [])
    if not isinstance(value, list):
        raise OcelDocumentError(f"{key!r} must be a list", f"{path}.{key}")
    return value


def _parse_type_defs(entries: Any, cls, path: str):
    if not isinstance(entries, list):
        raise OcelDocumentError("expected a list", path)
    defs = []
    for i, entry in enumerate(entries):
        here = f"{path}[{i}]"
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise OcelDocumentError("type entry must carry a string 'name'", here)
        adefs = []
        for j, a in enumerate(_list_at(entry, "attributes", here)):
            if not isinstance(a, dict) or not isinstance(a.get("name"), str) \
                    or not isinstance(a.get("type"), str):
                raise OcelDocumentError("attribute entries need a string 'name' and 'type'",
                                        f"{here}.attributes[{j}]")
            adefs.append(AttributeDef(a["name"], a["type"]))
        defs.append(cls(entry["name"], tuple(adefs)))
    return defs


def ocel_from_dict(doc: Any) -> OcedLog:
    """Build and fully validate a log from an OCEL 2.0 JSON document.

    Every defect of the document raises ``OcelDocumentError`` naming the
    JSON path of the offending entry. The entries' shape is checked here; the
    types, attributes and value kinds they name are checked by ``add_*``."""
    if not isinstance(doc, dict):
        raise OcelDocumentError("top level must be a JSON object")
    for key in ("objectTypes", "eventTypes", "objects", "events"):
        if key not in doc:
            raise OcelDocumentError(f"missing top-level key {key!r}")
    log = _typed_log(doc["objectTypes"], doc["eventTypes"])
    if not isinstance(doc["objects"], list) or not isinstance(doc["events"], list):
        raise OcelDocumentError("'objects' and 'events' must be lists")
    return _add_records(log, doc["objects"], doc["events"])


def _add_records(log: OcedLog, objects: Iterable, events: Iterable) -> OcedLog:
    """``log`` with the ``objects`` and ``events`` entries added in the order
    both readers share: each object, then the O2O relations of those that
    hold any, then each event added and related in turn; the first defect in
    that order raises. A record's relations are one stored tuple
    (``_Pairs.stored``), and a record with any defect is replayed through
    ``relate_*`` for the message and JSON path of its first defect. A plain
    event (a new non-empty string id, a declared type, ``"attributes": []``,
    a list of relationships, a time ``fromisoformat`` reads in UTC and whole
    ms) is stored here as ``add_event`` stores it; any other entry, or a
    ``KeyError``, ``TypeError`` or ``ValueError`` reading it, goes to ``_add_event_entry``."""
    related = [(i, entry) for i, entry in enumerate(objects) if _add_object_entry(log, i, entry)]
    pairs = _Pairs(log._objects)
    for i, entry in related:
        source = log._objects[entry["id"]].id
        built = pairs.stored(entry["relationships"])
        if built is None or (source, "") in built:   # self O2O, unqualified
            _replay_relations("objects", i, entry, log.relate_objects)
        else:
            log._o2o_by_source[source] = built
    stored, types, fromiso, utc = log._events, log._event_types, datetime.fromisoformat, timezone.utc
    for i, entry in enumerate(events):
        try:
            eid, tdef, rels = entry["id"], types[entry["type"]], entry["relationships"]
            when = fromiso(entry["time"])
            plain = (type(eid) is str and eid and eid not in stored and entry["attributes"] == []
                     and type(rels) is list and when.tzinfo is utc and not when.microsecond % 1000)
        except (KeyError, TypeError, ValueError):
            plain = False
        if plain:   # tuple.__new__ skips the NamedTuple's Python-level __new__
            stored[eid] = tuple.__new__(EventInstance, (eid, tdef.name, when, ()))
        else:
            rels, eid = _add_event_entry(log, i, entry), entry["id"]
        if rels and (built := pairs.stored(rels)) is not None:
            log._e2o_by_event[eid] = built
        elif rels:
            _replay_relations("events", i, entry, log.relate_event_object)
    return log


def _typed_log(object_types: Any, event_types: Any) -> OcedLog:
    """An empty log of the ``objectTypes`` and ``eventTypes`` entries."""
    otypes = _parse_type_defs(object_types, ObjectTypeDef, "objectTypes")
    etypes = _parse_type_defs(event_types, EventTypeDef, "eventTypes")
    try:
        return OcedLog(otypes, etypes)
    except SchemaError as exc:
        raise OcelDocumentError(str(exc), "objectTypes/eventTypes") from None


def _add_object_entry(log: OcedLog, i: int, entry: Any) -> list:
    """Check the shape of ``objects[i]`` and add its object, unrelated;
    return its relationships."""
    path = f"objects[{i}]"
    if not isinstance(entry, dict) or not isinstance(entry.get("id"), str) \
            or not isinstance(entry.get("type"), str):
        raise OcelDocumentError("object entry must carry a string 'id' and 'type'", path)
    # An undeclared type has no kinds here; add_object rejects it below.
    kinds = getattr(tdef := log._object_types.get(entry["type"]), "_kinds", {})
    values = []
    for j, a in enumerate(_list_at(entry, "attributes", path)):
        apath = f"{path}.attributes[{j}]"
        if not isinstance(a, dict) or not isinstance(a.get("name"), str) \
                or "time" not in a or "value" not in a:
            raise OcelDocumentError("object attribute entries need a string 'name', "
                                    "'time' and 'value'", apath)
        values.append(AttributeValue(a["name"], _json_time(a["time"], apath),
                                     _json_value(a["value"], kinds.get(a["name"]), apath)))
    rels = _list_at(entry, "relationships", path)
    try:   # a declared type is stored as the definition's own string
        log.add_object(ObjectInstance(entry["id"], getattr(tdef, "name", entry["type"]), tuple(values)))
    except SchemaError as exc:
        raise OcelDocumentError(str(exc), path) from None
    return rels


def _add_event_entry(log: OcedLog, i: int, entry: Any) -> list:
    """Check the shape of ``events[i]``, parse its time once and add its
    event, unrelated, typed by the declared type's own string; return its
    relationships."""
    path = f"events[{i}]"
    if not isinstance(entry, dict) or not isinstance(eid := entry.get("id"), str) \
            or not isinstance(etype := entry.get("type"), str):
        raise OcelDocumentError("event entry must carry a string 'id' and 'type'", path)
    try:
        when = parse_iso(entry.get("time", ""))
    except Exception as exc:
        raise OcelDocumentError(f"event {eid!r}: {exc}", path) from None
    attrs = _list_at(entry, "attributes", path)
    tdef = log._event_types.get(etype)   # None: add_event rejects the type below
    if attrs:
        kinds = getattr(tdef, "_kinds", {})
        values = []
        for j, a in enumerate(attrs):
            apath = f"{path}.attributes[{j}]"
            if not isinstance(a, dict) or not isinstance(a.get("name"), str) or "value" not in a:
                raise OcelDocumentError("event attribute entries need a string 'name' and 'value'",
                                        apath)
            values.append((a["name"], _json_value(a["value"], kinds.get(a["name"]), apath)))
        attrs = tuple(values)
    rels = _list_at(entry, "relationships", path)
    try:
        log.add_event(EventInstance(eid, etype if tdef is None else tdef.name, when, attrs or ()))
    except SchemaError as exc:
        raise OcelDocumentError(str(exc), path) from None
    return rels


class _Pairs(dict):
    """Per read: (objectId, qualifier) -> its stored pair, entered on first
    lookup if both parts are strings and the id names a stored object;
    otherwise the lookup raises ``KeyError`` or ``TypeError``."""

    def __init__(self, objects: Mapping[str, ObjectInstance]):
        self.objects, self.object_qualifier, self.shared = objects, itemgetter("objectId", "qualifier"), {}

    def __missing__(self, key: tuple[str, str]) -> tuple[str, str]:
        target, qualifier = key
        if not isinstance(target, str) or not isinstance(qualifier, str):
            raise TypeError("objectId and qualifier must be strings")
        pair = self[key] = (self.objects[target].id, qualifier)
        return pair

    def stored(self, rels: list) -> tuple | None:
        """The sorted tuple of a record's pairs in ``shared`` (``_shared_sorted``),
        or None if one is malformed, unknown or repeated. The writer sorts a
        record's pairs, so a pair set met before is one lookup of its
        ``(objectId, qualifier)`` values, and a hit is right: ``shared`` holds
        checked (str, str) pairs of stored objects with no repeats, and no JSON
        value but a ``str`` equals a ``str``. Else each pair is looked up (``__missing__``)."""
        try:
            if hit := self.shared.get(tuple(map(self.object_qualifier, rels))):
                return hit
        except (KeyError, TypeError):   # a qualifier left out, a value no dict key can be
            pass
        try:
            built = [self[rel["objectId"], rel.get("qualifier", "")] for rel in rels]
        except (KeyError, TypeError):
            return None
        return _shared_sorted(built, self.shared) if len(set(built)) == len(built) else None


def _replay_relations(key: str, i: int, entry: dict, relate) -> None:
    """Relate a record's relations one by one, raising at the first defect
    with its JSON path."""
    for j, rel in enumerate(entry["relationships"]):
        qualifier = rel.get("qualifier", "") if isinstance(rel, dict) else None
        if not isinstance(qualifier, str) or not isinstance(rel.get("objectId"), str):
            raise OcelDocumentError("relationship entries need a string 'objectId' and, "
                                    "if any, a string 'qualifier'", f"{key}[{i}].relationships[{j}]")
        try:
            relate(entry["id"], rel["objectId"], qualifier)
        except SchemaError as exc:
            raise OcelDocumentError(f"{key[:-1]} {entry['id']!r}: {exc}",
                                    f"{key}[{i}].relationships[{j}]") from None


def _load_document(text: str | bytes) -> Any:
    """The parsed JSON of a text not in the writer's layout, read whole."""
    try:
        return json.loads(text)
    except UnicodeDecodeError as exc:   # bytes; a ValueError too, so it comes first
        raise OcelDocumentError(f"not UTF-8 text: {exc}") from None
    except ValueError as exc:   # JSONDecodeError, or an integer literal beyond the digit limit
        raise OcelDocumentError(f"malformed JSON: {exc}") from None
    except RecursionError:
        raise OcelDocumentError("malformed JSON: nested too deeply") from None


def _read_writer_layout(fh: IO[str]) -> OcedLog | None:
    """The log of the text of the file ``fh``, from its position, if it has
    ``write_ocel_json``'s layout, built as each line is read, each record
    dropped once stored, so neither the text nor its parsed document is ever
    held whole; otherwise None.

    The frame is a line each for ``{``, for each top-level key's ``"<key>": [``
    in order, for each record (``,`` after all but the last) and for ``],``
    (``]`` after the events), then ``}`` and JSON whitespace. A JSON string
    holds no raw line break, so every one in the frame is structural, and the
    C scanner of ``json.loads`` parses each record's line.

    A mismatch with the frame, text the scanner or the decoder rejects, or a
    record defect gives None. The caller then parses the text whole, which
    raises a record defect with the same message and JSON path, as both build
    the log through ``_add_records``, unless a later break, such as a syntax
    error or a repeated top-level key (``json.loads`` keeps the last), makes
    it another error or none."""
    scan_once = json.JSONDecoder().scan_once   # per read: no two threads share its key memo
    lines = iter(fh)

    def expect(line: str) -> None:
        if next(lines, None) != line:
            raise ValueError("not in the writer's layout")

    def records(key: str, closing: str) -> Iterator[Any]:
        expect(f'"{key}": [\n')
        line, tail = next(lines, ""), ",\n"
        if line == closing:   # an empty section
            return
        while tail == ",\n":
            try:
                record, end = scan_once(line, 0)
            except StopIteration:   # no value at the line's start; out of a generator a RuntimeError
                raise ValueError(f"no JSON value in {line[:40]!r}") from None
            yield record
            tail, line = line[end:], next(lines, "")
        if tail != "\n" or line != closing:
            raise ValueError("not in the writer's layout")

    def closes() -> bool:   # "}", then only what json.loads skips: str.strip() would take "\x0b" too
        first = next(lines, "")
        return first[:1] == "}" and not any(rest.strip(" \t\n\r") for rest in chain((first[1:],), lines))

    try:
        expect("{\n")
        object_types = list(records("objectTypes", "],\n"))
        event_types = list(records("eventTypes", "],\n"))
        log = _add_records(_typed_log(object_types, event_types),
                           records("objects", "],\n"), records("events", "]\n"))
        return log if closes() else None
    except (ValueError, RecursionError, OcelDocumentError, SchemaError):   # UnicodeDecodeError too
        return None


def read_ocel_json(source: str | Path | IO[str]) -> OcedLog:
    """Parse an OCEL 2.0 JSON document from a path or open file.

    Text in ``write_ocel_json``'s layout from a path or a seekable file is
    read in one pass (``_read_writer_layout``); any other text, and such text
    with a defect, is read again whole from where the read began. A file that
    cannot seek is read and parsed whole. So every error, with its message
    and JSON path, comes from the whole parse, and the log is the same
    either way. A path is opened once, with universal newlines as
    in ``Path.read_text``. Text that is not UTF-8 raises ``OcelDocumentError``
    at the position a whole read gives; any other failure to read, such as
    a closed file, propagates unchanged.

    The cyclic GC is paused while the text is parsed and the log is built:
    both only allocate, so a collection pass would find nothing to free. The
    pause is process-wide, so other threads' objects go uncollected during
    the read as well. The caller's state is restored when the read returns
    or raises, so a caller that had disabled the collector keeps it disabled."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with nullcontext(source) if hasattr(source, "read") else Path(source).open(encoding="utf-8") as fh:
            if fh.seekable():
                start = fh.tell()
                if log := _read_writer_layout(fh):
                    return log
                fh.seek(start)
            text = fh.read()
        doc = _load_document(text)
        del text   # the document alone builds the log
        return ocel_from_dict(doc)
    except UnicodeDecodeError as exc:   # any other failure to read is the caller's, and propagates
        raise OcelDocumentError(f"not UTF-8 text: {exc}") from None
    finally:
        if enabled:
            gc.enable()
