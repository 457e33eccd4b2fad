"""Log-level analysis primitives: filtering, flattening, is-a drill-down
and roll-up, event unfolding, directly-follows graph discovery, and the
object/event tallies of ``stats``.

Every operation is pure: it reads one log and returns a fresh value,
leaving the input untouched. Derived logs share the input's frozen
instances and relations (see ``ocel.relabel``). Traces order events by
(time, event id), the same tie-break the core log uses.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import groupby
from operator import attrgetter
from typing import Collection, Iterable, NamedTuple

from .errors import SchemaError
from .ocel import (
    AttributeDef,
    AttributeValue,
    EventInstance,
    EventTypeDef,
    ObjectTypeDef,
    OcedLog,
    relabel,
)
from .timeutil import as_utc

_ROLLUP_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)

# tab10-style palette; object types are assigned colors in sorted order
_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


class FlatRow(NamedTuple):
    case_id: str
    activity: str
    time: datetime
    event_id: str


@dataclass(init=False, eq=False)
class FlatLog:
    """Traditional single-case view: one case per object of one type.

    ``cases`` pairs each case id, in id order, with its object's trace: the
    log's own stored tuple of events by (time, event id), shared and not
    copied. An object with no events is no case. Two flat logs are equal
    when their object types and their ``rows`` are."""

    object_type: str
    cases: tuple[tuple[str, tuple[EventInstance, ...]], ...]

    def __init__(self, object_type: str,
                 cases: tuple[tuple[str, tuple[EventInstance, ...]], ...] = (), *,
                 rows: Iterable[FlatRow] | None = None):
        """``rows``, when given, takes the place of ``cases``: each run of rows
        of one case is a trace of events with no attribute values. This keeps
        ``dataclasses.replace(flat, rows=...)`` working."""
        if rows is not None:
            cases = tuple((case_id, tuple(EventInstance(row.event_id, row.activity, row.time)
                                          for row in run))
                          for case_id, run in groupby(rows, attrgetter("case_id")))
        self.object_type, self.cases = object_type, cases

    @property
    def rows(self) -> tuple[FlatRow, ...]:
        """One row per trace entry, by (case, time, event id), built anew."""
        # tuple.__new__ skips the NamedTuple's Python-level __new__
        new = tuple.__new__
        return tuple(new(FlatRow, (case_id, event.type, event.time, event.id))
                     for case_id, trace in self.cases for event in trace)

    def __eq__(self, other):
        if not isinstance(other, FlatLog):
            return NotImplemented
        return self.object_type == other.object_type and self.rows == other.rows


@dataclass
class TypeDfg:
    nodes: dict[str, int] = field(default_factory=dict)
    edges: dict[tuple[str, str], int] = field(default_factory=dict)
    start_frequencies: dict[str, int] = field(default_factory=dict)
    end_frequencies: dict[str, int] = field(default_factory=dict)


@dataclass
class Dfg:
    """Per-object-type directly-follows graphs sharing one node namespace."""

    per_type: dict[str, TypeDfg]


def _check_declared(names: Iterable[str], declared: Collection[str], what: str) -> None:
    for name in names:
        if name not in declared:
            raise SchemaError(f"unknown {what} {name!r}")


def filter_log(log: OcedLog,
               keep_event_types: set[str] | None = None,
               keep_object_types: set[str] | None = None,
               time_window: tuple[datetime | None, datetime | None] | None = None) -> OcedLog:
    """Project the log onto selected event/object types and a time window.

    ``None`` keeps everything for that dimension; the window bounds are
    inclusive, either end may be None, and a naive bound is read as UTC.
    Relations are pruned to surviving endpoints. Keeping everything returns
    a structural copy.
    """
    _check_declared(keep_event_types or (), {td.name for td in log.event_type_defs}, "event type")
    _check_declared(keep_object_types or (), {td.name for td in log.object_type_defs}, "object type")

    lo, hi = (None if t is None else as_utc(t) for t in time_window or (None, None))

    objects = log.objects if keep_object_types is None else {
        oid: o for oid, o in log.objects.items() if o.type in keep_object_types}
    # the cached (time, id) order, which the log never mutates; no call per event
    events = {e.id: e for e in log._event_order()
              if (keep_event_types is None or e.type in keep_event_types)
              and (lo is None or e.time >= lo) and (hi is None or e.time <= hi)}
    return log._derived(objects, events)


def flatten(log: OcedLog, object_type: str) -> FlatLog:
    """One case per object of the type; events duplicate across cases.

    Events related to several objects of the type appear once per case
    (divergence by duplication); events touching none are dropped.
    """
    _check_declared([object_type], {td.name for td in log.object_type_defs}, "object type")
    traces = log._object_traces()   # the stored tuples, which the log rebinds and never mutates
    cases = sorted(oid for oid, obj in log.objects.items()
                   if obj.type == object_type and oid in traces)
    return FlatLog(object_type, tuple((oid, traces[oid]) for oid in cases))


def stats(log: OcedLog, discriminator_attr: str = "role") -> str:
    """Human-readable object/event tallies.

    Lists object counts per type and, per event type, the event count and
    the number of distinct related objects per type. Objects carrying the
    discriminator attribute are additionally bucketed by its latest value,
    e.g. ``User: 24 distinct (Student: 23, Teacher: 1)``.
    """
    object_counts = Counter(obj.type for obj in log.objects.values())
    event_counts = Counter(event.type for event in log.events.values())
    related = defaultdict(Counter)   # event type -> object type -> distinct objects
    labels = defaultdict(Counter)    # (event type, object type) -> label -> objects
    for oid, obj in log.objects.items():
        label = obj.latest_value(discriminator_attr)
        labelled = isinstance(label, str) and label
        for etype in {event.type for event in log.events_of_object(oid)}:
            related[etype][obj.type] += 1
            if labelled:
                labels[etype, obj.type][label] += 1

    lines = [f"objects: {len(log.objects)} total"]
    lines += [f"  {otype}: {n}" for otype, n in sorted(object_counts.items())]
    lines.append(f"events: {len(log.events)} total")
    for etype, n in sorted(event_counts.items()):
        lines.append(f"  {etype}: {n}")
        for otype, distinct in sorted(related.get(etype, {}).items()):
            bucket = labels.get((etype, otype))
            suffix = f" ({', '.join(f'{k}: {v}' for k, v in sorted(bucket.items()))})" if bucket else ""
            lines.append(f"    {otype}: {distinct} distinct{suffix}")
    return "\n".join(lines) + "\n"


def _with_labels(defs, labels: Iterable[str], attribute_defs, cls, collision: str) -> list:
    """``defs`` plus a definition shaped ``attribute_defs`` for each new label,
    in sorted order; a label declared already must have that shape."""
    out = list(defs)
    existing = {td.name: td for td in out}
    for label in sorted(labels):
        if label not in existing:
            out.append(cls(label, attribute_defs))
        elif existing[label].attribute_defs != attribute_defs:
            raise SchemaError(collision.format(label))
    return out


def drill_down(log: OcedLog, supertype: str, discriminator_attr: str = "role") -> OcedLog:
    """Split a supertype into per-discriminator object types.

    Each object of ``supertype`` is relabeled to its latest discriminator
    value; objects carrying no value become ``<supertype>:unknown``. The
    discriminator must be a declared string attribute of the supertype.
    """
    defs = {td.name: td for td in log.object_type_defs}
    _check_declared([supertype], defs, "object type")
    sdef = defs[supertype]
    disc = next((ad for ad in sdef.attribute_defs if ad.name == discriminator_attr), None)
    if disc is None or disc.kind != "string":
        raise SchemaError(
            f"type {supertype!r} has no string discriminator attribute {discriminator_attr!r}")

    labels = {}
    for obj in log.objects.values():
        if obj.type == supertype:
            value = obj.latest_value(discriminator_attr)
            labels[obj.id] = value if isinstance(value, str) and value else f"{supertype}:unknown"

    out_defs = _with_labels([td for td in defs.values() if td.name != supertype],
                            set(labels.values()), sdef.attribute_defs, ObjectTypeDef,
                            "drill-down label {!r} collides with a differently-shaped type")
    return relabel(log, out_defs, object_labels=labels)


def roll_up(log: OcedLog, subtype_labels: set[str], into: str,
            discriminator_attr: str = "role") -> OcedLog:
    """Merge object types under one supertype, preserving labels in the
    discriminator attribute. Inverse of drill_down when every instance
    carries a discriminator value."""
    if not subtype_labels:
        return relabel(log)  # structural copy

    defs = {td.name: td for td in log.object_type_defs}
    _check_declared(sorted(subtype_labels), defs, "object type label")

    # target def: reuse the declared one or merge the subtype defs
    sources = [into] if into in defs else sorted(subtype_labels)
    target_attrs = list(dict.fromkeys(ad for name in sources for ad in defs[name].attribute_defs))
    if discriminator_attr not in {ad.name for ad in target_attrs}:
        target_attrs.append(AttributeDef(discriminator_attr, "string"))

    labels, added = {}, {}
    for obj in log.objects.values():
        if obj.type not in subtype_labels:
            continue
        current = obj.latest_value(discriminator_attr)
        if current is None:
            added[obj.id] = (AttributeValue(discriminator_attr, _ROLLUP_EPOCH, obj.type),)
        elif current != obj.type:
            raise SchemaError(
                f"object {obj.id!r}: discriminator says {current!r} but type label is {obj.type!r}")
        labels[obj.id] = into

    # the merged type takes the place of the first type it replaces
    replaced = subtype_labels | {into}
    first = next(i for i, name in enumerate(defs) if name in replaced)
    out_defs = [td for td in defs.values() if td.name not in replaced]
    out_defs.insert(first, ObjectTypeDef(into, tuple(target_attrs)))
    return relabel(log, out_defs, object_labels=labels, added_values=added)


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
    _check_declared([event_type], event_defs, "event type")
    _check_declared([by_object_type], {td.name for td in log.object_type_defs}, "object type")

    objects, by_event = log.objects, log._e2o_by_event
    named = {}   # object id -> its label, or None without a string name: each worked out once
    labels = {}
    for event in log._event_order():
        if event.type != event_type:
            continue
        related = {oid for oid, _ in by_event.get(event.id, ()) if objects[oid].type == by_object_type}
        if not related:
            continue
        if len(related) > 1:
            raise SchemaError(
                f"event {event.id!r} relates to {len(related)} objects of type "
                f"{by_object_type!r}; unfolding needs at most one")
        oid, = related
        if oid not in named:
            name = objects[oid].latest_value(name_attribute)
            named[oid] = f"{event_type} {name}" if isinstance(name, str) and name else None
        if named[oid] is None:
            raise SchemaError(f"object {oid!r} has no string value for attribute {name_attribute!r}")
        labels[event.id] = named[oid]

    out_defs = _with_labels(
        event_defs.values(), set(labels.values()), event_defs[event_type].attribute_defs,
        EventTypeDef, "unfolded label {!r} collides with a differently-shaped event type")
    return relabel(log, event_types=out_defs, event_labels=labels)


def discover_dfg(log: OcedLog, object_types: Iterable[str]) -> Dfg:
    """Directly-follows graph per object type.

    Every object contributes one edge per adjacent pair of its
    time-ordered trace; the first and last event types of non-empty
    traces feed the start/end frequencies.
    """
    requested = sorted(set(object_types))
    _check_declared(requested, {td.name for td in log.object_type_defs}, "object type")

    # per type: node, edge, start and end counts, each in first-seen order
    counts = {t: (Counter(), Counter(), Counter(), Counter()) for t in requested}
    for obj in log.objects.values():
        if obj.type in counts and (trace := [e.type for e in log.events_of_object(obj.id)]):
            nodes, edges, starts, ends = counts[obj.type]
            nodes.update(trace)
            edges.update(zip(trace, trace[1:]))
            starts[trace[0]] += 1
            ends[trace[-1]] += 1
    return Dfg({t: TypeDfg(*map(dict, c)) for t, c in counts.items()})


def to_dot(dfg: Dfg, min_edge_frequency: int = 0) -> str:
    """Render as a deterministic DOT digraph, one color class per type."""
    if min_edge_frequency < 0:
        raise ValueError("min_edge_frequency must be >= 0")

    types = sorted(dfg.per_type)
    colors = {t: _PALETTE[i % len(_PALETTE)] for i, t in enumerate(types)}

    node_totals: dict[str, int] = {}
    kept_edges: list[tuple[str, str, str, int]] = []  # (type, source, target, freq)
    for t in types:
        graph = dfg.per_type[t]
        for name, freq in graph.nodes.items():
            node_totals[name] = node_totals.get(name, 0) + freq
        for (src, tgt), freq in graph.edges.items():
            if freq >= min_edge_frequency:
                kept_edges.append((t, src, tgt, freq))
    kept_edges.sort()

    lines = ["// object-centric directly-follows graph", "digraph {"]
    if node_totals or kept_edges:
        lines.append("  rankdir=LR;")
        lines.append('  node [shape=box, style=rounded];')
        for t in types:
            lines.append(f'  // {t}: {colors[t]}')
        for name in sorted(node_totals):
            lines.append(f'  "{_escape(name)}" [label="{_escape(name)} ({node_totals[name]})"];')
        for t, src, tgt, freq in kept_edges:
            lines.append(f'  "{_escape(src)}" -> "{_escape(tgt)}" '
                         f'[label="{freq}", color="{colors[t]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _escape(name: str) -> str:
    return name.replace("\\", "\\\\").replace('"', '\\"')
