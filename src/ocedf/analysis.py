"""Log-level analysis primitives: filtering, flattening, is-a drill-down
and roll-up, event unfolding, and directly-follows graph discovery.

Every operation is pure: it reads one log and returns a fresh value,
leaving the input untouched. Derived logs share the input's frozen
instances and relations (see ``ocel.relabel``). Traces order events by
(time, event id), the same tie-break the core log uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Collection, Iterable

from .errors import SchemaError
from .ocel import (
    AttributeDef,
    AttributeValue,
    EventTypeDef,
    ObjectTypeDef,
    OcedLog,
    relabel,
)

_ROLLUP_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)

# tab10-style palette; object types are assigned colors in sorted order
_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


@dataclass(frozen=True)
class FlatRow:
    case_id: str
    activity: str
    time: datetime
    event_id: str


@dataclass
class FlatLog:
    """Traditional single-case view: one case per object of one type."""

    object_type: str
    rows: tuple[FlatRow, ...]


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
    inclusive and either end may be None. Relations are pruned to
    surviving endpoints. Keeping everything returns a structural copy.
    """
    _check_declared(keep_event_types or (), {td.name for td in log.event_type_defs}, "event type")
    _check_declared(keep_object_types or (), {td.name for td in log.object_type_defs}, "object type")

    lo, hi = time_window if time_window else (None, None)

    def keep_event(e) -> bool:
        return ((keep_event_types is None or e.type in keep_event_types)
                and (lo is None or e.time >= lo) and (hi is None or e.time <= hi))

    objects = {oid: o for oid, o in log.objects.items()
               if keep_object_types is None or o.type in keep_object_types}
    events = {e.id: e for e in log.events_in_order() if keep_event(e)}
    return log._derived(objects, events)


def flatten(log: OcedLog, object_type: str) -> FlatLog:
    """One case per object of the type; events duplicate across cases.

    Events related to several objects of the type appear once per case
    (divergence by duplication); events touching none are dropped.
    """
    _check_declared([object_type], {td.name for td in log.object_type_defs}, "object type")
    rows = []
    for obj in log.objects.values():
        if obj.type != object_type:
            continue
        for event in log.events_of_object(obj.id):
            rows.append(FlatRow(obj.id, event.type, event.time, event.id))
    rows.sort(key=lambda r: (r.case_id, r.time, r.event_id))
    return FlatLog(object_type, tuple(rows))


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

    labels = {}
    for event in log.events_in_order():
        if event.type != event_type:
            continue
        related = [o for o in log.objects_of_event(event.id) if o.type == by_object_type]
        if not related:
            continue
        if len(related) > 1:
            raise SchemaError(
                f"event {event.id!r} relates to {len(related)} objects of type "
                f"{by_object_type!r}; unfolding needs at most one")
        name = related[0].latest_value(name_attribute)
        if not isinstance(name, str) or not name:
            raise SchemaError(
                f"object {related[0].id!r} has no string value for attribute {name_attribute!r}")
        labels[event.id] = f"{event_type} {name}"

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

    per_type: dict[str, TypeDfg] = {t: TypeDfg() for t in requested}
    for obj in log.objects.values():
        if obj.type not in per_type:
            continue
        graph = per_type[obj.type]
        trace = log.events_of_object(obj.id)
        if not trace:
            continue
        for event in trace:
            graph.nodes[event.type] = graph.nodes.get(event.type, 0) + 1
        for a, b in zip(trace, trace[1:]):
            key = (a.type, b.type)
            graph.edges[key] = graph.edges.get(key, 0) + 1
        graph.start_frequencies[trace[0].type] = graph.start_frequencies.get(trace[0].type, 0) + 1
        graph.end_frequencies[trace[-1].type] = graph.end_frequencies.get(trace[-1].type, 0) + 1
    return Dfg(per_type)


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
