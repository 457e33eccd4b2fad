"""Deriving the observed event-type x object-type matrix and checking it.

The derived matrix counts, per event, how many related objects fall into
each extraction-matrix column (see ``_column_class``), and checks those
counts against the declared multiplicity ranges.

Events are tallied by signature: the event type plus the column class of
each distinct related object. Events of one signature have the same
counts, so only the first event of a signature counts and range-checks;
each later one adds one to its signature's events. Events are read in the
order the log stores them, each signature built from the event's stored
relation pairs, and only the events whose signature has violations are
kept; those alone are sorted by (time, id) to repeat their signature's
violations under their own ids. The cell statistics and the unmapped types
are folded once per signature at the end. Only those and the violations
are kept, never a per-event table.

Blank cells read as 0..0, except inside an is-a family: when a row pins
the expectation at one level of the hierarchy (say Student = 1), the other
levels of the same family are left unchecked for that row, since the same
physical object would otherwise be double-counted against a forbidden
cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ocel import OcedLog
from .specmodel import ConceptualSchema, ExtractionMatrix, MultiplicityRange, ZERO


@dataclass
class CellStats:
    observed_min: int = 0
    observed_max: int = 0
    events_with_zero: int = 0
    total_events_of_type: int = 0


@dataclass(frozen=True)
class Violation:
    event_id: str
    event_type: str
    object_type: str
    observed: int
    expected: MultiplicityRange


@dataclass
class VerificationMatrix:
    """Observed counts per (event type, extraction-matrix column)."""

    rows: tuple[str, ...]      # extraction matrix rows first, then extra log event types
    columns: tuple[str, ...]
    cells: dict[tuple[str, str], CellStats]
    violations: list[Violation]                  # by event (time, id), then column order,
                                                 # whatever order the log stores events in
    extra_event_types: tuple[str, ...]
    unmapped_types: dict[str, set[str]]          # event type -> object types outside all columns
    column_families: dict[str, str]              # column -> hierarchy root (only hierarchy columns)

    def cell(self, event_type: str, column: str) -> CellStats:
        return self.cells[(event_type, column)]


@dataclass(frozen=True)
class WarningEntry:
    event_type: str
    object_type: str
    message: str


@dataclass
class VerificationReport:
    violations: list[Violation] = field(default_factory=list)
    warnings: list[WarningEntry] = field(default_factory=list)

    @property
    def summary(self) -> dict[str, int]:
        return {"violations": len(self.violations), "warnings": len(self.warnings)}

    def to_dict(self) -> dict:
        return {
            "violations": [
                {"event_id": v.event_id, "event_type": v.event_type, "object_type": v.object_type,
                 "observed": v.observed, "expected": v.expected.canonical()}
                for v in self.violations
            ],
            "warnings": [
                {"event_type": w.event_type, "object_type": w.object_type, "message": w.message}
                for w in self.warnings
            ],
            "summary": self.summary,
        }


def _column_class(schema: ConceptualSchema, columns: tuple[str, ...],
                  stored: str, label: object) -> tuple[str, ...] | str:
    """The columns an object of type ``stored`` counts toward, whose
    discriminator (its root's) reads ``label``: the columns on the stored
    type's ancestor chain, itself included, plus the label's column when the
    stored type is a proper ancestor of the label. So an object stored as
    User with label Student counts toward User and Student, never toward a
    type between them. An object that counts toward no column, or whose type
    the schema does not declare, has its type as its class."""
    if stored not in schema.object_types:
        return stored
    chain = {stored, *schema.ancestors_of(stored)}
    return tuple(c for c in columns
                 if c in chain or c == label and stored in schema.ancestors_of(c)) or stored


def _effective_range(column_families: dict[str, str], xmatrix: ExtractionMatrix,
                     event_type: str, column: str) -> MultiplicityRange | None:
    """Declared range for a cell, or None when the cell is unchecked."""
    cell = xmatrix.cell(event_type, column)
    if cell is not None:
        return cell
    root = column_families.get(column)
    if root is None:
        return ZERO
    family = [c for c, r in column_families.items() if r == root]
    if any(xmatrix.cell(event_type, c) is not None for c in family):
        return None  # expectation pinned at another level of this hierarchy
    if column == root or root not in xmatrix.columns:
        return ZERO
    return None  # the root's 0..0 already forbids every subtype


class _Tally:
    """The events of one signature: their number, their shared counts per
    column, and the (column, count, range) checks those counts fail."""

    __slots__ = ("events", "counts", "violated")

    def __init__(self, signature: tuple, columns: tuple[str, ...],
                 ranges: dict[tuple[str, str], MultiplicityRange | None]):
        event_type, *event_classes = signature
        self.events = 0
        self.counts = dict.fromkeys(columns, 0)
        for cls in event_classes:
            if not isinstance(cls, str):
                for c in cls:
                    self.counts[c] += 1
        self.violated = [(c, n, expected) for c, n in self.counts.items()
                         if (expected := ranges.get((event_type, c))) is not None
                         and not expected.contains(n)]


def derive_matrix(log: OcedLog, xmatrix: ExtractionMatrix, schema: ConceptualSchema) -> VerificationMatrix:
    """Tally per-event object counts for every extraction-matrix column and
    check each event's counts against its row's effective ranges.

    Events are read once, in storage order, and grouped by signature, so
    counting and checking cost once per signature, and each further event
    one tuple of its objects' classes, built from its stored pairs, and one
    lookup. A signature starts with its event type, so the event types that
    are not matrix rows (``extra_event_types``) come from the signatures.
    The classes come in object id order, so two events whose classes differ
    only in order have separate signatures with equal counts. Only the
    events with violations are sorted, by (time, id), so violations are in
    event (time, id) order, then column order, as one count per event in
    time order would give them."""
    columns = xmatrix.columns
    families = {c: root for c in columns if (root := schema.root_of(c)) != c or schema.subtypes_of(c)}
    label_attr = {t: schema.discriminators.get(schema.root_of(t)) for t in schema.object_types}

    # per object: its column class, worked out once per (stored type, label)
    classes: dict[str, tuple[str, ...] | str] = {}
    known: dict[tuple[str, object], tuple[str, ...] | str] = {}
    for obj in log.objects.values():
        key = obj.type, obj.latest_value(label_attr.get(obj.type))
        cls = known.get(key)
        if cls is None:
            cls = known[key] = _column_class(schema, columns, *key)
        classes[obj.id] = cls

    # per signature (event type, column class of each distinct related object):
    # its number of events, its counts and the violations those counts make
    ranges = {(a, c): _effective_range(families, xmatrix, a, c) for a in xmatrix.activities for c in columns}
    tallies: dict[tuple, _Tally] = {}
    flagged: list[tuple] = []   # (event, tally) of each event whose signature has violations
    by_event = log._e2o_by_event
    for event in log.events.values():
        signature, last = [event.type], None
        for oid, _ in by_event.get(event.id, ()):   # by (object, qualifier): a repeat is adjacent
            if oid != last:
                signature.append(classes[oid])
                last = oid
        signature = tuple(signature)
        tally = tallies.get(signature)
        if tally is None:
            tally = tallies[signature] = _Tally(signature, columns, ranges)
        tally.events += 1
        if tally.violated:
            flagged.append((event, tally))
    flagged.sort(key=lambda flag: (flag[0].time, flag[0].id))
    violations = [Violation(event.id, event.type, column, n, expected)
                  for event, tally in flagged for column, n, expected in tally.violated]

    extra = tuple(sorted({signature[0] for signature in tallies} - set(xmatrix.activities)))
    rows = tuple(xmatrix.activities) + extra
    cells = {(r, c): CellStats() for r in rows for c in columns}
    unmapped: dict[str, set[str]] = {}
    for (event_type, *event_classes), tally in tallies.items():
        for cls in event_classes:
            if isinstance(cls, str):
                unmapped.setdefault(event_type, set()).add(cls)
        for column, n in tally.counts.items():
            stats = cells[(event_type, column)]
            if stats.total_events_of_type == 0:
                stats.observed_min = stats.observed_max = n
            else:
                stats.observed_min = min(stats.observed_min, n)
                stats.observed_max = max(stats.observed_max, n)
            if n == 0:
                stats.events_with_zero += tally.events
            stats.total_events_of_type += tally.events

    return VerificationMatrix(rows, columns, cells, violations, extra, unmapped, families)


def check(matrix: VerificationMatrix, xmatrix: ExtractionMatrix) -> VerificationReport:
    """Report the matrix's violations and the warnings against the extraction matrix.

    Violations are per event, and were found by :func:`derive_matrix`
    against the extraction matrix given to it. A (event type, object type)
    pair that is declared with max > 0 but never observed produces a
    warning, not a violation: ranges with min 0 are formally satisfied, yet
    the absence usually signals a missing relation in the source system.
    """
    report = VerificationReport(violations=list(matrix.violations))

    for event_type in xmatrix.activities:
        for column in matrix.columns:
            cell = xmatrix.cell(event_type, column)
            if cell is None or cell.max == 0:
                continue
            stats = matrix.cell(event_type, column)
            if stats.total_events_of_type > 0 and stats.observed_max == 0:
                report.warnings.append(WarningEntry(
                    event_type, column,
                    f"declared {cell.canonical()} but never observed "
                    f"across {stats.total_events_of_type} event(s)"))

    for event_type in matrix.extra_event_types:
        report.warnings.append(WarningEntry(
            event_type, "", "event type does not appear in the extraction matrix"))

    for event_type in sorted(matrix.unmapped_types):
        for otype in sorted(matrix.unmapped_types[event_type]):
            report.warnings.append(WarningEntry(
                event_type, otype, f"objects of type {otype!r} are not counted by any matrix column"))

    return report


def render_matrix(matrix: VerificationMatrix, report: VerificationReport) -> str:
    """Plain-text grid of observed ranges with flagged cells marked ``!``."""
    flagged = {(v.event_type, v.object_type) for v in report.violations}
    flagged.update((w.event_type, w.object_type) for w in report.warnings if w.object_type)

    shown_rows = [r for r in matrix.rows
                  if any(matrix.cells[(r, c)].total_events_of_type for c in matrix.columns)
                  or any((r, c) in flagged for c in matrix.columns)]

    header = [""] + list(matrix.columns)
    body = []
    for r in shown_rows:
        line = [r]
        for c in matrix.columns:
            stats = matrix.cells[(r, c)]
            text = f"{stats.observed_min}..{stats.observed_max}"
            if (r, c) in flagged:
                text += " !"
            line.append(text)
        body.append(line)

    widths = [max(len(row[i]) for row in [header, *body]) for i in range(len(header))]
    lines = []
    for row in [header, *body]:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())

    if report.violations:
        lines.append("")
        lines.append(f"violations ({len(report.violations)}):")
        for v in report.violations:
            lines.append(f"  event {v.event_id} ({v.event_type}): {v.object_type} "
                         f"observed {v.observed}, expected {v.expected.canonical()}")
    else:
        lines.append("")
        lines.append("violations: none")
    if report.warnings:
        lines.append(f"warnings ({len(report.warnings)}):")
        for w in report.warnings:
            where = f"{w.event_type} / {w.object_type}" if w.object_type else w.event_type
            lines.append(f"  {where}: {w.message}")
    else:
        lines.append("warnings: none")
    return "\n".join(lines) + "\n"
