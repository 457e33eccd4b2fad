"""Verification as it was before counts were checked while they are tallied.

``derive_matrix`` keeps one ``EventCounts`` record per event and fills the
cell statistics in a second pass over them; ``check`` range-checks those
records in a third pass. Kept as the reference for the differential tests
in ``test_verification.py``, and as the source of per-event counts for the
brute-force tests there.
"""

from __future__ import annotations

from dataclasses import dataclass

from ocedf import ConceptualSchema, ExtractionMatrix, MultiplicityRange, OcedLog
from ocedf.specmodel import ZERO
from ocedf.verification import CellStats, Violation, VerificationReport, WarningEntry


@dataclass
class EventCounts:
    event_id: str
    event_type: str
    counts: dict[str, int]


@dataclass
class VerificationMatrix:
    """Observed counts per (event type, extraction-matrix column)."""

    rows: tuple[str, ...]      # extraction matrix rows first, then extra log event types
    columns: tuple[str, ...]
    cells: dict[tuple[str, str], CellStats]
    per_event: list[EventCounts]
    extra_event_types: tuple[str, ...]
    unmapped_types: dict[str, set[str]]          # event type -> object types outside all columns
    column_families: dict[str, str]              # column -> hierarchy root (only hierarchy columns)

    def cell(self, event_type: str, column: str) -> CellStats:
        return self.cells[(event_type, column)]


def _column_matchers(columns: tuple[str, ...], schema: ConceptualSchema):
    """Map a related object to the columns it counts toward.

    Returns (always, discriminated): ``always[stored_type]`` lists columns
    matched by the stored type itself or an ancestor column;
    ``discriminated[(stored_type, label)]`` lists subtype columns matched
    through the discriminator.
    """
    always: dict[str, list[str]] = {}
    discriminated: dict[tuple[str, str], list[str]] = {}
    stored_candidates = set(schema.object_types)

    for stored in stored_candidates:
        chain = {stored, *schema.ancestors_of(stored)}
        always[stored] = [c for c in columns if c in chain]
        for c in columns:
            if c in chain:
                continue
            if stored in schema.ancestors_of(c):
                discriminated.setdefault((stored, c), []).append(c)
    return always, discriminated


def derive_matrix(log: OcedLog, xmatrix: ExtractionMatrix, schema: ConceptualSchema) -> VerificationMatrix:
    """Tally per-event object counts for every extraction-matrix column."""
    columns = xmatrix.columns
    always, discriminated = _column_matchers(columns, schema)
    discriminator_attr = {t: schema.discriminators.get(schema.root_of(t)) for t in schema.object_types}

    extra = tuple(sorted({e.type for e in log.events.values()} - set(xmatrix.activities)))
    rows = tuple(xmatrix.activities) + extra

    per_event: list[EventCounts] = []
    unmapped: dict[str, set[str]] = {}
    for event in log.events_in_order():
        counts = {c: 0 for c in columns}
        for obj in log.objects_of_event(event.id):
            matched = list(always.get(obj.type, ()))
            attr = discriminator_attr.get(obj.type)
            if attr is not None:
                label = obj.latest_value(attr)
                if isinstance(label, str):
                    matched.extend(discriminated.get((obj.type, label), ()))
            if not matched:
                unmapped.setdefault(event.type, set()).add(obj.type)
            for c in matched:
                counts[c] += 1
        per_event.append(EventCounts(event.id, event.type, counts))

    cells = {(r, c): CellStats() for r in rows for c in columns}
    for ec in per_event:
        for c in columns:
            stats = cells[(ec.event_type, c)]
            n = ec.counts[c]
            if stats.total_events_of_type == 0:
                stats.observed_min = n
                stats.observed_max = n
            else:
                stats.observed_min = min(stats.observed_min, n)
                stats.observed_max = max(stats.observed_max, n)
            if n == 0:
                stats.events_with_zero += 1
            stats.total_events_of_type += 1

    families = {}
    for c in columns:
        root = schema.root_of(c)
        if root != c or schema.subtypes_of(c):
            families[c] = root

    return VerificationMatrix(rows, columns, cells, per_event, extra, unmapped, families)


def _effective_range(matrix: VerificationMatrix, xmatrix: ExtractionMatrix,
                     event_type: str, column: str) -> MultiplicityRange | None:
    """Declared range for a cell, or None when the cell is unchecked."""
    cell = xmatrix.cell(event_type, column)
    if cell is not None:
        return cell
    root = matrix.column_families.get(column)
    if root is None:
        return ZERO
    family = [c for c, r in matrix.column_families.items() if r == root]
    if any(xmatrix.cell(event_type, c) is not None for c in family):
        return None  # expectation pinned at another level of this hierarchy
    if column == root or root not in matrix.columns:
        return ZERO
    return None  # the root's 0..0 already forbids every subtype


def check(matrix: VerificationMatrix, xmatrix: ExtractionMatrix) -> VerificationReport:
    """Diff observed counts against the extraction matrix.

    Violations are per event. A (event type, object type) pair that is
    declared with max > 0 but never observed produces a warning, not a
    violation: ranges with min 0 are formally satisfied, yet the absence
    usually signals a missing relation in the source system.
    """
    report = VerificationReport()

    ranges: dict[tuple[str, str], MultiplicityRange | None] = {}
    for event_type in xmatrix.activities:
        for column in matrix.columns:
            ranges[(event_type, column)] = _effective_range(matrix, xmatrix, event_type, column)

    for ec in matrix.per_event:
        if ec.event_type not in xmatrix.activities:
            continue
        for column in matrix.columns:
            expected = ranges[(ec.event_type, column)]
            if expected is None:
                continue
            n = ec.counts[column]
            if not expected.contains(n):
                report.violations.append(Violation(ec.event_id, ec.event_type, column, n, expected))

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
