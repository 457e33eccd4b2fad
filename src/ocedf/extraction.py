"""CSV ingestion and the ordered source-to-log extraction pipeline.

The pipeline runs in three strictly ordered phases: objects first, then
object-to-object relations alongside events, then event-to-object
relations. Objects mapped to a subtype are stored under their hierarchy
root with the discriminator attribute carrying the subtype label
(single-table inheritance), which keeps referential integrity and enables
drill-down later.
"""

from __future__ import annotations

import csv
import logging
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .errors import DataError
from .ocel import (
    AttributeDef,
    AttributeValue,
    EventInstance,
    EventTypeDef,
    ObjectInstance,
    ObjectTypeDef,
    OcedLog,
    new_log,
)
from .specmodel import E2ORule, EventRule, O2ORule, ObjectRule, ProjectSpec
from .timeutil import parse_iso, parse_with_format

log = logging.getLogger("ocedf.extraction")


@dataclass
class SourceTable:
    """One tabular source: a header and string-valued records."""

    name: str
    header: list[str]
    rows: list[dict[str, str]]


@dataclass
class RuleRun:
    rule_index: int
    phase: int
    kind: str
    source_table: str
    rows_in: int = 0
    rows_loaded: int = 0
    rows_skipped: int = 0
    skipped: dict[str, list[int]] = field(default_factory=dict)   # reason -> [rows, first row]

    def skip(self, row_index: int, reason: str) -> None:
        self.rows_skipped += 1
        self.skipped.setdefault(reason, [0, row_index])[0] += 1


@dataclass
class ExtractionReport:
    """Per-rule row accounting; rows_in == rows_loaded + rows_skipped, and
    each rule counts its skipped rows per reason."""

    counts: dict[str, int] = field(default_factory=lambda: {"object": 0, "event": 0, "o2o": 0, "e2o": 0})
    rule_runs: list[RuleRun] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "counts": dict(self.counts),
            "rules": [
                {"rule": r.rule_index, "phase": r.phase, "kind": r.kind, "source_table": r.source_table,
                 "rows_in": r.rows_in, "rows_loaded": r.rows_loaded, "rows_skipped": r.rows_skipped,
                 "skipped": [{"reason": reason, "rows": rows, "first_row": first}
                             for reason, (rows, first) in r.skipped.items()]}
                for r in self.rule_runs
            ],
            "elapsed_seconds": self.elapsed_seconds,
        }


def synthesize_event_id(table_name: str, row_index: int) -> str:
    """Deterministic event id for tables without an explicit id column."""
    return f"{table_name}:{row_index}"


def load_source(path: str | Path, table_name: str) -> SourceTable:
    """Load one CSV source table (RFC-4180, UTF-8, header row)."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                raw_header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file, expected a header row") from None
            header = [h.strip() for h in raw_header]
            repeated = next((h for i, h in enumerate(header) if h in header[:i]), None)
            if repeated is not None:
                raise DataError(f"{path}: column {repeated!r} appears twice in the header row")
            rows = []
            for i, row in enumerate(reader):
                if len(row) != len(header):
                    raise DataError(
                        f"{path}: ragged row at data row {i}: "
                        f"expected {len(header)} cells, found {len(row)}")
                rows.append(dict(zip(header, row)))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    return SourceTable(table_name, header, rows)


def _require_columns(rule_index: int, rule, table: SourceTable, columns: list[str]) -> None:
    for col in columns:
        if col and col not in table.header:
            raise DataError(
                f"mappings[{rule_index}]: table {table.name!r} has no column {col!r}")


def _cell(row: dict[str, str], column: str) -> str:
    return row.get(column, "").strip()


class _Pipeline:
    def __init__(self, spec: ProjectSpec, sources: Mapping[str, SourceTable], on_dangling: str):
        if on_dangling not in ("skip", "fail"):
            raise DataError(f"unknown dangling policy {on_dangling!r}; use 'skip' or 'fail'")
        self.spec = spec
        self.sources = sources
        self.on_dangling = on_dangling
        self.report = ExtractionReport()
        self.log = new_log(self._object_type_defs(), self._event_type_defs())

    # -- schema synthesis ------------------------------------------------

    def _object_type_defs(self) -> list[ObjectTypeDef]:
        schema = self.spec.schema
        attr_names: dict[str, list[str]] = {t: [] for t in schema.stored_types()}
        for rule in self.spec.mappings:
            if not isinstance(rule, ObjectRule):
                continue
            stored = schema.root_of(rule.object_type)
            names = attr_names.setdefault(stored, [])
            for attr in rule.attribute_columns:
                if attr not in names:
                    names.append(attr)
        defs = []
        for t in schema.stored_types():
            names = attr_names.get(t, [])
            discriminator = schema.discriminators.get(t)
            if discriminator and schema.subtypes_of(t) and discriminator not in names:
                names.append(discriminator)
            defs.append(ObjectTypeDef(t, tuple(AttributeDef(n, "string") for n in names)))
        return defs

    def _event_type_defs(self) -> list[EventTypeDef]:
        attr_names: dict[str, list[str]] = {a: [] for a in self.spec.xmatrix.activities}
        for rule in self.spec.mappings:
            if not isinstance(rule, EventRule):
                continue
            targets = [rule.activity] if rule.activity else list(self.spec.xmatrix.activities)
            for activity in targets:
                names = attr_names.setdefault(activity, [])
                for attr in rule.attribute_columns:
                    if attr not in names:
                        names.append(attr)
        return [EventTypeDef(a, tuple(AttributeDef(n, "string") for n in attr_names[a]))
                for a in self.spec.xmatrix.activities]

    # -- shared row helpers ----------------------------------------------

    def _table(self, rule_index: int, rule) -> SourceTable:
        table = self.sources.get(rule.source_table)
        if table is None:
            raise DataError(f"mappings[{rule_index}]: source table {rule.source_table!r} not provided")
        return table

    def _dangling(self, run: RuleRun, row_index: int, reason: str, ref: str) -> None:
        if self.on_dangling == "fail":
            raise DataError(f"mappings[{run.rule_index}] row {row_index}: {reason} {ref!r}")
        run.skip(row_index, reason)

    # -- phases ------------------------------------------------------------

    def run(self) -> tuple[OcedLog, ExtractionReport]:
        started = _time.perf_counter()
        phases = (
            (1, lambda r: isinstance(r, ObjectRule)),
            (2, lambda r: isinstance(r, (O2ORule, EventRule))),
            (3, lambda r: isinstance(r, E2ORule)),
        )
        for phase, selects in phases:
            log.info("extraction phase %d", phase)
            for index, rule in enumerate(self.spec.mappings):
                if not selects(rule):
                    continue
                run = RuleRun(index, phase, rule.kind, rule.source_table)
                if isinstance(rule, ObjectRule):
                    self._run_object_rule(index, rule, run)
                elif isinstance(rule, EventRule):
                    self._run_event_rule(index, rule, run)
                elif isinstance(rule, O2ORule):
                    self._run_o2o_rule(index, rule, run)
                else:
                    self._run_e2o_rule(index, rule, run)
                self.report.rule_runs.append(run)
        self.report.counts = {
            "object": len(self.log.objects),
            "event": len(self.log.events),
            "e2o": sum(map(len, self.log._e2o_by_event.values())),   # no relation copied
            "o2o": sum(map(len, self.log._o2o_by_source.values())),
        }
        self.report.elapsed_seconds = _time.perf_counter() - started
        return self.log, self.report

    def _run_object_rule(self, index: int, rule: ObjectRule, run: RuleRun) -> None:
        table = self._table(index, rule)
        schema = self.spec.schema
        _require_columns(index, rule, table,
                         [rule.id_column, rule.subtype_column or "", rule.attribute_time_column or "",
                          *rule.attribute_columns.values()])
        stored = schema.root_of(rule.object_type)
        discriminator = schema.discriminators.get(stored)
        run.rows_in = len(table.rows)
        for i, row in enumerate(table.rows):
            oid = _cell(row, rule.id_column)
            if not oid:
                raise DataError(f"mappings[{index}] row {i}: empty object id")
            label = ""
            if rule.subtype_column:
                label = _cell(row, rule.subtype_column)
            elif rule.object_type != stored:
                label = rule.object_type
            existing = self.log.objects.get(oid)
            if existing is not None:
                if existing.type != stored:
                    raise DataError(
                        f"mappings[{index}] row {i}: object {oid!r} already stored "
                        f"as {existing.type!r}, rule maps it to {stored!r}")
                run.skip(i, "duplicate object id; first writer wins")
                continue
            when = self.spec.extraction_epoch
            if rule.attribute_time_column:
                raw = _cell(row, rule.attribute_time_column)
                if raw:
                    when = parse_iso(raw)
            values = []
            for attr, col in rule.attribute_columns.items():
                raw = _cell(row, col)
                if raw:
                    values.append(AttributeValue(attr, when, raw))
            if label and discriminator:
                values.append(AttributeValue(discriminator, when, label))
            self.log.add_object(ObjectInstance(oid, stored, tuple(values)))
            run.rows_loaded += 1

    def _run_event_rule(self, index: int, rule: EventRule, run: RuleRun) -> None:
        table = self._table(index, rule)
        _require_columns(index, rule, table,
                         [rule.time_column, rule.activity_column or "", rule.id_column or "",
                          *rule.attribute_columns.values()])
        activities = set(self.spec.xmatrix.activities)
        run.rows_in = len(table.rows)
        for i, row in enumerate(table.rows):
            activity = rule.activity or _cell(row, rule.activity_column)
            if not activity:
                raise DataError(f"mappings[{index}] row {i}: empty activity")
            if activity not in activities:
                raise DataError(
                    f"mappings[{index}] row {i}: activity {activity!r} is not an extraction matrix row")
            eid = _cell(row, rule.id_column) if rule.id_column else synthesize_event_id(table.name, i)
            if not eid:
                raise DataError(f"mappings[{index}] row {i}: empty event id")
            if eid in self.log.events:
                raise DataError(f"mappings[{index}] row {i}: duplicate event id {eid!r}")
            when = parse_with_format(_cell(row, rule.time_column), rule.time_format)
            attrs = []
            for attr, col in rule.attribute_columns.items():
                raw = _cell(row, col)
                if raw:
                    attrs.append((attr, raw))
            self.log.add_event(EventInstance(eid, activity, when, tuple(attrs)))
            run.rows_loaded += 1

    def _run_o2o_rule(self, index: int, rule: O2ORule, run: RuleRun) -> None:
        table = self._table(index, rule)
        _require_columns(index, rule, table, [rule.source_id_column, rule.target_id_column])
        run.rows_in = len(table.rows)
        for i, row in enumerate(table.rows):
            src = _cell(row, rule.source_id_column)
            tgt = _cell(row, rule.target_id_column)
            if not src or not tgt:
                run.skip(i, "empty endpoint id")
                continue
            missing = [oid for oid in (src, tgt) if oid not in self.log.objects]
            if missing:
                self._dangling(run, i, "o2o references unknown object", missing[0])
                continue
            if src == tgt and not rule.qualifier:
                run.skip(i, "self o2o relation without qualifier")
                continue
            if self.log.has_o2o(src, tgt, rule.qualifier):
                run.skip(i, "duplicate o2o relation")
                continue
            self.log.relate_objects(src, tgt, rule.qualifier)
            run.rows_loaded += 1

    def _run_e2o_rule(self, index: int, rule: E2ORule, run: RuleRun) -> None:
        table = self._table(index, rule)
        _require_columns(index, rule, table, [rule.object_id_column, rule.event_id_column or ""])
        run.rows_in = len(table.rows)
        for i, row in enumerate(table.rows):
            oid = _cell(row, rule.object_id_column)
            if not oid:
                run.skip(i, "empty object id")
                continue
            eid = _cell(row, rule.event_id_column) if rule.event_id_column \
                else synthesize_event_id(table.name, i)
            if not eid:
                run.skip(i, "empty event id")
                continue
            if eid not in self.log.events:
                self._dangling(run, i, "e2o references unknown event", eid)
                continue
            if oid not in self.log.objects:
                self._dangling(run, i, "e2o references unknown object", oid)
                continue
            if self.log.has_e2o(eid, oid, rule.qualifier):
                run.skip(i, "duplicate e2o relation")
                continue
            self.log.relate_event_object(eid, oid, rule.qualifier)
            run.rows_loaded += 1


def extract(spec: ProjectSpec, sources: Mapping[str, SourceTable],
            on_dangling: str = "skip") -> tuple[OcedLog, ExtractionReport]:
    """Run the full pipeline over the given source tables.

    Deterministic: two runs over the same spec and sources yield
    structurally equal logs. Under the default ``skip`` policy, rows with
    dangling references are counted in the report, per rule and reason,
    instead of failing the run; ``fail`` raises on the first dangling
    reference and names it.
    """
    return _Pipeline(spec, sources, on_dangling).run()
