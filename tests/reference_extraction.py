"""The extraction pipeline's rule runners as they were before each phase
stored its relations in one step, and timestamps parsed by ``strptime`` alone.

Every relation goes through ``has_*`` and then ``relate_*``, one row at a
time, each rule rebuilds the synthesized event ids it reads, and every time
cell is parsed by ``datetime.strptime``. The schema synthesis and the row
helpers (``_table``, ``_dangling``) are ``extraction._Pipeline``'s own. The
differential tests in ``test_extraction.py`` require ``extract`` to give the
same OCEL JSON and report as ``reference_extract``, or the same error.
"""

from datetime import datetime

from ocedf import extraction
from ocedf.errors import DataError
from ocedf.extraction import RuleRun, _require_columns, synthesize_event_id
from ocedf.ocel import AttributeValue, EventInstance, ObjectInstance, OcedLog
from ocedf.specmodel import E2ORule, EventRule, O2ORule, ObjectRule
from ocedf.timeutil import parse_iso, to_utc_ms


def parse_with_format(text: str, fmt: str) -> datetime:
    try:
        return to_utc_ms(datetime.strptime(text.strip(), fmt))
    except ValueError as exc:
        raise DataError(f"unparseable timestamp {text!r} for format {fmt!r}: {exc}") from None


def table_rows(table: extraction.SourceTable) -> list[dict[str, str]]:
    """Each row of ``table`` as a dict from column name to its cell."""
    return [dict(zip(table.header, cells)) for cells in table.cells(table.header)]


def _cell(row: dict[str, str], column: str) -> str:
    return row.get(column, "").strip()


class _ReferencePipeline(extraction._Pipeline):
    def run(self) -> tuple[OcedLog, extraction.ExtractionReport]:
        phases = (
            (1, lambda r: isinstance(r, ObjectRule)),
            (2, lambda r: isinstance(r, (O2ORule, EventRule))),
            (3, lambda r: isinstance(r, E2ORule)),
        )
        for phase, selects in phases:
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
        return self.log, self.report

    def _run_object_rule(self, index: int, rule: ObjectRule, run: RuleRun) -> None:
        table = self._table(index, rule)
        schema = self.spec.schema
        _require_columns(index, table,
                         [rule.id_column, rule.subtype_column or "", rule.attribute_time_column or "",
                          *rule.attribute_columns.values()])
        stored = schema.root_of(rule.object_type)
        discriminator = schema.discriminators.get(stored)
        run.rows_in = table.row_count
        for i, row in enumerate(table_rows(table)):
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
                    try:
                        when = parse_iso(raw)
                    except DataError as exc:
                        raise DataError(f"mappings[{index}] row {i}: {exc}") from None
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
        _require_columns(index, table,
                         [rule.time_column, rule.activity_column or "", rule.id_column or "",
                          *rule.attribute_columns.values()])
        activities = set(self.spec.xmatrix.activities)
        run.rows_in = table.row_count
        for i, row in enumerate(table_rows(table)):
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
            try:
                when = parse_with_format(_cell(row, rule.time_column), rule.time_format)
            except DataError as exc:
                raise DataError(f"mappings[{index}] row {i}: {exc}") from None
            attrs = []
            for attr, col in rule.attribute_columns.items():
                raw = _cell(row, col)
                if raw:
                    attrs.append((attr, raw))
            self.log.add_event(EventInstance(eid, activity, when, tuple(attrs)))
            run.rows_loaded += 1

    def _run_o2o_rule(self, index: int, rule: O2ORule, run: RuleRun) -> None:
        table = self._table(index, rule)
        _require_columns(index, table, [rule.source_id_column, rule.target_id_column])
        run.rows_in = table.row_count
        for i, row in enumerate(table_rows(table)):
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
        _require_columns(index, table, [rule.object_id_column, rule.event_id_column or ""])
        run.rows_in = table.row_count
        for i, row in enumerate(table_rows(table)):
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


def reference_extract(spec, sources, on_dangling: str = "skip"):
    return _ReferencePipeline(spec, sources, on_dangling).run()
