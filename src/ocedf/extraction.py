"""CSV ingestion and the ordered source-to-log extraction pipeline.

``load_source`` reads a CSV file into a ``SourceTable``, held by column.
``extract`` runs a spec's mapping rules over the tables in three strictly
ordered phases: objects first, then object-to-object relations alongside
events, then event-to-object relations. An object mapped to a subtype is
stored under its hierarchy root, with the discriminator attribute carrying
the subtype label (single-table inheritance). Each rule runs over all of
its table's rows in turn (``_Pipeline._run_*_rule``), counted in the
``ExtractionReport``; ``_Cells`` resolves object-id cells, and
``_Pipeline._end_phase`` stores each phase's relations as ``relate_*`` would
have. An event rule stores ``EVENT_BLOCK_ROWS`` rows per step; a block that
fails a check is read again row by row only to raise the error of its first
failing row (``_Pipeline._defect``). E2O rules that phase 3 runs one after
another over one table with synthesized event ids form a run (``_run_key``),
stored by column when bulk checks prove that the row loop would skip no row
but for an empty object cell; otherwise each of its rules goes through the
row loop, nothing stored before (``_Pipeline._run_e2o_run``). With
``--log-level info`` each rule logs one line with its row counts, seconds
and rows per second.
"""

from __future__ import annotations

import csv
import logging
import time as _time
from dataclasses import dataclass, field
from itertools import chain, combinations, compress, count, groupby, islice, repeat
from operator import is_
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DataError, SchemaError
from .ocel import (
    AttributeDef,
    AttributeValue,
    EventInstance,
    EventTypeDef,
    ObjectInstance,
    ObjectTypeDef,
    OcedLog,
    _shared_sorted,
)
from .specmodel import E2ORule, EventRule, O2ORule, ObjectRule, ProjectSpec
from .timeutil import parse_block, parse_iso, parse_with_format

log = logging.getLogger("ocedf.extraction")


# A column is held in tuples of this many cells, 504 bytes each: under
# CPython's 512-byte limit for small objects, so no block grows with the table.
CHUNK_ROWS = 56

# An event rule stores this many rows per step, so the lists of a block stay a
# few KB whatever the table.
EVENT_BLOCK_ROWS = 8 * CHUNK_ROWS

# Extract collects an event's E2O pairs in a tuple up to this many, which
# suits the few that most events hold, and in a set beyond.
WIDE_EVENT = 32


@dataclass
class SourceTable:
    """One tabular source, held by column. ``chunks[j]`` holds the cells of
    ``header[j]`` as the file spells them, in tuples of ``CHUNK_ROWS`` rows
    (the last may be shorter). ``row_count`` is kept apart, since a table
    without columns (a blank header line) may still have rows. ``column``
    reads one column and ``cells`` several; no record is built per row."""

    name: str
    header: list[str]
    chunks: tuple[tuple[tuple[str, ...], ...], ...]
    row_count: int

    @classmethod
    def from_rows(cls, name: str, header: list[str], rows: Sequence[Sequence[str]]) -> SourceTable:
        """A table of ``rows``, each a sequence of cells in ``header``'s
        order, held as ``load_source`` holds a file's (its cells as given)."""
        for i, row in enumerate(rows):
            if len(row) != len(header):
                raise DataError(f"table {name!r}: row {i} has {len(row)} cells, "
                                f"expected {len(header)}")
        batches = (zip(*rows[k:k + CHUNK_ROWS]) for k in range(0, len(rows), CHUNK_ROWS))
        chunks = tuple(zip(*batches)) if rows else ((),) * len(header)
        return cls(name, header, chunks, len(rows))

    def column(self, name: str | None) -> Iterator[str]:
        """The cells of column ``name``, or ``""`` for each row if the table
        has no such column, as ``row.get(name, "")`` reads a record."""
        try:
            j = self.header.index(name)
        except ValueError:
            return repeat("", self.row_count)
        return chain.from_iterable(self.chunks[j])

    def cells(self, names: Iterable[str]) -> Iterator[tuple[str, ...]]:
        """Each row's cells of the columns ``names``, in order; ``()`` for
        each row if ``names`` is empty."""
        columns = [*map(self.column, names)]
        return zip(*columns) if columns else repeat((), self.row_count)


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
    seconds: float = 0.0

    def skip(self, row_index: int, reason: str) -> None:
        self.rows_skipped += 1
        try:
            self.skipped[reason][0] += 1
        except KeyError:
            self.skipped[reason] = [1, row_index]


@dataclass
class ExtractionReport:
    """Per-rule row accounting; rows_in == rows_loaded + rows_skipped, and
    each rule counts its skipped rows per reason. The seconds of each phase
    and rule go under ``timings`` in ``to_dict``, apart from the counts, so
    two runs' reports differ there and in ``elapsed_seconds`` only."""

    counts: dict[str, int] = field(default_factory=lambda: {"object": 0, "event": 0, "e2o": 0, "o2o": 0})
    rule_runs: list[RuleRun] = field(default_factory=list)
    phase_seconds: dict[int, float] = field(default_factory=dict)   # phase -> its seconds
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
            "timings": {
                "phases": [{"phase": phase, "seconds": seconds}
                           for phase, seconds in self.phase_seconds.items()],
                "rules": [{"rule": r.rule_index, "seconds": r.seconds} for r in self.rule_runs],
            },
        }


def synthesize_event_id(table_name: str, row_index: int) -> str:
    """Deterministic event id for tables without an explicit id column."""
    return f"{table_name}:{row_index}"


def _checked_rows(reader: Iterator[list[str]], width: int, path: Path) -> Iterator[list[str]]:
    """The data rows of ``reader``, each checked for ``width`` cells as it is
    read, so a ragged row raises before any later row is read."""
    for i, row in enumerate(reader):
        if len(row) != width:
            raise DataError(f"{path}: ragged row at data row {i}: expected {width} cells, found {len(row)}")
        yield row


def load_source(path: str | Path, table_name: str) -> SourceTable:
    """Load one CSV source table (RFC-4180, UTF-8, header row).

    Rows are read ``CHUNK_ROWS`` at a time, and each batch is turned into
    one chunk per column, so no record outlives its batch: a row costs a
    pointer per column, not a ``dict``. Equal cells of one table are one
    ``str``: a dict local to the call maps each cell to its first copy, so
    a table holds each distinct value once, whatever the number of rows or
    columns repeating it."""
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
            first_copy = {}.setdefault   # cell -> the table's one copy of it
            chunks: list[list[tuple[str, ...]]] = [[] for _ in header]
            rows, row_count = _checked_rows(reader, len(header), path), 0
            while batch := list(islice(rows, CHUNK_ROWS)):
                row_count += len(batch)
                # zip sizes each chunk exactly; tuple(map(...)) would grow it past 512 bytes
                for column, cells in zip(chunks, zip(*[map(first_copy, row, row) for row in batch])):
                    column.append(cells)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise DataError(f"{path}: malformed CSV at line {reader.line_num}: {exc}") from None
    return SourceTable(table_name, header, tuple(map(tuple, chunks)), row_count)


def _require_columns(rule_index: int, table: SourceTable, columns: list[str]) -> None:
    for col in columns:
        if col and col not in table.header:
            raise DataError(
                f"mappings[{rule_index}]: table {table.name!r} has no column {col!r}")


def _string_attributes(*names: Iterable[str]) -> tuple[AttributeDef, ...]:
    """A string attribute for each distinct name, in first-seen order."""
    return tuple(AttributeDef(n, "string") for n in dict.fromkeys(chain.from_iterable(names)))


class _Cells(dict):
    """One qualifier's object-id cells, each to the relation as the log
    stores it: the (object id, qualifier) pair of the stored object that the
    stripped cell names, or the stripped cell ("" if empty) if it names
    none. A pair is entered under its object's own id too, so equal
    relations, O2O or E2O, share one tuple whatever cell or rule gave them.
    Objects are fixed after phase 1, so rules share the table and each
    distinct cell is resolved once. Rules read it through ``map`` over
    ``__getitem__``: a subscript of a ``dict`` subclass in the row loop
    costs about 45 ns more than a plain ``dict``'s."""

    __slots__ = ("objects", "qualifier")

    def __init__(self, objects: Mapping[str, ObjectInstance], qualifier: str):
        super().__init__()
        self.objects, self.qualifier = objects, qualifier

    def __missing__(self, cell: str) -> tuple[str, str] | str:
        oid = cell.strip()
        obj = self.objects.get(oid)
        rel = self[cell] = oid if obj is None else self.setdefault(obj.id, (obj.id, self.qualifier))
        return rel


def _run_key(indexed_rule: tuple[int, E2ORule]) -> int | str:
    """What E2O rules of one run share: their table, if their event ids are
    synthesized. A rule with an event-id column is a run of its own."""
    index, rule = indexed_rule
    return index if rule.event_id_column else rule.source_table


class _Pipeline:
    def __init__(self, spec: ProjectSpec, sources: Mapping[str, SourceTable], on_dangling: str):
        if on_dangling not in ("skip", "fail"):
            raise DataError(f"unknown dangling policy {on_dangling!r}; use 'skip' or 'fail'")
        self.spec = spec
        self.sources = sources
        self.on_dangling = on_dangling
        self.report = ExtractionReport()
        self.log = OcedLog(self._object_type_defs(), self._event_type_defs())
        self._ids: dict[str, list[str]] = {}   # source table -> its synthesized event ids
        # the phase's relations: source id -> a set of pairs (O2O), or event id -> a tuple,
        # or a set past WIDE_EVENT pairs (E2O)
        self._rels: dict[str, set[tuple[str, str]] | tuple[tuple[str, str], ...]] = {}
        self._cells_of: dict[str, _Cells] = {}   # qualifier -> its cells

    # -- schema synthesis ------------------------------------------------

    def _object_type_defs(self) -> list[ObjectTypeDef]:
        """Each stored type with the attributes of the object rules mapped
        into its family, then its discriminator if it has subtypes."""
        schema = self.spec.schema
        rules = [(schema.root_of(r.object_type), r.attribute_columns)
                 for r in self.spec.mappings if isinstance(r, ObjectRule)]
        return [ObjectTypeDef(t, _string_attributes(
                    *(attrs for root, attrs in rules if root == t),
                    [d] if (d := schema.discriminators.get(t)) and schema.subtypes_of(t) else ()))
                for t in schema.stored_types()]

    def _event_type_defs(self) -> list[EventTypeDef]:
        """Each activity with the attributes of the event rules that may give it."""
        rules = [r for r in self.spec.mappings if isinstance(r, EventRule)]
        return [EventTypeDef(a, _string_attributes(
                    *(r.attribute_columns for r in rules if not r.activity or r.activity == a)))
                for a in self.spec.xmatrix.activities]

    # -- shared row helpers ----------------------------------------------

    def _table(self, rule_index: int, rule) -> SourceTable:
        table = self.sources.get(rule.source_table)
        if table is None:
            raise DataError(f"mappings[{rule_index}]: source table {rule.source_table!r} not provided")
        return table

    def _synthesized_ids(self, rule, table: SourceTable) -> list[str]:
        """The event id of each row of ``table`` without an id column, built
        once per table: its event rule and its E2O rules share them, and the
        stored events and relations hold the same strings."""
        ids = self._ids.get(rule.source_table)
        if ids is None:
            ids = self._ids[rule.source_table] = [
                synthesize_event_id(table.name, i) for i in range(table.row_count)]
        return ids

    def _cells(self, rule_index: int, qualifier: str) -> _Cells:
        """The cells of ``qualifier``, which must be a string."""
        if not isinstance(qualifier, str):
            raise SchemaError(f"mappings[{rule_index}]: qualifier {qualifier!r} must be a string")
        return self._cells_of.setdefault(qualifier, _Cells(self.log.objects, qualifier))

    def _dangling(self, run: RuleRun, row_index: int, reason: str, ref: str) -> None:
        if self.on_dangling == "fail":
            raise DataError(f"mappings[{run.rule_index}] row {row_index}: {reason} {ref!r}")
        run.skip(row_index, reason)

    # -- phases ------------------------------------------------------------

    def run(self) -> tuple[OcedLog, ExtractionReport]:
        started = _time.perf_counter()
        for phase, kinds in ((1, ObjectRule), (2, (O2ORule, EventRule)), (3, E2ORule)):
            log.info("extraction phase %d", phase)
            phase_started = _time.perf_counter()
            rules = [(index, rule) for index, rule in enumerate(self.spec.mappings) if isinstance(rule, kinds)]
            if phase == 3:
                for _, run in groupby(rules, _run_key):
                    self._run_e2o_run([*run])
            else:
                for index, rule in rules:
                    self._run_rule(index, phase, rule)
            self._end_phase(phase)
            self.report.phase_seconds[phase] = _time.perf_counter() - phase_started
        self.report.counts.update(object=len(self.log.objects), event=len(self.log.events))
        self.report.elapsed_seconds = _time.perf_counter() - started
        return self.log, self.report

    def _end_phase(self, phase: int) -> None:
        """Store each key's relations that ``phase`` checked row by row,
        sorted, in place, hand their dict to the log and count them."""
        rels, self._rels, shared = self._rels, {}, {}   # each distinct sorted tuple, kept once
        for key, pairs in rels.items():
            rels[key] = _shared_sorted([*pairs], shared)
        if phase == 2:
            self.log._o2o_by_source = rels
            self.report.counts["o2o"] = sum(map(len, rels.values()))
        elif phase == 3:
            self.log._e2o_by_event = rels
            self.report.counts["e2o"] = sum(map(len, rels.values()))

    def _run_rule(self, index: int, phase: int, rule) -> None:
        """Run one rule over its table's rows, count them and log one line."""
        table = self._table(index, rule)
        run = RuleRun(index, phase, rule.kind, rule.source_table, rows_in=table.row_count)
        started = _time.perf_counter()
        getattr(self, f"_run_{rule.kind}_rule")(index, rule, table, run)
        self._record(run, _time.perf_counter() - started)

    def _record(self, run: RuleRun, seconds: float) -> None:
        """Count a rule's loaded rows, enter its run in the report and log one line."""
        run.seconds = seconds
        run.rows_loaded = run.rows_in - run.rows_skipped   # a row neither loaded nor skipped raised
        self.report.rule_runs.append(run)
        log.info("rule %d (%s, table %s): %d rows in, %d loaded, %d skipped, %.3f s, %.0f rows/s",
                 run.rule_index, run.kind, run.source_table, run.rows_in, run.rows_loaded,
                 run.rows_skipped, seconds, run.rows_in / seconds if seconds > 0 else 0)

    def _run_object_rule(self, index: int, rule: ObjectRule, table: SourceTable, run: RuleRun) -> None:
        schema = self.spec.schema
        id_col, subtype_col, time_col = rule.id_column, rule.subtype_column, rule.attribute_time_column
        _require_columns(index, table,
                         [id_col, subtype_col or "", time_col or "", *rule.attribute_columns.values()])
        attr_names = tuple(rule.attribute_columns)
        stored = schema.root_of(rule.object_type)
        discriminator = schema.discriminators.get(stored)
        labels = map(str.strip, table.column(subtype_col)) if subtype_col else \
            repeat("" if rule.object_type == stored else rule.object_type)
        epoch = self.spec.extraction_epoch
        objects, add_object = self.log.objects, self.log.add_object
        for i, (oid, label, raw_time, attr_cells) in enumerate(zip(
                table.column(id_col), labels, table.column(time_col) if time_col else repeat(""),
                table.cells(rule.attribute_columns.values()))):
            oid = oid.strip()
            if not oid:
                raise DataError(f"mappings[{index}] row {i}: empty object id")
            existing = objects.get(oid)
            if existing is not None:
                if existing.type != stored:
                    raise DataError(
                        f"mappings[{index}] row {i}: object {oid!r} already stored "
                        f"as {existing.type!r}, rule maps it to {stored!r}")
                run.skip(i, "duplicate object id; first writer wins")
                continue
            when = epoch
            if raw_time := raw_time.strip():
                try:
                    when = parse_iso(raw_time)
                except DataError as exc:
                    raise DataError(f"mappings[{index}] row {i}: {exc}") from None
            values = [AttributeValue(attr, when, raw)
                      for attr, value in zip(attr_names, attr_cells) if (raw := value.strip())]
            if label and discriminator:
                values.append(AttributeValue(discriminator, when, label))
            add_object(ObjectInstance(oid, stored, tuple(values)))

    def _run_event_rule(self, index: int, rule: EventRule, table: SourceTable, run: RuleRun) -> None:
        """Check each row's event as ``add_event`` would and store it in the
        log's events dict, ``EVENT_BLOCK_ROWS`` rows per step with ``map`` and
        ``zip`` over the block's cells. Each stripped activity cell that names
        a matrix row is read as the matrix's own string (``rows``), so every
        stored type is that string. A block is stored only once all of it
        passes: each activity is a non-empty matrix row, so its type is
        declared; each id is non-empty, unique in the block and not yet
        stored; and ``parse_block`` reads every time as ``parse_with_format``
        does, so it is normalized. The attributes are the rule's, each
        declared a string on every type the rule gives, with stripped string
        values. So each stored instance is the one ``_stored_event`` would
        return. A block that fails a check raises the error of its first
        failing row (``_defect``)."""
        activity_col, id_col, time_col = rule.activity_column, rule.id_column, rule.time_column
        _require_columns(index, table,
                         [time_col, activity_col or "", id_col or "", *rule.attribute_columns.values()])
        attr_names = tuple(rule.attribute_columns)
        rows = {a: a for a in self.spec.xmatrix.activities}   # a matrix row to its own string
        activity_cells = repeat(rule.activity) if rule.activity else map(str.strip, table.column(activity_col))
        ids = map(str.strip, table.column(id_col)) if id_col else iter(self._synthesized_ids(rule, table))
        times = map(str.strip, table.column(time_col))
        attrs = (tuple((attr, raw) for attr, value in zip(attr_names, cells) if (raw := value.strip()))
                 for cells in table.cells(rule.attribute_columns.values())) if attr_names else repeat(())
        valid, events, fmt = rows.keys() - {""}, self.log._events, rule.time_format
        start = 0   # the block's first row
        while block_times := [*islice(times, EVENT_BLOCK_ROWS)]:
            n = len(block_times)
            activities = [*map(rows.get, block := [*islice(activity_cells, n)], block)]
            block_ids = [*islice(ids, n)]
            fresh = set(block_ids)
            try:
                whens = (valid.issuperset(activities) and len(fresh) == n and "" not in fresh
                         and events.keys().isdisjoint(fresh) and parse_block(block_times, fmt))
            except DataError:
                whens = None
            if not whens:
                raise self._defect(index, start, activities, block_ids, block_times, fmt)
            # tuple.__new__ skips the NamedTuple's Python-level __new__, as the reader does
            events.update(zip(block_ids, map(tuple.__new__, repeat(EventInstance),
                                             zip(block_ids, activities, whens, islice(attrs, n)))))
            start += n

    def _defect(self, index: int, start: int, activities: list[str], ids: list[str], times: list[str],
                fmt: str) -> DataError:
        """The error of the first of a block's rows that fails a check, the
        block's rows read one by one from row ``start``: the message a row
        loop over the table would raise there."""
        valid, events, seen = self.spec.xmatrix.activities, self.log._events, set()
        for i, activity, eid, raw_time in zip(count(start), activities, ids, times):
            if not activity:
                return DataError(f"mappings[{index}] row {i}: empty activity")
            if activity not in valid:
                return DataError(
                    f"mappings[{index}] row {i}: activity {activity!r} is not an extraction matrix row")
            if not eid:
                return DataError(f"mappings[{index}] row {i}: empty event id")
            if eid in events or eid in seen:
                return DataError(f"mappings[{index}] row {i}: duplicate event id {eid!r}")
            seen.add(eid)
            try:
                parse_with_format(raw_time, fmt)
            except DataError as exc:
                return DataError(f"mappings[{index}] row {i}: {exc}")
        raise AssertionError("a failing block has no failing row")

    def _run_o2o_rule(self, index: int, rule: O2ORule, table: SourceTable, run: RuleRun) -> None:
        """Collect the rule's pairs in their source object's set, which finds
        duplicates within a rule and across rules; the source's pair gives its id."""
        source_col, target_col, qualifier = rule.source_id_column, rule.target_id_column, rule.qualifier
        _require_columns(index, table, [source_col, target_col])
        by_source, resolve = self._rels, self._cells(index, qualifier).__getitem__
        for i, (source, rel) in enumerate(zip(map(resolve, table.column(source_col)),
                                              map(resolve, table.column(target_col)))):
            if not source or not rel:
                run.skip(i, "empty endpoint id")
                continue
            if type(source) is str or type(rel) is str:
                self._dangling(run, i, "o2o references unknown object", source if type(source) is str else rel)
                continue
            if source == rel and not qualifier:
                run.skip(i, "self o2o relation without qualifier")
                continue
            rels = by_source.setdefault(source[0], set())
            if rel in rels:
                run.skip(i, "duplicate o2o relation")
                continue
            rels.add(rel)

    def _run_e2o_run(self, rules: list[tuple[int, E2ORule]]) -> None:
        """Collect the pairs of a run of E2O rules (``_run_key``) by column
        if bulk checks prove that the row loop would skip no row but for an
        empty object cell and raise nothing, and otherwise run each rule
        through ``_run_rule``.

        Each rule's object column is resolved once, by ``map`` over its
        ``_Cells``. The checks, at C level with no Python step per row, are:
        no resolved object dangles; each synthesized id is the id of its
        stored event, that very string; no pair is collected yet for these
        events; and no row gives one pair twice, which only rules of one
        qualifier can. A row's pairs are then its resolved cells without the
        empty ones, and one ``update`` collects every row's, so the order in
        which the rules ran cannot show. Nothing is stored before the checks
        pass, so a run that fails one, or a rule with an event-id column,
        gives exactly what the row loop gives.

        Each rule still gets its own ``RuleRun``, log line and timing, in
        rule order: its seconds are its own column's resolving, check and
        counts, plus an equal share of the joint checks and the store. A run
        that falls back counts its failed checks in the phase's seconds only."""
        started = _time.perf_counter()
        runs = None if rules[0][1].event_id_column else self._column_runs(rules)
        if runs is None:
            for index, rule in rules:
                self._run_rule(index, 3, rule)
            return
        joint = (_time.perf_counter() - started - sum(run.seconds for run in runs)) / len(runs)
        for run in runs:
            self._record(run, run.seconds + joint)

    def _column_runs(self, rules: list[tuple[int, E2ORule]]) -> list[RuleRun] | None:
        """The run's rule runs, each with its own seconds, once its pairs are
        collected; None, with nothing collected, if a check fails."""
        table = self._table(*rules[0])
        columns, runs, of_qualifier = [], [], {}
        for index, rule in rules:
            started = _time.perf_counter()
            if not isinstance(rule.qualifier, str) or rule.object_id_column not in table.header:
                return None   # the row loop raises the rule's error in its turn
            column = [*map(self._cells(index, rule.qualifier).__getitem__, table.column(rule.object_id_column))]
            if any(type(rel) is str and rel for rel in {*column}):
                return None   # a dangling object
            run = RuleRun(index, 3, rule.kind, rule.source_table, rows_in=table.row_count)
            if empty := column.count(""):
                run.rows_skipped, run.skipped["empty object id"] = empty, [empty, column.index("")]
            columns.append(column)
            of_qualifier.setdefault(rule.qualifier, []).append(column)
            runs.append(run)
            run.seconds = _time.perf_counter() - started
        ids, events = self._synthesized_ids(rules[0][1], table), self.log._events
        # a pair is one tuple per qualifier, so a row repeats one where two of its columns hold it
        if not (all(map(is_, map(getattr, map(events.get, ids), repeat("id"), repeat(None)), ids))
                and self._rels.keys().isdisjoint(ids)
                and not any(any(compress(a, map(is_, a, b)))
                            for same in of_qualifier.values() for a, b in combinations(same, 2))):
            return None
        pairs = [*map(tuple, map(filter, repeat(None), zip(*columns)))]
        self._rels.update(compress(zip(ids, pairs), pairs))
        return runs

    def _run_e2o_rule(self, index: int, rule: E2ORule, table: SourceTable, run: RuleRun) -> None:
        """Collect each event's pairs, unsorted until the phase ends: in a
        tuple, grown by one, while it holds fewer than ``WIDE_EVENT``, and in
        a set after that, so a row of a wide event neither rescans nor copies
        the pairs before it. A pair already collected is a duplicate. A row
        with an empty object-id cell is skipped as ``"empty object id"``."""
        object_col, event_col = rule.object_id_column, rule.event_id_column
        _require_columns(index, table, [object_col, event_col or ""])
        resolve = self._cells(index, rule.qualifier).__getitem__
        ids = map(str.strip, table.column(event_col)) if event_col else self._synthesized_ids(rule, table)
        events, by_event = self.log.events, self._rels
        for i, (rel, eid) in enumerate(zip(map(resolve, table.column(object_col)), ids)):
            if not rel:
                run.skip(i, "empty object id")
                continue
            if not eid:
                run.skip(i, "empty event id")
                continue
            event = events.get(eid)
            if event is None:
                self._dangling(run, i, "e2o references unknown event", eid)
                continue
            if type(rel) is str:
                self._dangling(run, i, "e2o references unknown object", rel)
                continue
            eid = event.id
            rels = by_event.get(eid, ())
            if rel in rels:
                run.skip(i, "duplicate e2o relation")
                continue
            if len(rels) < WIDE_EVENT:
                by_event[eid] = rels + (rel,)
            elif type(rels) is set:
                rels.add(rel)
            else:
                by_event[eid] = {*rels, rel}


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
