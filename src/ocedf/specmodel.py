"""Parsing and validation of the declarative project spec.

A project spec bundles the design artifacts that drive extraction: the
conceptual schema (object types, is-a edges, object-to-object relation
types), the question-to-object-type matrix, the extraction matrix with
per-activity object multiplicities, the prioritization plan, and the
source-to-log mapping rules. The on-disk form is a single JSON document
with sections ``schema``, ``questions``, ``q2ot``, ``extraction_matrix``,
``plan``, ``mappings`` plus an optional ``extraction_epoch``.
"""

from __future__ import annotations

import json
import re
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Any, ClassVar, Mapping

from .errors import SpecError
from .timeutil import parse_iso

DEFAULT_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)

_MULTIPLICITY = re.compile(r"^(\d+)(?:\.\.(\d+|\*))?$")


@dataclass(frozen=True)
class MultiplicityRange:
    """Closed integer interval; ``max`` is None for an unbounded upper end."""

    min: int
    max: int | None

    def contains(self, n: int) -> bool:
        return n >= self.min and (self.max is None or n <= self.max)

    def canonical(self) -> str:
        if self.max is None:
            return f"{self.min}..*"
        if self.min == self.max:
            return str(self.min)
        return f"{self.min}..{self.max}"


ZERO = MultiplicityRange(0, 0)


def parse_multiplicity(text: str) -> MultiplicityRange:
    """Parse ``1``, ``0..1``, ``1..*`` style quantity ranges."""
    m = _MULTIPLICITY.match(text.strip())
    if not m:
        raise SpecError(f"invalid multiplicity syntax {text!r}")
    lo = int(m.group(1))
    hi_raw = m.group(2)
    if hi_raw is None:
        return MultiplicityRange(lo, lo)
    if hi_raw == "*":
        return MultiplicityRange(lo, None)
    hi = int(hi_raw)
    if lo > hi:
        raise SpecError(f"inverted range {text!r}: min exceeds max")
    return MultiplicityRange(lo, hi)


@dataclass(frozen=True)
class Question:
    id: str
    text: str
    priority: int


@dataclass(frozen=True)
class ConceptualSchema:
    """Object types with is-a edges, o2o relation types, and discriminators.

    Frozen: the hierarchy is resolved once, at construction, into a parent
    map (a subtype's first edge wins; subtypes in first-edge order) and a
    subtype map (every edge, in order), and the queries answer from those."""

    object_types: tuple[str, ...]
    is_a: tuple[tuple[str, str], ...] = ()  # (subtype, supertype)
    o2o_types: tuple[tuple[str, str, str], ...] = ()
    discriminators: dict[str, str] = field(default_factory=dict)
    _parents: dict[str, str] = field(init=False, repr=False, compare=False)
    _subtypes: dict[str, list[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        parents, subtypes = {}, {}
        for sub, sup in self.is_a:
            parents.setdefault(sub, sup)
            subtypes.setdefault(sup, []).append(sub)
        object.__setattr__(self, "_parents", parents)
        object.__setattr__(self, "_subtypes", subtypes)

    def parent_of(self, name: str) -> str | None:
        return self._parents.get(name)

    def subtypes_of(self, name: str) -> list[str]:
        return list(self._subtypes.get(name, ()))

    def root_of(self, name: str) -> str:
        """Topmost supertype reachable from ``name`` (itself when plain)."""
        ancestors, repeated = self._walk(name)
        if repeated is not None:
            raise SpecError(f"is-a cycle reached from {name!r}")
        return ancestors[-1] if ancestors else name

    def ancestors_of(self, name: str) -> list[str]:
        """Supertypes from the parent up, to the root or to a cycle."""
        return self._walk(name)[0]

    def _walk(self, name: str) -> tuple[list[str], str | None]:
        """The is-a walk that ``ancestors_of``, ``root_of`` and validation
        share: the parents from ``name`` up, stopped before the first type
        the walk has passed already (``name`` included), and that type, or
        None when the walk ends at a root. ``name`` is on or reaches a cycle
        exactly when a type is left."""
        out, parents, passed = [], self._parents, {name}
        current = parents.get(name)
        while current is not None and current not in passed:
            out.append(current)
            passed.add(current)
            current = parents.get(current)
        return out, current

    def descendants_of(self, name: str) -> list[str]:
        out, frontier = [], [name]
        while frontier:
            for sub in self._subtypes.get(frontier.pop(), ()):
                if sub not in out:
                    out.append(sub)
                    frontier.append(sub)
        return out

    def stored_types(self) -> list[str]:
        """Types objects are stored under: every type that is not a subtype."""
        return [t for t in self.object_types if t not in self._parents]


@dataclass
class Q2OTMatrix:
    questions: tuple[Question, ...]
    marks: frozenset[tuple[str, str]]  # (question id, object type)


@dataclass
class ExtractionMatrix:
    """Activities x object types; each present cell is a multiplicity range.

    An absent cell reads as 0..0 (the relation is forbidden), except for
    hierarchy columns whose family carries the expectation at another
    level; verification resolves that.
    """

    columns: tuple[str, ...]
    activities: tuple[str, ...]
    cells: dict[tuple[str, str], MultiplicityRange]

    def cell(self, activity: str, column: str) -> MultiplicityRange | None:
        return self.cells.get((activity, column))


@dataclass(frozen=True)
class ObjectRule:
    kind: ClassVar[str] = "object"
    source_table: str
    id_column: str
    object_type: str
    subtype_column: str | None = None
    attribute_columns: Mapping[str, str] = field(default_factory=dict)
    attribute_time_column: str | None = None


@dataclass(frozen=True)
class EventRule:
    kind: ClassVar[str] = "event"
    source_table: str
    time_column: str
    time_format: str
    activity: str | None = None          # constant activity ...
    activity_column: str | None = None   # ... or taken from a column
    id_column: str | None = None         # absent: synthesized from the row index
    attribute_columns: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class O2ORule:
    kind: ClassVar[str] = "o2o"
    source_table: str
    source_id_column: str
    target_id_column: str
    qualifier: str = ""


@dataclass(frozen=True)
class E2ORule:
    kind: ClassVar[str] = "e2o"
    source_table: str
    object_id_column: str
    event_id_column: str | None = None   # absent: synthesized from the row index
    qualifier: str = ""


MappingRule = ObjectRule | EventRule | O2ORule | E2ORule


@dataclass
class ProjectSpec:
    schema: ConceptualSchema
    q2ot: Q2OTMatrix
    xmatrix: ExtractionMatrix
    plan: tuple[str, ...]
    mappings: tuple[MappingRule, ...]
    extraction_epoch: datetime = DEFAULT_EPOCH


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity.upper()} {self.path} {self.message}"


# -- structural parsing ------------------------------------------------------


def _require(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise SpecError(message, path)


def _list_of(raw: dict, key: str, path: str) -> list:
    """``raw[key]``, which must be a list when present."""
    value = raw.get(key, [])
    _require(isinstance(value, (list, tuple)), f"{key} must be a list", path)
    return value


def _strings(value: Any, length: int | None = None) -> bool:
    """Whether ``value`` is a list of strings, of ``length`` items if given."""
    return (isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)
            and (length is None or len(value) == length))


def _parse_schema(raw: Any) -> ConceptualSchema:
    _require(isinstance(raw, dict), "schema section must be an object", "schema")
    types = raw.get("object_types", [])
    _require(isinstance(types, list) and types, "object_types must be a non-empty list", "schema.object_types")
    seen = set()
    for t in types:
        _require(isinstance(t, str) and t, "object type names must be non-empty strings", "schema.object_types")
        _require(t not in seen, f"duplicate object type {t!r}", "schema.object_types")
        seen.add(t)

    is_a = []
    for i, edge in enumerate(_list_of(raw, "is_a", "schema.is_a")):
        _require(_strings(edge, 2), "is_a edges are [subtype, supertype] pairs of strings",
                 f"schema.is_a[{i}]")
        is_a.append((edge[0], edge[1]))

    o2o = []
    for i, entry in enumerate(_list_of(raw, "o2o_types", "schema.o2o_types")):
        _require(_strings(entry, 3), "o2o_types entries are [source, target, qualifier] strings",
                 f"schema.o2o_types[{i}]")
        o2o.append((entry[0], entry[1], entry[2]))

    disc = raw.get("discriminators", {})
    _require(isinstance(disc, dict) and all(isinstance(a, str) for a in disc.values()),
             "discriminators must map supertype to attribute name", "schema.discriminators")
    return ConceptualSchema(tuple(types), tuple(is_a), tuple(o2o), dict(disc))


def _parse_questions(raw: Any) -> tuple[Question, ...]:
    out = []
    seen = set()
    raw = raw or []
    _require(isinstance(raw, list), "questions must be a list", "questions")
    for i, entry in enumerate(raw):
        path = f"questions[{i}]"
        _require(isinstance(entry, dict), "question entries must be objects", path)
        qid = entry.get("id")
        _require(isinstance(qid, str) and qid, "question id must be a non-empty string", path)
        _require(qid not in seen, f"duplicate question id {qid!r}", path)
        seen.add(qid)
        priority, text = entry.get("priority", i + 1), entry.get("text", "")
        _require(isinstance(priority, int) and not isinstance(priority, bool) and priority >= 1,
                 "priority must be a positive integer", path)
        _require(isinstance(text, str), "question text must be a string", path)
        out.append(Question(qid, text, priority))
    return tuple(out)


def _parse_q2ot(raw: Any, questions: tuple[Question, ...]) -> Q2OTMatrix:
    marks = set()
    raw = raw or {}
    _require(isinstance(raw, dict), "q2ot must map question id to a list of object types", "q2ot")
    for qid, types in raw.items():
        _require(_strings(types), "q2ot entries must be lists of object type names", f"q2ot.{qid}")
        for t in types:
            marks.add((qid, t))
    return Q2OTMatrix(questions, frozenset(marks))


def _parse_xmatrix(raw: Any) -> ExtractionMatrix:
    _require(isinstance(raw, dict), "extraction_matrix section must be an object", "extraction_matrix")
    columns = raw.get("columns", [])
    _require(_strings(columns) and columns, "columns must be a non-empty list of strings",
             "extraction_matrix.columns")
    _require(len(set(columns)) == len(columns), "duplicate column names", "extraction_matrix.columns")
    rows = raw.get("rows", {})
    _require(isinstance(rows, dict) and rows, "rows must map activity to cell ranges", "extraction_matrix.rows")
    cells: dict[tuple[str, str], MultiplicityRange] = {}
    for activity, row in rows.items():
        _require(isinstance(row, dict), "each row must map object type to a range string",
                 f"extraction_matrix.rows.{activity}")
        for col, text in row.items():
            path = f"extraction_matrix.rows.{activity}.{col}"
            _require(col in columns, f"cell references unknown column {col!r}", path)
            _require(isinstance(text, str), "cell must be a range string", path)
            try:
                cells[(activity, col)] = parse_multiplicity(text)
            except SpecError as exc:
                raise SpecError(str(exc), path) from None
    return ExtractionMatrix(tuple(columns), tuple(rows.keys()), cells)


def _parse_plan(raw: Any) -> tuple[str, ...]:
    raw = raw or []
    _require(isinstance(raw, list), "plan must be a list of activity names", "plan")
    seen = set()
    for a in raw:
        _require(isinstance(a, str), "plan entries must be strings", "plan")
        _require(a not in seen, f"activity {a!r} listed twice in plan", "plan")
        seen.add(a)
    return tuple(raw)


def _str_or_none(raw: dict, key: str) -> str | None:
    return value if isinstance(value := raw.get(key), str) and value else None


_RULE_CLASSES = {cls.kind: cls for cls in (ObjectRule, EventRule, O2ORule, E2ORule)}


def _parse_mapping(raw: Any, index: int) -> MappingRule:
    """The rule of ``kind``, built from its class's fields: a field with no
    default is required, and every field but ``source_table``,
    ``attribute_columns`` (read from ``attributes``) and ``qualifier`` reads
    a non-empty string or None. A key that is not one of the fields, and an
    optional field that is neither a string nor null, are rejected."""
    path = f"mappings[{index}]"
    _require(isinstance(raw, dict), "mapping rules must be objects", path)
    kind = raw.get("kind")
    table = raw.get("source_table")
    _require(isinstance(table, str) and table, "mapping rule needs a source_table", path)
    attrs = raw.get("attributes", {})
    _require(isinstance(attrs, dict), "attributes must map attribute name to column", path)
    cls = _RULE_CLASSES.get(kind) if isinstance(kind, str) else None
    _require(cls is not None, f"unknown mapping rule kind {kind!r}", path)
    if cls is EventRule:
        _require((_str_or_none(raw, "activity") is None) != (_str_or_none(raw, "activity_column") is None),
                 "event rule needs exactly one of activity / activity_column", path)
    values: dict[str, Any] = {}
    for f in fields(cls):
        if f.name == "source_table":
            value = table
        elif f.name == "attribute_columns":
            _require(all(isinstance(c, str) and c for c in attrs.values()),
                     "attribute columns must be non-empty strings", path)
            value = dict(attrs)
        elif f.name == "qualifier":
            value = raw.get("qualifier", "")
            _require(isinstance(value, str), "qualifier must be a string", path)
        else:
            value = _str_or_none(raw, f.name)
            _require(value is not None or f.default is not MISSING, f"{kind} rule needs {f.name}", path)
        values[f.name] = value
    # checked last, so a rule that fails a check above keeps its message
    optional = {"attributes" if f.name == "attribute_columns" else f.name: f.default is None for f in fields(cls)}
    for key, value in raw.items():
        _require(key in optional or key == "kind", f"unknown {kind} rule key {key!r}", path)
        _require(not optional.get(key) or value is None or isinstance(value, str),
                 f"{key} must be a string or null", path)
    return cls(**values)


def parse_spec_document(doc: Any) -> ProjectSpec:
    """Structural parse of a spec document; raises SpecError with a path.

    Cross-reference validation lives in :func:`validate_spec`; use
    :func:`parse_spec` to get both.
    """
    _require(isinstance(doc, dict), "spec document must be a JSON object", "")
    for key in ("schema", "extraction_matrix"):
        _require(key in doc, f"missing required section {key!r}", key)

    schema = _parse_schema(doc["schema"])
    questions = _parse_questions(doc.get("questions"))
    q2ot = _parse_q2ot(doc.get("q2ot"), questions)
    xmatrix = _parse_xmatrix(doc["extraction_matrix"])
    plan = _parse_plan(doc.get("plan"))
    mappings = tuple(_parse_mapping(m, i) for i, m in enumerate(_list_of(doc, "mappings", "mappings")))

    epoch = doc.get("extraction_epoch")
    _require(epoch is None or isinstance(epoch, str), "extraction_epoch must be a timestamp string",
             "extraction_epoch")
    try:
        epoch = DEFAULT_EPOCH if epoch is None else parse_iso(epoch)
    except Exception as exc:
        raise SpecError(str(exc), "extraction_epoch") from None

    return ProjectSpec(schema, q2ot, xmatrix, plan, mappings, epoch)


# -- validation ---------------------------------------------------------------


def _hierarchy_errors(schema: ConceptualSchema) -> tuple[list[Diagnostic], bool]:
    """The is-a hierarchy's errors, and whether it has a cycle."""
    out, subs = [], set()
    declared = set(schema.object_types)
    for i, (sub, sup) in enumerate(schema.is_a):
        path = f"schema.is_a[{i}]"
        for name in (sub, sup):
            if name not in declared:
                out.append(Diagnostic("error", path, f"is_a references undeclared type {name!r}"))
        if sub in subs:
            out.append(Diagnostic("error", path, f"subtype {sub!r} has two supertypes"))
        subs.add(sub)

    # one is-a walk from each subtype in first-edge order, as root_of walks
    known_cyclic: set[str] = set()
    for start in schema._parents:
        if start in known_cyclic:
            continue
        ancestors, repeated = schema._walk(start)
        if repeated is not None:
            known_cyclic.update(ancestors, (start,))
            out.append(Diagnostic("error", "schema.is_a", f"is-a cycle involving {repeated!r}"))

    if not known_cyclic:
        for sup in sorted({sup for _, sup in schema.is_a}):
            if sup in declared and sup not in schema.discriminators:
                out.append(Diagnostic("error", "schema.discriminators",
                                      f"supertype {sup!r} has no discriminator attribute"))
    return out, bool(known_cyclic)


def validate_spec(spec: ProjectSpec) -> list[Diagnostic]:
    """Cross-validate a parsed spec; returns diagnostics, errors first."""
    schema = spec.schema
    declared = set(schema.object_types)
    out, cyclic = _hierarchy_errors(schema)

    for i, (src, tgt, _q) in enumerate(schema.o2o_types):
        for name in (src, tgt):
            if name not in declared:
                out.append(Diagnostic("error", f"schema.o2o_types[{i}]",
                                      f"o2o relation type references undeclared type {name!r}"))

    question_ids = {q.id for q in spec.q2ot.questions}
    for qid, otype in sorted(spec.q2ot.marks):
        if qid not in question_ids:
            out.append(Diagnostic("error", f"q2ot.{qid}", f"mark references undeclared question {qid!r}"))
        if otype not in declared:
            out.append(Diagnostic("error", f"q2ot.{qid}", f"mark references undeclared type {otype!r}"))

    for col in spec.xmatrix.columns:
        if col not in declared:
            out.append(Diagnostic("error", "extraction_matrix.columns",
                                  f"column references undeclared type {col!r}"))

    # supertype/subtype exclusivity: a row may scope an expectation at the
    # supertype level or at subtype level, never both at once
    if not cyclic:
        for activity in spec.xmatrix.activities:
            for sup in sorted({sup for _, sup in schema.is_a}):
                if sup not in spec.xmatrix.columns or sup not in declared:
                    continue
                sup_cell = spec.xmatrix.cell(activity, sup)
                if sup_cell is None or (sup_cell.max == 0):
                    continue
                for sub in schema.descendants_of(sup):
                    sub_cell = spec.xmatrix.cell(activity, sub)
                    if sub_cell is not None and sub_cell.max != 0:
                        out.append(Diagnostic(
                            "error", f"extraction_matrix.rows.{activity}",
                            f"both supertype {sup!r} and subtype {sub!r} carry nonzero ranges"))

    for activity in spec.plan:
        if activity not in spec.xmatrix.activities:
            out.append(Diagnostic("error", "plan", f"plan lists unknown activity {activity!r}"))

    synthesizing: dict[str, int] = {}   # table -> first event rule that synthesizes its event ids
    for i, rule in enumerate(spec.mappings):
        path = f"mappings[{i}]"
        if isinstance(rule, ObjectRule):
            if rule.object_type not in declared:
                out.append(Diagnostic("error", path, f"object rule maps undeclared type {rule.object_type!r}"))
            elif not cyclic:
                root = schema.root_of(rule.object_type)
                needs_discriminator = rule.subtype_column is not None or root != rule.object_type
                if needs_discriminator and root not in schema.discriminators:
                    out.append(Diagnostic("error", path,
                                          f"rule needs a discriminator on supertype {root!r}"))
        elif isinstance(rule, EventRule):
            if rule.activity is not None and rule.activity not in spec.xmatrix.activities:
                out.append(Diagnostic("error", path,
                                      f"event rule activity {rule.activity!r} is not an extraction matrix row"))
            if rule.id_column is None:
                first = synthesizing.setdefault(rule.source_table, i)
                if first != i:
                    out.append(Diagnostic(
                        "error", path,
                        f"event rule on table {rule.source_table!r} has no id_column, like "
                        f"mappings[{first}]: both would synthesize the same event ids"))

    # warnings: leaf types no question ever asks about (candidates for the
    # next modeling iteration)
    if not cyclic:
        marked = {t for _, t in spec.q2ot.marks}
        for t in schema.object_types:
            if t not in marked and not schema.subtypes_of(t):
                out.append(Diagnostic("warning", "q2ot", f"object type {t!r} is not marked by any question"))

    out.sort(key=lambda d: (0 if d.severity == "error" else 1))
    return out


def load_spec_document(source: str | Path | IO[str]) -> Any:
    """The parsed JSON of a spec file path or open file, not yet checked.

    Text that is not UTF-8 raises SpecError naming the file, and text that
    is not JSON raises SpecError too."""
    try:
        raw = source.read() if hasattr(source, "read") else Path(source).read_text(encoding="utf-8")
        return json.loads(raw)
    except UnicodeDecodeError as exc:   # a ValueError too, so it comes first
        raise SpecError(f"not UTF-8 text: {exc}", str(getattr(source, "name", source))) from None
    except ValueError as exc:   # JSONDecodeError, or an integer literal beyond the digit limit
        raise SpecError(f"malformed JSON: {exc}") from None
    except RecursionError:
        raise SpecError("malformed JSON: nested too deeply") from None


def parse_spec(document: dict | str | Path | IO[str]) -> ProjectSpec:
    """Parse and fully cross-validate a project spec.

    ``document`` may be an already-loaded dict, a filesystem path, or an
    open text file. Raises SpecError carrying the first failure's path.
    """
    doc = document if isinstance(document, dict) else load_spec_document(document)
    spec = parse_spec_document(doc)
    errors = [d for d in validate_spec(spec) if d.severity == "error"]
    if errors:
        listing = "; ".join(f"{d.path}: {d.message}" for d in errors)
        raise SpecError(f"{len(errors)} validation error(s): {listing}")
    return spec


def extraction_order(spec: ProjectSpec) -> list[str]:
    """Planned activity order, with unplanned activities appended in matrix row order."""
    ordered = list(spec.plan)
    ordered.extend(a for a in spec.xmatrix.activities if a not in spec.plan)
    return ordered
