import copy
import json
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_specmodel as ref
from ocedf import (
    ConceptualSchema,
    E2ORule,
    EventRule,
    MultiplicityRange,
    O2ORule,
    ObjectRule,
    OcedfError,
    SpecError,
    extraction_order,
    parse_multiplicity,
    parse_spec,
    parse_spec_document,
    validate_spec,
)
from ocedf.specmodel import DEFAULT_EPOCH, ExtractionMatrix, ProjectSpec, Q2OTMatrix, Question
from conftest import FIXTURES

PAPER_PLAN = ["submit assignment", "resubmit assignment", "set assignment grade",
              "view file", "view page", "view folder", "set exam grade"]
MATRIX_ROW_ORDER = ["view file", "view page", "view folder", "submit assignment",
                    "resubmit assignment", "set assignment grade", "set exam grade"]


def case_study_doc():
    return json.loads((FIXTURES / "case_study" / "spec.json").read_text(encoding="utf-8"))


class TestMultiplicity:
    @pytest.mark.parametrize("text,expected", [
        ("1", (1, 1)),
        ("0..1", (0, 1)),
        ("0..*", (0, None)),
        ("1..*", (1, None)),
        ("2..5", (2, 5)),
        ("0", (0, 0)),
        (" 1..2 ", (1, 2)),
    ])
    def test_valid(self, text, expected):
        r = parse_multiplicity(text)
        assert (r.min, r.max) == expected

    def test_inverted_range(self):
        with pytest.raises(SpecError, match="inverted"):
            parse_multiplicity("3..2")

    @pytest.mark.parametrize("text", ["", "*", "1..", "..2", "a", "1...2", "-1",
                                      "1..b", "1,2", "1 .. 2", "*..1", "1..2..3"])
    def test_rejects_non_grammar(self, text):
        with pytest.raises(SpecError, match="syntax"):
            parse_multiplicity(text)

    def test_contains(self):
        assert parse_multiplicity("0..1").contains(0)
        assert parse_multiplicity("0..1").contains(1)
        assert not parse_multiplicity("0..1").contains(2)
        assert parse_multiplicity("1..*").contains(10_000)
        assert not parse_multiplicity("1..*").contains(0)

    @pytest.mark.parametrize("text,canonical", [
        ("1", "1"), ("1..1", "1"), ("0..1", "0..1"), ("0..0", "0"), ("3..*", "3..*"),
    ])
    def test_canonical_text(self, text, canonical):
        assert parse_multiplicity(text).canonical() == canonical

    @given(lo=st.integers(0, 40), span=st.integers(0, 40), star=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_grammar_round_trip_idempotent(self, lo, span, star):
        text = f"{lo}..*" if star else (f"{lo}..{lo + span}" if span else str(lo))
        first = parse_multiplicity(text)
        second = parse_multiplicity(first.canonical())
        assert first == second
        assert second.canonical() == first.canonical()

    @given(st.text(max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_total_over_grammar_only(self, text):
        grammar = re.compile(r"^\s*\d+(\.\.(\d+|\*))?\s*$")
        if grammar.match(text):
            m = re.match(r"^\s*(\d+)(?:\.\.(\d+|\*))?\s*$", text)
            inverted = m.group(2) not in (None, "*") and int(m.group(1)) > int(m.group(2))
            if inverted:
                with pytest.raises(SpecError):
                    parse_multiplicity(text)
            else:
                parse_multiplicity(text)
        else:
            with pytest.raises(SpecError):
                parse_multiplicity(text)


class TestCaseStudySpec:
    def test_parses_and_validates_clean(self):
        spec = parse_spec(case_study_doc())
        assert len(spec.schema.object_types) == 10
        assert list(spec.xmatrix.activities) == MATRIX_ROW_ORDER
        # hand-checked cells from the design tables
        assert spec.xmatrix.cell("view file", "File").canonical() == "1"
        assert spec.xmatrix.cell("submit assignment", "File").canonical() == "0..*"
        assert spec.xmatrix.cell("submit assignment", "Group").canonical() == "0..1"
        assert spec.xmatrix.cell("set exam grade", "Student").canonical() == "1..*"
        assert spec.xmatrix.cell("view page", "Exam") is None

    def test_only_expected_warning_is_unquestioned_teacher(self):
        spec = parse_spec_document(case_study_doc())
        diagnostics = validate_spec(spec)
        assert [d.severity for d in diagnostics] == ["warning"]
        assert "Teacher" in diagnostics[0].message

    def test_q2ot_marks_match_design(self):
        spec = parse_spec(case_study_doc())
        assert {t for q, t in spec.q2ot.marks if q == "Q1"} == \
            {"Student", "File", "Page", "Folder", "Course"}
        assert {t for q, t in spec.q2ot.marks if q == "Q3"} == \
            {"Student", "Assignment", "Group", "Course", "Exam"}

    def test_extraction_order_follows_plan(self):
        spec = parse_spec(case_study_doc())
        assert extraction_order(spec) == PAPER_PLAN


class TestValidation:
    def test_is_a_cycle(self):
        doc = case_study_doc()
        doc["schema"]["is_a"] = [["Student", "User"], ["User", "Student"]]
        with pytest.raises(SpecError, match="cycle"):
            parse_spec(doc)

    def test_two_parents(self):
        doc = case_study_doc()
        doc["schema"]["is_a"].append(["Student", "Group"])
        with pytest.raises(SpecError, match="two supertypes"):
            parse_spec(doc)

    def test_a_type_named_bicycle_is_no_cycle(self):
        doc = case_study_doc()
        doc["schema"]["object_types"] += ["Vehicle", "Car", "Bicycle", "Wheel"]
        doc["schema"]["is_a"] += [["Car", "Vehicle"], ["Bicycle", "Vehicle"], ["Bicycle", "Car"]]
        found = {(d.severity, d.message) for d in validate_spec(parse_spec_document(doc))}
        assert {("error", "subtype 'Bicycle' has two supertypes"),
                ("error", "supertype 'Car' has no discriminator attribute"),
                ("error", "supertype 'Vehicle' has no discriminator attribute"),
                ("warning", "object type 'Wheel' is not marked by any question")} <= found

    def test_unknown_type_in_q2ot(self):
        doc = case_study_doc()
        doc["q2ot"]["Q1"] = doc["q2ot"]["Q1"] + ["Quiz"]
        with pytest.raises(SpecError, match="Quiz"):
            parse_spec(doc)

    def test_supertype_subtype_exclusivity(self):
        doc = case_study_doc()
        doc["extraction_matrix"]["rows"]["set exam grade"]["User"] = "1"
        with pytest.raises(SpecError, match="supertype"):
            parse_spec(doc)
        # sibling subtypes together are fine: the bundled matrix already
        # declares Teacher=1 and Student=1 on grading rows
        assert parse_spec(case_study_doc())

    def test_unmarked_leaf_warns(self):
        doc = case_study_doc()
        for marks in doc["q2ot"].values():
            if "Exam" in marks:
                marks.remove("Exam")
        diagnostics = validate_spec(parse_spec_document(doc))
        warnings = [d for d in diagnostics if d.severity == "warning"]
        assert any("Exam" in d.message for d in warnings)

    def test_missing_discriminator(self):
        doc = case_study_doc()
        doc["schema"]["discriminators"] = {}
        with pytest.raises(SpecError, match="discriminator"):
            parse_spec(doc)

    def test_unknown_column_type(self):
        doc = case_study_doc()
        doc["schema"]["object_types"].remove("Folder")
        with pytest.raises(SpecError, match="Folder"):
            parse_spec(doc)

    def test_o2o_endpoint_undeclared(self):
        doc = case_study_doc()
        doc["schema"]["o2o_types"].append(["Group", "Quiz", "covers"])
        with pytest.raises(SpecError, match="Quiz"):
            parse_spec(doc)

    def test_plan_duplicate_rejected_at_parse(self):
        doc = case_study_doc()
        doc["plan"] = doc["plan"] + [doc["plan"][0]]
        with pytest.raises(SpecError, match="twice"):
            parse_spec_document(doc)

    def test_plan_unknown_activity(self):
        doc = case_study_doc()
        doc["plan"] = doc["plan"] + ["grade quiz"]
        with pytest.raises(SpecError, match="grade quiz"):
            parse_spec(doc)

    def test_multiplicity_error_carries_path(self):
        doc = case_study_doc()
        doc["extraction_matrix"]["rows"]["view file"]["File"] = "5..2"
        with pytest.raises(SpecError, match=r"extraction_matrix.rows.view file.File"):
            parse_spec_document(doc)

    def test_event_rule_activity_must_be_matrix_row(self):
        doc = case_study_doc()
        rule = next(m for m in doc["mappings"] if m["kind"] == "event" and "activity" in m)
        bad = copy.deepcopy(rule)
        bad["activity"] = "grade quiz"
        doc["mappings"].append(bad)
        with pytest.raises(SpecError, match="grade quiz"):
            parse_spec(doc)

    def test_two_event_rules_synthesizing_ids_on_one_table(self):
        doc = case_study_doc()
        views = doc["mappings"][16]
        assert views["kind"] == "event" and "id_column" not in views
        doc["mappings"].insert(17, copy.deepcopy(views))
        errors = [d for d in validate_spec(parse_spec_document(doc)) if d.severity == "error"]
        assert [(d.path, "'views'" in d.message, "mappings[16]" in d.message) for d in errors] == \
            [("mappings[17]", True, True)]
        with pytest.raises(SpecError, match=r"mappings\[17\]: event rule on table 'views'"):
            parse_spec(doc)

    def test_second_event_rule_on_a_table_with_its_own_ids_is_accepted(self):
        doc = case_study_doc()
        views = copy.deepcopy(doc["mappings"][16])
        views["id_column"] = "ts"
        doc["mappings"].insert(17, views)
        assert [d.severity for d in validate_spec(parse_spec_document(doc))] == ["warning"]


class TestExtractionOrder:
    def test_empty_plan_uses_matrix_row_order(self):
        doc = case_study_doc()
        doc["plan"] = []
        assert extraction_order(parse_spec(doc)) == MATRIX_ROW_ORDER

    def test_partial_plan_appends_missing_rows(self):
        doc = case_study_doc()
        doc["plan"] = ["set exam grade"]
        order = extraction_order(parse_spec(doc))
        assert order[0] == "set exam grade"
        assert order[1:] == [a for a in MATRIX_ROW_ORDER if a != "set exam grade"]


def test_exclusivity_property_on_random_valid_matrices():
    # any spec accepted by parse_spec keeps supertype/subtype levels exclusive
    rng = random.Random(5)
    base = case_study_doc()
    for _ in range(50):
        doc = copy.deepcopy(base)
        row = rng.choice(list(doc["extraction_matrix"]["rows"]))
        cells = doc["extraction_matrix"]["rows"][row]
        cells.pop("User", None), cells.pop("Teacher", None), cells.pop("Student", None)
        level = rng.choice(["sup", "sub", "none"])
        if level == "sup":
            cells["User"] = rng.choice(["1", "0..1", "1..*"])
        elif level == "sub":
            if rng.random() < 0.5:
                cells["Teacher"] = "0..1"
            cells["Student"] = rng.choice(["1", "1..*"])
        spec = parse_spec(doc)
        for activity in spec.xmatrix.activities:
            sup_cell = spec.xmatrix.cell(activity, "User")
            if sup_cell and sup_cell.max != 0:
                for sub in ("Teacher", "Student"):
                    sub_cell = spec.xmatrix.cell(activity, sub)
                    assert sub_cell is None or sub_cell.max == 0


def test_multiplicity_range_direct_construction():
    assert MultiplicityRange(0, None).contains(123)
    assert MultiplicityRange(2, 2).canonical() == "2"


def test_rule_kind_is_fixed_by_the_class():
    rules = [ObjectRule("t", "id", "User"), EventRule("t", "ts", "%Y"), O2ORule("t", "a", "b"),
             E2ORule("t", "oid")]
    assert [r.kind for r in rules] == ["object", "event", "o2o", "e2o"]
    with pytest.raises(TypeError):
        ObjectRule("t", "id", "User", kind="e2o")


def _set(path, value):
    """An edit of a spec document that sets the item at ``path`` to ``value``."""
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return edit


@pytest.mark.parametrize("edit, path", [
    (_set(["schema", "is_a"], 7), "schema.is_a"),
    (_set(["schema", "is_a", 0], [{"a": 1}, "User"]), "schema.is_a[0]"),
    (_set(["schema", "is_a", 0], [7, "User"]), "schema.is_a[0]"),
    (_set(["schema", "o2o_types"], None), "schema.o2o_types"),
    (_set(["schema", "o2o_types", 0], [{}, "Student", "member"]), "schema.o2o_types[0]"),
    (_set(["schema", "discriminators", "User"], [1]), "schema.discriminators"),
    (_set(["questions"], 7), "questions"),
    (_set(["q2ot", "Q1"], [["User"]]), "q2ot.Q1"),
    (_set(["q2ot", "Q1"], [2.5]), "q2ot.Q1"),
    (_set(["extraction_matrix", "columns", 0], ["User"]), "extraction_matrix.columns"),
    (_set(["mappings"], {}), "mappings"),
], ids=["is_a-not-a-list", "is_a-unhashable", "is_a-not-a-string", "o2o_types-not-a-list",
        "o2o_types-unhashable", "discriminator-not-a-string", "questions-not-a-list",
        "q2ot-unhashable", "q2ot-not-a-string", "column-unhashable", "mappings-not-a-list"])
def test_wrong_typed_values_name_their_path(edit, path):
    doc = case_study_doc()
    edit(doc)
    with pytest.raises(SpecError) as err:
        validate_spec(parse_spec_document(doc))
    assert err.value.path == path


@pytest.mark.parametrize("edit, path, message", [
    *((_set(["extraction_epoch"], value), "extraction_epoch", "extraction_epoch must be a timestamp string")
      for value in (0, 2024, False, [], {})),
    (_set(["extraction_epoch"], ""), "extraction_epoch", "unparseable timestamp ''"),
    (_set(["questions", 0, "priority"], True), "questions[0]", "priority must be a positive integer"),
    (_set(["questions", 1, "text"], 5), "questions[1]", "question text must be a string"),
    *((_set(["extraction_matrix", "rows", "view file", "User"], value),
       "extraction_matrix.rows.view file.User", "cell must be a range string")
      for value in (1, 1.0, None)),
], ids=["epoch-0", "epoch-2024", "epoch-false", "epoch-list", "epoch-object", "epoch-empty",
        "priority-true", "text-number", "cell-1", "cell-1.0", "cell-null"])
def test_non_string_scalars_are_rejected_not_coerced(edit, path, message):
    doc = case_study_doc()
    edit(doc)
    with pytest.raises(SpecError) as err:
        parse_spec_document(doc)
    assert err.value.path == path and message in str(err.value)


@pytest.mark.parametrize("edit", [_set(["extraction_epoch"], None), lambda doc: doc.pop("extraction_epoch")],
                         ids=["null", "absent"])
def test_a_null_or_absent_epoch_is_the_default(edit):
    doc = case_study_doc()
    edit(doc)
    assert parse_spec_document(doc).extraction_epoch == DEFAULT_EPOCH


def _slots(node, out):
    """Every (container, key) pair inside a parsed document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        out.append((node, key))
        _slots(child, out)
    return out


WRONG_VALUES = st.sampled_from([None, 0, 7, 2.5, True, False, [], {}, [1], "", "User", ["User"]])


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_specs_raise_only_ocedf_errors(data):
    """Keys deleted or values replaced anywhere in the case study's spec:
    parsing and validating raise nothing but OcedfError subclasses."""
    doc = case_study_doc()
    for _ in range(data.draw(st.integers(1, 3))):
        container, key = data.draw(st.sampled_from(_slots(doc, [])))
        if data.draw(st.booleans()):
            del container[key]
        else:
            container[key] = copy.deepcopy(data.draw(WRONG_VALUES))
    try:
        validate_spec(parse_spec_document(doc))
    except OcedfError:
        pass


RULES = {
    "object": {"kind": "object", "source_table": "t", "id_column": "id", "object_type": "User"},
    "event": {"kind": "event", "source_table": "t", "activity": "view page", "time_column": "ts",
              "time_format": "%Y"},
    "o2o": {"kind": "o2o", "source_table": "t", "source_id_column": "a", "target_id_column": "b"},
    "e2o": {"kind": "e2o", "source_table": "t", "object_id_column": "oid"},
}


def _rule(base, drop=(), **changes):
    """The valid ``base`` rule of ``RULES`` without the keys ``drop``, and with ``changes``."""
    rule = {k: v for k, v in RULES[base].items() if k not in drop}
    return {**rule, **changes}


def _parse_rule(raw):
    """The rule that ``raw`` parses to, as the second of a spec's mappings."""
    doc = case_study_doc()
    doc["mappings"] = [RULES["object"], raw]
    return parse_spec_document(doc).mappings[1]


@pytest.mark.parametrize("raw, message", [
    ("object", "mapping rules must be objects"),
    ([RULES["object"]], "mapping rules must be objects"),
    (_rule("object", drop=["source_table"]), "mapping rule needs a source_table"),
    (_rule("e2o", source_table=""), "mapping rule needs a source_table"),
    (_rule("o2o", source_table=7), "mapping rule needs a source_table"),
    (_rule("event", attributes=["name"]), "attributes must map attribute name to column"),
    (_rule("e2o", attributes=None), "attributes must map attribute name to column"),
    (_rule("object", drop=["id_column"]), "object rule needs id_column"),
    (_rule("object", drop=["object_type"]), "object rule needs object_type"),
    (_rule("object", drop=["id_column", "object_type"]), "object rule needs id_column"),
    (_rule("object", id_column=""), "object rule needs id_column"),
    (_rule("event", drop=["time_column"]), "event rule needs time_column"),
    (_rule("event", drop=["time_format"]), "event rule needs time_format"),
    (_rule("event", drop=["time_column", "time_format"]), "event rule needs time_column"),
    (_rule("event", time_format=3), "event rule needs time_format"),
    (_rule("o2o", drop=["source_id_column"]), "o2o rule needs source_id_column"),
    (_rule("o2o", drop=["target_id_column"]), "o2o rule needs target_id_column"),
    (_rule("o2o", drop=["source_id_column", "target_id_column"]), "o2o rule needs source_id_column"),
    (_rule("e2o", drop=["object_id_column"]), "e2o rule needs object_id_column"),
    (_rule("event", activity_column="action"), "event rule needs exactly one of activity / activity_column"),
    (_rule("event", drop=["activity"]), "event rule needs exactly one of activity / activity_column"),
    (_rule("event", drop=["activity", "time_column"]),
     "event rule needs exactly one of activity / activity_column"),
    (_rule("event", kind="flow"), "unknown mapping rule kind 'flow'"),
    (_rule("object", drop=["kind"]), "unknown mapping rule kind None"),
    (_rule("o2o", kind=[]), "unknown mapping rule kind []"),
    (_rule("o2o", kind={}), "unknown mapping rule kind {}"),
    (_rule("o2o", kind=["o2o"]), "unknown mapping rule kind ['o2o']"),
    (_rule("e2o", kind="e2o ", attributes=[]), "attributes must map attribute name to column"),
    # a rule failing one of these checks and a later one keeps this message
    (_rule("object", drop=["id_column"], subtype_column=7, extra=1), "object rule needs id_column"),
    (_rule("event", activity=7), "event rule needs exactly one of activity / activity_column"),
    (_rule("event", drop=["activity"], activity_column={}),
     "event rule needs exactly one of activity / activity_column"),
    (_rule("e2o", event_id_column=7, qualifier=5), "qualifier must be a string"),
    (_rule("object", subtype_column=7, attributes={"name": None}), "attribute columns must be non-empty strings"),
])
def test_mapping_rule_errors_name_the_rule(raw, message):
    with pytest.raises(SpecError) as err:
        _parse_rule(raw)
    assert (err.value.path, str(err.value)) == ("mappings[1]", f"mappings[1]: {message}")


@pytest.mark.parametrize("raw, message", [
    (_rule("o2o", qualifier=None), "qualifier must be a string"),
    (_rule("e2o", qualifier=7), "qualifier must be a string"),
    (_rule("e2o", qualifier=["q"]), "qualifier must be a string"),
    (_rule("object", attributes={"name": None}), "attribute columns must be non-empty strings"),
    (_rule("event", attributes={"who": "uid", "name": ""}), "attribute columns must be non-empty strings"),
    (_rule("object", attributes={"name": 3}), "attribute columns must be non-empty strings"),
    (_rule("event", id_column=7), "id_column must be a string or null"),
    (_rule("object", subtype_column=["role"]), "subtype_column must be a string or null"),
    (_rule("object", attribute_time_column=0), "attribute_time_column must be a string or null"),
    (_rule("event", drop=["activity"], activity_column="action", activity=5), "activity must be a string or null"),
    (_rule("event", activity_column=7), "activity_column must be a string or null"),
    (_rule("e2o", event_id_column=False), "event_id_column must be a string or null"),
    (_rule("o2o", qualifer="enrolls"), "unknown o2o rule key 'qualifer'"),
    (_rule("o2o", attributes={}), "unknown o2o rule key 'attributes'"),
    (_rule("object", attribute_columns={"name": "n"}), "unknown object rule key 'attribute_columns'"),
    (_rule("e2o", note=None), "unknown e2o rule key 'note'"),
])
def test_bad_rule_values_are_rejected_not_coerced(raw, message):
    with pytest.raises(SpecError) as err:
        _parse_rule(raw)
    assert (err.value.path, str(err.value)) == ("mappings[1]", f"mappings[1]: {message}")


@pytest.mark.parametrize("raw, rule", [
    (_rule("object", subtype_column="role", attributes={"name": "n"}, attribute_time_column=""),
     ObjectRule("t", "id", "User", subtype_column="role", attribute_columns={"name": "n"})),
    (_rule("event", drop=["activity"], activity_column="action", id_column="eid", activity=""),
     EventRule("t", "ts", "%Y", activity_column="action", id_column="eid")),
    (_rule("o2o", qualifier="enrolls"), O2ORule("t", "a", "b", qualifier="enrolls")),
    (_rule("e2o", event_id_column="eid"), E2ORule("t", "oid", event_id_column="eid")),
    (_rule("e2o", event_id_column=None), E2ORule("t", "oid")),
    (_rule("event", id_column=""), EventRule("t", "ts", "%Y", activity="view page")),
    (_rule("object", subtype_column=None, attribute_time_column=None), ObjectRule("t", "id", "User")),
])
def test_rules_are_built_from_their_fields(raw, rule):
    assert _parse_rule(raw) == rule


# -- the is-a queries against the edge scan they replaced ------------------

NAMES = ("A", "B", "C", "D", "E", "X", "Y")   # X and Y are never declared


def _random_hierarchy(rng):
    """Arguments of a schema over ``NAMES``: its edges may repeat a subtype,
    point a type at itself, close a cycle or name an undeclared type."""
    declared = tuple(rng.sample(NAMES[:5], k=rng.randint(1, 5)))
    pool = declared if rng.random() < 0.5 else NAMES
    is_a = tuple((rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 6)))
    discriminators = {t: "role" for t in NAMES if rng.random() < 0.6}
    return declared, is_a, discriminators


def _answer(query, *args):
    try:
        return query(*args)
    except SpecError as exc:
        return ("SpecError", str(exc))


def _queries(schema):
    return [(q, name, _answer(getattr(schema, q), name)) for name in NAMES
            for q in ("parent_of", "subtypes_of", "ancestors_of", "root_of", "descendants_of")] \
        + [_answer(schema.stored_types)]


def test_hierarchy_queries_answer_as_the_edge_scan():
    rng = random.Random(2315)
    drawn = {"repeated subtype": 0, "self-edge": 0, "cycle": 0, "undeclared name": 0}
    for _ in range(3000):
        declared, is_a, discriminators = _random_hierarchy(rng)
        schema = ConceptualSchema(declared, is_a, (), discriminators)
        oracle = ref.ScanSchema(declared, is_a, (), discriminators)
        assert _queries(schema) == _queries(oracle)
        subs = [sub for sub, _ in is_a]
        drawn["repeated subtype"] += len(set(subs)) < len(subs)
        drawn["self-edge"] += any(sub == sup for sub, sup in is_a)
        drawn["cycle"] += any(isinstance(_answer(oracle.root_of, t), tuple) for t in NAMES)
        drawn["undeclared name"] += any(t not in declared for edge in is_a for t in edge)
    assert min(drawn.values()) > 100, drawn


def test_an_acyclic_chain_longer_than_the_declared_types_is_walked_whole():
    """The is-a walk stops at a root or before a type it has passed, however
    many undeclared names the chain runs through."""
    schema = ConceptualSchema(("A", "B"), (("A", "X"), ("X", "Y"), ("Y", "Z"), ("Z", "W")))
    assert schema.ancestors_of("A") == ["X", "Y", "Z", "W"]
    assert schema.root_of("A") == "W"
    cyclic = ConceptualSchema(("A", "B"), (("A", "X"), ("X", "Y"), ("Y", "X")))
    assert cyclic.ancestors_of("A") == ["X", "Y"]
    with pytest.raises(SpecError, match="is-a cycle reached from 'A'"):
        cyclic.root_of("A")


def test_validation_reports_a_long_acyclic_chain_instead_of_raising():
    schema = ConceptualSchema(("A", "B"), (("A", "X"), ("X", "Y"), ("Y", "Z")), (), {})
    spec = ProjectSpec(schema, Q2OTMatrix((Question("q1", "", 1),), frozenset({("q1", "B")})),
                       ExtractionMatrix(("A",), ("a1",), {}), ("a1",), (ObjectRule("t", "id", "A"),))
    found = [(d.severity, d.message) for d in validate_spec(spec)]
    assert ("error", "rule needs a discriminator on supertype 'Z'") in found
    assert ("error", "is_a references undeclared type 'X'") in found
    assert not any("cycle" in message for _, message in found)


def _random_spec(rng, schema):
    """A spec around ``schema`` whose matrix, marks and object rules name
    its types, undeclared ones now and then."""
    columns = tuple(rng.sample(NAMES, k=rng.randint(1, 5)))
    activities = ("a1", "a2", "a3")
    choices = ["0", "1", "0..1", "1..*"]
    cells = {(a, c): parse_multiplicity(rng.choice(choices))
             for a in activities for c in columns if rng.random() < 0.4}
    questions = (Question("q1", "", 1), Question("q2", "", 2))
    marks = frozenset((rng.choice(["q1", "q2"]), rng.choice(NAMES)) for _ in range(rng.randint(0, 4)))
    mappings = tuple(ObjectRule("t", "id", rng.choice(NAMES), subtype_column=rng.choice([None, "role"]))
                     for _ in range(rng.randint(0, 3)))
    return ProjectSpec(schema, Q2OTMatrix(questions, marks), ExtractionMatrix(columns, activities, cells),
                       activities, mappings)


def test_validation_gives_the_edge_scan_diagnostics():
    rng = random.Random(2316)
    for _ in range(2000):
        declared, is_a, discriminators = _random_hierarchy(rng)
        spec = _random_spec(rng, ConceptualSchema(declared, is_a, (), discriminators))
        oracle = replace(spec, schema=ref.ScanSchema(declared, is_a, (), discriminators))
        assert _answer(validate_spec, spec) == _answer(ref.validate_spec, oracle)
