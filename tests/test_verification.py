import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_verification as ref
from ocedf import (
    AttributeDef,
    AttributeValue,
    ConceptualSchema,
    EventInstance,
    EventTypeDef,
    ExtractionMatrix,
    ObjectInstance,
    ObjectTypeDef,
    OcedLog,
    check,
    derive_matrix,
    parse_multiplicity,
    render_matrix,
)
from randlog import clone_log, random_log

T0 = datetime(2024, 9, 2, 10, 0, 0, tzinfo=timezone.utc)

COLUMNS = ("User", "Teacher", "Student", "Exam", "File", "Page", "Folder",
           "Assignment", "Group", "Course")


def course_schema():
    return ConceptualSchema(
        object_types=COLUMNS,
        is_a=(("Teacher", "User"), ("Student", "User")),
        discriminators={"User": "role"},
    )


def course_matrix():
    rows = {
        "view file": {"User": "1", "File": "1", "Course": "1"},
        "view page": {"User": "1", "Page": "1", "Course": "1"},
        "view folder": {"User": "1", "Folder": "1", "Course": "1"},
        "submit assignment": {"Student": "1", "File": "0..*", "Assignment": "1",
                              "Group": "0..1", "Course": "1"},
        "resubmit assignment": {"Student": "1", "File": "0..*", "Assignment": "1",
                                "Group": "0..1", "Course": "1"},
        "set assignment grade": {"Teacher": "1", "Student": "1", "File": "0..*",
                                 "Assignment": "1", "Group": "0..1", "Course": "1"},
        "set exam grade": {"Teacher": "1", "Student": "1..*", "Exam": "1", "Course": "1"},
    }
    cells = {(a, c): parse_multiplicity(t) for a, row in rows.items() for c, t in row.items()}
    return ExtractionMatrix(COLUMNS, tuple(rows), cells)


def course_log():
    defs = [ObjectTypeDef("User", (AttributeDef("role", "string"),))]
    defs += [ObjectTypeDef(n) for n in COLUMNS if n not in ("User", "Teacher", "Student")]
    return OcedLog(defs, [EventTypeDef(n) for n in course_matrix().activities])


def add_user(log, oid, role):
    log.add_object(ObjectInstance(oid, "User", (AttributeValue("role", T0, role),)))


def single_view_file_log():
    log = course_log()
    add_user(log, "u1", "Student")
    log.add_object(ObjectInstance("f1", "File", ()))
    log.add_object(ObjectInstance("c1", "Course", ()))
    log.add_event(EventInstance("e1", "view file", T0))
    for oid in ("u1", "f1", "c1"):
        log.relate_event_object("e1", oid)
    return log


def undiscriminated_user_log():
    log = course_log()
    log.add_object(ObjectInstance("u1", "User", ()))  # no role recorded
    log.add_object(ObjectInstance("f1", "File", ()))
    log.add_object(ObjectInstance("c1", "Course", ()))
    log.add_event(EventInstance("e1", "view file", T0))
    for oid in ("u1", "f1", "c1"):
        log.relate_event_object("e1", oid)
    return log


def graded_without_group_log():
    log = course_log()
    add_user(log, "t1", "Teacher")
    add_user(log, "s1", "Student")
    log.add_object(ObjectInstance("a1", "Assignment", ()))
    log.add_object(ObjectInstance("c1", "Course", ()))
    log.add_object(ObjectInstance("f1", "File", ()))
    for i in range(3):
        eid = f"g{i}"
        log.add_event(EventInstance(eid, "set assignment grade", T0 + timedelta(minutes=i)))
        for oid in ("t1", "s1", "a1", "c1", "f1"):
            log.relate_event_object(eid, oid)
    return log


def exam_grade_without_students_log():
    log = course_log()
    add_user(log, "t1", "Teacher")
    log.add_object(ObjectInstance("x1", "Exam", ()))
    log.add_object(ObjectInstance("c1", "Course", ()))
    log.add_event(EventInstance("e1", "set exam grade", T0))
    for oid in ("t1", "x1", "c1"):
        log.relate_event_object("e1", oid)
    return log


def forbidden_page_log():
    log = single_view_file_log()
    log.add_object(ObjectInstance("p1", "Page", ()))
    log.relate_event_object("e1", "p1")
    return log


def graded_with_group_log():
    log = course_log()
    add_user(log, "t1", "Teacher")
    add_user(log, "s1", "Student")
    log.add_object(ObjectInstance("a1", "Assignment", ()))
    log.add_object(ObjectInstance("g1", "Group", ()))
    log.add_object(ObjectInstance("c1", "Course", ()))
    log.add_object(ObjectInstance("f1", "File", ()))
    log.add_event(EventInstance("e1", "set assignment grade", T0))
    for oid in ("t1", "s1", "a1", "g1", "c1", "f1"):
        log.relate_event_object("e1", oid)
    return log


def teacher_views_file_log():
    log = course_log()
    add_user(log, "t1", "Teacher")
    log.add_object(ObjectInstance("f1", "File", ()))
    log.add_object(ObjectInstance("c1", "Course", ()))
    log.add_event(EventInstance("e1", "view file", T0))
    for oid in ("t1", "f1", "c1"):
        log.relate_event_object("e1", oid)
    return log


def two_files_log():
    log = single_view_file_log()
    log.add_object(ObjectInstance("f2", "File", ()))
    log.relate_event_object("e1", "f2")
    return log


def matrix_without_view_file():
    xm = course_matrix()
    return ExtractionMatrix(
        xm.columns, tuple(a for a in xm.activities if a != "view file"),
        {k: v for k, v in xm.cells.items() if k[0] != "view file"})


def unmapped_course_case():
    """(log, xmatrix, schema) where Course objects fall outside every column."""
    schema = ConceptualSchema(object_types=("User", "Course"), discriminators={})
    xm = ExtractionMatrix(("User",), ("ping",), {("ping", "User"): parse_multiplicity("1")})
    log = OcedLog([ObjectTypeDef("User"), ObjectTypeDef("Course")], [EventTypeDef("ping")])
    log.add_object(ObjectInstance("u1", "User", ()))
    log.add_object(ObjectInstance("c1", "Course", ()))
    log.add_event(EventInstance("e1", "ping", T0))
    log.relate_event_object("e1", "u1")
    log.relate_event_object("e1", "c1")
    return log, xm, schema


def undeclared_type_case():
    """(log, xmatrix, schema) where a Guest, a type the schema does not
    declare though a column and an is-a edge name it, counts toward no column."""
    schema = ConceptualSchema(("User", "Course"), (("Guest", "User"),), (), {"User": "role"})
    xm = ExtractionMatrix(("User", "Guest", "Course"), ("visit",), {("visit", "Course"): parse_multiplicity("1")})
    log = OcedLog([ObjectTypeDef("Guest"), ObjectTypeDef("Course")], [EventTypeDef("visit")])
    log.add_object(ObjectInstance("g1", "Guest", ()))
    log.add_object(ObjectInstance("c1", "Course", ()))
    log.add_event(EventInstance("e1", "visit", T0))
    log.relate_event_object("e1", "g1")
    log.relate_event_object("e1", "c1")
    return log, xm, schema


def interleaved_signatures_case():
    """(log, xmatrix, schema) where two signatures of "set exam grade" take
    turns in time and both violate. One event relates a Room, a type outside
    every column, under two qualifiers. A "set assignment grade" event relates
    the objects of one of those signatures, so only its event type tells them
    apart; two teachers and a teacher with a student differ only in role."""
    defs = [ObjectTypeDef("User", (AttributeDef("role", "string"),)), ObjectTypeDef("Room")]
    defs += [ObjectTypeDef(n) for n in COLUMNS if n not in ("User", "Teacher", "Student")]
    log = OcedLog(defs, [EventTypeDef(n) for n in course_matrix().activities])
    add_user(log, "t1", "Teacher")
    add_user(log, "t2", "Teacher")
    add_user(log, "s1", "Student")
    for oid, otype in (("c1", "Course"), ("r1", "Room"), ("x1", "Exam")):
        log.add_object(ObjectInstance(oid, otype, ()))
    events = [
        ("g0", "set exam grade", ("c1", "s1", "t1", "x1")),      # conformant
        ("g1", "set exam grade", ("c1", "t1", "t2", "x1")),      # two teachers, no student
        ("g2", "set exam grade", ("t1", "x1")),                  # no student, no course
        ("g3", "set exam grade", ("c1", "t2", "t1", "x1")),
        ("g4", "set exam grade", ("r1", "t1", "x1")),
        ("g5", "set assignment grade", ("c1", "t1", "t2", "x1")),
    ]
    for i, (eid, etype, oids) in enumerate(events):
        log.add_event(EventInstance(eid, etype, T0 + timedelta(minutes=i)))
        for oid in oids:
            log.relate_event_object(eid, oid)
    log.relate_event_object("g4", "r1", "venue")
    return log, course_matrix(), course_schema()


def _course(build):
    return lambda: (build(), course_matrix(), course_schema())


# every hand-built case of this module, as (log, xmatrix, schema)
HAND_BUILT = {
    "single view file": _course(single_view_file_log),
    "undiscriminated user": _course(undiscriminated_user_log),
    "empty log": _course(course_log),
    "graded without group": _course(graded_without_group_log),
    "exam grade without students": _course(exam_grade_without_students_log),
    "forbidden page": _course(forbidden_page_log),
    "graded with group": _course(graded_with_group_log),
    "teacher views file": _course(teacher_views_file_log),
    "two files": _course(two_files_log),
    "view file outside the matrix": lambda: (single_view_file_log(), matrix_without_view_file(),
                                             course_schema()),
    "unmapped object type": unmapped_course_case,
    "undeclared object type": undeclared_type_case,
    "interleaved signatures": interleaved_signatures_case,
}


class TestDeriveMatrix:
    def test_single_view_file_event(self):
        matrix = derive_matrix(single_view_file_log(), course_matrix(), course_schema())
        for col in ("User", "File", "Course"):
            stats = matrix.cell("view file", col)
            assert (stats.observed_min, stats.observed_max) == (1, 1)
        for col in ("Exam", "Page", "Folder", "Assignment", "Group", "Teacher"):
            assert matrix.cell("view file", col).observed_max == 0
        # the student counts toward the Student subtype column too
        assert matrix.cell("view file", "Student").observed_max == 1

    def test_single_event_with_undiscriminated_user(self):
        log = undiscriminated_user_log()
        matrix = derive_matrix(log, course_matrix(), course_schema())
        nonzero = {(r, c) for r in matrix.rows for c in matrix.columns
                   if matrix.cell(r, c).observed_max > 0}
        assert nonzero == {("view file", "User"), ("view file", "File"),
                           ("view file", "Course")}
        text = render_matrix(matrix, check(matrix, course_matrix()))
        assert text.count("1..1") == 3

    def test_empty_log(self):
        matrix = derive_matrix(course_log(), course_matrix(), course_schema())
        for row in matrix.rows:
            for col in matrix.columns:
                stats = matrix.cell(row, col)
                assert stats.total_events_of_type == 0
                assert stats.observed_max == 0

    def test_counts_distinct_objects_not_relations(self):
        log = single_view_file_log()
        log.relate_event_object("e1", "u1", "second-qualifier")
        matrix = derive_matrix(log, course_matrix(), course_schema())
        assert matrix.cell("view file", "User").observed_max == 1

    def test_matches_brute_force_tally(self, case_study):
        spec, log, _ = case_study
        matrix = derive_matrix(log, spec.xmatrix, spec.schema)
        rng = random.Random(4)
        events = rng.sample(sorted(log.events), k=200)
        per_event = {ec.event_id: ec
                     for ec in ref.derive_matrix(log, spec.xmatrix, spec.schema).per_event}
        for eid in events:
            related = log.objects_of_event(eid)
            for col in matrix.columns:
                if col in ("Teacher", "Student"):
                    expected = sum(1 for o in related
                                   if o.type == "User" and o.latest_value("role") == col)
                elif col == "User":
                    expected = sum(1 for o in related if o.type == "User")
                else:
                    expected = sum(1 for o in related if o.type == col)
                assert per_event[eid].counts[col] == expected

    def test_supertype_consistency(self, case_study):
        spec, log, _ = case_study
        for ec in ref.derive_matrix(log, spec.xmatrix, spec.schema).per_event:
            unknown = sum(1 for o in log.objects_of_event(ec.event_id)
                          if o.type == "User" and o.latest_value("role") not in ("Teacher", "Student"))
            assert ec.counts["User"] == ec.counts["Teacher"] + ec.counts["Student"] + unknown

    def test_violations_of_interleaved_signatures_in_event_order(self):
        log, xmatrix, schema = interleaved_signatures_case()
        matrix = derive_matrix(log, xmatrix, schema)
        assert [(v.event_id, v.object_type, v.observed) for v in matrix.violations] == [
            ("g1", "Teacher", 2), ("g1", "Student", 0),
            ("g2", "Student", 0), ("g2", "Course", 0),
            ("g3", "Teacher", 2), ("g3", "Student", 0),
            ("g4", "Student", 0), ("g4", "Course", 0),
            ("g5", "Teacher", 2), ("g5", "Student", 0), ("g5", "Exam", 1), ("g5", "Assignment", 0),
        ]
        assert matrix.unmapped_types == {"set exam grade": {"Room"}}
        stats = matrix.cell("set exam grade", "Teacher")
        assert (stats.observed_min, stats.observed_max, stats.total_events_of_type) == (1, 2, 5)
        assert matrix.cell("set exam grade", "Course").events_with_zero == 2

    def test_monotonicity_under_added_relation(self):
        log = single_view_file_log()
        before = derive_matrix(log, course_matrix(), course_schema())
        add_user(log, "u2", "Student")
        log.relate_event_object("e1", "u2")
        after = derive_matrix(log, course_matrix(), course_schema())
        for key, stats in before.cells.items():
            assert after.cells[key].observed_max >= stats.observed_max


class TestCheck:
    def test_conformant_single_event(self):
        log = single_view_file_log()
        matrix = derive_matrix(log, course_matrix(), course_schema())
        report = check(matrix, course_matrix())
        violations = report.violations
        assert violations == []
        # only declared-but-never-observed warnings for the six empty activities
        assert all(w.event_type != "view file" for w in report.warnings)

    def test_group_never_observed_is_warning_not_violation(self):
        log = graded_without_group_log()
        matrix = derive_matrix(log, course_matrix(), course_schema())
        report = check(matrix, course_matrix())
        assert report.violations == []
        grade_warnings = [w for w in report.warnings if w.event_type == "set assignment grade"]
        assert [(w.event_type, w.object_type) for w in grade_warnings] == \
            [("set assignment grade", "Group")]

    def test_exam_grade_without_students_is_violation(self):
        log = exam_grade_without_students_log()
        matrix = derive_matrix(log, course_matrix(), course_schema())
        report = check(matrix, course_matrix())
        bad = [v for v in report.violations if v.object_type == "Student"]
        assert len(bad) == 1
        assert bad[0].event_id == "e1"
        assert bad[0].expected.canonical() == "1..*"

    def test_forbidden_relation_is_violation(self):
        log = forbidden_page_log()
        matrix = derive_matrix(log, course_matrix(), course_schema())
        report = check(matrix, course_matrix())
        assert any(v.object_type == "Page" and v.event_id == "e1" for v in report.violations)

    def test_unchecked_supertype_level_when_subtypes_pinned(self):
        # grading events relate two Users (teacher + student); the blank
        # User cell must not read as 0..0 there
        log = graded_with_group_log()
        matrix = derive_matrix(log, course_matrix(), course_schema())
        assert matrix.cell("set assignment grade", "User").observed_max == 2
        report = check(matrix, course_matrix())
        assert report.violations == []

    def test_subtype_levels_unchecked_when_supertype_pinned(self):
        # a teacher viewing a file satisfies User=1 even though the
        # Teacher column is blank on view rows
        log = teacher_views_file_log()
        matrix = derive_matrix(log, course_matrix(), course_schema())
        report = check(matrix, course_matrix())
        assert report.violations == []

    def test_wrong_multiplicity_detected(self):
        log = two_files_log()
        matrix = derive_matrix(log, course_matrix(), course_schema())
        report = check(matrix, course_matrix())
        bad = [v for v in report.violations if v.object_type == "File"]
        assert bad and bad[0].observed == 2

    def test_unknown_event_type_warns(self):
        log = single_view_file_log()
        trimmed = matrix_without_view_file()
        matrix = derive_matrix(log, trimmed, course_schema())
        report = check(matrix, trimmed)
        assert any(w.event_type == "view file" and "matrix" in w.message for w in report.warnings)
        assert not any(v.event_type == "view file" for v in report.violations)

    def test_unmapped_object_type_warns(self):
        log, xm, schema = unmapped_course_case()
        matrix = derive_matrix(log, xm, schema)
        report = check(matrix, xm)
        assert any(w.object_type == "Course" and "not counted" in w.message
                   for w in report.warnings)

    def test_soundness_against_brute_force(self, case_study):
        spec, log, _ = case_study
        matrix = derive_matrix(log, spec.xmatrix, spec.schema)
        report = check(matrix, spec.xmatrix)
        flagged = {(v.event_id, v.object_type) for v in report.violations}

        def expected_range(etype, col):
            cell = spec.xmatrix.cell(etype, col)
            if cell is not None:
                return cell
            if col in ("User", "Teacher", "Student"):
                pinned = any(spec.xmatrix.cell(etype, c) is not None
                             for c in ("User", "Teacher", "Student"))
                if pinned or col != "User":
                    return None
            return parse_multiplicity("0")

        for ec in ref.derive_matrix(log, spec.xmatrix, spec.schema).per_event:
            for col in matrix.columns:
                rng = expected_range(ec.event_type, col)
                should_flag = rng is not None and not rng.contains(ec.counts[col])
                assert ((ec.event_id, col) in flagged) == should_flag


class TestRender:
    def test_single_event_grid(self):
        log = single_view_file_log()
        matrix = derive_matrix(log, course_matrix(), course_schema())
        report = check(matrix, course_matrix())
        text = render_matrix(matrix, report)
        assert text.count("1..1") == 4  # User, Student, File, Course observed once
        assert "view file" in text

    def test_flagged_cell_marked(self, case_study):
        spec, log, _ = case_study
        matrix = derive_matrix(log, spec.xmatrix, spec.schema)
        report = check(matrix, spec.xmatrix)
        text = render_matrix(matrix, report)
        row = next(l for l in text.splitlines() if l.startswith("set assignment grade"))
        assert "!" in row
        assert "set assignment grade / Group" in text

    def test_empty_log_header_only(self):
        matrix = derive_matrix(course_log(), course_matrix(), course_schema())
        report = check(matrix, course_matrix())
        text = render_matrix(matrix, report)
        grid = [l for l in text.splitlines() if l and not l.startswith(("violations", "warnings", " "))]
        data_rows = [l for l in grid if not l.lstrip().startswith("User")]
        assert data_rows == []

    def test_renders_same_text_twice(self, case_study):
        spec, log, _ = case_study
        matrix = derive_matrix(log, spec.xmatrix, spec.schema)
        report = check(matrix, spec.xmatrix)
        assert render_matrix(matrix, report) == render_matrix(matrix, report)


def test_report_to_dict_shape(case_study):
    spec, log, _ = case_study
    matrix = derive_matrix(log, spec.xmatrix, spec.schema)
    report = check(matrix, spec.xmatrix)
    doc = report.to_dict()
    assert doc["summary"] == {"violations": 0, "warnings": 1}
    assert doc["warnings"][0]["event_type"] == "set assignment grade"
    assert doc["warnings"][0]["object_type"] == "Group"


def assert_same_as_reference(log, xmatrix, schema):
    """The one-pass tally and check give what the two-pass reference gives."""
    matrix = derive_matrix(log, xmatrix, schema)
    report = check(matrix, xmatrix)
    ref_matrix = ref.derive_matrix(log, xmatrix, schema)
    ref_report = ref.check(ref_matrix, xmatrix)
    assert (matrix.rows, matrix.columns, matrix.extra_event_types) == \
        (ref_matrix.rows, ref_matrix.columns, ref_matrix.extra_event_types)
    assert matrix.cells == ref_matrix.cells
    assert matrix.unmapped_types == ref_matrix.unmapped_types
    assert matrix.column_families == ref_matrix.column_families
    assert report.violations == ref_report.violations
    assert report.warnings == ref_report.warnings
    assert render_matrix(matrix, report) == render_matrix(ref_matrix, ref_report)
    return report


class TestAgainstReference:
    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built(self, name):
        assert_same_as_reference(*HAND_BUILT[name]())

    @pytest.mark.parametrize("fixture", ["case_study", "conformant"])
    def test_fixtures(self, fixture, request):
        spec, log, _ = request.getfixturevalue(fixture)
        assert_same_as_reference(log, spec.xmatrix, spec.schema)

    def test_e2o_mutations_of_case_study(self, case_study):
        # add or drop one event-to-object relation, as acceptance criterion 3 does
        spec, log, _ = case_study
        rng = random.Random(1312)
        events = log.events_in_order()
        object_ids = sorted(log.objects)
        e2o = sorted(log.e2o)
        found = 0
        for i in range(12):
            event = rng.choice(events)
            if i % 2:
                rel = rng.choice([r for r in e2o if r.event_id == event.id])
                mutated = clone_log(log, drop_e2o=(rel.event_id, rel.object_id, rel.qualifier))
            else:
                mutated = clone_log(log, add_e2o=(event.id, rng.choice(object_ids), "mutant"))
            report = assert_same_as_reference(mutated, spec.xmatrix, spec.schema)
            found += len(report.violations)
        assert found > 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_logs_and_matrices(self, seed):
        rng = random.Random(seed)
        log = random_log(rng, max_events=120, max_objects=40, with_user_hierarchy=True)
        assert_same_as_reference(log, *random_matrix(rng, log))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_tied_times_stored_out_of_order(self, seed):
        # events stored in shuffled order at a few instants: (time, id) order
        # breaks most ties on the id, and differs from the order of storage
        rng = random.Random(seed)
        drawn = random_log(rng, max_events=120, max_objects=40, with_user_hierarchy=True)
        log = OcedLog(drawn.object_type_defs, drawn.event_type_defs)
        for obj in drawn.objects.values():
            log.add_object(obj)
        events = list(drawn.events.values())
        rng.shuffle(events)
        instants = [T0 + timedelta(seconds=k) for k in range(rng.randint(1, 3))]
        for event in events:
            log.add_event(event._replace(time=rng.choice(instants)))
        for rel in drawn.e2o:
            log.relate_event_object(*rel)
        assert_same_as_reference(log, *random_matrix(rng, log))

    def test_extracted_log_with_violations(self, case_study):
        # extract stores events rule by rule, so violations from several rules
        # interleave in time; a stricter matrix makes them: no teacher views
        # and every graded or submitted assignment has a group
        spec, log, _ = case_study
        stricter = dict(spec.xmatrix.cells)
        for activity, column in spec.xmatrix.cells:
            if column == "Group":
                stricter[activity, column] = parse_multiplicity("1")
            elif activity.startswith("view "):
                stricter[activity, "Teacher"] = parse_multiplicity("0")
        xmatrix = ExtractionMatrix(spec.xmatrix.columns, spec.xmatrix.activities, stricter)
        report = assert_same_as_reference(log, xmatrix, spec.schema)
        flagged = list(dict.fromkeys(v.event_id for v in report.violations))
        assert len({log.events[eid].type for eid in flagged}) > 1
        stored = {eid: i for i, eid in enumerate(log.events)}
        assert flagged != sorted(flagged, key=stored.get)


USERS = (("Teacher", "User"), ("Student", "User"))
MEMBERS = (("Member", "User"), ("Teacher", "Member"), ("Student", "Member"))


def random_matrix(rng, log, is_a=USERS):
    """A random extraction matrix over ``log``'s types and the User
    hierarchy ``is_a``, with its conceptual schema."""
    types = [td.name for td in log.object_type_defs]
    schema = ConceptualSchema(
        object_types=(*types, "Teacher", "Student"),
        is_a=is_a,
        discriminators={"User": "role"},
    )
    columns = tuple(rng.sample(schema.object_types, k=rng.randint(1, len(schema.object_types))))
    activities = [td.name for td in log.event_type_defs]
    activities = rng.sample(activities, k=rng.randint(0, len(activities)))
    choices = ["0", "1", "0..1", "1..*", "0..*", "2"]
    cells = {(a, c): parse_multiplicity(rng.choice(choices))
             for a in activities for c in columns if rng.random() < 0.5}
    return ExtractionMatrix(columns, tuple(activities), cells), schema


def three_level_log(rng):
    """A random log of the family User > Member > {Student, Teacher}: its
    users are stored as User or Member, with a role of the family, one
    outside it, or none."""
    drawn = random_log(rng, max_events=120, max_objects=40, with_user_hierarchy=True)
    user = next(td for td in drawn.object_type_defs if td.name == "User")
    log = OcedLog([*drawn.object_type_defs, ObjectTypeDef("Member", user.attribute_defs)],
                  drawn.event_type_defs)
    roles = ["Student", "Teacher", "Member", "User", "Guest"]
    for obj in drawn.objects.values():
        if obj.type == "User":
            role = rng.choice(roles)
            values = tuple(av._replace(value=role) for av in obj.attribute_values
                           if av.name != "role" or rng.random() < 0.9)
            obj = obj._replace(type=rng.choice(["User", "User", "Member"]), attribute_values=values)
        log.add_object(obj)
    for event in drawn.events.values():
        log.add_event(event)
    for rel in drawn.e2o:
        log.relate_event_object(*rel)
    return log


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_three_level_hierarchy_matches_reference(seed):
    rng = random.Random(seed)
    log = three_level_log(rng)
    assert_same_as_reference(log, *random_matrix(rng, log, MEMBERS))


def test_an_object_skips_the_types_between_its_stored_type_and_its_label():
    log = OcedLog([ObjectTypeDef(t, (AttributeDef("role", "string"),)) for t in ("User", "Member")],
                  [EventTypeDef("meet user"), EventTypeDef("meet member")])
    for oid, stored in (("u1", "User"), ("m1", "Member")):
        log.add_object(ObjectInstance(oid, stored, (AttributeValue("role", T0, "Student"),)))
        log.add_event(EventInstance(f"e-{oid}", f"meet {stored.lower()}", T0))
        log.relate_event_object(f"e-{oid}", oid)
    columns = ("User", "Member", "Student")
    schema = ConceptualSchema(("User", "Member", "Teacher", "Student"), MEMBERS, (), {"User": "role"})
    matrix = derive_matrix(log, ExtractionMatrix(columns, ("meet user", "meet member"), {}), schema)
    counts = {(r, c): matrix.cell(r, c).observed_max for r in matrix.rows for c in columns}
    assert counts == {("meet user", "User"): 1, ("meet user", "Member"): 0, ("meet user", "Student"): 1,
                      ("meet member", "User"): 1, ("meet member", "Member"): 1,
                      ("meet member", "Student"): 1}
