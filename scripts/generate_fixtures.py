#!/usr/bin/env python3
"""Regenerate the bundled course fixtures deterministically.

Two fixtures are produced:

* ``fixtures/case_study``: a year of LMS + grading-system exports for one
  course. Group assignment submissions are made by 23 group
  representatives, while the grading system emits one ``set assignment
  grade`` event per member (134 students across 23 groups) and records no
  group on those events, so verification flags exactly one warning on
  (set assignment grade, Group). Page navigation follows the A1P1..A1P5
  chain with a revisit loop over A1P5/A1P6/L1P1 for part of the cohort.

* ``fixtures/conformant``: a small course whose grading events do carry
  the group relation; verification is fully clean.

The script self-checks both fixtures end to end before writing is
considered done. Output is committed; rerunning must be byte-identical.
"""

from __future__ import annotations

import csv
import json
import random
import sys
from datetime import datetime, timedelta
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

TS = "%Y-%m-%d %H:%M:%S"

PAGES = [
    ("pg-a1p1", "A1P1", "Modeling Foundations"),
    ("pg-a1p2", "A1P2", "Working With Notations"),
    ("pg-a1p3", "A1P3", "From Model to Execution"),
    ("pg-a1p4", "A1P4", "Formal Building Blocks"),
    ("pg-a1p5", "A1P5", "Routing Constructs"),
    ("pg-a1p6", "A1P6", "Measuring Model Size"),
    ("pg-l1p1", "L1P1", "Tree-Shaped Process Views"),
]

FIRST = ["Alex", "Billie", "Casey", "Dana", "Eli", "Frankie", "Gray", "Harper",
         "Ira", "Jesse", "Kai", "Lane", "Mika", "Noor", "Oak", "Parker",
         "Quinn", "Reese", "Sam", "Toni"]
LAST = ["Aalto", "Berg", "Calder", "Diaz", "Ek", "Falk", "Grieg", "Holm",
        "Iver", "Juhl", "Kranz", "Lind", "Moreau", "Nyberg", "Okafor", "Pirjo",
        "Quist", "Rahm", "Strand", "Tamm"]


def person_name(rng: random.Random) -> str:
    return f"{rng.choice(FIRST)} {rng.choice(LAST)}"


def write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def merge_preserving(rng: random.Random, *sequences):
    """Random interleave that keeps each input sequence's own order."""
    pools = [list(s) for s in sequences if s]
    out = []
    while pools:
        weights = [len(p) for p in pools]
        i = rng.choices(range(len(pools)), weights=weights)[0]
        out.append(pools[i].pop(0))
        if not pools[i]:
            pools.pop(i)
    return out


def spec_document(include_grading_users: bool, grades_carry_group: bool) -> dict:
    mappings = [
        {"kind": "object", "source_table": "users", "id_column": "user_id",
         "object_type": "User", "subtype_column": "role", "attributes": {"name": "full_name"}},
    ]
    if include_grading_users:
        mappings.append(
            {"kind": "object", "source_table": "users_grading", "id_column": "user_id",
             "object_type": "User", "subtype_column": "role", "attributes": {"name": "full_name"}})
    mappings += [
        {"kind": "object", "source_table": "courses", "id_column": "course_id",
         "object_type": "Course", "attributes": {"name": "name"}},
        {"kind": "object", "source_table": "groups", "id_column": "group_id",
         "object_type": "Group", "attributes": {"name": "name"}},
        {"kind": "object", "source_table": "pages", "id_column": "page_id",
         "object_type": "Page", "attributes": {"code": "code", "title": "title"}},
        {"kind": "object", "source_table": "files", "id_column": "file_id",
         "object_type": "File", "attributes": {"name": "name"}},
        {"kind": "object", "source_table": "folders", "id_column": "folder_id",
         "object_type": "Folder", "attributes": {"name": "name"}},
        {"kind": "object", "source_table": "assignments", "id_column": "assignment_id",
         "object_type": "Assignment", "attributes": {"name": "name", "kind": "kind"}},
        {"kind": "object", "source_table": "exams", "id_column": "exam_id",
         "object_type": "Exam", "attributes": {"name": "name"}},
        # object-to-object structure
        {"kind": "o2o", "source_table": "group_members", "source_id_column": "group_id",
         "target_id_column": "user_id", "qualifier": "member"},
        {"kind": "o2o", "source_table": "groups", "source_id_column": "course_id",
         "target_id_column": "group_id", "qualifier": "contains"},
        {"kind": "o2o", "source_table": "pages", "source_id_column": "course_id",
         "target_id_column": "page_id", "qualifier": "contains"},
        {"kind": "o2o", "source_table": "files", "source_id_column": "course_id",
         "target_id_column": "file_id", "qualifier": "contains"},
        {"kind": "o2o", "source_table": "folders", "source_id_column": "course_id",
         "target_id_column": "folder_id", "qualifier": "contains"},
        {"kind": "o2o", "source_table": "assignments", "source_id_column": "course_id",
         "target_id_column": "assignment_id", "qualifier": "contains"},
        {"kind": "o2o", "source_table": "exams", "source_id_column": "course_id",
         "target_id_column": "exam_id", "qualifier": "contains"},
        # events
        {"kind": "event", "source_table": "views", "activity_column": "action",
         "time_column": "ts", "time_format": TS},
        {"kind": "event", "source_table": "submissions", "activity_column": "activity",
         "id_column": "sub_id", "time_column": "ts", "time_format": TS},
        {"kind": "event", "source_table": "grades", "activity": "set assignment grade",
         "id_column": "grade_id", "time_column": "ts", "time_format": TS,
         "attributes": {"grade": "grade"}},
        {"kind": "event", "source_table": "exam_grades", "activity": "set exam grade",
         "id_column": "eg_id", "time_column": "ts", "time_format": TS},
        # event-to-object links
        {"kind": "e2o", "source_table": "views", "object_id_column": "user_id", "qualifier": "viewer"},
        {"kind": "e2o", "source_table": "views", "object_id_column": "page_id", "qualifier": "viewed"},
        {"kind": "e2o", "source_table": "views", "object_id_column": "file_id", "qualifier": "viewed"},
        {"kind": "e2o", "source_table": "views", "object_id_column": "folder_id", "qualifier": "viewed"},
        {"kind": "e2o", "source_table": "views", "object_id_column": "course_id", "qualifier": "course"},
        {"kind": "e2o", "source_table": "submissions", "event_id_column": "sub_id",
         "object_id_column": "student_id", "qualifier": "submitter"},
        {"kind": "e2o", "source_table": "submissions", "event_id_column": "sub_id",
         "object_id_column": "assignment_id", "qualifier": "assignment"},
        {"kind": "e2o", "source_table": "submissions", "event_id_column": "sub_id",
         "object_id_column": "group_id", "qualifier": "group"},
        {"kind": "e2o", "source_table": "submissions", "event_id_column": "sub_id",
         "object_id_column": "course_id", "qualifier": "course"},
        {"kind": "e2o", "source_table": "submission_files", "event_id_column": "sub_id",
         "object_id_column": "file_id", "qualifier": "attachment"},
        {"kind": "e2o", "source_table": "grades", "event_id_column": "grade_id",
         "object_id_column": "teacher_id", "qualifier": "grader"},
        {"kind": "e2o", "source_table": "grades", "event_id_column": "grade_id",
         "object_id_column": "student_id", "qualifier": "graded"},
        {"kind": "e2o", "source_table": "grades", "event_id_column": "grade_id",
         "object_id_column": "assignment_id", "qualifier": "assignment"},
        {"kind": "e2o", "source_table": "grades", "event_id_column": "grade_id",
         "object_id_column": "course_id", "qualifier": "course"},
    ]
    if grades_carry_group:
        mappings.append(
            {"kind": "e2o", "source_table": "grades", "event_id_column": "grade_id",
             "object_id_column": "group_id", "qualifier": "group"})
    mappings += [
        {"kind": "e2o", "source_table": "grade_files", "event_id_column": "grade_id",
         "object_id_column": "file_id", "qualifier": "attachment"},
        {"kind": "e2o", "source_table": "exam_grades", "event_id_column": "eg_id",
         "object_id_column": "teacher_id", "qualifier": "grader"},
        {"kind": "e2o", "source_table": "exam_grades", "event_id_column": "eg_id",
         "object_id_column": "exam_id", "qualifier": "exam"},
        {"kind": "e2o", "source_table": "exam_grades", "event_id_column": "eg_id",
         "object_id_column": "course_id", "qualifier": "course"},
        {"kind": "e2o", "source_table": "exam_grade_students", "event_id_column": "eg_id",
         "object_id_column": "student_id", "qualifier": "graded"},
    ]

    return {
        "schema": {
            "object_types": ["User", "Teacher", "Student", "Exam", "File", "Page",
                             "Folder", "Assignment", "Group", "Course"],
            "is_a": [["Teacher", "User"], ["Student", "User"]],
            "discriminators": {"User": "role"},
            "o2o_types": [
                ["Group", "Student", "member"],
                ["Course", "Group", "contains"],
                ["Course", "Page", "contains"],
                ["Course", "File", "contains"],
                ["Course", "Folder", "contains"],
                ["Course", "Assignment", "contains"],
                ["Course", "Exam", "contains"],
            ],
        },
        "questions": [
            {"id": "Q1", "text": "Learning paths through course materials", "priority": 1},
            {"id": "Q2", "text": "Submission flow for individual and group assignments", "priority": 2},
            {"id": "Q3", "text": "Lead submitters versus final grades", "priority": 3},
            {"id": "Q4", "text": "Material access frequency versus exam outcomes", "priority": 4},
        ],
        "q2ot": {
            "Q1": ["Student", "File", "Page", "Folder", "Course"],
            "Q2": ["Student", "Assignment", "Group", "Course"],
            "Q3": ["Student", "Assignment", "Group", "Course", "Exam"],
            "Q4": ["Student", "File", "Page", "Folder", "Course", "Exam"],
        },
        "extraction_matrix": {
            "columns": ["User", "Teacher", "Student", "Exam", "File", "Page",
                        "Folder", "Assignment", "Group", "Course"],
            "rows": {
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
            },
        },
        "plan": ["submit assignment", "resubmit assignment", "set assignment grade",
                 "view file", "view page", "view folder", "set exam grade"],
        "extraction_epoch": "2024-09-01T00:00:00Z",
        "mappings": mappings,
    }


def build_course(out_dir: Path, *, seed: int, n_students: int, group_sizes: list[int],
                 pages: list[tuple[str, str, str]], n_material_files: int, n_folders: int,
                 file_views: tuple[int, int], folder_views: tuple[int, int],
                 looper_share: float, exam_batches: list[int],
                 moodle_style_grading: bool, resubmit_groups: int) -> None:
    """Write one fixture's source tables plus its spec document."""
    rng = random.Random(seed)
    src = out_dir / "sources"

    course_id = "crs-bpm"
    teachers = ["t-001", "t-002"]
    students = [f"stu-{i + 1:03d}" for i in range(n_students)]

    users_rows = [[t, person_name(rng), "Teacher"] for t in teachers]
    users_rows += [[s, person_name(rng), "Student"] for s in students]
    write_csv(src / "users.csv", ["user_id", "full_name", "role"], users_rows)

    if moodle_style_grading:
        # the grading system exports users again: same ids, merged on load
        overlap = users_rows[: 2 + min(10, n_students)]
        write_csv(src / "users_grading.csv", ["user_id", "full_name", "role"], overlap)

    write_csv(src / "courses.csv", ["course_id", "name"],
              [[course_id, "Business Process Management"]])

    groups = [f"grp-{i + 1:02d}" for i in range(len(group_sizes))]
    write_csv(src / "groups.csv", ["group_id", "course_id", "name"],
              [[g, course_id, f"Group {i + 1:02d}"] for i, g in enumerate(groups)])

    members: dict[str, list[str]] = {}
    cursor = 0
    for g, size in zip(groups, group_sizes):
        members[g] = students[cursor:cursor + size]
        cursor += size
    member_rows = [[g, s] for g in groups for s in members[g]]
    write_csv(src / "group_members.csv", ["group_id", "user_id"], member_rows)

    write_csv(src / "pages.csv", ["page_id", "course_id", "code", "title"],
              [[pid, course_id, code, title] for pid, code, title in pages])

    material_files = [f"fl-m{i + 1:02d}" for i in range(n_material_files)]
    file_rows = [[f, course_id, f"material-{i + 1:02d}.pdf"] for i, f in enumerate(material_files)]

    folders = [f"fld-{i + 1:02d}" for i in range(n_folders)]
    write_csv(src / "folders.csv", ["folder_id", "course_id", "name"],
              [[f, course_id, f"Topic folder {i + 1}"] for i, f in enumerate(folders)])

    assignment_id = "asg-a1"
    write_csv(src / "assignments.csv", ["assignment_id", "course_id", "name", "kind"],
              [[assignment_id, course_id, "Assignment 1", "group"]])
    exam_id = "exm-final"
    write_csv(src / "exams.csv", ["exam_id", "course_id", "name"],
              [[exam_id, course_id, "Final exam"]])

    # -- views: every student walks the page chain in order; a share of the
    # cohort revisits the tail pages in a loop. File/folder views interleave.
    chain = [p[0] for p in pages[:5]]
    loop_tail = [p[0] for p in pages[5:]]  # e.g. A1P6, L1P1
    view_rows = []
    base = datetime(2024, 9, 2, 8, 0, 0)
    for idx, student in enumerate(students):
        page_seq = list(chain)
        if loop_tail and rng.random() < looper_share:
            for _ in range(rng.choice([1, 1, 2])):
                page_seq += [*loop_tail, chain[-1]]
            if rng.random() < 0.25:
                page_seq += loop_tail[:rng.randint(1, len(loop_tail))]
        file_seq = rng.choices(material_files, k=rng.randint(*file_views))
        folder_seq = rng.choices(folders, k=rng.randint(*folder_views))
        merged = merge_preserving(rng,
                                  [("view page", p) for p in page_seq],
                                  [("view file", f) for f in file_seq],
                                  [("view folder", f) for f in folder_seq])
        clock = base + timedelta(minutes=17 * idx)
        for action, target in merged:
            clock += timedelta(minutes=rng.randint(60, 4200))
            row = [clock.strftime(TS), action, student, "", "", "", course_id]
            if action == "view page":
                row[3] = target
            elif action == "view file":
                row[4] = target
            else:
                row[5] = target
            view_rows.append(row)
    for t_idx, teacher in enumerate(teachers):
        clock = base + timedelta(hours=2 + t_idx)
        for f in rng.choices(material_files, k=max(3, file_views[0] // 2)):
            clock += timedelta(minutes=rng.randint(300, 9000))
            view_rows.append([clock.strftime(TS), "view file", teacher, "", f, "", course_id])
    write_csv(src / "views.csv",
              ["ts", "action", "user_id", "page_id", "file_id", "folder_id", "course_id"],
              view_rows)

    # -- submissions: the first member of each group submits on its behalf
    reps = {g: members[g][0] for g in groups}
    submission_rows = []
    submission_file_rows = []
    latest_files: dict[str, list[str]] = {}
    file_counter = 0
    sub_base = datetime(2024, 10, 1, 9, 0, 0)
    for i, g in enumerate(groups):
        sid = f"sub-{i + 1:03d}"
        when = sub_base + timedelta(hours=7 * i + rng.randint(0, 5))
        submission_rows.append([sid, when.strftime(TS), "submit assignment",
                                reps[g], assignment_id, g, course_id])
        uploads = []
        for _ in range(rng.randint(1, 3)):
            file_counter += 1
            uploads.append(f"fl-s{file_counter:03d}")
        for f in uploads:
            file_rows.append([f, course_id, f"submission-{g}-{f[-3:]}.zip"])
            submission_file_rows.append([sid, f])
        latest_files[g] = uploads

    resub_base = datetime(2024, 10, 18, 10, 0, 0)
    for i, g in enumerate(groups[:resubmit_groups]):
        sid = f"rsb-{i + 1:03d}"
        when = resub_base + timedelta(hours=11 * i + rng.randint(0, 6))
        submission_rows.append([sid, when.strftime(TS), "resubmit assignment",
                                reps[g], assignment_id, g, course_id])
        uploads = []
        for _ in range(rng.randint(1, 2)):
            file_counter += 1
            uploads.append(f"fl-s{file_counter:03d}")
        for f in uploads:
            file_rows.append([f, course_id, f"submission-{g}-{f[-3:]}.zip"])
            submission_file_rows.append([sid, f])
        latest_files[g] = uploads

    write_csv(src / "files.csv", ["file_id", "course_id", "name"], file_rows)
    write_csv(src / "submissions.csv",
              ["sub_id", "ts", "activity", "student_id", "assignment_id", "group_id", "course_id"],
              submission_rows)
    write_csv(src / "submission_files.csv", ["sub_id", "file_id"], submission_file_rows)

    # -- assignment grading: one event per group member. Moodle-style
    # exports carry no group column at all; the conformant variant does.
    grade_rows = []
    grade_file_rows = []
    grade_base = datetime(2024, 11, 4, 13, 0, 0)
    counter = 0
    for i, g in enumerate(groups):
        for j, student in enumerate(members[g]):
            counter += 1
            gid = f"grd-{counter:03d}"
            when = grade_base + timedelta(hours=2 * i, minutes=3 * j)
            letter = rng.choice(["A", "B", "B", "C", "C", "D", "E"])
            if moodle_style_grading:
                grade_rows.append([gid, when.strftime(TS), teachers[0], student,
                                   assignment_id, course_id, letter])
            else:
                grade_rows.append([gid, when.strftime(TS), teachers[0], student,
                                   assignment_id, g, course_id, letter])
            for f in latest_files[g]:
                grade_file_rows.append([gid, f])
    if moodle_style_grading:
        grade_header = ["grade_id", "ts", "teacher_id", "student_id",
                        "assignment_id", "course_id", "grade"]
    else:
        grade_header = ["grade_id", "ts", "teacher_id", "student_id",
                        "assignment_id", "group_id", "course_id", "grade"]
    write_csv(src / "grades.csv", grade_header, grade_rows)
    write_csv(src / "grade_files.csv", ["grade_id", "file_id"], grade_file_rows)

    # -- exam grading: published in batches, one event grading many students
    eg_rows = []
    eg_student_rows = []
    eg_base = datetime(2025, 6, 2, 9, 0, 0)
    cursor = 0
    for i, size in enumerate(exam_batches):
        eid = f"eg-{i + 1:02d}"
        when = eg_base + timedelta(hours=3 * i)
        eg_rows.append([eid, when.strftime(TS), teachers[1], exam_id, course_id])
        for student in students[cursor:cursor + size]:
            eg_student_rows.append([eid, student])
        cursor += size
    write_csv(src / "exam_grades.csv", ["eg_id", "ts", "teacher_id", "exam_id", "course_id"], eg_rows)
    write_csv(src / "exam_grade_students.csv", ["eg_id", "student_id"], eg_student_rows)

    doc = spec_document(include_grading_users=moodle_style_grading,
                        grades_carry_group=not moodle_style_grading)
    (out_dir / "spec.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    total_rows = sum(1 for p in src.glob("*.csv") for _ in p.open()) - len(list(src.glob("*.csv")))
    print(f"{out_dir.name}: {total_rows} source rows over {len(list(src.glob('*.csv')))} tables")


def stats_block(text: str, event_type: str) -> str:
    """Indented per-object-type lines under one event type in stats output."""
    out = []
    capture = False
    for line in text.splitlines():
        if capture:
            if line.startswith("    "):
                out.append(line)
                continue
            break
        if line.startswith(f"  {event_type}: "):
            capture = True
    return "\n".join(out)


def self_check() -> None:
    from ocedf import analysis, extraction, specmodel, stats, verification

    for name in ("case_study", "conformant"):
        base = ROOT / "fixtures" / name
        spec = specmodel.parse_spec(base / "spec.json")
        sources = {}
        for rule in spec.mappings:
            if rule.source_table not in sources:
                sources[rule.source_table] = extraction.load_source(
                    base / "sources" / f"{rule.source_table}.csv", rule.source_table)
        log, report = extraction.extract(spec, sources)
        matrix = verification.derive_matrix(log, spec.xmatrix, spec.schema)
        result = verification.check(matrix, spec.xmatrix)
        print(f"{name}: {len(log.events)} events, {len(log.objects)} objects, "
              f"{len(result.violations)} violations, {len(result.warnings)} warnings")
        if name == "case_study":
            assert len(result.violations) == 0, result.violations[:3]
            assert [(w.event_type, w.object_type) for w in result.warnings] == \
                [("set assignment grade", "Group")], result.warnings
            text = stats(log)
            assert "(Student: 23)" in stats_block(text, "submit assignment"), \
                "submit assignment should involve exactly 23 distinct students"
            assert "(Student: 134" in stats_block(text, "set assignment grade"), \
                "grading should involve exactly 134 distinct students"
            pv = analysis.filter_log(log, keep_event_types={"view page"})
            unfolded = analysis.unfold_events(pv, "view page", "Page", "code")
            dfg = analysis.discover_dfg(unfolded, {"User"})
            edges = dfg.per_type["User"].edges
            for a, b in [("A1P1", "A1P2"), ("A1P2", "A1P3"), ("A1P3", "A1P4"),
                         ("A1P4", "A1P5"), ("A1P5", "A1P6"), ("A1P6", "L1P1"),
                         ("L1P1", "A1P5")]:
                assert (f"view page {a}", f"view page {b}") in edges, (a, b)
        else:
            assert not result.violations and not result.warnings, \
                (result.violations[:3], result.warnings[:3])


# build_course parameters of each bundled fixture, by directory name
FIXTURE_PARAMS = {
    "case_study": dict(
        seed=20240902,
        n_students=140,
        group_sizes=[6] * 19 + [5] * 4,  # 134 students in 23 groups
        pages=PAGES,
        n_material_files=10,
        n_folders=3,
        file_views=(30, 50),
        folder_views=(8, 16),
        looper_share=0.55,
        exam_batches=[60, 60, 20],
        moodle_style_grading=True,
        resubmit_groups=8,
    ),
    "conformant": dict(
        seed=411,
        n_students=12,
        group_sizes=[4, 4, 4],
        pages=[("pg-w1", "W1", "Week one"), ("pg-w2", "W2", "Week two"),
               ("pg-w3", "W3", "Week three")],
        n_material_files=4,
        n_folders=2,
        file_views=(5, 8),
        folder_views=(2, 4),
        looper_share=0.5,
        exam_batches=[8, 4],
        moodle_style_grading=False,
        resubmit_groups=1,
    ),
}


def main() -> None:
    for name, params in FIXTURE_PARAMS.items():
        build_course(ROOT / "fixtures" / name, **params)
    self_check()
    print("fixtures OK")


if __name__ == "__main__":
    main()
