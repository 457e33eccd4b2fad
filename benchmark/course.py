"""The benchmark's generated course, built by the fixture generator.

``build`` calls ``scripts/generate_fixtures.build_course`` unchanged. Only
the shape parameters that depend on the cohort size are derived here, with
the ratios of the bundled ``case_study`` fixture: about 96% of students sit
in groups of at most 6, and exams are graded in batches of 60.
"""

from __future__ import annotations

import contextlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import generate_fixtures  # noqa: E402

STUDENTS = 400
GROUPED_SHARE = 134 / 140
GROUP_SIZE = 6
EXAM_BATCH = 60


def course_params(n_students: int, seed: int) -> dict:
    """Keyword arguments of ``build_course`` for one cohort size and seed."""
    rng = random.Random(seed)
    grouped = round(n_students * GROUPED_SHARE)
    n_groups = -(-grouped // GROUP_SIZE)
    group_sizes = [grouped // n_groups + (i < grouped % n_groups) for i in range(n_groups)]
    rng.shuffle(group_sizes)
    exam_batches = [EXAM_BATCH] * (n_students // EXAM_BATCH)
    if n_students % EXAM_BATCH:
        exam_batches.append(n_students % EXAM_BATCH)
    return dict(
        seed=seed,
        n_students=n_students,
        group_sizes=group_sizes,
        pages=generate_fixtures.PAGES,
        n_material_files=10,
        n_folders=3,
        file_views=(30, 50),
        folder_views=(8, 16),
        looper_share=0.55,
        exam_batches=exam_batches,
        moodle_style_grading=True,
        resubmit_groups=rng.randint(n_groups // 4, n_groups // 2),
    )


def build(out_dir: Path, n_students: int, seed: int) -> None:
    """Write the course's CSV sources and ``spec.json`` under ``out_dir``."""
    # build_course reports its row count on stdout, which carries the result line
    with contextlib.redirect_stdout(sys.stderr):
        generate_fixtures.build_course(out_dir, **course_params(n_students, seed))
