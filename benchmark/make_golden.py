#!/usr/bin/env python3
"""Record the digests the current code gives on a range of seeds.

    python3 benchmark/make_golden.py FIRST_SEED LAST_SEED

Runs one pass of every workload per seed on the benchmark course, with
all output checks, and merges the digests named in ``run.GOLDEN_KEYS``
into ``golden.json``. ``run.py`` then requires every pass on a recorded
seed to give the same digests. Record them only from code whose outputs
are known good; the committed table comes from the seed code.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import course
import run
from spans import Tracer


def reference_digests(seed: int, work: Path) -> dict[str, str]:
    course.build(work, course.STUDENTS, seed)
    ctx = run.Context(work)
    for workload in run.WORKLOADS:
        if workload == "verify":
            ctx.extracted_digest = ctx.first["log"]
        if workload == "analyze":
            ctx.log = run.ocel.read_ocel_json(work / run.LOG_NAME)
        problems = run.CHECKS[workload](ctx, run.PASSES[workload](ctx, Tracer()))
        if problems:
            raise SystemExit(f"seed {seed}: {workload} checks failed: {problems}")
    return {key: ctx.first[key] for key in run.GOLDEN_KEYS}


def main() -> None:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    table = json.loads(run.GOLDEN.read_text(encoding="utf-8"))
    if table["students"] != course.STUDENTS:
        raise SystemExit(f"golden.json is for {table['students']} students, "
                         f"the course has {course.STUDENTS}")
    run.WORK_ROOT.mkdir(exist_ok=True)
    for seed in range(first, last + 1):
        work = Path(tempfile.mkdtemp(prefix="golden-", dir=run.WORK_ROOT))
        try:
            table["seeds"][str(seed)] = reference_digests(seed, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        table["seeds"] = dict(sorted(table["seeds"].items(), key=lambda kv: int(kv[0])))
        run.GOLDEN.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
        print(f"seed {seed} recorded", flush=True)


if __name__ == "__main__":
    main()
