"""In-memory spans recorded by the benchmark around each call into ocedf.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
index of the span that encloses it, and the pass it belongs to. The root
span of a traced pass also carries the pass's work counts and its scale
factor to the probe's reference speed. Spans stay in memory while the
workload runs and are written out once at the end.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Iterator


@dataclass
class Span:
    name: str
    pass_id: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)
    scale: float = 1.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Counts every stage call; keeps spans only while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.pass_id = -1
        self.calls = 0
        self.spans: list[Span] = []
        self._open: list[int] = []

    def span(self, name: str):
        """Time one stage call inside the current pass."""
        self.calls += 1
        return self._record(name)

    def run_pass(self, pass_id: int, traced: bool):
        """Root span of one pass; stage spans opened inside it are its children."""
        self.pass_id = pass_id
        self.enabled = traced
        return self._record("pass")

    @contextmanager
    def _record(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.pass_id, parent, perf_counter()))
        index = len(self.spans) - 1
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = perf_counter()

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans], indent=1) + "\n",
                        encoding="utf-8")


def self_time(spans: list[Span], index: int) -> float:
    """Duration of ``spans[index]`` minus the part its child spans cover."""
    parent = spans[index]
    covered = sorted((max(s.start, parent.start), min(s.end, parent.end))
                     for s in spans if s.parent == index)
    busy = 0.0
    cursor = parent.start
    for start, end in covered:
        start = max(start, cursor)
        if end > start:
            busy += end - start
            cursor = end
    return parent.duration - busy
