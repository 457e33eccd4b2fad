"""Machine-speed probe used to scale the benchmark's timings.

On a shared host the same pass can take 1.7 times longer from one second to
the next, because the core's speed changes with the load of other tenants.
A fixed piece of pure-Python work, timed right before and right after each
measured call, tracks that speed: the benchmark reports each measured time
scaled to the speed at which the probe takes ``REFERENCE_S`` seconds. The
probe resembles the program's own work: it builds small records, groups
them in a dict, reads them back in a scattered order and round-trips a JSON
document. Its data is freed before it returns.
"""

from __future__ import annotations

import gc
import json
from time import perf_counter

REFERENCE_S = 0.042
_N = 30_000


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        records = [{"id": f"o{i}", "n": i, "k": f"k{i % 977}"} for i in range(_N)]
        index: dict[str, list[str]] = {}
        for rec in records:
            index.setdefault(rec["k"], []).append(rec["id"])
        sum(records[(i * 7919) % _N]["n"] for i in range(_N))
        json.loads(json.dumps(sorted(index.items())[:100]))
        elapsed = perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()
    return elapsed


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two probes, at the reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2)
