"""A fixed pure-Python job that gauges how fast the host runs right now.

The benchmark's host is a few shared cores whose speed swings by a third
or more over minutes as other tenants come and go, and the swing slows
every CPU-bound Python job alike.  Each trial runs this job before
set-up and again after the replay; its time metrics are then reported
at the reference speed, ``t * NOMINAL_S / reference_s``: what they would
read on a host that runs the job in ``NOMINAL_S``.  The job touches no
``repro`` code, so a change to the program cannot move it.  It mixes
the two kinds of work a trial does: object churn through a heap and a
dict (the simulator's event loop) and compiling Python source (the
import in set-up).
"""

from __future__ import annotations

import heapq
import random
import time

__all__ = ["NOMINAL_S", "at_reference_speed", "reference"]

#: Seconds the reference job takes on the nominal host: a round figure
#: near its time on a 2-vCPU Xeon VM at 2.1 GHz in its fast stretches.
NOMINAL_S = 0.1

_OBJECTS = 40_000
# Compiled a chunk at a time, so the job's peak memory stays far below
# a trial's and ``rss_peak_mb`` remains the program's.
_SOURCES = [
    "\n".join(
        f"def f{i}(a, b=2):\n"
        f"    x = [a * k + b for k in range({i % 7 + 1})]\n"
        f"    return {{'k': sum(x), 'v': x}}\n"
        for i in range(chunk, chunk + 50)
    )
    for chunk in range(0, 800, 50)
]


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def _churn() -> float:
    rng = random.Random(1)
    heap = []
    totals = {}
    for index in range(_OBJECTS):
        item = _Item(index, rng.random())
        heapq.heappush(heap, (item.value, index, item))
        totals[index & 1023] = totals.get(index & 1023, 0.0) + item.value
        if len(heap) > 512:
            heapq.heappop(heap)
    return sum(totals.values())


def reference() -> tuple:
    """Run the reference job once; return its (wall, cpu) seconds."""
    wall, cpu = time.perf_counter(), time.process_time()
    _churn()
    for source in _SOURCES:
        compile(source, "<reference>", "exec")
    return time.perf_counter() - wall, time.process_time() - cpu


def at_reference_speed(trial: dict, name: str) -> float:
    """Time metric ``name`` of a trial result, scaled to the nominal host.

    CPU seconds are scaled by the reference job's CPU time, every other
    time by its wall time.
    """
    clock = "ref_cpu_s" if name == "cpu_s" else "ref_wall_s"
    return trial[name] * NOMINAL_S / trial[clock]
