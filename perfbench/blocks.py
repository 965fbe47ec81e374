"""Block timestamps, kept in a module-level sink.

The checkpoint metrics are measured between application blocks: a
round's blocked time is the gap it opens between two consecutive blocks
of a rank, and restart time ends when every rank of the restored job
has started its first block.  The timestamps live here, never in the
application objects, so checkpoint images pickle exactly what they
would without the benchmark.

:func:`install` wraps ``block`` of every proxy class and ``Job.start``
(which numbers the jobs, so the blocks of a restored job are told apart
from those of the job it replaces).  Wrapping is idempotent and costs
two clock reads per block.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

#: (job number, rank, iteration, start, end) per finished block.
EVENTS: List[Tuple[int, int, int, float, float]] = []
#: Incremented by every Job.start.
JOB_COUNTER = [0]

_INSTALLED = set()


def install(app_classes) -> None:
    """Wrap ``block`` of each class in ``app_classes`` and ``Job.start``."""
    from repro.runtime.launcher import Job

    clock = time.perf_counter
    for cls in app_classes:
        if cls in _INSTALLED or "block" not in cls.__dict__:
            continue
        orig = cls.__dict__["block"]

        def block(self, ctx, it, _orig=orig):
            t0 = clock()
            _orig(self, ctx, it)
            EVENTS.append((JOB_COUNTER[0], ctx.rank, it, t0, clock()))

        block.__wrapped__ = orig
        cls.block = block
        _INSTALLED.add(cls)
    if Job not in _INSTALLED:
        orig_start = Job.start

        def start(self):
            JOB_COUNTER[0] += 1
            return orig_start(self)

        Job.start = start
        _INSTALLED.add(Job)


def current_job() -> int:
    return JOB_COUNTER[0]


def by_job(events, job: int) -> Dict[Tuple[int, int], Tuple[float, float]]:
    """{(rank, iteration): (start, end)} of one job's blocks."""
    return {(r, it): (t0, t1) for j, r, it, t0, t1 in events if j == job}


def round_gap(blocks: Dict[Tuple[int, int], Tuple[float, float]],
              nranks: int, iteration: int) -> Optional[float]:
    """Blocked time of a round that ran at the top of ``iteration``: the
    gap between the end of block ``iteration - 1`` and the start of
    block ``iteration``, maximised over ranks (None if a rank lacks
    either block)."""
    gaps = []
    for r in range(nranks):
        prev = blocks.get((r, iteration - 1))
        nxt = blocks.get((r, iteration))
        if prev is None or nxt is None:
            return None
        gaps.append(nxt[0] - prev[1])
    return max(gaps)


def all_started(blocks: Dict[Tuple[int, int], Tuple[float, float]],
                nranks: int) -> Optional[float]:
    """Time by which every rank had started its first block of a job."""
    firsts = {}
    for (r, _it), (t0, _t1) in blocks.items():
        if r not in firsts or t0 < firsts[r]:
            firsts[r] = t0
    if len(firsts) != nranks:
        return None
    return max(firsts.values())
