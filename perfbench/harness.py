"""Measurement helpers shared by the benchmark command and its tests.

Everything here is pure (no repro imports, no I/O beyond reading the
clock and a process's resource usage), so the unit tests in ``perfbench/tests`` can
pin the arithmetic the reported numbers rest on.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
import resource
import statistics
import time
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile is reported only when at least this many samples
#: lie beyond it.
MIN_BEYOND = 10


def rank(count: int, pct: float) -> int:
    """The 1-based nearest rank of the *pct* percentile among *count*
    samples (rounded first, so 99.9% of 20000 is rank 19980, not 19981)."""
    return max(1, math.ceil(round(pct * count / 100.0, 6)))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of *values* (need not be sorted)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[rank(len(values), pct) - 1]


def beyond(count: int, pct: float) -> int:
    """How many of *count* samples lie beyond the nearest-rank *pct*
    percentile."""
    return count - rank(count, pct)


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """The highest percentile of :data:`TAIL_PERCENTILES` that has at
    least :data:`MIN_BEYOND` samples beyond it, as ``(pct, value,
    samples beyond)``; None when even the median is unsupported."""
    for pct in TAIL_PERCENTILES:
        over = beyond(len(values), pct)
        if over >= MIN_BEYOND:
            return pct, percentile(values, pct), over
    return None


class Sample(NamedTuple):
    """One timed operation inside the measured window."""
    kind: str
    seconds: float
    end_ns: int
    caller: int
    position: int


def window_figures(latencies: Sequence[float], span: float) -> Tuple[float, float, float]:
    """``(ops/s, mean, p90)`` of the operations that completed in a
    measured window of *span* seconds.

    On a shared host the speed available to a run can alternate between a
    fast and a slow mode, each lasting seconds to tens of seconds.  A
    median lands in whichever mode held most of the window, so from run to
    run it jumps between the two; a rate and a mean move in proportion to
    the mix, and the 90th percentile sits in the slow mode's tail in every
    run."""
    if not latencies or span <= 0:
        raise ValueError("no operation completed in the window")
    return (len(latencies) / span, statistics.fmean(latencies),
            percentile(latencies, 90.0))


def ratio(hits: float, base: float) -> Tuple[float, int]:
    """A ratio reported with its base, as ``(hits / base, base)``; an
    empty base gives 0 (nothing was attempted)."""
    return (hits / base if base else 0.0), int(base)


def covered(start: float, end: float,
            intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*
    (each clipped to the window first)."""
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals
        if b > start and a < end
    )
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's self time: its duration minus the part of it that its
    child spans cover (overlapping children count once)."""
    return (end - start) - covered(start, end, children)


def outermost(spans: Sequence[tuple]) -> List[tuple]:
    """The spans not nested (through any chain of parents) inside a span
    of the same name, so a recursive or re-entrant layer counts once.
    A span is ``(id, parent id, op, name, start, end, ...)``."""
    by_id = {span[0]: span for span in spans}
    keep = []
    for span in spans:
        parent = by_id.get(span[1])
        while parent is not None and parent[3] != span[3]:
            parent = by_id.get(parent[1])
        if parent is None:
            keep.append(span)
    return keep


def unattributed_share(operations: Sequence[Tuple[object, float, float]],
                       children: Dict[object, List[Tuple[float, float]]]) -> float:
    """The share of the operations' total wall time that no child span
    covers.  *operations* are ``(op id, start, end)``; *children* maps an
    op id to the intervals of the spans recorded on its behalf."""
    wall = sum(end - start for _, start, end in operations)
    if wall <= 0:
        return 0.0
    uncovered = sum(
        self_time(start, end, children.get(op, ()))
        for op, start, end in operations
    )
    return uncovered / wall


class ZipfSampler:
    """Keys ``0 .. n-1`` drawn with probability proportional to
    ``1 / (rank + 1) ** s``.  The rank-to-key mapping is a seeded
    permutation, so the hot keys are spread over the key space rather
    than clustered at 0; the same ``(n, s, seed)`` gives the same
    sequence."""

    def __init__(self, n: int, s: float, seed: int):
        self._rng = random.Random(seed)
        cumulative = []
        total = 0.0
        for position in range(n):
            total += 1.0 / (position + 1) ** s
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total
        self._keys = list(range(n))
        self._rng.shuffle(self._keys)

    def sample(self) -> int:
        position = bisect.bisect_left(
            self._cumulative, self._rng.random() * self._total
        )
        return self._keys[min(position, len(self._keys) - 1)]

    def take(self, count: int) -> List[int]:
        return [self.sample() for _ in range(count)]


def stream_digest(items: Iterable[object]) -> str:
    """A short SHA-256 digest of an operation stream's ``repr``s — equal
    digests show two runs were fed identical inputs."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb(pid: Optional[int] = None) -> float:
    """The resident set size of process *pid* (default this one) now, in
    MiB, from ``/proc/<pid>/statm`` (Linux)."""
    with open(f"/proc/{pid or 'self'}/statm", encoding="ascii") as statm:
        resident = int(statm.read().split()[1])
    return resident * resource.getpagesize() / 2**20


# -- pace -------------------------------------------------------------------
#
# A shared host gives a run more or less speed from one stretch of seconds
# to the next, and the swing (up to 1.5x on a 2-vCPU x86-64 guest) moves
# every timing of the run together: a fixed arithmetic loop slowed as much
# as the benchmark's statements did, and the ratio of the two stayed within
# about 5%.  The callers therefore time a fixed probe between their
# operations, and the gated timings are scaled by the run's pace, the probe's
# median time relative to REFERENCE_PROBE_S.  A slower program moves the
# paced figures in full; a slower host does not.

#: Iterations of the probe's loop (a few milliseconds of arithmetic).
PROBE_LOOPS = 50_000
#: Seconds the probe takes at the reference pace: about its median time
#: between statements on a 2-vCPU x86-64 guest under CPython 3.11.
REFERENCE_PROBE_S = 0.004
#: A caller probes at most this often, so the probes cost about 1.6% of
#: its time.
PROBE_EVERY_S = 0.25


def probe() -> float:
    """Seconds the probe's fixed loop takes now."""
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - started


def pace(probes: Sequence[float]) -> float:
    """How much slower than the reference pace the host ran: the median
    probe time over REFERENCE_PROBE_S (above 1 is slower)."""
    if not probes:
        raise ValueError("no probe was taken")
    return statistics.median(probes) / REFERENCE_PROBE_S


def paced(figures: Tuple[float, float, float], factor: float) -> Tuple[float, float, float]:
    """``(ops/s, mean, p90)`` as they would read at the reference pace,
    for a run whose :func:`pace` was *factor*."""
    ops, mean, p90 = figures
    return ops * factor, mean / factor, p90 / factor
