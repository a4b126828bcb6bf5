"""The benchmark's arithmetic and its readings of the host.

Percentiles, span self time and sub-window metrics are pure functions
over numbers, so ``test_bench.py`` can check each one; the reference
kernel and the ``/proc`` readers measure the host the run is on.
"""

from __future__ import annotations

import math
import os
import time
from typing import Iterable, Optional, Sequence

#: A reported percentile needs at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10
#: Consecutive, equal sub-windows of a run, each a whole number of the
#: workload's cycles (see :func:`window_metrics`).
CHUNKS = 5


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a share
    ``q`` of the samples at or below it.

    Raises ``ValueError`` when fewer than :data:`MIN_SAMPLES_BEYOND`
    samples lie beyond the chosen rank: the run is too short to report
    that percentile.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile share must be in (0, 1], got {q}")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q * n - 1e-9))
    beyond = n - rank
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {n} samples leaves {beyond} beyond it; "
            f"need at least {MIN_SAMPLES_BEYOND}"
        )
    return ordered[rank - 1]


def min_samples(q: float) -> int:
    """Smallest sample count whose ``q`` percentile meets the floor."""
    n = MIN_SAMPLES_BEYOND
    while n - max(1, math.ceil(q * n - 1e-9)) < MIN_SAMPLES_BEYOND:
        n += 1
    return n


def chunks(n: int, k: int = CHUNKS) -> list[tuple[int, int]]:
    """``k`` consecutive ``(lo, hi)`` index ranges covering ``range(n)``."""
    if n < k or n % k:
        raise ValueError(f"{n} operations do not split into {k} equal sub-windows")
    size = n // k
    return [(i * size, (i + 1) * size) for i in range(k)]


# -- reference speed -----------------------------------------------------------

#: What one :func:`reference_kernel` call takes at the nominal speed of the
#: 2-vCPU VM the benchmark was sized on (its typical median there).
REFERENCE_MS = 7.0


def reference_kernel() -> float:
    """A fixed interpreter + NumPy workload; returns its wall time (s).

    It shares no code with the program, so a change to the program never
    moves it, while a slower or busier host slows it as it slows the
    program.  The in-process workloads time it before every operation and
    scale each sub-window's times by :func:`speed_factor`.
    """
    import numpy as np

    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(30000):
        key = i % 97
        counts[key] = counts.get(key, 0) + (i * i) % 7
    values = np.arange(4096, dtype=float)
    total = 0.0
    for _ in range(150):
        total += float(np.sqrt(values * 1.0001 + 1.0).sum())
    if total < 0 or not counts:  # keep the work observable
        raise AssertionError("reference kernel")
    return time.perf_counter() - start


def speed_factor(reference_s: float) -> float:
    """Multiply a time measured next to ``reference_s`` by this to get
    the time at the nominal speed."""
    return REFERENCE_MS / (reference_s * 1e3)


def scaled_wall(windows: Sequence[dict]) -> float:
    """Total wall time of the sub-windows at the nominal speed."""
    return sum(w["wall_s"] * w["factor"] for w in windows)


def window_metrics(windows: Sequence[dict], tail_q: float, *, per_window: bool) -> dict:
    """Latency percentiles and throughput, scaled to the nominal speed.

    ``windows`` are the run's sub-windows in order, each with the
    ``latencies`` (s) of its operations, its ``wall_s`` and the speed
    ``factor`` that scales its times.  With ``per_window`` the
    percentiles are taken in every sub-window and the median reported;
    otherwise over all operations.  Throughput is always the median over
    the sub-windows, so a stall inside one sub-window does not move it.
    """
    scaled = [[lat * w["factor"] for lat in w["latencies"]] for w in windows]
    rates = [len(w["latencies"]) / (w["wall_s"] * w["factor"]) for w in windows]
    if per_window:
        p50 = median([percentile(v, 0.5) for v in scaled])
        tail = median([percentile(v, tail_q) for v in scaled])
    else:
        every = [lat for v in scaled for lat in v]
        p50, tail = percentile(every, 0.5), percentile(every, tail_q)
    return {"p50_s": p50, "tail_s": tail, "throughput_per_s": median(rates)}


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def union_length(
    intervals: Iterable[tuple[float, float]],
    clip: Optional[tuple[float, float]] = None,
) -> float:
    """Total length covered by ``intervals``, overlaps counted once,
    optionally clipped to the window ``clip``."""
    spans = []
    for start, end in intervals:
        if clip is not None:
            start, end = max(start, clip[0]), min(end, clip[1])
        if end > start:
            spans.append((start, end))
    spans.sort()
    total = 0.0
    cur_start = cur_end = None
    for start, end in spans:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(
    start: float, end: float, children: Iterable[tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - union_length(children, clip=(start, end))


# -- noise counters ------------------------------------------------------------


def host_steal_seconds() -> float:
    """Cumulative steal time of all CPUs, from ``/proc/stat`` (0 if absent)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9 or fields[0] != "cpu":
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as fh:
        tail = fh.read().rsplit(")", 1)[1].split()
    # Fields after the command name start at field 3 (state); utime and
    # stime are fields 14 and 15.
    return (int(tail[11]) + int(tail[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")
