"""The one repeat/best/mean timing loop every benchmark harness shares."""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

__all__ = ["WINDOW_S", "time_calls", "time_windows"]

#: Shortest wall time of one :func:`time_windows` window: calls of a few
#: tenths of a millisecond, timed one at a time, read up to 2x apart run
#: to run on a small VM.
WINDOW_S = 0.02


def time_calls(
    fn: Callable[..., Any], repeat: int, *, setup: Optional[Callable[[], Any]] = None
) -> tuple[float, float, Any]:
    """Call ``fn`` ``repeat`` times; return ``(best_s, mean_s, last result)``.

    With ``setup``, each repeat first calls it *outside* the timed window
    and passes its result to ``fn`` (a fresh cold input per repeat).
    Callers validate ``repeat`` themselves so each harness keeps its own
    typed error.
    """
    walls, result = [], None
    for _ in range(repeat):
        args = () if setup is None else (setup(),)
        start = time.perf_counter()
        result = fn(*args)
        walls.append(time.perf_counter() - start)
    return min(walls), sum(walls) / repeat, result


def time_windows(fn: Callable[[], Any], repeat: int) -> tuple[float, float, Any]:
    """Per-call ``(best_s, mean_s, last result)`` over ``repeat`` windows of
    back-to-back calls of ``fn``, for calls too short to time one by one.

    The call count doubles from 1 until one untimed calibration window
    lasts :data:`WINDOW_S`; every timed window then makes that many calls,
    and its per-call time is its wall time over the count.
    """
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - start >= WINDOW_S:
            break
        calls *= 2

    def window() -> Any:
        for _ in range(calls):
            result = fn()
        return result

    best_s, mean_s, result = time_calls(window, repeat)
    return best_s / calls, mean_s / calls, result
