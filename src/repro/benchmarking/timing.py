"""The one repeat/best/mean timing loop every benchmark harness shares."""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, Optional

__all__ = ["WINDOW_S", "time_calls", "window_calls"]

#: Shortest wall time of one :func:`window_calls` window: calls of a few
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

    The heap that exists before each call is frozen for the call: a
    collection inside the window still collects the call's own garbage,
    but never walks the caller's heap (a full collection over a large
    test process took tens to hundreds of ms and landed in one-sample
    timings).
    """
    walls, result = [], None
    for _ in range(repeat):
        args = () if setup is None else (setup(),)
        gc.freeze()
        try:
            start = time.perf_counter()
            result = fn(*args)
            walls.append(time.perf_counter() - start)
        finally:
            gc.unfreeze()
    return min(walls), sum(walls) / repeat, result


def window_calls(fn: Callable[[], Any]) -> int:
    """Back-to-back calls of ``fn`` per timing window, for calls too short
    to time one by one: the count doubles from 1 until one untimed window
    lasts :data:`WINDOW_S`."""
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - start >= WINDOW_S:
            return calls
        calls *= 2
