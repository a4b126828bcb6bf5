"""The one repeat/best/mean timing loop every benchmark harness shares."""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

__all__ = ["time_calls"]


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
