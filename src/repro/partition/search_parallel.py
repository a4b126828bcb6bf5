"""Multi-core fan-out for configuration sweeps and experiment grids.

The partitioner's own hot path is vectorized (``arrayengine``); what remains
embarrassingly parallel are the *grids around it* — simulating every Table 2
cell, every Fig 3 curve point, every sensitivity perturbation level.
:func:`sweep` maps a picklable worker over a list of argument tuples with a
:class:`~concurrent.futures.ProcessPoolExecutor`, preserving input order.

Design rules:

* ``workers=None`` (or ``<= 1``, or a single task) runs serially in-process
  — zero spawn cost, bit-identical to the historical behaviour, and the
  default everywhere so tests and small grids never pay pool overhead;
* the worker and every argument must pickle (checked up front) — closures
  fall back to the serial path rather than crashing mid-pool;
* workers are regular module-level functions: each experiment module
  defines its own ``_cell``-style worker that rebuilds heavyweight
  unpicklables (networks, computations with callback annotations) from
  primitive parameters inside the child process;
* per-process setup that is expensive but shareable across cells — a
  fitted cost database, a parsed baseline — goes into an ``initializer``
  that runs once per worker process (and exactly once, in-process, on the
  serial path), caching into a module-level global the cell worker reads.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Optional, Sequence

__all__ = ["sweep", "effective_workers"]


def effective_workers(workers: Optional[int], n_tasks: int) -> int:
    """The pool size :func:`sweep` will actually use (0 = serial)."""
    if workers is None or workers <= 1 or n_tasks <= 1:
        return 0
    return min(workers, n_tasks)


def _picklable(fn: Callable, tasks: Sequence[tuple]) -> bool:
    try:
        pickle.dumps((fn, list(tasks)))
        return True
    except Exception:
        return False


def sweep(
    fn: Callable,
    tasks: Sequence[tuple],
    *,
    workers: Optional[int] = None,
    chunksize: int = 1,
    initializer: Optional[Callable[..., None]] = None,
    initargs: tuple = (),
) -> list:
    """``[fn(*t) for t in tasks]``, optionally fanned out across processes.

    Parameters
    ----------
    fn:
        A module-level (picklable) worker.
    tasks:
        Argument tuples, one per grid cell.  Results keep this order.
    workers:
        Process count; ``None``/``0``/``1`` runs serially in-process.
        Closures or unpicklable arguments silently degrade to serial —
        correctness first, parallelism when possible.
    chunksize:
        Tasks handed to a worker per round trip (raise for many tiny
        cells; only applies when every task tuple has the same arity).
    initializer:
        Optional per-process setup, run once in each pool worker before it
        takes cells — the hook for sharing one fitted cost database (or
        other expensive, read-only state) across a process's whole slice
        of the grid.  On the serial path it runs exactly once, in-process,
        so behaviour is mode-independent.
    initargs:
        Arguments for ``initializer``.
    """
    tasks = [tuple(t) for t in tasks]
    pool_size = effective_workers(workers, len(tasks))
    if pool_size == 0 or not _picklable(fn, tasks):
        if initializer is not None:
            initializer(*initargs)
        return [fn(*t) for t in tasks]
    with ProcessPoolExecutor(
        max_workers=pool_size, initializer=initializer, initargs=initargs
    ) as pool:
        if len({len(t) for t in tasks}) == 1:
            return list(pool.map(fn, *zip(*tasks), chunksize=chunksize))
        futures = [pool.submit(fn, *t) for t in tasks]
        return [f.result() for f in futures]
