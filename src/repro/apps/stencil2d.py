"""A 2-D block-decomposed five-point stencil (the TWO_D topology end to end).

The 1-D row decomposition (the paper's evaluation) sends ``2·4N`` border
bytes per task per cycle regardless of the processor count; a 2-D block
decomposition sends ``4·4N/√P`` — asymptotically less, which is why 2-D is
in the paper's topology vocabulary.  This module implements the block
version for a homogeneous processor set (heterogeneous 2-D blocking is out
of the paper's scope), verifies it against the sequential solver, and
exposes the per-task communication volumes so the 1-D/2-D comparison can be
benchmarked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.apps.stencil import BYTES_PER_POINT, OPS_PER_POINT
from repro.errors import PartitionError
from repro.hardware.processor import Processor
from repro.mmps.system import MMPS
from repro.spmd.runtime import RunResult, SPMDRun
from repro.spmd.topology import Topology, grid_shape

__all__ = ["run_stencil_2d", "block_bounds", "border_bytes_2d", "border_bytes_1d"]


def block_bounds(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``n`` indices into ``parts`` near-equal contiguous (start, stop)."""
    if parts < 1 or parts > n:
        raise PartitionError(f"cannot split {n} into {parts} parts")
    base, extra = divmod(n, parts)
    bounds = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def border_bytes_1d(n: int) -> int:
    """Bytes one interior task sends per cycle under row decomposition."""
    return 2 * BYTES_PER_POINT * n


def border_bytes_2d(n: int, p: int) -> int:
    """Bytes one interior task sends per cycle under block decomposition."""
    rows, cols = grid_shape(p)
    return 2 * BYTES_PER_POINT * (-(-n // rows)) + 2 * BYTES_PER_POINT * (-(-n // cols))


@dataclass
class Stencil2DResult:
    """Outcome of one 2-D block stencil execution."""

    run: RunResult
    grid: Optional[np.ndarray]
    bytes_sent_per_task: list[int]

    @property
    def elapsed_ms(self) -> float:
        """Completion time of the run."""
        return self.run.elapsed_ms


def run_stencil_2d(
    mmps: MMPS,
    processors: Sequence[Processor],
    n: int,
    *,
    iterations: int = 10,
    initial_grid: Optional[np.ndarray] = None,
) -> Stencil2DResult:
    """Run the block-decomposed stencil on a homogeneous processor set.

    Tasks form a ``rows x cols`` grid (near-square factorization of the
    processor count); each owns a contiguous block and exchanges row/column
    halos with its 4-neighbourhood every iteration.
    """
    p = len(processors)
    if p < 1:
        raise PartitionError("need at least one processor")
    specs = {proc.spec.name for proc in processors}
    if len(specs) > 1:
        raise PartitionError(
            f"2-D blocking supports homogeneous sets only, got {sorted(specs)}"
        )
    rows, cols = grid_shape(p)
    row_bounds = block_bounds(n, rows)
    col_bounds = block_bounds(n, cols)
    numeric = initial_grid is not None
    if numeric and initial_grid.shape != (n, n):
        raise ValueError(f"initial grid must be {n}x{n}, got {initial_grid.shape}")

    blocks: list[Optional[np.ndarray]] = []
    for rank in range(p):
        r, c = divmod(rank, cols)
        (r0, r1), (c0, c1) = row_bounds[r], col_bounds[c]
        if numeric:
            # Halo-padded block.
            block = np.zeros((r1 - r0 + 2, c1 - c0 + 2), dtype=np.float64)
            block[1:-1, 1:-1] = initial_grid[r0:r1, c0:c1]
            if r0 > 0:
                block[0, 1:-1] = initial_grid[r0 - 1, c0:c1]
            if r1 < n:
                block[-1, 1:-1] = initial_grid[r1, c0:c1]
            if c0 > 0:
                block[1:-1, 0] = initial_grid[r0:r1, c0 - 1]
            if c1 < n:
                block[1:-1, -1] = initial_grid[r0:r1, c1]
            blocks.append(block)
        else:
            blocks.append(None)

    def body(ctx):
        r, c = divmod(ctx.rank, cols)
        (r0, r1), (c0, c1) = row_bounds[r], col_bounds[c]
        height, width = r1 - r0, c1 - c0
        local = blocks[ctx.rank]
        north = ctx.rank - cols if r > 0 else None
        south = ctx.rank + cols if r < rows - 1 else None
        west = ctx.rank - 1 if c > 0 else None
        east = ctx.rank + 1 if c < cols - 1 else None
        for _ in range(iterations):
            sends = [
                (north, "s", BYTES_PER_POINT * width, lambda: local[1, 1:-1].copy()),
                (south, "n", BYTES_PER_POINT * width, lambda: local[-2, 1:-1].copy()),
                (west, "e", BYTES_PER_POINT * height, lambda: local[1:-1, 1].copy()),
                (east, "w", BYTES_PER_POINT * height, lambda: local[1:-1, -2].copy()),
            ]
            for peer, tag, nbytes, grab in sends:
                if peer is not None:
                    payload = grab() if local is not None else None
                    yield from ctx.isend(peer, nbytes, tag=tag, payload=payload)
            old = local.copy() if local is not None else None
            recvs = [
                (north, "n", lambda m: old.__setitem__((0, slice(1, -1)), m)),
                (south, "s", lambda m: old.__setitem__((-1, slice(1, -1)), m)),
                (west, "w", lambda m: old.__setitem__((slice(1, -1), 0), m)),
                (east, "e", lambda m: old.__setitem__((slice(1, -1), -1), m)),
            ]
            for peer, tag, install in recvs:
                if peer is not None:
                    msg = yield from ctx.recv(from_rank=peer, tag=tag)
                    if old is not None:
                        install(msg.payload)
            yield from ctx.compute(OPS_PER_POINT * height * width)
            if local is not None:
                _jacobi_block(old, local, n, r0, c0)
            ctx.mark_cycle()
        return ctx.endpoint.stats.bytes_sent

    run = SPMDRun(mmps, processors, body, Topology.TWO_D)
    result = run.execute()
    grid = None
    if numeric:
        grid = np.zeros((n, n))
        for rank in range(p):
            r, c = divmod(rank, cols)
            (r0, r1), (c0, c1) = row_bounds[r], col_bounds[c]
            grid[r0:r1, c0:c1] = blocks[rank][1:-1, 1:-1]
    return Stencil2DResult(
        run=result, grid=grid, bytes_sent_per_task=list(result.task_values)
    )


def _jacobi_block(old: np.ndarray, new: np.ndarray, n: int, r0: int, c0: int) -> None:
    """Jacobi-update a halo-padded block, skipping global boundary cells."""
    height = old.shape[0] - 2
    width = old.shape[1] - 2
    updated = 0.25 * (
        old[:-2, 1:-1] + old[2:, 1:-1] + old[1:-1, :-2] + old[1:-1, 2:]
    )
    new[1:-1, 1:-1] = updated
    # Restore Dirichlet cells on the global boundary.
    for k in range(height):
        gk = r0 + k
        if gk == 0 or gk == n - 1:
            new[k + 1, 1:-1] = old[k + 1, 1:-1]
    for k in range(width):
        gk = c0 + k
        if gk == 0 or gk == n - 1:
            new[1:-1, k + 1] = old[1:-1, k + 1]
