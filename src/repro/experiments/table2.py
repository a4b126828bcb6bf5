"""Experiment E2: reproduce Table 2 — measured elapsed times + predicted stars.

For every column configuration of Table 2 and every problem size, executes
STEN-1 and STEN-2 on a fresh simulated testbed (10 iterations, timing
excludes the initial grid distribution, exactly like the paper) and marks

* the simulated minimum per (variant, N), and
* the configuration the partitioner predicts (the paper's ``*``),

using the simulator-fitted cost database so prediction and measurement refer
to the same substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.apps.stencil import run_stencil, stencil_computation
from repro.benchmarking import CostDatabase
from repro.experiments.calibration import fitted_cost_database
from repro.experiments.paper import (
    ITERATIONS,
    PROBLEM_SIZES,
    TABLE2,
    TABLE2_CONFIGS,
)
from repro.experiments.report import format_table
from repro.hardware.presets import paper_testbed
from repro.mmps import MMPS
from repro.partition import (
    CycleEstimator,
    ProcessorConfiguration,
    balanced_partition_vector,
    gather_available_resources,
    order_by_power,
)
from repro.partition.search_parallel import sweep

__all__ = ["SimulatedCell", "Table2Reproduction", "simulate_elapsed", "reproduce_table2", "table2_report"]


@dataclass(frozen=True)
class SimulatedCell:
    """One simulated Table 2 cell."""

    variant: str
    n: int
    p1: int
    p2: int
    elapsed_ms: float
    predicted_minimum: bool
    simulated_minimum: bool
    paper_elapsed_ms: Optional[float]


@dataclass
class Table2Reproduction:
    """All simulated cells plus per-row prediction agreement."""

    cells: list[SimulatedCell]

    def row(self, variant: str, n: int) -> list[SimulatedCell]:
        """The seven configuration cells of one (variant, N) row."""
        return [c for c in self.cells if c.variant == variant and c.n == n]

    def prediction_hits(self) -> int:
        """Rows where the predicted column is the simulated minimum."""
        hits = 0
        variants_sizes = {(c.variant, c.n) for c in self.cells}
        for variant, n in variants_sizes:
            row = self.row(variant, n)
            if any(c.predicted_minimum and c.simulated_minimum for c in row):
                hits += 1
        return hits

    def rows_count(self) -> int:
        """Number of (variant, N) rows."""
        return len({(c.variant, c.n) for c in self.cells})


def simulate_elapsed(
    overlap: bool,
    n: int,
    p1: int,
    p2: int,
    *,
    iterations: int = ITERATIONS,
    seed: int = 0,
    jitter: float = 0.0,
) -> float:
    """Elapsed ms of one stencil run on a fresh simulated testbed."""
    net = paper_testbed(seed=seed, jitter=jitter)
    mmps = MMPS(net)
    procs = list(net.cluster("sparc2"))[:p1] + list(net.cluster("ipc"))[:p2]
    vec = balanced_partition_vector([0.3] * p1 + [0.6] * p2, n)
    result = run_stencil(mmps, procs, vec, n, iterations=iterations, overlap=overlap)
    return result.elapsed_ms


def noisy_minimum_stability(
    overlap: bool,
    n: int,
    *,
    configs: Sequence[tuple[int, int]] = TABLE2_CONFIGS,
    jitter: float = 0.05,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    iterations: int = ITERATIONS,
) -> dict:
    """The paper's "multiple runs with averages shown", reproduced.

    Runs every configuration under channel jitter across several seeds and
    reports per-config mean/std plus how often each configuration was the
    per-seed minimum — quantifying whether Table 2's minima are robust to
    UDP-style non-determinism.
    """
    import numpy as np

    samples = {
        cfg: [
            simulate_elapsed(
                overlap, n, *cfg, iterations=iterations, seed=s, jitter=jitter
            )
            for s in seeds
        ]
        for cfg in configs
    }
    means = {cfg: float(np.mean(v)) for cfg, v in samples.items()}
    stds = {cfg: float(np.std(v)) for cfg, v in samples.items()}
    wins: dict[tuple[int, int], int] = {cfg: 0 for cfg in configs}
    for i in range(len(seeds)):
        best = min(configs, key=lambda cfg: samples[cfg][i])
        wins[best] += 1
    return {
        "samples": samples,
        "mean": means,
        "std": stds,
        "wins": wins,
        "mean_minimum": min(means, key=means.get),
    }


def _grid_cell(overlap: bool, n: int, p1: int, p2: int, iterations: int) -> float:
    """Picklable per-cell worker for the parallel simulation sweep."""
    return simulate_elapsed(overlap, n, p1, p2, iterations=iterations)


def reproduce_table2(
    db: Optional[CostDatabase] = None,
    *,
    sizes: Sequence[int] = PROBLEM_SIZES,
    configs: Sequence[tuple[int, int]] = TABLE2_CONFIGS,
    iterations: int = ITERATIONS,
    workers: Optional[int] = None,
) -> Table2Reproduction:
    """Simulate every cell and mark predicted + simulated minima.

    ``workers`` fans the (variant, N, config) simulation grid out across
    processes; the default stays serial.
    """
    db = db or fitted_cost_database()
    net = paper_testbed()
    resources = order_by_power(gather_available_resources(net))
    variants = (("STEN-1", False), ("STEN-2", True))
    grid = [
        (overlap, n, cfg[0], cfg[1], iterations)
        for _variant, overlap in variants
        for n in sizes
        for cfg in configs
    ]
    simulated = sweep(_grid_cell, grid, workers=workers)
    elapsed_by_cell = {task[:4]: value for task, value in zip(grid, simulated)}
    cells: list[SimulatedCell] = []
    for variant, overlap in variants:
        for n in sizes:
            comp = stencil_computation(n, overlap=overlap, cycles=iterations)
            estimator = CycleEstimator(comp, db)
            predictions = {
                cfg: estimator.t_cycle(ProcessorConfiguration(resources, cfg))
                for cfg in configs
            }
            predicted = min(predictions, key=predictions.get)
            elapsed = {
                cfg: elapsed_by_cell[(overlap, n, cfg[0], cfg[1])] for cfg in configs
            }
            best = min(elapsed, key=elapsed.get)
            for cfg in configs:
                paper_cell = next(
                    (
                        c.elapsed_ms
                        for c in TABLE2
                        if c.variant == variant and c.n == n and (c.p1, c.p2) == cfg
                    ),
                    None,
                )
                cells.append(
                    SimulatedCell(
                        variant=variant,
                        n=n,
                        p1=cfg[0],
                        p2=cfg[1],
                        elapsed_ms=elapsed[cfg],
                        predicted_minimum=cfg == predicted,
                        simulated_minimum=cfg == best,
                        paper_elapsed_ms=paper_cell,
                    )
                )
    return Table2Reproduction(cells=cells)


def table2_report(repro: Optional[Table2Reproduction] = None) -> str:
    """Formatted Table 2 reproduction with stars, next to the paper's values."""
    repro = repro or reproduce_table2()
    headers = ["variant", "N"] + [f"{p1}+{p2}" for p1, p2 in TABLE2_CONFIGS] + ["pred=min?"]
    rows = []
    for variant in ("STEN-1", "STEN-2"):
        for n in sorted({c.n for c in repro.cells}):
            row_cells = repro.row(variant, n)
            by_cfg = {(c.p1, c.p2): c for c in row_cells}
            sim_row = []
            hit = False
            for cfg in TABLE2_CONFIGS:
                c = by_cfg[cfg]
                star = "*" if c.predicted_minimum else ""
                mark = "!" if c.simulated_minimum else ""
                sim_row.append(f"{c.elapsed_ms:.0f}{star}{mark}")
                if c.predicted_minimum and c.simulated_minimum:
                    hit = True
            rows.append([variant, n] + sim_row + ["yes" if hit else "no"])
            paper_row = [
                next(
                    (
                        f"{c.elapsed_ms:.0f}" + ("*" if c.predicted_minimum else "")
                        for c in TABLE2
                        if c.variant == variant and c.n == n and (c.p1, c.p2) == cfg
                    ),
                    "-",
                )
                for cfg in TABLE2_CONFIGS
            ]
            rows.append(["  paper", ""] + paper_row + [""])
    legend = (
        "E2: Table 2 — simulated elapsed ms (10 iterations). "
        "'*' = partitioner's predicted minimum, '!' = simulated minimum."
    )
    return format_table(headers, rows, title=legend)
