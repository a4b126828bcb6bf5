"""Shared fixtures for the benchmark harness.

Every bench regenerates its paper artifact (table/figure) and writes the
rendered report to ``benchmarks/out/`` so the reproduction evidence persists
beyond the pytest-benchmark timing table.  The perf benches also commit a
``BENCH_<stem>.json`` record at the repo root.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.benchmarking.perfgate import check, format_problems

OUT_DIR = Path(__file__).parent / "out"
REPO_ROOT = Path(__file__).parent.parent


@pytest.fixture(scope="session")
def out_dir() -> Path:
    """Directory collecting the regenerated tables and figures."""
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture(scope="session")
def save_report(out_dir):
    """Write (and echo) a rendered report artifact."""

    def _save(name: str, text: str) -> Path:
        path = out_dir / name
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")
        return path

    return _save


@pytest.fixture(scope="session")
def commit_record():
    """Write ``BENCH_<stem>.json`` and assert the gate's within-run verdict.

    Comparing the fresh record with itself leaves only the checks that
    need no baseline: every invariant true and every committed bound held.
    """

    def _commit(stem: str, payload: dict) -> None:
        path = REPO_ROOT / f"BENCH_{stem}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        problems = check(payload, payload)
        assert problems == [], format_problems(problems)

    return _commit
