"""The benchmark tracer's patch targets still exist in the package.

``bench/tracer.py`` wraps named functions and methods at run time and
records a missing one as ``trace.absent`` instead of failing, so a rename
in ``src/`` would otherwise show only in a traced benchmark run.  This
test reads the tracer's ``TARGETS`` table with :mod:`ast` (the benchmark
harness is not imported) and resolves every ``(module, attribute path)``
pair the way the tracer's ``install`` does.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

#: Deleted with the collapsed search engine; the tracer's table still
#: names it until the next change to the benchmark drops the entry.
KNOWN_ABSENT = {"repro.partition.collapse.CollapsedSearchEngine.decide_counts"}


def _targets() -> list[tuple[str, str]]:
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
        ):
            return [
                (entry.elts[0].value, entry.elts[1].value)
                for entry in node.value.elts
            ]
    raise AssertionError("bench/tracer.py defines no TARGETS table")


def _resolves(module_name: str, path: str) -> bool:
    try:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return False
    return True


def test_tracer_targets_resolve():
    targets = _targets()
    assert targets
    absent = {
        f"{module}.{path}" for module, path in targets if not _resolves(module, path)
    }
    assert absent == KNOWN_ABSENT
