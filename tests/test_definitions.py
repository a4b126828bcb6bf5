"""No module defines the same top-level function or class twice.

A second ``def`` of a name silently replaces the first, so a test defined
twice runs once and the first body never runs (pyflakes' F811).
"""

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Deliberately bad code the lint suite is tested against.
FIXTURES = REPO_ROOT / "tests" / "analysis" / "fixtures"


def _modules():
    for top in ("src", "tests", "benchmarks"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            if FIXTURES not in path.parents:
                yield path


def test_no_module_defines_a_top_level_name_twice():
    twice = []
    for path in _modules():
        first: dict[str, int] = {}
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in first:
                twice.append(
                    f"{path.relative_to(REPO_ROOT)}:{node.lineno} {node.name} "
                    f"(first defined at line {first[node.name]})"
                )
            first.setdefault(node.name, node.lineno)
    assert twice == []
