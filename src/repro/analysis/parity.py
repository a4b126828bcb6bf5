"""Rule ``engine-parity``: the cost-model engines must share constants.

The Eq 1–6 cost model exists twice: the scalar reference implementation
(``partition/estimator.py``) and the preallocated array engine
(``partition/arrayengine.py``) that runs every exact search.  PR 2's
tie-breaking bug was exactly the drift mode this invites — one engine's
decision logic evolved while the other's copy did not.  Logic drift needs the equivalence test-suite; *constant*
drift is statically checkable: any numeric literal that appears in both
engines (instead of being imported from a single shared source such as
:mod:`repro.units`) is a fork waiting to diverge, as is a module-level
constant re-defined under the same name in both files.

The rule analyzes the engine pair when both files are present in the run,
collecting:

* numeric literals (ints with ``|v| > 2``, non-trivial floats) appearing
  in both files — reported at every occurrence in both engines;
* module-level ``NAME = <number>`` constants defined in both files under
  the same name.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Tuple

from repro.analysis.engine import Finding, ParsedModule, Project, Rule, register

__all__ = ["EngineParityRule", "ENGINE_PAIRS"]

#: (reference implementation, alternate implementation) path suffixes.
ENGINE_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("repro/partition/estimator.py", "repro/partition/arrayengine.py"),
)

#: Structurally trivial values that legitimately recur everywhere.
_TRIVIAL_INTS = frozenset({-2, -1, 0, 1, 2})
_TRIVIAL_FLOATS = frozenset({-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0})


def _literals(module: ParsedModule) -> Dict[float, List[ast.Constant]]:
    """Non-trivial numeric literals by value (ints and floats pooled)."""
    out: Dict[float, List[ast.Constant]] = {}
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Constant):
            continue
        value = node.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if isinstance(value, int) and value in _TRIVIAL_INTS:
            continue
        if isinstance(value, float) and value in _TRIVIAL_FLOATS:
            continue
        out.setdefault(float(value), []).append(node)
    return out


def _module_constants(module: ParsedModule) -> Dict[str, ast.Assign]:
    """Module-level ``NAME = <numeric literal>`` assignments by name."""
    out: Dict[str, ast.Assign] = {}
    for stmt in module.tree.body:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if isinstance(stmt.value, ast.Constant) and isinstance(
            stmt.value.value, (int, float)
        ):
            out[target.id] = stmt
    return out


@register
class EngineParityRule(Rule):
    """Numeric constants duplicated across paired engine implementations."""

    name = "engine-parity"
    description = (
        "Flags numeric constants or coefficient expressions duplicated "
        "between the scalar estimator and the array engine instead of "
        "imported from a single shared source — the drift mode behind the "
        "PR-2 tie-breaking bug."
    )
    # Findings depend on *pairs* of modules, not single files.
    scope = "project"

    def check(self, project: Project) -> Iterator[Finding]:
        for ref_suffix, alt_suffix in ENGINE_PAIRS:
            ref = project.find(ref_suffix)
            alt = project.find(alt_suffix)
            if ref is None or alt is None:
                continue
            yield from self._check_pair(ref, alt)

    def _check_pair(
        self, ref: ParsedModule, alt: ParsedModule
    ) -> Iterator[Finding]:
        ref_literals = _literals(ref)
        alt_literals = _literals(alt)
        for value in sorted(set(ref_literals) & set(alt_literals)):
            for module, nodes, other in (
                (ref, ref_literals[value], alt),
                (alt, alt_literals[value], ref),
            ):
                for node in nodes:
                    yield Finding(
                        path=module.relpath,
                        line=node.lineno,
                        col=node.col_offset + 1,
                        rule=self.name,
                        message=(
                            f"numeric constant {node.value!r} is duplicated "
                            f"in the paired engine {other.relpath}; hoist it "
                            f"into a shared module (e.g. repro.units) so the "
                            f"scalar and array engines cannot drift"
                        ),
                    )
        ref_consts = _module_constants(ref)
        alt_consts = _module_constants(alt)
        for name in sorted(set(ref_consts) & set(alt_consts)):
            for module, stmt, other in (
                (ref, ref_consts[name], alt),
                (alt, alt_consts[name], ref),
            ):
                yield Finding(
                    path=module.relpath,
                    line=stmt.lineno,
                    col=stmt.col_offset + 1,
                    rule=self.name,
                    message=(
                        f"module constant {name} is defined in both engine "
                        f"files (also in {other.relpath}); import it from a "
                        f"single shared source instead"
                    ),
                )
