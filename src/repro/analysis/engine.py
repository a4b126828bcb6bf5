"""The ``repro lint`` static-analysis engine (see docs/static-analysis.md).

A small, dependency-free AST linter purpose-built for this repository: the
paper's printed Eq 3 is dimensionally wrong (the DESIGN.md erratum), the
cost model exists twice (scalar ``partition/estimator.py`` and the array
engine ``partition/arrayengine.py``), and the partitioner re-evaluates
annotation callbacks during search and replay — three bug classes a
generic linter cannot see.  The engine parses every target file once into a
:class:`ParsedModule`, hands the whole :class:`Project` to each registered
:class:`Rule`, and filters the resulting :class:`Finding` stream through
per-line ``# repro: noqa[rule-name]`` suppressions and ``--select`` /
``--ignore`` sets.

Rules register themselves via :func:`register`; importing
:mod:`repro.analysis` loads the built-in four (unit-consistency,
callback-purity, sim-determinism, engine-parity).
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Type

__all__ = [
    "Finding",
    "ParsedModule",
    "Project",
    "Rule",
    "register",
    "registered_rules",
    "rule_names",
    "analyze_paths",
    "collect_python_files",
    "LintError",
    "DEFAULT_CACHE_NAME",
]

#: Default on-disk location of the incremental result cache (see
#: :func:`analyze_paths`); ``repro lint --no-cache`` bypasses it.
DEFAULT_CACHE_NAME = ".repro-lint-cache.json"

_CACHE_VERSION = 1

#: Pseudo-rule for files the parser rejects; always reported, never selectable.
SYNTAX_RULE = "syntax-error"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\s*\[(?P<rules>[A-Za-z0-9_,\- ]+)\])?", re.IGNORECASE
)


class LintError(Exception):
    """An invalid analysis request (unknown rule name, unreadable path)."""


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: a rule violation anchored to a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """The conventional ``path:line:col: rule: message`` text form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


@dataclass
class ParsedModule:
    """One successfully parsed source file and its suppression table."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    #: line number -> rule names suppressed there ("*" suppresses all rules).
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)

    def suppressed(self, line: int, rule: str) -> bool:
        rules = self.suppressions.get(line)
        if not rules:
            return False
        return "*" in rules or rule in rules


@dataclass
class Project:
    """Every parsed module of one analysis run, keyed by relative path."""

    modules: List[ParsedModule]

    def find(self, suffix: str) -> Optional[ParsedModule]:
        """The module whose relative path ends with ``suffix`` (posix)."""
        for module in self.modules:
            if module.relpath == suffix or module.relpath.endswith("/" + suffix):
                return module
        return None


class Rule:
    """Base class for analysis rules.

    Subclasses set ``name`` (the selectable, suppressible identifier) and
    ``description``, then implement :meth:`check`, yielding findings for the
    whole project — per-file rules simply iterate ``project.modules``.

    ``scope`` declares what a finding may depend on, and is what makes the
    incremental cache sound: a ``"file"`` rule promises that each module's
    findings are a function of that module's content alone (its results are
    cached per content hash and the rule re-runs only over changed files);
    a ``"project"`` rule may read anything in the project (its results are
    cached under a whole-project fingerprint and re-run when any file
    changes).  When unsure, ``"project"`` is always safe.
    """

    name: str = ""
    description: str = ""
    scope: str = "file"

    def check(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding ``rule_cls`` to the global rule registry."""
    if not rule_cls.name:
        raise ValueError(f"rule {rule_cls.__name__} has no name")
    if rule_cls.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {rule_cls.name!r}")
    _REGISTRY[rule_cls.name] = rule_cls
    return rule_cls


def registered_rules() -> Dict[str, Type[Rule]]:
    """A copy of the rule registry (name -> class)."""
    return dict(_REGISTRY)


def rule_names() -> List[str]:
    """All registered rule names, sorted."""
    return sorted(_REGISTRY)


def _parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Per-line ``# repro: noqa[...]`` directives, via the token stream.

    Tokenizing (rather than regexing raw lines) keeps directives inside
    string literals from suppressing anything.

    A directive anywhere in a multi-line *logical* line (a call spanning
    several physical lines, a parenthesized expression) suppresses every
    physical line of that statement — rules anchor findings to whichever
    line the relevant AST node starts on, which for a continuation-line
    argument is not the line carrying the comment.  A directive on a
    comment-only line applies to that line alone (it does not bleed into
    the following statement).
    """
    table: Dict[int, Set[str]] = {}
    #: noqa rule sets seen inside the current logical line.
    pending: List[Set[str]] = []
    #: First physical line of the current logical line, if inside one.
    logical_start: Optional[int] = None
    skip = (
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    )
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                match = _NOQA_RE.search(tok.string)
                if match is None:
                    continue
                listed = match.group("rules")
                if listed is None:
                    names = {"*"}
                else:
                    names = {
                        part.strip() for part in listed.split(",") if part.strip()
                    }
                table.setdefault(tok.start[0], set()).update(names)
                pending.append(names)
            elif tok.type == tokenize.NEWLINE:
                if pending and logical_start is not None:
                    for line in range(logical_start, tok.start[0] + 1):
                        for names in pending:
                            table.setdefault(line, set()).update(names)
                pending = []
                logical_start = None
            elif tok.type == tokenize.NL:
                if logical_start is None:
                    pending = []  # comment-only line: stays per-line
            elif tok.type not in skip:
                if logical_start is None:
                    logical_start = tok.start[0]
    except tokenize.TokenError:
        pass
    return table


def collect_python_files(
    paths: Sequence[Path],
    *,
    exclude: Optional[Sequence[str]] = None,
) -> List[Path]:
    """Expand files/directories into a sorted, deduplicated ``.py`` list.

    ``exclude`` entries are posix path fragments; a file whose posix path
    contains one (``tests/analysis/fixtures``) is dropped.  Rule fixtures
    deliberately violate the rules — they must be collectable as explicit
    single-file arguments in tests yet never swept up by a directory walk.
    """
    fragments = [fragment.strip("/") for fragment in (exclude or []) if fragment]
    seen: Set[Path] = set()
    out: List[Path] = []
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = [path]
        else:
            raise LintError(f"no such file or directory: {path}")
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            posix = candidate.resolve().as_posix()
            if any(fragment in posix for fragment in fragments):
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(candidate)
    return out


def _relpath(path: Path) -> str:
    """``path`` relative to the current directory when possible, posix-style."""
    resolved = path.resolve()
    try:
        return resolved.relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return resolved.as_posix()


def load_project(files: Sequence[Path]) -> tuple[Project, List[Finding]]:
    """Parse ``files``; unparseable ones become ``syntax-error`` findings."""
    modules: List[ParsedModule] = []
    errors: List[Finding] = []
    for path in files:
        relpath = _relpath(path)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            errors.append(Finding(relpath, 1, 1, SYNTAX_RULE, str(exc)))
            continue
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            errors.append(
                Finding(
                    relpath,
                    exc.lineno or 1,
                    (exc.offset or 1),
                    SYNTAX_RULE,
                    f"cannot parse: {exc.msg}",
                )
            )
            continue
        modules.append(
            ParsedModule(
                path=path,
                relpath=relpath,
                source=source,
                tree=tree,
                suppressions=_parse_suppressions(source),
            )
        )
    return Project(modules=modules), errors


def _resolve_rules(
    select: Optional[Sequence[str]], ignore: Optional[Sequence[str]]
) -> List[Rule]:
    available = registered_rules()
    chosen = list(select) if select else sorted(available)
    if "all" in chosen:
        chosen = sorted(available)
    for name in list(chosen) + list(ignore or []):
        if name not in available:
            raise LintError(
                f"unknown rule {name!r} "
                f"(available: all, {', '.join(sorted(available))})"
            )
    ignored = set(ignore or [])
    return [available[name]() for name in chosen if name not in ignored]


def _analysis_fingerprint() -> str:
    """A hash over the analysis implementation itself.

    Baked into every cache entry so that editing any rule, the engine, or
    the units conventions invalidates the whole cache — a stale cache must
    never certify a tree clean against rules that no longer exist.
    """
    digest = hashlib.sha256()
    package_dir = Path(__file__).resolve().parent
    sources = sorted(package_dir.glob("*.py"))
    units = package_dir.parent / "units.py"
    if units.is_file():
        sources.append(units)
    for source in sources:
        digest.update(source.name.encode())
        try:
            digest.update(source.read_bytes())
        except OSError:
            digest.update(b"?")
    return digest.hexdigest()


def _file_hash(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return "unreadable"


def _encode_findings(findings: Iterable[Finding]) -> List[List[object]]:
    return [[f.path, f.line, f.col, f.rule, f.message] for f in findings]


def _decode_findings(raw: object) -> Optional[List[Finding]]:
    if not isinstance(raw, list):
        return None
    out: List[Finding] = []
    for item in raw:
        if (
            not isinstance(item, list)
            or len(item) != 5
            or not isinstance(item[0], str)
            or not isinstance(item[1], int)
            or not isinstance(item[2], int)
            or not isinstance(item[3], str)
            or not isinstance(item[4], str)
        ):
            return None
        out.append(Finding(item[0], item[1], item[2], item[3], item[4]))
    return out


def _load_cache(cache_path: Path, stamp: str) -> Dict[str, object]:
    """The cache file's contents, or an empty cache when missing/stale.

    ``stamp`` binds the cache to the analysis fingerprint, the effective
    rule selection, and the exclusion list — change any of those and every
    entry is discarded (a finding set is only reusable under the exact
    configuration that produced it).
    """
    empty: Dict[str, object] = {
        "version": _CACHE_VERSION,
        "stamp": stamp,
        "files": {},
        "project": {},
    }
    try:
        raw = json.loads(cache_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return empty
    if not isinstance(raw, dict):
        return empty
    if raw.get("version") != _CACHE_VERSION or raw.get("stamp") != stamp:
        return empty
    if not isinstance(raw.get("files"), dict) or not isinstance(
        raw.get("project"), dict
    ):
        return empty
    return raw


def analyze_paths(
    paths: Sequence[Path],
    *,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    exclude: Optional[Sequence[str]] = None,
    cache_path: Optional[Path] = None,
) -> List[Finding]:
    """Run the (selected) rules over ``paths``; the public engine entry.

    Returns findings sorted by location.  Suppressed findings are dropped;
    ``syntax-error`` findings are always included — an unparseable file can
    never be certified clean.  ``select`` accepts rule names or ``"all"``;
    ``exclude`` drops files whose path contains a fragment.

    With ``cache_path`` set, results are cached incrementally by content
    hash: per-file for ``scope="file"`` rules (plus syntax errors), under a
    whole-project fingerprint for ``scope="project"`` rules.  An unchanged
    tree re-lints without parsing a single file; a cached run's findings
    are bit-identical to a cold run's because suppressions are content-
    derived and the cache stamp covers the analysis sources themselves
    (see :func:`_analysis_fingerprint`).
    """
    rules = _resolve_rules(select, ignore)
    files = collect_python_files([Path(p) for p in paths], exclude=exclude)

    if cache_path is None:
        project, findings = load_project(files)
        by_path = {module.relpath: module for module in project.modules}
        for rule in rules:
            for finding in rule.check(project):
                module = by_path.get(finding.path)
                if module is not None and module.suppressed(
                    finding.line, finding.rule
                ):
                    continue
                findings.append(finding)
        return sorted(findings)

    file_rules = [rule for rule in rules if rule.scope == "file"]
    project_rules = [rule for rule in rules if rule.scope != "file"]
    stamp = hashlib.sha256(
        json.dumps(
            {
                "analysis": _analysis_fingerprint(),
                "rules": sorted(rule.name for rule in rules),
                "exclude": sorted(exclude or []),
            },
            sort_keys=True,
        ).encode()
    ).hexdigest()
    cache = _load_cache(cache_path, stamp)
    cached_files = cache["files"]
    assert isinstance(cached_files, dict)

    hashes = {_relpath(path): _file_hash(path) for path in files}
    project_fingerprint = hashlib.sha256(
        json.dumps(sorted(hashes.items())).encode()
    ).hexdigest()

    fresh_files: Dict[str, Dict[str, object]] = {}
    dirty: List[Path] = []
    per_file: Dict[str, List[Finding]] = {}
    for path in files:
        relpath = _relpath(path)
        entry = cached_files.get(relpath)
        decoded = (
            _decode_findings(entry.get("findings"))
            if isinstance(entry, dict) and entry.get("hash") == hashes[relpath]
            else None
        )
        if decoded is not None:
            per_file[relpath] = decoded
        else:
            dirty.append(path)

    cached_project = cache["project"]
    assert isinstance(cached_project, dict)
    project_findings: Optional[List[Finding]] = None
    if cached_project.get("fingerprint") == project_fingerprint:
        project_findings = _decode_findings(cached_project.get("findings"))

    needs_parse = bool(dirty) or (project_findings is None and project_rules)
    if needs_parse:
        project, parse_errors = load_project(files)
        by_path = {module.relpath: module for module in project.modules}
        if dirty:
            dirty_paths = {_relpath(path) for path in dirty}
            for relpath in dirty_paths:
                per_file[relpath] = [
                    e for e in parse_errors if e.path == relpath
                ]
            dirty_project = Project(
                modules=[m for m in project.modules if m.relpath in dirty_paths]
            )
            for rule in file_rules:
                for finding in rule.check(dirty_project):
                    module = by_path.get(finding.path)
                    if module is not None and module.suppressed(
                        finding.line, finding.rule
                    ):
                        continue
                    per_file.setdefault(finding.path, []).append(finding)
        if project_findings is None and project_rules:
            project_findings = []
            for rule in project_rules:
                for finding in rule.check(project):
                    module = by_path.get(finding.path)
                    if module is not None and module.suppressed(
                        finding.line, finding.rule
                    ):
                        continue
                    project_findings.append(finding)
    if project_findings is None:
        project_findings = []

    for relpath, digest in hashes.items():
        fresh_files[relpath] = {
            "hash": digest,
            "findings": _encode_findings(sorted(per_file.get(relpath, []))),
        }
    payload = {
        "version": _CACHE_VERSION,
        "stamp": stamp,
        "files": fresh_files,
        "project": {
            "fingerprint": project_fingerprint,
            "findings": _encode_findings(sorted(project_findings)),
        },
    }
    try:
        cache_path.write_text(
            json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8"
        )
    except OSError:
        pass  # an unwritable cache degrades to a cold run, never an error

    findings = [f for file_findings in per_file.values() for f in file_findings]
    findings.extend(project_findings)
    return sorted(findings)
