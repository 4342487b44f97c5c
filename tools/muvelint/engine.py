"""The muvelint driver: file collection, allowlist, rule dispatch.

Rules are plain functions.  Per-file rules receive one
:class:`ParsedModule`; repo rules receive the whole list (the import
graph and the flag registry need cross-file context).  Each yields
:class:`Violation` objects whose ``key`` is stable under unrelated
edits (no line numbers), so the allowlist file never goes stale from a
reformat.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

__all__ = [
    "LintResult",
    "ParsedModule",
    "Violation",
    "run_lint",
]

#: Directories scanned relative to the repo root.
DEFAULT_ROOTS = ("src/repro", "scripts", "tools")


@dataclass(frozen=True)
class Violation:
    """One rule finding.

    ``key`` identifies the finding for the allowlist: rule id, the
    repo-relative path, and a structural qualifier (function qualname,
    flag name, cycle membership) — never a line number.
    """

    rule: str
    path: str
    line: int
    message: str
    key: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass
class ParsedModule:
    """A parsed source file plus the derived names rules need."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    #: Dotted module name for files under ``src`` (e.g.
    #: ``repro.execution.batch``); None for scripts/tools.
    module_name: str | None = None
    #: Module-level names bound to ``contextvars.ContextVar(...)``.
    contextvars: set[str] = field(default_factory=set)


@dataclass
class LintResult:
    violations: list[Violation]
    suppressed: list[Violation]
    files_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def _module_name(root: Path, path: Path) -> str | None:
    try:
        rel = path.relative_to(root / "src")
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _collect_contextvars(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None or not isinstance(value, ast.Call):
            continue
        func = value.func
        is_ctor = (
            (isinstance(func, ast.Attribute)
             and func.attr == "ContextVar")
            or (isinstance(func, ast.Name)
                and func.id == "ContextVar"))
        if not is_ctor:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def collect_modules(repo_root: Path,
                    roots: Iterable[str] = DEFAULT_ROOTS,
                    ) -> list[ParsedModule]:
    modules: list[ParsedModule] = []
    seen: set[Path] = set()
    for root in roots:
        base = repo_root / root
        if not base.exists():
            continue
        for path in sorted(base.rglob("*.py")):
            if path in seen:
                continue
            seen.add(path)
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
            modules.append(ParsedModule(
                path=path,
                relpath=path.relative_to(repo_root).as_posix(),
                source=source,
                tree=tree,
                module_name=_module_name(repo_root, path),
                contextvars=_collect_contextvars(tree),
            ))
    return modules


# ---------------------------------------------------------------------------
# Allowlist
# ---------------------------------------------------------------------------


def load_allowlist(path: Path) -> dict[str, str]:
    """Map allowlist key -> reason.  Format, one entry per line::

        ML003 src/repro/foo.py::Bar.baz  # why this is fine

    Blank lines and ``#`` comment lines are ignored.  The key is
    everything before the first ``  #`` (two spaces + hash) or the
    whole stripped line.
    """
    entries: dict[str, str] = {}
    if not path.exists():
        return entries
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, reason = line.partition("  #")
        entries[key.strip()] = reason.strip()
    return entries


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


FileRule = Callable[[ParsedModule], Iterator[Violation]]
RepoRule = Callable[[list[ParsedModule]], Iterator[Violation]]


def _rules() -> tuple[list[FileRule], list[RepoRule]]:
    from tools.muvelint.rules import contextvar_rules as _cv
    from tools.muvelint.rules import determinism as _det
    from tools.muvelint.rules import envflags as _env
    from tools.muvelint.rules import exceptions as _exc
    from tools.muvelint.rules import imports as _imp
    from tools.muvelint.rules import locks as _locks

    file_rules: list[FileRule] = [
        _locks.check_blocking_under_lock,
        _locks.check_double_checked_locking,
        _det.check_determinism,
        _cv.check_contextvar_hygiene,
        _exc.check_broad_excepts,
    ]
    repo_rules: list[RepoRule] = [
        _imp.check_import_cycles,
        _env.check_env_flags,
    ]
    return file_rules, repo_rules


def run_lint(repo_root: Path,
             roots: Iterable[str] = DEFAULT_ROOTS,
             allowlist_path: Path | None = None) -> LintResult:
    if allowlist_path is None:
        allowlist_path = (
            repo_root / "tools" / "muvelint" / "allowlist.txt")
    modules = collect_modules(repo_root, roots)
    file_rules, repo_rules = _rules()

    found: list[Violation] = []
    for module in modules:
        for rule in file_rules:
            found.extend(rule(module))
    for repo_rule in repo_rules:
        found.extend(repo_rule(modules))

    allow = load_allowlist(allowlist_path)
    used: set[str] = set()
    active: list[Violation] = []
    suppressed: list[Violation] = []
    for violation in found:
        if violation.key in allow:
            used.add(violation.key)
            suppressed.append(violation)
        else:
            active.append(violation)
    for key in sorted(set(allow) - used):
        active.append(Violation(
            rule="ML000",
            path=allowlist_path.relative_to(repo_root).as_posix(),
            line=1,
            message=f"unused allowlist entry: {key!r}",
            key=f"ML000 {key}",
        ))
    active.sort(key=lambda v: (v.path, v.line, v.rule))
    return LintResult(violations=active, suppressed=suppressed,
                      files_checked=len(modules))
