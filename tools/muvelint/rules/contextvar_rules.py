"""ML004 — ContextVar set/reset hygiene.

A ``ContextVar.set()`` whose token is dropped, or reset outside a
``finally``, leaks request state (deadline, trace span, degradation
sink) into whatever request the thread serves next.  The rule: every
call ``<var>.set(...)`` on a module-level ContextVar must

* assign its token to a plain name, and
* that name must be passed to ``<var>.reset(token)`` inside the
  ``finally`` block of a ``try`` in the same function.

Passing the bound method itself (``context.run(var.set, value)``) is
not a call here and is fine — isolation comes from the throwaway
``Context``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.muvelint.engine import ParsedModule, Violation
from tools.muvelint.rules import iter_scopes

__all__ = ["check_contextvar_hygiene"]


def _in_scope(module: ParsedModule) -> bool:
    return module.relpath.startswith("src/repro/")


def _set_calls(func: ast.AST, names: set[str]) -> Iterator[ast.Call]:
    for node in ast.walk(func):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "set"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in names):
            yield node


def _finally_resets(func: ast.AST, var: str) -> set[str]:
    """Token names passed to ``var.reset(...)`` inside a finally."""
    tokens: set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Try) or not node.finalbody:
            continue
        for stmt in node.finalbody:
            for sub in ast.walk(stmt):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "reset"
                        and isinstance(sub.func.value, ast.Name)
                        and sub.func.value.id == var
                        and sub.args
                        and isinstance(sub.args[0], ast.Name)):
                    tokens.add(sub.args[0].id)
    return tokens


def check_contextvar_hygiene(module: ParsedModule,
                             ) -> Iterator[Violation]:
    if not _in_scope(module) or not module.contextvars:
        return
    names = module.contextvars
    # Map set-call -> the name its token is assigned to (None if the
    # token is discarded).
    assigned: dict[ast.Call, str] = {}
    for node in ast.walk(module.tree):
        if (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            assigned[node.value] = node.targets[0].id
    for qual, func in iter_scopes(module.tree):
        for call in _set_calls(func, names):
            var = call.func.value.id
            token = assigned.get(call)
            if token is None:
                yield Violation(
                    rule="ML004",
                    path=module.relpath,
                    line=call.lineno,
                    message=(f"{var}.set() token discarded — assign "
                             f"it and reset in a finally"),
                    key=f"ML004 {module.relpath}::{qual}::{var}",
                )
                continue
            if token not in _finally_resets(func, var):
                yield Violation(
                    rule="ML004",
                    path=module.relpath,
                    line=call.lineno,
                    message=(f"{var}.set() token {token!r} is never "
                             f"reset in a finally block"),
                    key=f"ML004 {module.relpath}::{qual}::{var}",
                )
    # Module-level set() calls (outside any function) are always wrong.
    func_spans = [
        (f.lineno, getattr(f, "end_lineno", f.lineno))
        for _, f in iter_scopes(module.tree)]
    for call in _set_calls(module.tree, names):
        if any(lo <= call.lineno <= hi for lo, hi in func_spans):
            continue
        var = call.func.value.id
        yield Violation(
            rule="ML004",
            path=module.relpath,
            line=call.lineno,
            message=f"{var}.set() at module scope is never reset",
            key=f"ML004 {module.relpath}::<module>::{var}",
        )
