"""ML007 — broad excepts on the serving path must leave a trace.

``except Exception`` (or bare ``except:``) is legitimate exactly three
ways in this codebase:

* it re-raises (possibly after cleanup),
* it consumes the bound exception — stores it, wraps it, renders it
  into a response (the demo server's last-resort 500 handler), or
* it feeds an observability sink: a counter increment, a metric
  record, a log call.

A handler that does none of those swallows failures invisibly, which
is how a degraded serving path stays degraded for days.  The rule
checks every broad handler under ``src/repro`` for one of the three
shapes.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.muvelint.engine import ParsedModule, Violation
from tools.muvelint.rules import dotted_name, scope_qualname

__all__ = ["check_broad_excepts"]

#: A call whose dotted name contains one of these substrings counts as
#: recording the failure.
_SINK_HINTS = (
    "count", "counter", "record", "observe", "log", "metric",
    "increment", "error",
)


def _in_scope(module: ParsedModule) -> bool:
    return module.relpath.startswith("src/repro/")


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    if isinstance(handler.type, ast.Name):
        return handler.type.id in ("Exception", "BaseException")
    return False


def _handler_ok(handler: ast.ExceptHandler) -> bool:
    bound = handler.name
    for node in handler.body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Raise):
                return True
            if (bound and isinstance(sub, ast.Name)
                    and sub.id == bound
                    and isinstance(sub.ctx, ast.Load)):
                return True
            if isinstance(sub, ast.Call):
                name = dotted_name(sub.func) or ""
                if any(hint in name.lower()
                       for hint in _SINK_HINTS):
                    return True
    return False


def check_broad_excepts(module: ParsedModule) -> Iterator[Violation]:
    if not _in_scope(module):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _is_broad(node):
            continue
        if _handler_ok(node):
            continue
        qual = scope_qualname(module.tree, node)
        yield Violation(
            rule="ML007",
            path=module.relpath,
            line=node.lineno,
            message=("broad except swallows the failure — re-raise, "
                     "consume the exception, or record it"),
            key=f"ML007 {module.relpath}::{qual}",
        )
