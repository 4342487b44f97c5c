"""ML008 — phonetic lookups on the serving path go through the probe cache.

Speech, text-to-SQL and candidate generation all resolve misheard
elements with one primitive, "the k phonetically most similar strings"
(``PhoneticIndex.most_similar``).  Users repeat the same words, so every
serving-path lookup is answered by the process-wide probe cache, keyed
by the index's uid and version: a direct ``index.most_similar(...)``
call walks the index again on every request.  Under ``src/repro/nlq``
the only accepted shape is therefore::

    phonetic_probe_cache().most_similar(index, probe, k, ...)
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.muvelint.engine import ParsedModule, Violation
from tools.muvelint.rules import scope_qualname, terminal_name

__all__ = ["check_cached_lookups"]


def _in_scope(module: ParsedModule) -> bool:
    return module.relpath.startswith("src/repro/nlq/")


def _through_cache(owner: ast.expr) -> bool:
    return (isinstance(owner, ast.Call)
            and terminal_name(owner.func) == "phonetic_probe_cache")


def check_cached_lookups(module: ParsedModule) -> Iterator[Violation]:
    if not _in_scope(module):
        return
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "most_similar"):
            continue
        if _through_cache(node.func.value):
            continue
        qual = scope_qualname(module.tree, node)
        yield Violation(
            rule="ML008",
            path=module.relpath,
            line=node.lineno,
            message=("phonetic lookup bypasses the probe cache — call "
                     "phonetic_probe_cache().most_similar(index, ...)"),
            key=f"ML008 {module.relpath}::{qual}",
        )
