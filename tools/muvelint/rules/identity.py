"""ML009 — no builtin ``id()`` under ``src/repro``.

``id()`` is an address, and CPython reuses the address of a collected
object at once: of 200 ``Database()`` objects created and dropped in
sequence, 199 reused an id.  A cache keyed on it hands one object's
entry to a later, unrelated one.  Objects that need an identity carry a
process-unique counter (``Database.uid``, ``PhoneticIndex.uid``), so
under ``src/repro`` no ``id(...)`` call is accepted.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.muvelint.engine import ParsedModule, Violation
from tools.muvelint.rules import scope_qualname

__all__ = ["check_builtin_id"]


def check_builtin_id(module: ParsedModule) -> Iterator[Violation]:
    if not module.relpath.startswith("src/repro/"):
        return
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"):
            continue
        qual = scope_qualname(module.tree, node)
        yield Violation(
            rule="ML009",
            path=module.relpath,
            line=node.lineno,
            message=("id() is reused after garbage collection — key on "
                     "a process-unique uid instead"),
            key=f"ML009 {module.relpath}::{qual}",
        )
