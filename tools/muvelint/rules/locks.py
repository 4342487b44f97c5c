"""ML001/ML002 — lock discipline.

ML001: a ``with`` statement on a lock-named expression (terminal
identifier contains ``lock``, case-insensitive) must not contain a
blocking call in its body: no sleeping, no pool submission, no solver
invocation, no socket/file I/O, no ``.wait()``/``.join()``.  Any of
those while holding a lock turns the lock's critical section into a
latency cliff for every contending thread — decide under the lock, do
the slow work outside it, is the shape this rule pins.

Nested function definitions inside the ``with`` body are skipped: their
bodies run later, not under the lock.  ``threading.Condition`` variables
are deliberately not matched (e.g. ``_available``): waiting on a
condition releases the underlying lock, which is the one legitimate
"block while holding" pattern.

ML002: double-checked lazy initialisation must re-check under the lock.
An ``if <expr> is None:`` whose body enters ``with <lock>:`` needs an
``is None`` test *inside* the lock body before publishing, otherwise two
racing initialisers both construct (and one silently leaks).
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.muvelint.engine import ParsedModule, Violation
from tools.muvelint.rules import scope_qualname, terminal_name

__all__ = ["check_blocking_under_lock", "check_double_checked_locking"]

#: Attribute calls considered blocking while a lock is held.
BLOCKING_ATTRS = frozenset({
    "sleep", "wait", "join", "submit", "solve",
    "urlopen", "connect", "accept", "recv", "sendall", "getresponse",
})

#: Builtin calls considered blocking (file I/O).
BLOCKING_NAMES = frozenset({"open"})

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _is_lock_expr(node: ast.expr) -> bool:
    name = terminal_name(node)
    return name is not None and "lock" in name.lower()


def _in_scope(module: ParsedModule) -> bool:
    return module.relpath.startswith("src/repro/")


def _blocking_calls(body: list[ast.stmt]) -> Iterator[ast.Call]:
    """Blocking calls lexically inside *body*, skipping deferred
    scopes (nested defs/lambdas run outside the critical section)."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNC_NODES):
            continue
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in BLOCKING_ATTRS):
                yield node
            elif (isinstance(func, ast.Name)
                    and func.id in BLOCKING_NAMES):
                yield node
        stack.extend(ast.iter_child_nodes(node))


def check_blocking_under_lock(module: ParsedModule,
                              ) -> Iterator[Violation]:
    if not _in_scope(module):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.With):
            continue
        held = [item for item in node.items
                if _is_lock_expr(item.context_expr)]
        if not held:
            continue
        lock_name = terminal_name(held[0].context_expr)
        for call in _blocking_calls(node.body):
            callee = (terminal_name(call.func)
                      or ast.unparse(call.func))
            qual = scope_qualname(module.tree, call)
            yield Violation(
                rule="ML001",
                path=module.relpath,
                line=call.lineno,
                message=(f"blocking call {callee!r} while holding "
                         f"lock {lock_name!r}"),
                key=(f"ML001 {module.relpath}::{qual}"
                     f"::{lock_name}.{callee}"),
            )


def _has_none_check(body: list[ast.stmt]) -> bool:
    for node in body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Compare) and any(
                    isinstance(op, (ast.Is, ast.IsNot))
                    for op in sub.ops):
                operands = [sub.left, *sub.comparators]
                if any(isinstance(operand, ast.Constant)
                       and operand.value is None
                       for operand in operands):
                    return True
    return False


def check_double_checked_locking(module: ParsedModule,
                                 ) -> Iterator[Violation]:
    if not _in_scope(module):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if not (isinstance(test, ast.Compare)
                and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Is)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None):
            continue
        for stmt in node.body:
            if not isinstance(stmt, ast.With):
                continue
            if not any(_is_lock_expr(item.context_expr)
                       for item in stmt.items):
                continue
            if _has_none_check(stmt.body):
                continue
            lock_name = terminal_name(
                stmt.items[0].context_expr)
            qual = scope_qualname(module.tree, stmt)
            yield Violation(
                rule="ML002",
                path=module.relpath,
                line=stmt.lineno,
                message=(f"double-checked init takes {lock_name!r} "
                         f"without re-checking 'is None' inside it"),
                key=f"ML002 {module.relpath}::{qual}::{lock_name}",
            )
