"""Lockdep-style runtime lock-order checking (``MUVE_LOCKDEP=1``).

The static rules in ``tools/muvelint`` catch what is visible in the
source; lock-order inversions are not — an ABBA deadlock needs two call
paths that each look fine alone.  This checker borrows the Linux
kernel's lockdep idea: record the *acquisition-order graph* while the
test suite exercises the code, and fail if the graph ever gains a
cycle.  A cycle means two threads can interleave into a deadlock even
if this particular run got lucky.

Mechanics
---------

:func:`install` replaces ``threading.Lock``/``threading.RLock`` with
factories returning tracked wrappers.  Each wrapper keeps its creation
site (the first frame outside this module and ``threading``), and each
thread keeps a stack of wrappers it currently holds.  On acquisition
with locks already held, one edge per held lock is added:
``held-site -> acquired-site``.  Edges are keyed by creation site, not
object identity, so every instance of one lock class contributes to
the same node — order violations between *instances* of the same lock
class surface too (reported unless the edge is a self-loop, which
re-entrant same-class locking makes routine and benign for RLocks).

The recorded violation is a ``cycle``: a new edge closes a cycle in
the order graph.

Violations are *recorded*, not raised at the fault site (raising
inside ``acquire`` would poison unrelated code paths); the pytest
plugin in ``tests/conftest.py`` fails the session if any were seen.
Unit tests use :func:`strict` to assert eagerly instead.

Scope: only locks created *after* :func:`install` by code under
``repro`` (or tests) are tracked; stdlib-internal locks keep the real
primitives.  Overhead with ``MUVE_LOCKDEP`` unset is zero — nothing
is patched.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.flags import env_switch

__all__ = [
    "LockdepError",
    "LockdepState",
    "enabled_from_env",
    "get_state",
    "install",
    "reset",
    "tracked_lock",
    "tracked_rlock",
    "uninstall",
]


class LockdepError(AssertionError):
    """Raised in strict mode when an ordering violation is detected."""


@dataclass(frozen=True)
class Violation:
    kind: str  # "cycle"
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


@dataclass
class LockdepState:
    """The process-wide acquisition-order graph and its violations."""

    #: site -> set of sites acquired while that site was held.
    edges: dict[str, set[str]] = field(default_factory=dict)
    #: (held-site, acquired-site) -> first witness description.
    witnesses: dict[tuple[str, str], str] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)
    strict: bool = False
    lock: threading.Lock = field(default_factory=threading.Lock)

    def clear(self) -> None:
        with self.lock:
            self.edges.clear()
            self.witnesses.clear()
            self.violations.clear()


_STATE = LockdepState()
_LOCAL = threading.local()

_real_lock = threading.Lock
_real_rlock = threading.RLock
_installed = False


def get_state() -> LockdepState:
    return _STATE


def reset() -> None:
    """Forget recorded edges and violations (test isolation)."""
    _STATE.clear()


def enabled_from_env() -> bool:
    return env_switch("MUVE_LOCKDEP", "off")


def _held_stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def _creation_site() -> str:
    """``file:line`` of the frame that created the lock, skipping this
    module and ``threading`` internals."""
    skip = (__file__, threading.__file__)
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename not in skip:
            return f"{filename.rsplit('/', 1)[-1]}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


def _find_cycle(edges: dict[str, set[str]], start: str,
                goal: str) -> list[str] | None:
    """A path ``start -> ... -> goal`` in *edges* (DFS), or None."""
    seen = {start}
    path = [start]

    def visit(node: str) -> bool:
        for succ in sorted(edges.get(node, ())):
            if succ == goal:
                path.append(succ)
                return True
            if succ in seen:
                continue
            seen.add(succ)
            path.append(succ)
            if visit(succ):
                return True
            path.pop()
        return False

    return path if visit(start) else None


def _record_violation(violation: Violation) -> None:
    _STATE.violations.append(violation)
    if _STATE.strict:
        raise LockdepError(str(violation))


def _on_acquired(wrapper: "_TrackedLock") -> None:
    stack = _held_stack()
    if stack:
        held = stack[-1]
        edge = (held.site, wrapper.site)
        if held.site != wrapper.site:
            with _STATE.lock:
                new = wrapper.site not in _STATE.edges.get(
                    held.site, ())
                if new:
                    _STATE.edges.setdefault(
                        held.site, set()).add(wrapper.site)
                    _STATE.witnesses[edge] = (
                        f"{threading.current_thread().name} acquired "
                        f"{wrapper.site} while holding {held.site}")
                    back = _find_cycle(
                        _STATE.edges, wrapper.site, held.site)
                else:
                    back = None
            if back is not None:
                chain = " -> ".join([held.site, *back[1:], held.site])
                _record_violation(Violation(
                    kind="cycle",
                    detail=(f"lock-order cycle {chain} (witness: "
                            f"{_STATE.witnesses[edge]})")))
    stack.append(wrapper)


def _on_released(wrapper: "_TrackedLock") -> None:
    stack = _held_stack()
    # Release order need not be LIFO; drop the most recent entry.
    for i in range(len(stack) - 1, -1, -1):
        if stack[i] is wrapper:
            del stack[i]
            break


class _TrackedLock:
    """A ``threading.Lock`` stand-in that reports to the order graph.

    Delegates ``_release_save``/``_acquire_restore``/``_is_owned`` so
    instances still back a ``threading.Condition``.
    """

    _factory = staticmethod(lambda: _real_lock())

    def __init__(self) -> None:
        self._inner = self._factory()
        self.site = _creation_site()
        self._depth = 0

    def acquire(self, blocking: bool = True,
                timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            if self._depth == 0:
                _on_acquired(self)
            self._depth += 1
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._depth -= 1
        if self._depth == 0:
            _on_released(self)

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    # -- Condition protocol --------------------------------------------

    def _release_save(self):  # pragma: no cover - Condition internals
        self._depth -= 1
        if self._depth == 0:
            _on_released(self)
        if hasattr(self._inner, "_release_save"):
            return self._inner._release_save()
        self._inner.release()
        return None

    def _acquire_restore(self, state):  # pragma: no cover
        if hasattr(self._inner, "_acquire_restore"):
            self._inner._acquire_restore(state)
        else:
            self._inner.acquire()
        if self._depth == 0:
            _on_acquired(self)
        self._depth += 1

    def _is_owned(self) -> bool:
        if hasattr(self._inner, "_is_owned"):
            return self._inner._is_owned()
        if self._inner.acquire(False):
            self._inner.release()
            return False
        return True

    def _at_fork_reinit(self) -> None:
        """Fork support: stdlib modules imported while lockdep is
        installed (e.g. ``concurrent.futures.thread``) register their
        module-level lock's ``_at_fork_reinit`` with
        ``os.register_at_fork``."""
        self._inner._at_fork_reinit()
        self._depth = 0

    def __getattr__(self, name: str) -> Any:
        # Anything else the stdlib expects of a real lock delegates to
        # the wrapped primitive (only reached for names not defined on
        # the wrapper).
        if name == "_inner":
            raise AttributeError(name)
        return getattr(self._inner, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<tracked {type(self._inner).__name__} @ {self.site}>"


class _TrackedRLock(_TrackedLock):
    _factory = staticmethod(lambda: _real_rlock())


def tracked_lock() -> _TrackedLock:
    """A tracked ``Lock`` regardless of install state (unit tests)."""
    return _TrackedLock()


def tracked_rlock() -> _TrackedRLock:
    return _TrackedRLock()


def held_locks() -> list:
    """The tracked locks the calling thread currently holds."""
    return list(_held_stack())


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def install(strict: bool = False) -> None:
    """Patch the ``threading`` lock factories.

    Idempotent.  Only affects locks created after the call, so stdlib
    and interpreter-internal locks keep the real primitives.
    """
    global _installed
    _STATE.strict = strict
    if _installed:
        return
    threading.Lock = _TrackedLock
    threading.RLock = _TrackedRLock
    _installed = True


def uninstall() -> None:
    """Restore the real primitives (paired with :func:`install`)."""
    global _installed
    if not _installed:
        return
    threading.Lock = _real_lock
    threading.RLock = _real_rlock
    _installed = False


def report() -> str:
    """Human-readable summary of recorded violations (empty if none)."""
    if not _STATE.violations:
        return ""
    lines = [f"lockdep: {len(_STATE.violations)} violation(s)"]
    lines.extend(f"  {v}" for v in _STATE.violations)
    return "\n".join(lines)
