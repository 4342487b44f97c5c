"""The central registry of ``MUVE_*`` environment flags.

Every environment variable the project reads is declared here — name,
type, default, and one-line description — and read back through the
accessors below.  The registry is the single source of truth for three
consumers:

* **Runtime**: :func:`env_raw` / :func:`env_switch` / :func:`env_int` /
  :func:`env_float` / :func:`env_str` refuse to read a ``MUVE_*`` key
  that is not declared, so a typo'd flag name fails loudly instead of
  silently falling back to a default.
* **Static analysis**: ``tools/muvelint`` parses the literal
  :func:`_flag` declarations in this file and rejects (a) any direct
  ``os.environ`` read of a ``MUVE_*`` key outside this module and
  (b) any accessor call naming an undeclared flag.
* **Documentation**: ``scripts/gen_flags_doc.py`` renders the registry
  as the flag table in README.md and fails ``make lint`` if the two
  have drifted apart.

Declarations must stay *literal* calls (``_flag("<NAME>", ...)``) — the
linter and the doc generator read them from the AST without importing
anything, so computed names would defeat both.

This module deliberately imports nothing from the rest of the package
(only :mod:`repro.errors`), so any module — including the lowest layers
— can use it without creating an import cycle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ReproError

__all__ = [
    "FLAGS",
    "Flag",
    "env_float",
    "env_int",
    "env_raw",
    "env_str",
    "env_switch",
]

#: Values that turn an on-by-default switch off (and, inverted, that an
#: off-by-default switch requires to turn on).  Shared by every switch
#: flag so ``=0`` and ``=off`` always mean the same thing.
_OFF_VALUES = ("off", "0", "false", "no")


@dataclass(frozen=True)
class Flag:
    """One declared environment flag."""

    name: str         #: the environment variable, always ``MUVE_*``
    kind: str         #: "switch" | "int" | "float" | "str" | "spec"
    default: str      #: documented default ("" means unset)
    description: str  #: one line for the README table
    section: str      #: README table grouping


FLAGS: dict[str, Flag] = {}


def _flag(name: str, kind: str, default: str, description: str,
          section: str) -> None:
    if name in FLAGS:  # pragma: no cover - declaration-time guard
        raise ReproError(f"duplicate flag declaration: {name}")
    FLAGS[name] = Flag(name=name, kind=kind, default=default,
                       description=description, section=section)


# ---------------------------------------------------------------------------
# Resilience & fault injection
# ---------------------------------------------------------------------------

_flag("MUVE_DEADLINE_MS", "float", "",
      "Process-wide per-request latency budget in ms; stages degrade "
      "instead of blowing it (unset/non-positive = no deadline).",
      "Resilience")
_flag("MUVE_FAULTS", "spec", "",
      "Deterministic fault plan, `site:kind[=v][@p][#n]` entries "
      "separated by `;` (see DESIGN.md, Resilience).",
      "Resilience")
_flag("MUVE_FAULT_SEED", "int", "0",
      "Seed of the per-(site, invocation) fault-injection RNG.",
      "Resilience")

# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------

_flag("MUVE_TRACING", "switch", "on",
      "The span tracer; `off` makes `trace_span` a no-op (the overhead "
      "gate pins the cost of `on` below 5%).",
      "Observability")
_flag("MUVE_TRACE_LOG_SIZE", "int", "256",
      "Capacity of the recent-traces ring buffer behind `/api/traces`.",
      "Observability")
_flag("MUVE_SLO_LATENCY_MS", "float", "500",
      "Request-latency objective threshold scored by the SLO engine.",
      "Observability")
_flag("MUVE_SLO_COVERAGE", "float", "0.9",
      "Truth-coverage objective floor scored by the SLO engine.",
      "Observability")

# ---------------------------------------------------------------------------
# Correctness tooling
# ---------------------------------------------------------------------------

_flag("MUVE_LOCKDEP", "switch", "off",
      "Runtime lock-order checking (`repro.testing.lockdep`): records "
      "per-thread lock acquisition edges, fails tests on lock-order "
      "cycles.",
      "Tooling")


# ---------------------------------------------------------------------------
# Accessors
# ---------------------------------------------------------------------------


def _require(name: str) -> Flag:
    flag = FLAGS.get(name)
    if flag is None:
        raise ReproError(
            f"undeclared environment flag {name!r}: declare it in "
            f"repro/flags.py (the MUVE_* registry) before reading it")
    return flag


def env_raw(name: str, fallback: str | None = None) -> str | None:
    """The raw environment value of declared flag *name*.

    Mirrors ``os.environ.get``: returns *fallback* (default ``None``)
    when the variable is unset.  Call sites that need bespoke parsing
    or error wording build on this primitive; everything else should
    prefer the typed accessors below.
    """
    _require(name)
    return os.environ.get(name, fallback)


def env_str(name: str, default: str = "") -> str:
    """The string value of declared flag *name* (*default* when unset)."""
    _require(name)
    return os.environ.get(name, default)


def env_switch(name: str, default: str | None = None) -> bool:
    """The on/off value of a declared switch flag.

    Uses the project-wide switch convention: any of ``off``, ``0``,
    ``false``, ``no`` (case-insensitive) disables; anything else —
    including the empty string — enables.  *default* overrides the
    registry default (used by switches that default off, whose registry
    default is ``"off"``).
    """
    flag = _require(name)
    raw = os.environ.get(name, default if default is not None
                         else flag.default)
    return raw.strip().lower() not in _OFF_VALUES


def env_int(name: str, default: int) -> int:
    """The integer value of declared flag *name* (*default* when unset
    or empty).  A non-integer setting raises :class:`ReproError` — a
    silently ignored misconfiguration would leave an operator convinced
    the flag took effect.
    """
    _require(name)
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ReproError(
            f"{name} must be an integer, got {raw!r}") from None


def env_float(name: str, default: float) -> float:
    """The float value of declared flag *name* (*default* when unset or
    empty); non-numeric settings raise :class:`ReproError`."""
    _require(name)
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ReproError(
            f"{name} must be a number, got {raw!r}") from None
