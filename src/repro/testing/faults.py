"""Deterministic fault injection at named serving-path sites.

The resilience layer is only trustworthy if its failure handling is
*tested*, and failures must be reproducible to be testable.  This
harness plants :func:`fault_point` probes at named sites in the
pipeline; an activated :class:`FaultPlan` makes chosen sites misbehave
in a seed-deterministic way — same plan + same seed = same faults at
the same invocations, across runs and across threads.

Sites (the registry production code is instrumented with)::

    speech.transcribe     SpeechSimulator.transcribe
    candidates.generate   Muve._run_pipeline, before candidate expansion
    phonetics.lookup      CandidateGenerator, before each index probe
    planner.solve         VisualizationPlanner, before the primary solve
    executor.batch        ExecutionPlan.run, before the plan's first run
    executor.group        batch.run_plan, before each merged group, on
                          every run (the batch→per-group rung included)
    session.replan        MuveSession, before the history-based replan

Fault kinds:

* ``delay=<ms>`` — sleep that long (interrupted by the active deadline:
  expiry mid-sleep raises :class:`~repro.errors.DeadlineExceeded`).
* ``stall`` — sleep until the active deadline expires, then raise
  ``DeadlineExceeded`` (no deadline: sleep ``stall_cap_ms`` and raise
  :class:`FaultError` — a stall must never hang a test).
* ``error=<ExceptionName>`` — raise that :class:`~repro.errors
  .ReproError` subclass (default :class:`FaultError`, which is
  transient and therefore retriable).
* ``exhaust_deadline`` — force the active deadline to expire instantly
  (zero-sleep deadline-pressure tests).

Plans are activated process-wide via the ``MUVE_FAULTS`` environment
variable (seed in ``MUVE_FAULT_SEED``), :func:`set_fault_plan`, or the
:func:`inject_faults` context manager::

    MUVE_FAULTS="planner.solve:stall" python -m repro --serve

    with inject_faults("executor.batch:error=FaultError@0.5#3", seed=7):
        muve.ask(...)

Spec grammar: ``site:kind[=value][@probability][#times]`` joined by
``;``.  ``@p`` fires each invocation with probability ``p`` (seeded,
deterministic per invocation index); ``#n`` stops after ``n`` firings.

An inactive harness costs one global ``None`` check per probe — the
``make profile`` overhead gate covers the no-fault serving path.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro import errors as _errors
from repro.errors import ReproError, TransientError
from repro.flags import env_int, env_str
from repro.resilience.deadline import current_deadline

__all__ = [
    "FAULT_SITES",
    "FaultError",
    "FaultPlan",
    "FaultRule",
    "active_fault_plan",
    "fault_point",
    "inject_faults",
    "set_fault_plan",
]

#: Every site instrumented with a :func:`fault_point` probe.  Plans may
#: only target these names — a typo in a spec fails fast at parse time
#: instead of silently injecting nothing.
FAULT_SITES: tuple[str, ...] = (
    "speech.transcribe",
    "candidates.generate",
    "phonetics.lookup",
    "planner.solve",
    "executor.batch",
    "executor.group",
    "session.replan",
)

_KINDS = ("delay", "error", "stall", "exhaust_deadline")

#: Sleep granularity while delaying/stalling: small enough that a stall
#: overshoots the deadline by at most one hop.
_SLEEP_HOP_S = 0.005


class FaultError(TransientError):
    """The default injected failure (transient, hence retriable)."""


@dataclass(frozen=True)
class FaultRule:
    """One site's misbehaviour within a plan."""

    site: str
    kind: str
    delay_ms: float = 0.0
    error: str = "FaultError"
    probability: float = 1.0
    times: int | None = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ReproError(
                f"unknown fault site {self.site!r}; known sites: "
                f"{', '.join(FAULT_SITES)}")
        if self.kind not in _KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r}; known kinds: "
                f"{', '.join(_KINDS)}")
        if not 0.0 <= self.probability <= 1.0:
            raise ReproError(
                f"fault probability must be in [0, 1], got "
                f"{self.probability}")
        if self.kind == "delay" and self.delay_ms < 0:
            raise ReproError(
                f"fault delay must be >= 0, got {self.delay_ms}")
        if self.times is not None and self.times <= 0:
            raise ReproError(
                f"fault times must be positive, got {self.times}")
        _resolve_error(self.error)  # validate eagerly


def _resolve_error(name: str) -> type[ReproError]:
    """Map an exception name from a spec to a raisable error class."""
    if name == "FaultError":
        return FaultError
    candidate = getattr(_errors, name, None)
    if (isinstance(candidate, type)
            and issubclass(candidate, ReproError)):
        return candidate
    raise ReproError(
        f"unknown injected error type {name!r} (must be FaultError or "
        f"a ReproError subclass from repro.errors)")


class FaultPlan:
    """A seeded set of :class:`FaultRule`\\ s with activation state.

    Thread-safe: the invocation counters are locked, and probabilistic
    firing depends only on ``(seed, site, invocation_index)`` — the
    8-thread hammer sees the same fault sequence per site as a serial
    run issuing the same number of probes.
    """

    def __init__(self, rules: Iterator[FaultRule] | list[FaultRule],
                 seed: int = 0, stall_cap_ms: float = 100.0) -> None:
        self.rules: dict[str, FaultRule] = {}
        for rule in rules:
            if rule.site in self.rules:
                raise ReproError(
                    f"duplicate fault rule for site {rule.site!r}")
            self.rules[rule.site] = rule
        self.seed = int(seed)
        self.stall_cap_ms = float(stall_cap_ms)
        self._lock = threading.Lock()
        self._invocations: dict[str, int] = {}
        self._fired: dict[str, int] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from the ``MUVE_FAULTS`` grammar (see module
        docstring).  An empty spec yields an empty (inert) plan."""
        rules = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            site, sep, behaviour = clause.partition(":")
            if not sep or not behaviour:
                raise ReproError(
                    f"bad fault clause {clause!r} (want site:kind[...])")
            rules.append(cls._parse_rule(site.strip(), behaviour.strip()))
        return cls(rules, seed=seed)

    @staticmethod
    def _parse_rule(site: str, behaviour: str) -> FaultRule:
        times: int | None = None
        probability = 1.0
        if "#" in behaviour:
            behaviour, _, raw = behaviour.partition("#")
            times = _parse_number(raw, int, "#times")
        if "@" in behaviour:
            behaviour, _, raw = behaviour.partition("@")
            probability = _parse_number(raw, float, "@probability")
        kind, _, value = behaviour.partition("=")
        kind = kind.strip()
        value = value.strip()
        delay_ms = 0.0
        error = "FaultError"
        if kind == "delay":
            delay_ms = _parse_number(value or "0", float, "delay")
        elif kind == "error" and value:
            error = value
        return FaultRule(site=site, kind=kind, delay_ms=delay_ms,
                         error=error, probability=probability,
                         times=times)

    # -- introspection --------------------------------------------------

    def invocations(self, site: str) -> int:
        """How many times *site*'s probe ran under this plan."""
        with self._lock:
            return self._invocations.get(site, 0)

    def fired(self, site: str) -> int:
        """How many times *site* actually misbehaved."""
        with self._lock:
            return self._fired.get(site, 0)

    def reset(self) -> None:
        """Forget activation state (replaying a plan from scratch)."""
        with self._lock:
            self._invocations.clear()
            self._fired.clear()

    # -- activation -----------------------------------------------------

    def apply(self, site: str) -> None:
        """Run *site*'s rule once (called from :func:`fault_point`)."""
        with self._lock:
            index = self._invocations.get(site, 0)
            self._invocations[site] = index + 1
            rule = self.rules.get(site)
            if rule is None:
                return
            if rule.times is not None and \
                    self._fired.get(site, 0) >= rule.times:
                return
            if rule.probability < 1.0:
                draw = random.Random(
                    f"{self.seed}:{site}:{index}").random()
                if draw >= rule.probability:
                    return
            self._fired[site] = self._fired.get(site, 0) + 1
        self._fire(rule, site)

    def _fire(self, rule: FaultRule, site: str) -> None:
        if rule.kind == "exhaust_deadline":
            deadline = current_deadline()
            if deadline is not None:
                deadline.exhaust()
            return
        if rule.kind == "error":
            raise _resolve_error(rule.error)(
                f"injected {rule.error} at {site}")
        if rule.kind == "delay":
            self._sleep(rule.delay_ms, site)
            return
        # stall: burn the whole remaining deadline, then surface it.
        deadline = current_deadline()
        if deadline is None:
            self._sleep(self.stall_cap_ms, site)
            raise FaultError(
                f"injected stall at {site} (no deadline to exhaust; "
                f"capped at {self.stall_cap_ms:.0f} ms)")
        self._sleep(deadline.budget_ms, site)

    @staticmethod
    def _sleep(delay_ms: float, site: str) -> None:
        """Sleep up to *delay_ms*, hopping so an active deadline is
        honoured; expiry mid-sleep raises at the faulted site."""
        end = time.monotonic() + delay_ms / 1000.0
        while True:
            deadline = current_deadline()
            if deadline is not None:
                deadline.check(site)
            remaining = end - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(remaining, _SLEEP_HOP_S))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sites = ", ".join(sorted(self.rules))
        return f"FaultPlan(seed={self.seed}, sites=[{sites}])"


def _parse_number(raw: str, cast, what: str):
    try:
        return cast(raw)
    except (TypeError, ValueError):
        raise ReproError(
            f"bad {what} value {raw!r} in fault spec") from None


# ---------------------------------------------------------------------------
# Process-wide activation
# ---------------------------------------------------------------------------

_active: FaultPlan | None = None
_active_lock = threading.Lock()


def _load_from_env() -> FaultPlan | None:
    spec = env_str("MUVE_FAULTS").strip()
    if not spec:
        return None
    seed = env_int("MUVE_FAULT_SEED", 0)
    plan = FaultPlan.parse(spec, seed=seed)
    return plan if plan.rules else None


_active = _load_from_env()


def active_fault_plan() -> FaultPlan | None:
    """The currently activated plan (None = faults off)."""
    return _active


def set_fault_plan(plan: FaultPlan | None) -> None:
    """Activate *plan* process-wide (None deactivates)."""
    global _active
    with _active_lock:
        _active = plan


@contextmanager
def inject_faults(plan: "FaultPlan | str", seed: int = 0):
    """Activate a plan (or spec string) for a block, restoring after.

    Yields the :class:`FaultPlan` so tests can assert invocation and
    firing counts afterwards.
    """
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan, seed=seed)
    global _active
    with _active_lock:
        previous = _active
        _active = plan
    try:
        yield plan
    finally:
        with _active_lock:
            _active = previous


def fault_point(site: str) -> None:
    """The probe production code plants at each named site.

    Free when no plan is active (one global read); under a plan it
    delegates to :meth:`FaultPlan.apply`.
    """
    plan = _active
    if plan is not None:
        plan.apply(site)
