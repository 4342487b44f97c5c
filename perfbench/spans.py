"""Spans recorded around MUVE's layer entry points, from outside the program.

:func:`instrument` wraps each layer's public entry point (the calls
``Muve._run_pipeline`` makes, plus rendering and ``Database.insert_rows``)
in a span.  A span keeps its name, start, end, parent and ask id; spans
stay in memory until the run ends.  A layer's self time is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    ask: int | None
    end: float = 0.0
    child_seconds: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def self_ms(self) -> float:
        return (self.end - self.start - self.child_seconds) * 1000.0


class Tracer:
    """Records spans opened on the client thread; calls made from the
    program's worker threads pass through unrecorded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.ask: int | None = None
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    @contextmanager
    def span(self, name: str):
        if threading.get_ident() != self._thread:
            yield Span(name, 0.0, None, None)
            return
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent, self.ask)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_seconds += record.end - record.start

    def dump(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart\tend\tparent\task\tattrs\n")
            for span in self.spans:
                out.write(f"{span.name}\t{span.start:.9f}\t{span.end:.9f}\t"
                          f"{span.parent}\t{span.ask}\t{span.attrs}\n")


def _entry_points():
    """(owner, attribute, span name, note) for every instrumented call;
    *note* copies what the layer returned onto the span."""
    import repro.execution.progressive as progressive
    import repro.muve as muve
    from repro.core.greedy import GreedySolver
    from repro.core.ilp import IlpSolver
    from repro.execution.engine import MuveExecutor
    from repro.nlq.candidates import CandidateGenerator
    from repro.nlq.speech import SpeechSimulator
    from repro.nlq.text_to_sql import TextToSql
    from repro.sqldb.database import Database

    def cost(span, result):
        span.attrs["cost"] = result.expected_cost

    def ilp(span, result):
        cost(span, result)
        span.attrs["timed_out"] = result.timed_out

    return (
        (SpeechSimulator, "transcribe", "nlq.speech", None),
        (TextToSql, "translate", "nlq.translate", None),
        (CandidateGenerator, "candidates", "nlq.candidates",
         lambda span, result: span.attrs.update(count=len(result))),
        (GreedySolver, "solve", "core.greedy", cost),
        (IlpSolver, "solve", "core.ilp", ilp),
        (progressive, "plan_execution", "execution.merge_plan",
         lambda span, result: span.attrs.update(groups=len(result.groups))),
        (MuveExecutor, "run", "execution.run", None),
        (muve, "render_svg", "viz.render", None),
        (Database, "insert_rows", "sqldb.insert", None),
    )


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every entry point in a span for the duration of the block."""
    originals = []
    try:
        for owner, attribute, name, note in _entry_points():
            original = getattr(owner, attribute)
            originals.append((owner, attribute, original))
            setattr(owner, attribute, _wrapped(tracer, name, original, note))
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def _wrapped(tracer: Tracer, name: str, original, note):
    def timed(*args, **kwargs):
        with tracer.span(name) as span:
            result = original(*args, **kwargs)
            if note is not None:
                note(span, result)
            return result
    timed.__wrapped__ = original
    return timed
