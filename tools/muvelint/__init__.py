"""muvelint — repo-specific static analysis for the MUVE codebase.

Generic linters enforce style; this one enforces the invariants the
concurrent serving stack actually depends on, each encoded as an AST
rule over ``src/repro`` (and, where it makes sense, ``scripts`` and
``tools``):

======  ==============================================================
ML001   No blocking call (sleep, pool submission, solver, socket or
        file I/O, ``.wait()``/``.join()``) while holding a known lock.
ML002   Double-checked locking must re-check under the lock: an
        ``if x is None:`` wrapping ``with <lock>:`` needs an inner
        ``is None`` test before publishing.
ML003   Determinism discipline in ``core``, ``execution``, ``nlq`` and
        the fault harness: no unseeded RNG, no wall-clock reads
        (``time.time``, ``datetime.now``) — monotonic clocks and
        seeded ``random.Random`` only.
ML004   ContextVar hygiene: every ``var.set(...)`` assigns its token
        and resets it in a ``finally`` block of the same function.
ML005   No import cycles among ``repro`` modules (top-level imports;
        ``TYPE_CHECKING`` and function-local imports excluded).
ML006   Every ``MUVE_*`` environment read goes through
        ``repro.flags`` with a literal, registry-declared name; no
        direct ``os.environ`` reads outside the registry module.
ML007   No silent broad excepts: ``except Exception`` must re-raise,
        consume the bound exception, or feed a counter/log.
ML008   Phonetic lookups under ``src/repro/nlq`` go through the probe
        cache: ``.most_similar(`` only as
        ``phonetic_probe_cache().most_similar(index, ...)``.
ML009   No builtin ``id()`` call under ``src/repro``: ids are reused
        after garbage collection; key on a process-unique ``uid``.
======  ==============================================================

Violations are keyed without line numbers so the allowlist
(``tools/muvelint/allowlist.txt``) survives unrelated edits; unused
allowlist entries are themselves violations, so suppressions cannot
outlive the code they excuse.  There is deliberately no inline
suppression syntax.

Run with ``python -m tools.muvelint`` (``make lint`` does).
"""

from tools.muvelint.engine import LintResult, Violation, run_lint

__all__ = ["LintResult", "Violation", "run_lint"]
