"""Per-rule fixture snippets for muvelint.

Each rule gets a minimal bad snippet that must fire and a minimal good
snippet that must not, so a rule regression (either direction) pins to
one test.  The final test runs the real linter over the real repo —
the zero-violation gate ``make lint`` enforces.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from tools.muvelint.engine import (
    ParsedModule,
    collect_modules,
    load_allowlist,
    run_lint,
)
from tools.muvelint.rules import contextvar_rules, determinism
from tools.muvelint.rules import exceptions as exc_rules
from tools.muvelint.rules import locks

REPO_ROOT = Path(__file__).resolve().parents[2]


def parse(source: str, relpath: str = "src/repro/x.py",
          module_name: str | None = None) -> ParsedModule:
    source = textwrap.dedent(source)
    tree = ast.parse(source)
    module = ParsedModule(
        path=Path(relpath), relpath=relpath, source=source, tree=tree,
        module_name=module_name)
    module.contextvars = _contextvars(tree)
    return module


def _contextvars(tree: ast.Module) -> set[str]:
    from tools.muvelint.engine import _collect_contextvars
    return _collect_contextvars(tree)


def rules_fired(violations) -> list[str]:
    return [v.rule for v in violations]


# ---------------------------------------------------------------------------
# ML001 — blocking call under a lock
# ---------------------------------------------------------------------------


def test_ml001_flags_sleep_under_lock():
    module = parse("""
        import threading, time
        _lock = threading.Lock()
        def bad():
            with _lock:
                time.sleep(1)
    """)
    found = list(locks.check_blocking_under_lock(module))
    assert rules_fired(found) == ["ML001"]
    assert "sleep" in found[0].message


def test_ml001_flags_pool_wait_and_io_under_lock():
    module = parse("""
        def bad(self, pool, sock):
            with self._lock:
                pool.submit(lambda: 1)
            with self._lock:
                sock.recv(1024)
            with self._lock:
                open("/tmp/x")
    """)
    found = list(locks.check_blocking_under_lock(module))
    assert rules_fired(found) == ["ML001"] * 3


def test_ml001_ignores_sleep_outside_and_deferred():
    module = parse("""
        import time
        def good(self):
            with self._lock:
                thunk = lambda: time.sleep(1)
                def later():
                    time.sleep(1)
            time.sleep(0.01)
            return thunk
    """)
    assert list(locks.check_blocking_under_lock(module)) == []


def test_ml001_ignores_condition_variables():
    # Condition waits release the lock — not matched as lock-named.
    module = parse("""
        def loop(self):
            with self._available:
                self._available.wait()
    """)
    assert list(locks.check_blocking_under_lock(module)) == []


def test_ml001_out_of_scope_file_skipped():
    module = parse("""
        import time
        def bad(self):
            with self._lock:
                time.sleep(1)
    """, relpath="scripts/bench.py")
    assert list(locks.check_blocking_under_lock(module)) == []


# ---------------------------------------------------------------------------
# ML002 — double-checked locking shape
# ---------------------------------------------------------------------------


def test_ml002_flags_missing_inner_recheck():
    module = parse("""
        def get():
            global _POOL
            if _POOL is None:
                with _LOCK:
                    _POOL = make()
            return _POOL
    """)
    found = list(locks.check_double_checked_locking(module))
    assert rules_fired(found) == ["ML002"]


def test_ml002_accepts_proper_dcl():
    module = parse("""
        def get():
            global _POOL
            pool = _POOL
            if pool is None:
                with _POOL_LOCK:
                    if _POOL is None:
                        _POOL = make()
                    pool = _POOL
            return pool
    """)
    assert list(locks.check_double_checked_locking(module)) == []


# ---------------------------------------------------------------------------
# ML003 — determinism discipline
# ---------------------------------------------------------------------------

CORE = "src/repro/core/x.py"


def test_ml003_flags_wall_clock_and_unseeded_rng():
    module = parse("""
        import random, time
        def bad():
            a = time.time()
            b = random.random()
            c = random.Random()
            return a, b, c
    """, relpath=CORE)
    found = list(determinism.check_determinism(module))
    assert rules_fired(found) == ["ML003"] * 3


def test_ml003_accepts_seeded_and_monotonic():
    module = parse("""
        import random, time
        def good(seed):
            rng = random.Random(seed)
            t0 = time.perf_counter()
            t1 = time.monotonic()
            return rng, t0, t1
    """, relpath=CORE)
    assert list(determinism.check_determinism(module)) == []


def test_ml003_only_in_deterministic_scope():
    module = parse("""
        import time
        def fine():
            return time.time()
    """, relpath="src/repro/observability/x.py")
    assert list(determinism.check_determinism(module)) == []


def test_ml003_covers_fault_harness():
    module = parse("""
        import random
        def bad():
            return random.choice([1, 2])
    """, relpath="src/repro/testing/faults.py")
    assert rules_fired(
        determinism.check_determinism(module)) == ["ML003"]


# ---------------------------------------------------------------------------
# ML004 — contextvar set/reset hygiene
# ---------------------------------------------------------------------------


def test_ml004_flags_discarded_token():
    module = parse("""
        import contextvars
        VAR = contextvars.ContextVar("v")
        def bad():
            VAR.set(1)
    """)
    found = list(contextvar_rules.check_contextvar_hygiene(module))
    assert rules_fired(found) == ["ML004"]
    assert "discarded" in found[0].message


def test_ml004_flags_reset_not_in_finally():
    module = parse("""
        import contextvars
        VAR = contextvars.ContextVar("v")
        def bad():
            token = VAR.set(1)
            work()
            VAR.reset(token)
    """)
    found = list(contextvar_rules.check_contextvar_hygiene(module))
    assert rules_fired(found) == ["ML004"]


def test_ml004_accepts_token_reset_in_finally():
    module = parse("""
        import contextvars
        VAR = contextvars.ContextVar("v")
        def good():
            token = VAR.set(1)
            try:
                work()
            finally:
                VAR.reset(token)
    """)
    assert list(
        contextvar_rules.check_contextvar_hygiene(module)) == []


def test_ml004_accepts_context_run_seeding():
    # Passing the bound method is the pool's task-seeding pattern.
    module = parse("""
        import contextvars
        VAR = contextvars.ContextVar("v")
        def good(ctx):
            ctx.run(VAR.set, 3)
    """)
    assert list(
        contextvar_rules.check_contextvar_hygiene(module)) == []


def test_ml004_ignores_event_set():
    module = parse("""
        import threading
        def good(task):
            task.done.set()
    """)
    assert list(
        contextvar_rules.check_contextvar_hygiene(module)) == []


# ---------------------------------------------------------------------------
# ML005 — import cycles (synthetic tree)
# ---------------------------------------------------------------------------


def _write_tree(root: Path, files: dict[str, str]) -> None:
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))


def test_ml005_detects_cycle_and_skips_type_checking(tmp_path):
    _write_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/a.py": "from repro.b import f\n",
        "src/repro/b.py": "from repro.a import g\n",
        "src/repro/c.py": """
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                from repro.a import g
        """,
    })
    result = run_lint(tmp_path, roots=("src/repro",),
                      allowlist_path=tmp_path / "missing.txt")
    cycles = [v for v in result.violations if v.rule == "ML005"]
    assert {v.path for v in cycles} == {
        "src/repro/a.py", "src/repro/b.py"}


def test_ml005_allows_init_reexports(tmp_path):
    _write_tree(tmp_path, {
        "src/repro/__init__.py": "from repro import a, b\n",
        "src/repro/a.py": "from repro.b import f\n",
        "src/repro/b.py": "def f():\n    pass\n",
    })
    result = run_lint(tmp_path, roots=("src/repro",),
                      allowlist_path=tmp_path / "missing.txt")
    assert [v for v in result.violations if v.rule == "ML005"] == []


def test_ml005_function_local_imports_break_cycles(tmp_path):
    _write_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/a.py": "from repro.b import f\n",
        "src/repro/b.py": """
            def g():
                from repro.a import thing
                return thing
        """,
    })
    result = run_lint(tmp_path, roots=("src/repro",),
                      allowlist_path=tmp_path / "missing.txt")
    assert [v for v in result.violations if v.rule == "ML005"] == []


# ---------------------------------------------------------------------------
# ML006 — env flag registry discipline (synthetic tree)
# ---------------------------------------------------------------------------

_REGISTRY = """
    FLAGS = {}
    def _flag(name, kind, default, description, section):
        FLAGS[name] = (kind, default, description, section)
    _flag("MUVE_GOOD", "switch", "on", "a flag", "Core")
"""


def test_ml006_flags_direct_reads_and_undeclared_names(tmp_path):
    _write_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/flags.py": _REGISTRY,
        "src/repro/user.py": """
            import os
            from repro.flags import env_switch

            def bad():
                a = os.environ.get("MUVE_GOOD")
                b = os.getenv("MUVE_GOOD")
                c = os.environ["MUVE_GOOD"]
                d = "MUVE_GOOD" in os.environ
                e = env_switch("MUVE_MISSING")
                name = "MUVE_GOOD"
                f = env_switch(name)
                return a, b, c, d, e, f

            def good(value):
                os.environ["MUVE_GOOD"] = value
                del os.environ["MUVE_GOOD"]
                return env_switch("MUVE_GOOD")
        """,
    })
    result = run_lint(tmp_path, roots=("src/repro",),
                      allowlist_path=tmp_path / "missing.txt")
    ml006 = [v for v in result.violations if v.rule == "ML006"]
    assert len(ml006) == 6
    assert all(v.path == "src/repro/user.py" for v in ml006)
    messages = "\n".join(v.message for v in ml006)
    assert "MUVE_MISSING" in messages
    assert "string literal" in messages


def test_ml006_non_literal_flag_declaration(tmp_path):
    _write_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/flags.py": textwrap.dedent(_REGISTRY) + (
            '\nNAME = "MUVE_DYN"\n'
            '_flag(NAME, "switch", "on", "dynamic", "Core")\n'),
    })
    result = run_lint(tmp_path, roots=("src/repro",),
                      allowlist_path=tmp_path / "missing.txt")
    assert [v.rule for v in result.violations] == ["ML006"]


# ---------------------------------------------------------------------------
# ML007 — silent broad excepts
# ---------------------------------------------------------------------------


def test_ml007_flags_silent_swallow():
    module = parse("""
        def bad():
            try:
                work()
            except Exception:
                pass
    """)
    found = list(exc_rules.check_broad_excepts(module))
    assert rules_fired(found) == ["ML007"]


def test_ml007_accepts_reraise_consume_and_counter():
    module = parse("""
        def good_reraise():
            try:
                work()
            except Exception:
                cleanup()
                raise

        def good_consume(self):
            try:
                work()
            except Exception as exc:
                self.error = exc

        def good_counter(self):
            try:
                work()
            except Exception:
                self.failures.increment("work")
    """)
    assert list(exc_rules.check_broad_excepts(module)) == []


def test_ml007_ignores_narrow_excepts():
    module = parse("""
        def fine():
            try:
                work()
            except ValueError:
                pass
    """)
    assert list(exc_rules.check_broad_excepts(module)) == []


# ---------------------------------------------------------------------------
# Allowlist mechanics
# ---------------------------------------------------------------------------


def test_allowlist_suppresses_and_reports_unused(tmp_path):
    _write_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/x.py": """
            import time
            _lock = object()
            def bad(self):
                with self._lock:
                    time.sleep(1)
        """,
    })
    allow = tmp_path / "allow.txt"
    allow.write_text(
        "ML001 src/repro/x.py::bad::_lock.sleep  # pinned behaviour\n"
        "ML001 src/repro/gone.py::f::_lock.sleep  # stale entry\n")
    result = run_lint(tmp_path, roots=("src/repro",),
                      allowlist_path=allow)
    assert len(result.suppressed) == 1
    assert [v.rule for v in result.violations] == ["ML000"]
    assert "gone.py" in result.violations[0].message


def test_allowlist_parser_ignores_comments(tmp_path):
    allow = tmp_path / "allow.txt"
    allow.write_text("# header\n\nKEY ONE  # why\n")
    assert load_allowlist(allow) == {"KEY ONE": "why"}


# ---------------------------------------------------------------------------
# The real repo is clean
# ---------------------------------------------------------------------------


def test_repo_is_lint_clean():
    result = run_lint(REPO_ROOT)
    rendered = "\n".join(v.render() for v in result.violations)
    assert result.ok, f"muvelint violations:\n{rendered}"
    assert result.files_checked > 100


def test_repo_registry_covers_all_flag_mentions():
    # Every MUVE_* token anywhere in src/ must be a declared flag —
    # catches docs/strings drifting from the registry.
    import re

    from tools.muvelint.rules.envflags import declared_flags
    modules = collect_modules(REPO_ROOT, roots=("src/repro",))
    registry = next(
        m for m in modules if m.relpath == "src/repro/flags.py")
    declared = set(declared_flags(registry.tree))
    mentioned = set()
    for module in modules:
        mentioned.update(
            re.findall(r"MUVE_[A-Z0-9_]+", module.source))
    assert mentioned <= declared, sorted(mentioned - declared)


def test_repo_registry_declares_only_read_flags():
    # The reverse: every declared flag must be read through a
    # repro.flags accessor somewhere in src/ or scripts/ outside the
    # registry, so a flag whose last reader was deleted cannot linger
    # in the registry (and the generated README table).
    import ast

    from tools.muvelint.rules.envflags import (
        _HELPERS,
        REGISTRY_PATH,
        declared_flags,
    )
    modules = collect_modules(REPO_ROOT, roots=("src/repro", "scripts"))
    registry = next(m for m in modules if m.relpath == REGISTRY_PATH)
    read = set()
    for module in modules:
        if module is registry:
            continue
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Call) and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and ast.unparse(node.func).rpartition(".")[2]
                    in _HELPERS):
                read.add(node.args[0].value)
    unread = set(declared_flags(registry.tree)) - read
    assert not unread, sorted(unread)
