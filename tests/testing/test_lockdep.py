"""Lockdep runtime checker: deliberate deadlock shapes must be caught.

The headline case: an ABBA lock-order inversion (two threads, opposite
acquisition order, no actual deadlock in the run — lockdep must still
flag it).
"""

from __future__ import annotations

import threading

import pytest

from repro.testing import lockdep


@pytest.fixture(autouse=True)
def _clean_state():
    lockdep.reset()
    yield
    lockdep.uninstall()
    lockdep.reset()


def _run(*targets):
    """Run each target in its own thread, strictly one after another —
    order violations must be caught without a real interleaving."""
    for target in targets:
        thread = threading.Thread(target=target)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_abba_inversion_is_flagged():
    a = lockdep.tracked_lock()
    b = lockdep.tracked_lock()

    def ab():
        with a:
            with b:
                pass

    def ba():
        with b:
            with a:
                pass

    _run(ab, ba)
    kinds = [v.kind for v in lockdep.get_state().violations]
    assert kinds == ["cycle"]
    detail = str(lockdep.get_state().violations[0])
    assert "lock-order cycle" in detail


def test_consistent_order_is_clean():
    a = lockdep.tracked_lock()
    b = lockdep.tracked_lock()

    def ab():
        with a:
            with b:
                pass

    _run(ab, ab, ab)
    assert lockdep.get_state().violations == []


def test_three_lock_cycle_is_flagged():
    a = lockdep.tracked_lock()
    b = lockdep.tracked_lock()
    c = lockdep.tracked_lock()

    def ab():
        with a, b:
            pass

    def bc():
        with b, c:
            pass

    def ca():
        with c, a:
            pass

    _run(ab, bc, ca)
    kinds = [v.kind for v in lockdep.get_state().violations]
    assert kinds == ["cycle"]


def test_strict_mode_raises_at_the_fault_site():
    lockdep.get_state().strict = True
    try:
        a = lockdep.tracked_lock()
        b = lockdep.tracked_lock()
        errors: list[BaseException] = []

        def ab():
            with a, b:
                pass

        def ba():
            try:
                with b:
                    a.acquire()
            except lockdep.LockdepError as exc:
                errors.append(exc)

        _run(ab, ba)
        assert len(errors) == 1
    finally:
        lockdep.get_state().strict = False


def test_reentrant_rlock_is_not_a_cycle():
    lock = lockdep.tracked_rlock()
    with lock:
        with lock:
            pass
    assert lockdep.get_state().violations == []


def test_tracked_lock_backs_a_condition():
    lock = lockdep.tracked_lock()
    cond = threading.Condition(lock)
    hits: list[int] = []

    def waiter():
        with cond:
            while not hits:
                cond.wait(timeout=5)
            hits.append(2)

    thread = threading.Thread(target=waiter)
    thread.start()
    with cond:
        hits.append(1)
        cond.notify()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert hits == [1, 2]
    assert lockdep.get_state().violations == []


def test_install_patches_and_uninstall_restores():
    real_lock = threading.Lock
    lockdep.install()
    try:
        assert threading.Lock is not real_lock
        made = threading.Lock()
        assert hasattr(made, "site")
    finally:
        lockdep.uninstall()
    assert threading.Lock is real_lock


def test_report_is_empty_when_clean():
    assert lockdep.report() == ""


def test_full_serving_request_under_lockdep_is_clean():
    """One end-to-end ask() with every lock tracked: the serving path
    must not contain an ordering inversion.
    """
    lockdep.install()
    try:
        from repro.datasets import make_nyc311_table
        from repro.muve import Muve
        from repro.sqldb.database import Database

        db = Database(seed=0)
        db.register_table(make_nyc311_table(num_rows=500, seed=0))
        muve = Muve(database=db, table_name="nyc311", seed=0)
        result = muve.ask("show complaints by borough")
        assert result is not None
    finally:
        lockdep.uninstall()
    assert lockdep.get_state().violations == []


def test_tracked_lock_supports_stdlib_fork_protocol():
    """Stdlib modules imported while lockdep is installed (e.g.
    ``concurrent.futures.thread``) register their module-level lock's
    ``_at_fork_reinit`` with ``os.register_at_fork`` at import time —
    the wrapper must expose the full lock surface, not just
    acquire/release."""
    lock = lockdep.tracked_lock()
    with lock:
        pass
    lock._at_fork_reinit()
    assert not lock.locked()
    assert lock.acquire(False)
    lock.release()


def test_thread_pool_executor_runs_under_install():
    lockdep.install()
    try:
        import concurrent.futures

        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            assert sorted(pool.map(lambda x: x * x, range(4))) == \
                [0, 1, 4, 9]
    finally:
        lockdep.uninstall()
    assert lockdep.get_state().violations == []
