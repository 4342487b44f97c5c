"""Cache warming builds every statistics and index structure up front."""

from __future__ import annotations

from repro.execution.parallel import warm_database


class TestWarmDatabase:
    def test_builds_every_structure(self, emp_db):
        # emp: 4 columns (2 numeric) -> 1 statistics + 4 inverted
        # indexes + 2 sorted projections.
        assert warm_database(emp_db, ["emp"]) == 7
        indexes = emp_db.table("emp").indexes()
        assert len(indexes._inverted) == 4
        assert len(indexes._projections) == 2
