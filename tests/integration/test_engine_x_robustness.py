"""Fault tolerance of the sqlite backend under the grid's supervisor.

Two failure families: an *environmental* fault (the engine's scratch
directory is unusable — simulated by pointing ``REPRO_ENGINE_X_TMPDIR`` at a
regular file, which breaks database creation even for root) and an *injected*
transient fault through :mod:`repro.faults`.  In both cases the grid
quarantines instead of crashing, never caches the failure, and an interrupted
or fixed rerun retries exactly the sqlite cells.
"""

import pytest

from repro.engine_x.executor import SQLiteExecutor, TMPDIR_ENV_VAR
from repro.grid.runner import run_grid
from repro.grid.spec import GridError, GridSpec, register_workload
from repro.workload.query import Query
from repro.workload.schema import Column, TableSchema
from repro.workload.workload import Workload


def _robust_workload(name: str) -> Workload:
    schema = TableSchema(
        f"{name}_table",
        [Column("a", 4), Column("b", 8), Column("c", 24)],
        50_000,
    )
    return Workload(
        schema,
        [Query("Q1", ["a", "b"]), Query("Q2", ["c"])],
        name=name,
    )


try:
    register_workload("exrobust:w", lambda: _robust_workload("exrobust"))
except GridError:
    pass

SPEC = GridSpec(
    name="sqlite-robust",
    algorithms=("hillclimb", "navathe"),
    workloads=("exrobust:w",),
    cost_models=("hdd",),
    backend="sqlite",
    measurement={"rows": 1_000},
)


@pytest.fixture
def broken_tmpdir(tmp_path, monkeypatch):
    """An unusable scratch location: a regular file where a directory must be.

    ``chmod`` tricks do not stop root, but ``mkstemp`` inside a regular file
    fails for every uid — the portable simulation of an unwritable temp dir.
    """
    decoy = tmp_path / "scratch"
    decoy.write_text("not a directory")
    monkeypatch.setenv(TMPDIR_ENV_VAR, str(decoy))
    return decoy


class TestUnusableScratchDirectory:
    def test_executor_constructor_raises(self, broken_tmpdir):
        workload = _robust_workload("ctor")
        from repro.core.partitioning import row_partitioning

        with pytest.raises(OSError):
            SQLiteExecutor(row_partitioning(workload.schema), rows=100)

    def test_cells_are_quarantined_not_crashed(self, broken_tmpdir, tmp_path):
        cache = tmp_path / "cache"
        report = run_grid(SPEC, cache_dir=str(cache))
        assert report.failed == 2 and report.computed == 0
        for result in report.failures:
            assert result.failure is not None
            assert "NotADirectoryError" in result.failure.error_type
        assert "Failures (quarantined cells)" in report.describe()

    def test_failures_never_cached_and_rerun_recovers(
        self, broken_tmpdir, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        first = run_grid(SPEC, cache_dir=str(cache))
        assert first.failed == 2

        # The environment is fixed: the very next run computes every cell
        # fresh — a failure must never be served from the cache.
        monkeypatch.delenv(TMPDIR_ENV_VAR)
        second = run_grid(SPEC, cache_dir=str(cache))
        assert second.failed == 0 and second.computed == 2
        assert all(result.execution is not None for result in second.results)

        # And now the cells are cached like any healthy sqlite cells.
        third = run_grid(SPEC, cache_dir=str(cache))
        assert third.cache_hits == 2


class TestInjectedFaults:
    def test_transient_sqlite_cell_recovers_with_retries(self, tmp_path):
        label = "hillclimb/exrobust:w/hdd [sqlite]"
        report = run_grid(
            SPEC,
            cache_dir=str(tmp_path),
            retries=2,
            retry_backoff=0.0,
            faults={label: {"kind": "raise", "times": 2,
                            "message": "flaky engine cell"}},
        )
        assert report.failed == 0
        flaky = next(r for r in report.results if r.cell.label == label)
        assert flaky.ok and flaky.attempts == 3
        assert flaky.execution is not None

    def test_exhausted_retries_quarantine_the_sqlite_cell(self, tmp_path):
        label = "navathe/exrobust:w/hdd [sqlite]"
        report = run_grid(
            SPEC,
            cache_dir=str(tmp_path),
            retries=1,
            retry_backoff=0.0,
            faults={label: {"kind": "raise", "times": 5,
                            "message": "still flaky"}},
        )
        assert report.failed == 1
        failed = next(r for r in report.results if r.cell.label == label)
        assert failed.failure is not None and failed.failure.attempts == 2
        # The healthy sibling cell completed and cached; a rerun without the
        # fault retries only the quarantined cell.
        clean = run_grid(SPEC, cache_dir=str(tmp_path))
        assert clean.failed == 0
        assert clean.cache_hits == 1 and clean.computed == 1
