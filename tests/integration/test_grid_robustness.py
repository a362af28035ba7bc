"""End-to-end tests of the grid's fault tolerance, driven by injected faults.

Every failure path of :mod:`repro.grid.runner` is exercised deterministically
through :mod:`repro.faults`: in-cell exceptions (quarantine + retries),
hung cells (per-cell timeouts), dead worker processes (crash detection and
respawn), cache I/O failures (graceful degradation), and the keep-going vs
fail-fast CLI semantics including interrupted-run resume under both ``fork``
and ``spawn`` start methods.

Parallel tests use builtin workload ids only: custom ``register_workload``
registrations do not exist inside ``spawn`` workers (they never import this
module), and the suite must behave identically under every start method.
"""

import multiprocessing
import os
import sys
import time

import pytest

from repro.faults import ENV_VAR, FaultPlan
from repro.grid import (
    GridExecutionError,
    GridSpec,
    headline_tables,
    run_grid,
)
from repro.grid import worker as grid_worker
from repro.grid.cli import main as grid_main
from repro.grid.runner import RetryPolicy
from repro.grid.spec import GridError, register_workload
from repro.workload.query import Query
from repro.workload.schema import Column, TableSchema
from repro.workload.workload import Workload

#: 2 algorithms x 1 workload x 2 cost models, resolvable inside any worker.
PARALLEL_SPEC = GridSpec(
    name="robust",
    algorithms=("hillclimb", "navathe"),
    workloads=("telemetry:small",),
    cost_models=("hdd", "mainmemory"),
)

AVAILABLE_START_METHODS = [
    method
    for method in ("fork", "spawn")
    if method in multiprocessing.get_all_start_methods()
]


def _tiny_workload(name: str) -> Workload:
    schema = TableSchema(
        f"{name}_table",
        [Column("a", 4), Column("b", 8), Column("c", 60), Column("d", 16)],
        200_000,
    )
    return Workload(
        schema,
        [Query("Q1", ["a", "b"]), Query("Q2", ["c"]), Query("Q3", ["a", "d"])],
        name=name,
    )


try:
    register_workload("robust:w", lambda: _tiny_workload("robust"))
except GridError:
    pass

#: Serial-path spec over the fast registered workload.
SERIAL_SPEC = GridSpec(
    name="robust-serial",
    algorithms=("hillclimb", "navathe"),
    workloads=("robust:w",),
    cost_models=("hdd",),
)


class TestAcceptance:
    """The issue's acceptance scenario: crash + hang + transient in one run."""

    def test_injected_crash_hang_transient_complete_without_aborting(self, tmp_path):
        faults = {
            "hillclimb/telemetry:small/hdd": {
                "kind": "raise", "times": 2, "message": "flaky cell",
            },
            "navathe/telemetry:small/hdd": {"kind": "die"},
            "hillclimb/telemetry:small/mainmemory": {"kind": "slow", "seconds": 30},
        }
        report = run_grid(
            PARALLEL_SPEC,
            cache_dir=str(tmp_path),
            workers=2,
            mp_start_method="fork" if "fork" in AVAILABLE_START_METHODS else None,
            retries=2,
            retry_backoff=0.0,
            cell_timeout=1.0,
            faults=faults,
        )
        assert len(report.results) == 4 and report.failed == 2

        transient = report.cell("hillclimb", "telemetry:small", "hdd")
        assert transient.ok and transient.attempts == 3

        crash = report.cell("navathe", "telemetry:small", "hdd")
        assert crash.failure is not None
        assert crash.failure.error_type == "WorkerCrash"
        assert crash.failure.attempts == 3
        assert "exit code 86" in crash.failure.message

        hang = report.cell("hillclimb", "telemetry:small", "mainmemory")
        assert hang.failure is not None
        assert hang.failure.error_type == "CellTimeout"
        assert hang.failure.attempts == 3

        clean = report.cell("navathe", "telemetry:small", "mainmemory")
        assert clean.ok and clean.attempts == 1

        # Failures are first-class rows in the headline tables...
        tables = headline_tables(report.results)
        assert "Failures (quarantined cells)" in tables
        assert "WorkerCrash" in tables and "CellTimeout" in tables
        # ... and in the report accounting.
        assert "2 failed" in report.accounting()

        # Successful cells were cached; failures were not, so a clean rerun
        # recomputes exactly the two lost cells and then everything is cached.
        rerun = run_grid(PARALLEL_SPEC, cache_dir=str(tmp_path))
        assert rerun.ok and rerun.cache_hits == 2 and rerun.computed == 2
        assert run_grid(PARALLEL_SPEC, cache_dir=str(tmp_path)).hit_rate == 1.0


class TestQuarantineSerial:
    def test_raising_cell_is_quarantined_and_run_continues(self):
        faults = {"hillclimb/robust:w/hdd": {"kind": "raise", "message": "boom"}}
        report = run_grid(SERIAL_SPEC, faults=faults)
        assert report.failed == 1 and not report.ok
        failed = report.cell("hillclimb", "robust:w", "hdd")
        assert failed.failure.error_type == "InjectedFaultError"
        assert failed.failure.message == "boom"
        assert failed.payload is None
        with pytest.raises(ValueError, match="boom"):
            failed.estimated_cost
        # The sibling cell completed normally.
        assert report.cell("navathe", "robust:w", "hdd").ok

    def test_transient_cell_succeeds_within_retry_budget(self):
        faults = {
            "hillclimb/robust:w/hdd": {"kind": "raise", "times": 2},
        }
        report = run_grid(SERIAL_SPEC, retries=2, retry_backoff=0.0, faults=faults)
        assert report.ok
        assert report.cell("hillclimb", "robust:w", "hdd").attempts == 3

    def test_transient_cell_fails_when_budget_too_small(self):
        faults = {
            "hillclimb/robust:w/hdd": {"kind": "raise", "times": 2},
        }
        report = run_grid(SERIAL_SPEC, retries=1, retry_backoff=0.0, faults=faults)
        failed = report.cell("hillclimb", "robust:w", "hdd")
        assert failed.failure is not None
        assert failed.failure.error_type == "InjectedFaultError"
        assert failed.failure.attempts == 2

    def test_die_fault_degrades_to_raise_serially(self):
        # A serial run executes cells in this very process; the fault layer
        # must not os._exit the test runner, and the run quarantines the cell.
        faults = {"hillclimb/robust:w/hdd": {"kind": "die", "message": "gone"}}
        report = run_grid(SERIAL_SPEC, faults=faults)
        failed = report.cell("hillclimb", "robust:w", "hdd")
        assert failed.failure.error_type == "WorkerThreadDeath"
        assert failed.failure.message == "gone"
        assert report.cell("navathe", "robust:w", "hdd").ok

    def test_fail_fast_aborts_with_context(self):
        faults = {"hillclimb/robust:w/hdd": {"kind": "raise", "message": "boom"}}
        with pytest.raises(GridExecutionError) as excinfo:
            run_grid(SERIAL_SPEC, faults=faults, fail_fast=True)
        assert excinfo.value.label == "hillclimb/robust:w/hdd"
        assert excinfo.value.error_type == "InjectedFaultError"
        assert excinfo.value.attempts == 1

    def test_fail_fast_keeps_completed_cells_cached(self, tmp_path):
        # The failing cell comes second in canonical order, so the first
        # completes and must be resumable from the cache after the abort.
        faults = {"navathe/robust:w/hdd": {"kind": "raise"}}
        with pytest.raises(GridExecutionError):
            run_grid(SERIAL_SPEC, cache_dir=str(tmp_path), faults=faults, fail_fast=True)
        resumed = run_grid(SERIAL_SPEC, cache_dir=str(tmp_path))
        assert resumed.ok and resumed.cache_hits == 1 and resumed.computed == 1

    def test_serial_timeout_request_warns_and_is_ignored(self):
        with pytest.warns(RuntimeWarning, match="cannot be preempted"):
            report = run_grid(SERIAL_SPEC, cell_timeout=30.0)
        assert report.ok

    def test_retry_policy_object_is_accepted(self):
        faults = {
            "hillclimb/robust:w/hdd": {"kind": "raise", "times": 1},
        }
        policy = RetryPolicy(retries=1, backoff_base=0.0)
        report = run_grid(SERIAL_SPEC, retries=policy, faults=faults)
        assert report.ok
        assert report.cell("hillclimb", "robust:w", "hdd").attempts == 2


class TestParallelFaults:
    def test_worker_crash_is_detected_and_other_cells_survive(self, tmp_path):
        faults = {"navathe/telemetry:small/hdd": {"kind": "die"}}
        report = run_grid(
            PARALLEL_SPEC, cache_dir=str(tmp_path), workers=2, faults=faults
        )
        assert report.failed == 1
        crash = report.cell("navathe", "telemetry:small", "hdd")
        assert crash.failure.error_type == "WorkerCrash"
        assert sum(1 for result in report.results if result.ok) == 3

    def test_hung_cell_is_killed_at_the_deadline(self, tmp_path):
        faults = {
            "hillclimb/telemetry:small/hdd": {"kind": "slow", "seconds": 60},
        }
        start = time.monotonic()
        report = run_grid(
            PARALLEL_SPEC,
            cache_dir=str(tmp_path),
            workers=2,
            cell_timeout=0.5,
            faults=faults,
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30.0  # nowhere near the 60s hang
        hung = report.cell("hillclimb", "telemetry:small", "hdd")
        assert hung.failure.error_type == "CellTimeout"
        assert sum(1 for result in report.results if result.ok) == 3

    @pytest.mark.skipif(
        "spawn" not in AVAILABLE_START_METHODS, reason="needs the spawn start method"
    )
    def test_spawned_worker_start_up_does_not_count_against_the_timeout(self):
        # A spawned worker spends ~0.5 s starting a fresh interpreter and
        # importing numpy and repro before it takes its first cell; these
        # cells then take ~5 ms each.  Only the cell's own time counts.
        spec = GridSpec(
            name="spawn-start-up",
            algorithms=("navathe",),
            workloads=("telemetry:small",),
            cost_models=("hdd", "mainmemory"),
        )
        report = run_grid(spec, workers=2, mp_start_method="spawn", cell_timeout=0.25)
        assert report.ok, [result.failure.describe() for result in report.failures]

    @pytest.mark.skipif(
        "fork" not in AVAILABLE_START_METHODS, reason="needs the fork start method"
    )
    def test_worker_dying_before_ready_is_a_crash_of_its_cell(self, monkeypatch):
        # Forked workers inherit the patch: each exits during start-up,
        # before its ready message, so no cell deadline was ever armed.
        monkeypatch.setattr(grid_worker, "initialize_worker", lambda: os._exit(3))
        report = run_grid(
            PARALLEL_SPEC, workers=2, mp_start_method="fork", cell_timeout=30.0
        )
        assert report.failed == 4
        for result in report.failures:
            assert result.failure.error_type == "WorkerCrash"
            assert "exit code 3" in result.failure.message

    def test_hang_below_timeout_merely_finishes_slowly(self):
        faults = {
            "hillclimb/telemetry:small/hdd": {"kind": "slow", "seconds": 0.2},
        }
        report = run_grid(
            PARALLEL_SPEC, workers=2, cell_timeout=30.0, faults=faults
        )
        assert report.ok

    def test_parallel_fail_fast_aborts(self, tmp_path):
        faults = {"hillclimb/telemetry:small/hdd": {"kind": "raise", "message": "boom"}}
        with pytest.raises(GridExecutionError):
            run_grid(
                PARALLEL_SPEC,
                cache_dir=str(tmp_path),
                workers=2,
                faults=faults,
                fail_fast=True,
            )


@pytest.mark.parametrize("start_method", AVAILABLE_START_METHODS)
class TestInterruptedRunResume:
    """A worker dying mid-grid must lose only its own cell, under fork and spawn."""

    def test_resume_recomputes_only_lost_cells(self, tmp_path, start_method):
        faults = {"navathe/telemetry:small/hdd": {"kind": "die"}}
        interrupted = run_grid(
            PARALLEL_SPEC,
            cache_dir=str(tmp_path),
            workers=2,
            mp_start_method=start_method,
            faults=faults,
        )
        assert interrupted.failed == 1
        assert interrupted.computed == 3

        resumed = run_grid(
            PARALLEL_SPEC,
            cache_dir=str(tmp_path),
            workers=2,
            mp_start_method=start_method,
        )
        assert resumed.ok
        assert resumed.cache_hits == 3 and resumed.computed == 1
        # The recomputed cell agrees with a fresh serial computation.
        recovered = resumed.cell("navathe", "telemetry:small", "hdd")
        reference = run_grid(PARALLEL_SPEC).cell("navathe", "telemetry:small", "hdd")
        assert recovered.layout == reference.layout
        assert recovered.estimated_cost == reference.estimated_cost


class TestCacheDegradation:
    def test_unwritable_cache_degrades_instead_of_raising(self, tmp_path):
        # The cache root is occupied by a *file*: every mkdir/read under it
        # fails with OSError, for root and unprivileged users alike.
        root = tmp_path / "cache"
        root.write_text("not a directory")
        with pytest.warns(RuntimeWarning, match="continuing without the cache"):
            report = run_grid(SERIAL_SPEC, cache_dir=str(root))
        assert report.ok and report.computed == 2
        assert report.cache.store_failures == 2
        assert "degraded: 2 store" in report.cache.describe()

    def test_degradation_warns_exactly_once(self, tmp_path):
        import warnings as warnings_module

        root = tmp_path / "cache"
        root.write_text("not a directory")
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            run_grid(SERIAL_SPEC, cache_dir=str(root))
        io_warnings = [
            w for w in caught if "continuing without the cache" in str(w.message)
        ]
        assert len(io_warnings) == 1

    def test_store_failure_counter_via_monkeypatched_oserror(self, tmp_path, monkeypatch):
        # Disk-full style failure on the atomic replace, not on mkdir.
        import os as os_module

        from repro.grid import cache as cache_module

        def explode(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache_module.os, "replace", explode)
        with pytest.warns(RuntimeWarning):
            report = run_grid(SERIAL_SPEC, cache_dir=str(tmp_path))
        assert report.ok
        assert report.cache.store_failures == 2
        assert report.cache.stores == 0


class TestCliFailureSemantics:
    CLI_ARGS = [
        "--grid", "tiny",
        "--algorithms", "hillclimb,navathe",
        "--workloads", "telemetry:small",
        "--cost-models", "hdd",
    ]
    FAULTS = FaultPlan.from_mapping(
        {"hillclimb/telemetry:small/hdd": {"kind": "raise", "message": "boom"}}
    )

    def test_keep_going_exits_zero_with_failure_summary(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(ENV_VAR, self.FAULTS.to_json())
        args = self.CLI_ARGS + ["--cache-dir", str(tmp_path / "cache")]
        assert grid_main(args) == 0
        captured = capsys.readouterr()
        assert "Failures (quarantined cells)" in captured.out
        assert "1 failed" in captured.out
        assert "1 of 2 cells failed" in captured.err
        assert "InjectedFaultError" in captured.err

    def test_fail_fast_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(ENV_VAR, self.FAULTS.to_json())
        args = self.CLI_ARGS + [
            "--cache-dir", str(tmp_path / "cache"), "--fail-fast",
        ]
        assert grid_main(args) == 1
        captured = capsys.readouterr()
        assert "fail-fast" in captured.err

    def test_retries_flag_recovers_transient_cell(self, tmp_path, monkeypatch, capsys):
        plan = FaultPlan.from_mapping(
            {
                "hillclimb/telemetry:small/hdd": {
                    "kind": "raise", "times": 2,
                }
            }
        )
        monkeypatch.setenv(ENV_VAR, plan.to_json())
        args = self.CLI_ARGS + [
            "--cache-dir", str(tmp_path / "cache"),
            "--retries", "2",
            "--retry-backoff", "0",
        ]
        assert grid_main(args) == 0
        captured = capsys.readouterr()
        assert "2 computed" in captured.out
        assert captured.err == ""

    def test_keep_going_and_fail_fast_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            grid_main(self.CLI_ARGS + ["--keep-going", "--fail-fast"])

    def test_invalid_timeout_rejected(self, capsys):
        with pytest.raises(SystemExit):
            grid_main(self.CLI_ARGS + ["--cell-timeout", "0"])

    def test_serial_timeout_note_is_printed(self, tmp_path, capsys):
        args = self.CLI_ARGS + [
            "--cache-dir", str(tmp_path / "cache"),
            "--cell-timeout", "30",
            "--workers", "1",
        ]
        with pytest.warns(RuntimeWarning, match="cannot be preempted"):
            assert grid_main(args) == 0
        assert "only enforced with --workers" in capsys.readouterr().err
