"""End-to-end tests of grid observability: traces, telemetry, and summaries.

The issue's acceptance scenario lives here: a fault-injected parallel grid is
run with ``--trace`` semantics and the resulting trace file must attribute
every retry, worker crash, and cell timeout to its cell — including spans
whose worker died mid-flight (SIGKILL, ``os._exit``) and therefore had to be
synthesized by the supervisor — and a clean rerun's trace must show the cells
being served from the result cache.

Worker spans travel back over the answer pipe, so the round-trip is exercised
under both ``fork`` and ``spawn`` start methods.  Parallel tests use builtin
workload ids only (custom registrations do not exist inside ``spawn``
workers).
"""

import multiprocessing
import threading

import pytest

from repro.cost.evaluator import clear_shared_caches, enable_cache_sharing
from repro.grid import GridSpec, run_grid
from repro.grid import worker as grid_worker
from repro.grid.cli import main as grid_main
from repro.grid.spec import GridError, register_workload
from repro.obs.__main__ import main as obs_main
from repro.obs.summary import summarize
from repro.obs.trace import read_trace
from repro.workload.query import Query
from repro.workload.schema import Column, TableSchema
from repro.workload.workload import Workload

#: 2 algorithms x 1 workload x 2 cost models, resolvable inside any worker.
PARALLEL_SPEC = GridSpec(
    name="obs-grid",
    algorithms=("hillclimb", "navathe"),
    workloads=("telemetry:small",),
    cost_models=("hdd", "mainmemory"),
)

AVAILABLE_START_METHODS = [
    method
    for method in ("fork", "spawn")
    if method in multiprocessing.get_all_start_methods()
]


def _obs_workload() -> Workload:
    schema = TableSchema(
        "obs_table",
        [Column("a", 4), Column("b", 8), Column("c", 60), Column("d", 16)],
        200_000,
    )
    return Workload(
        schema,
        [Query("Q1", ["a", "b"]), Query("Q2", ["c"]), Query("Q3", ["a", "d"])],
        name="obs",
    )


try:
    register_workload("obs:w", _obs_workload)
except GridError:
    pass

#: Serial-path spec over the fast registered workload.
SERIAL_SPEC = GridSpec(
    name="obs-serial",
    algorithms=("hillclimb", "navathe"),
    workloads=("obs:w",),
    cost_models=("hdd",),
)


class TestWorkerSpanRoundTrip:
    """Worker-side spans must reach the supervisor's trace over the pipe."""

    @pytest.mark.parametrize("method", AVAILABLE_START_METHODS)
    def test_clean_parallel_run_round_trips_spans(self, tmp_path, method):
        trace_path = tmp_path / "trace.jsonl"
        report = run_grid(
            PARALLEL_SPEC,
            cache_dir=str(tmp_path / "cache"),
            workers=2,
            mp_start_method=method,
            trace=str(trace_path),
        )
        assert report.ok

        digest = summarize(str(trace_path))
        labels = {cell.label for cell in PARALLEL_SPEC.cells()}
        assert set(digest.cells) == labels
        for cell in digest.cells.values():
            assert cell.attempts == 1
            assert cell.status == "ok"
            assert cell.wall > 0.0
        assert list(digest.phases) == [
            "grid.resolve", "grid.cache-scan", "grid.execute",
        ]

        # The workers' *inner* spans came over the pipe too, re-parented
        # under the supervisor's execute phase via their grid.cell span.
        _, records = read_trace(str(trace_path))
        spans = [r for r in records if r.get("type") == "span"]
        compute = [s for s in spans if s["name"] == "algorithm.compute"]
        assert len(compute) == len(labels)
        cell_ids = {s["id"] for s in spans if s["name"] == "grid.cell"}
        assert all(s["parent"] in cell_ids for s in compute)

        # Worker metrics deltas were merged into the run's final record.
        assert digest.counter("grid.cells.computed") == len(labels)
        assert digest.counter("cost.evaluator.memo.misses") > 0

    def test_serial_run_traces_the_same_tree_shape(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        report = run_grid(
            SERIAL_SPEC, cache_dir=str(tmp_path / "cache"), trace=str(trace_path)
        )
        assert report.ok
        digest = summarize(str(trace_path))
        assert set(digest.cells) == {cell.label for cell in SERIAL_SPEC.cells()}
        assert all(c.status == "ok" for c in digest.cells.values())


    @pytest.mark.skipif(
        "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="needs the forkserver start method",
    )
    def test_traced_forkserver_run_after_an_untraced_one_ships_worker_spans(
        self, tmp_path
    ):
        # The forkserver may start during the untraced run; the traced run's
        # workers must still be told, per task, to ship their spans.
        assert run_grid(PARALLEL_SPEC, workers=2, mp_start_method="forkserver").ok
        trace_path = tmp_path / "trace.jsonl"
        report = run_grid(
            PARALLEL_SPEC, workers=2, mp_start_method="forkserver",
            trace=str(trace_path),
        )
        assert report.ok
        _, records = read_trace(str(trace_path))
        cells = [
            r for r in records if r.get("type") == "span" and r["name"] == "grid.cell"
        ]
        assert sorted(r["attrs"]["cell"] for r in cells) == sorted(
            cell.label for cell in PARALLEL_SPEC.cells()
        )
        # Shipped by the workers (which stamp their pid), not synthesized.
        assert all("pid" in r["attrs"] for r in cells)


class TestPerThreadTracing:
    """Tracing state is per thread: concurrent runs never share a trace."""

    def test_concurrent_runs_trace_into_their_own_files(self, tmp_path):
        runs = {
            name: GridSpec(
                name=name,
                algorithms=("hillclimb", "navathe", "autopart"),
                workloads=("obs:w",),
                cost_models=(cost_model,),
            )
            for name, cost_model in (
                ("traced-a", "hdd"),
                ("traced-b", "mainmemory"),
                ("untraced", "hdd:small-buffer"),
            )
        }
        paths = {name: tmp_path / f"{name}.jsonl" for name in ("traced-a", "traced-b")}
        # Lockstep: every run finishes a cell only when all three did, so
        # their cells interleave.
        barrier = threading.Barrier(len(runs), timeout=60)
        errors = []

        def run(name):
            try:
                path = paths.get(name)
                report = run_grid(
                    runs[name],
                    trace=str(path) if path is not None else None,
                    progress=lambda line: barrier.wait(),
                )
                assert report.ok
            except Exception as error:  # reported by the main thread
                barrier.abort()
                errors.append(error)

        # Serial runs switch cache sharing and seed the worker memos for
        # their duration; held here, no run's restore undoes another's.
        sharing = enable_cache_sharing(True)
        workloads = dict(grid_worker._workloads)
        cost_models = dict(grid_worker._cost_models)
        try:
            threads = [threading.Thread(target=run, args=(name,)) for name in runs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            enable_cache_sharing(sharing)
            if not sharing:
                clear_shared_caches()
            grid_worker._workloads.clear()
            grid_worker._workloads.update(workloads)
            grid_worker._cost_models.clear()
            grid_worker._cost_models.update(cost_models)
        assert not errors, errors

        for name, path in paths.items():
            meta, records = read_trace(str(path))
            spans = [r for r in records if r.get("type") == "span"]
            cells = [s["attrs"]["cell"] for s in spans if s["name"] == "grid.cell"]
            assert sorted(cells) == sorted(c.label for c in runs[name].cells())
            known = {meta["root"]} | {s["id"] for s in spans}
            for record in records:
                if record.get("type") in ("span", "event"):
                    assert record["parent"] in known, (name, record)


class TestFaultAttribution:
    """The acceptance scenario: every fault attributed to its cell."""

    FAULTS = {
        "hillclimb/telemetry:small/hdd": {
            "kind": "raise", "times": 2, "message": "flaky cell",
        },
        "navathe/telemetry:small/hdd": {"kind": "die"},
        "hillclimb/telemetry:small/mainmemory": {"kind": "slow", "seconds": 30},
    }

    @pytest.mark.parametrize("method", AVAILABLE_START_METHODS)
    def test_trace_attributes_every_retry_crash_and_timeout(
        self, tmp_path, method
    ):
        first_trace = tmp_path / "faulty.jsonl"
        report = run_grid(
            PARALLEL_SPEC,
            cache_dir=str(tmp_path / "cache"),
            workers=2,
            mp_start_method=method,
            retries=2,
            retry_backoff=0.0,
            cell_timeout=1.0,
            faults=self.FAULTS,
            trace=str(first_trace),
        )
        assert report.failed == 2

        digest = summarize(str(first_trace))

        # Transient cell: two failing attempts shipped their spans from the
        # worker, the third succeeded; both retries attributed.
        flaky = digest.cells["hillclimb/telemetry:small/hdd"]
        assert flaky.attempts == 3
        assert flaky.retries == 2
        assert flaky.status == "ok"

        # Crashed cell: the worker died mid-span (os._exit), so all three
        # attempt spans are supervisor-synthesized with the exit code.
        dead = digest.cells["navathe/telemetry:small/hdd"]
        assert dead.attempts == 3
        assert dead.crashes == 3
        assert dead.retries == 2
        assert dead.status == "error"
        assert any("exit code 86" in error for error in dead.errors)

        # Hung cell: SIGKILLed at the timeout on every attempt.
        hung = digest.cells["hillclimb/telemetry:small/mainmemory"]
        assert hung.attempts == 3
        assert hung.timeouts == 3
        assert hung.retries == 2
        assert hung.status == "error"

        # Clean cell: untouched by the faults.
        clean = digest.cells["navathe/telemetry:small/mainmemory"]
        assert clean.attempts == 1 and clean.status == "ok"

        assert {c.label for c in digest.failed_cells} == {
            "navathe/telemetry:small/hdd",
            "hillclimb/telemetry:small/mainmemory",
        }

        # Run-level fault counters agree with the per-cell attribution.
        assert digest.counter("grid.retry.attempts") == 6
        assert digest.counter("grid.worker.crashes") == 3
        assert digest.counter("grid.cell.timeouts") == 3
        assert report.telemetry.retries == 6
        assert report.telemetry.worker_crashes == 3
        assert report.telemetry.cell_timeouts == 3

        # Synthesized spans are marked as such in the raw trace.
        _, records = read_trace(str(first_trace))
        synthesized = [
            r
            for r in records
            if r.get("type") == "span" and (r.get("attrs") or {}).get("synthesized")
        ]
        assert len(synthesized) == 6  # 3 crashes + 3 timeouts

        # A clean rerun recomputes only the quarantined cells and its trace
        # records the successful cells coming from the result cache.
        rerun_trace = tmp_path / "rerun.jsonl"
        rerun = run_grid(
            PARALLEL_SPEC, cache_dir=str(tmp_path / "cache"), trace=str(rerun_trace)
        )
        assert rerun.ok and rerun.cache_hits == 2
        rerun_digest = summarize(str(rerun_trace))
        assert rerun_digest.cache_hits == 2
        assert rerun_digest.counter("grid.cache.hits") == 2

        final_trace = tmp_path / "final.jsonl"
        final = run_grid(
            PARALLEL_SPEC, cache_dir=str(tmp_path / "cache"), trace=str(final_trace)
        )
        assert final.hit_rate == 1.0
        assert summarize(str(final_trace)).cache_hits == 4


class TestRunTelemetry:
    def test_telemetry_attached_without_tracing(self, tmp_path):
        report = run_grid(SERIAL_SPEC, cache_dir=str(tmp_path / "cache"))
        telemetry = report.telemetry
        assert telemetry is not None
        assert telemetry.run == SERIAL_SPEC.name
        assert telemetry.cells_total == 2
        assert telemetry.cells_computed == 2
        assert telemetry.cache_stores == 2
        assert telemetry.trace_path is None
        assert telemetry.wall_seconds > 0.0
        assert set(telemetry.phases) == {
            "grid.resolve", "grid.cache-scan", "grid.execute",
        }
        described = telemetry.describe()
        assert "telemetry:" in described
        assert "2 computed" in described
        assert "trace:" not in described

    def test_telemetry_counts_cache_hits_on_resume(self, tmp_path):
        run_grid(SERIAL_SPEC, cache_dir=str(tmp_path / "cache"))
        again = run_grid(SERIAL_SPEC, cache_dir=str(tmp_path / "cache"))
        assert again.telemetry.cells_cached == 2
        assert again.telemetry.cells_computed == 0

    def test_to_dict_is_json_shaped(self, tmp_path):
        import json

        report = run_grid(SERIAL_SPEC, cache_dir=str(tmp_path / "cache"))
        payload = report.telemetry.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["cells"]["total"] == 2


class TestCacheFailureSurfacing:
    """Satellite: cache I/O failure counters reach the report and the CLI."""

    def test_store_failures_surface_on_the_report(self, tmp_path, monkeypatch):
        from repro.grid import cache as cache_module

        def explode(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache_module.os, "replace", explode)
        with pytest.warns(RuntimeWarning):
            report = run_grid(SERIAL_SPEC, cache_dir=str(tmp_path / "cache"))
        assert report.ok
        assert report.cache_store_failures == 2
        assert report.cache_load_failures == 0
        assert report.cache_degraded
        assert report.telemetry.cache_store_failures == 2
        assert "degraded: 2 store / 0 load I/O failures" in report.telemetry.describe()

    def test_cli_warns_on_degraded_cache(self, tmp_path, monkeypatch, capsys):
        from repro.grid import cache as cache_module

        def explode(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache_module.os, "replace", explode)
        args = [
            "--grid", "tiny",
            "--algorithms", "hillclimb",
            "--workloads", "telemetry:small",
            "--cost-models", "hdd",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        with pytest.warns(RuntimeWarning):
            assert grid_main(args) == 0
        err = capsys.readouterr().err
        assert "result cache degraded: 1 store / 0 load I/O failures" in err


class TestCliTraceFlag:
    ARGS = [
        "--grid", "tiny",
        "--algorithms", "hillclimb",
        "--workloads", "telemetry:small",
        "--cost-models", "hdd",
    ]

    def test_trace_flag_writes_a_summarizable_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        args = self.ARGS + [
            "--cache-dir", str(tmp_path / "cache"), "--trace", str(trace_path),
        ]
        assert grid_main(args) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert str(trace_path) in out

        # The summary CLI parses what the grid CLI wrote.
        assert obs_main(["summary", str(trace_path)]) == 0
        summary_out = capsys.readouterr().out
        assert "run=tiny+custom" in summary_out
        assert "grid.execute" in summary_out
        assert "1 computed" in summary_out

    def test_resumed_run_trace_reports_cache_hits(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert grid_main(self.ARGS + cache) == 0
        assert (
            grid_main(self.ARGS + cache + ["--trace", str(trace_path)]) == 0
        )
        capsys.readouterr()
        digest = summarize(str(trace_path))
        assert digest.cache_hits == 1
        assert digest.counter("grid.cache.hits") == 1
