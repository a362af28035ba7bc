"""Unit tests for the grid runner: cache resume, serial/parallel parity, CLI."""

import json

import pytest

from repro.core.advisor import LayoutAdvisor
from repro.cost.evaluator import CostEvaluator, cache_sharing_enabled, enable_cache_sharing
from repro.cost.hdd import HDDCostModel
from repro.grid.cache import canonical_json, deterministic_payload
from repro.grid.cli import main as grid_main
from repro.grid.runner import RetryPolicy, run_grid
from repro.grid.spec import (
    GridError,
    GridSpec,
    builtin_grid,
    register_workload,
    resolve_cost_model,
    resolve_workload,
)
from repro.workload.query import Query
from repro.workload.schema import Column, TableSchema
from repro.workload.workload import Workload


def _tiny_workload(name: str, weight: float = 1.0) -> Workload:
    schema = TableSchema(
        f"{name}_table",
        [Column("a", 4), Column("b", 8), Column("c", 60), Column("d", 16)],
        200_000,
    )
    return Workload(
        schema,
        [
            Query("Q1", ["a", "b"], weight=weight),
            Query("Q2", ["c"]),
            Query("Q3", ["a", "c", "d"], weight=0.5),
        ],
        name=name,
    )


# Registered once per test session; factories are deterministic as the cache
# requires.
for _name in ("alpha", "beta"):
    try:
        register_workload(f"custom:{_name}", lambda _n=_name: _tiny_workload(_n))
    except GridError:
        pass

SPEC = GridSpec(
    name="unit",
    algorithms=("hillclimb", "navathe"),
    workloads=("custom:alpha", "custom:beta"),
    cost_models=("hdd", "mainmemory"),
)


class TestSpec:
    def test_cells_cover_cross_product_deterministically(self):
        cells = SPEC.cells()
        assert len(cells) == SPEC.cell_count == 8
        assert cells == SPEC.cells()
        assert len({cell.label for cell in cells}) == 8
        # Workload-major ordering keeps same-schema cells adjacent.
        assert [c.workload for c in cells[:4]] == ["custom:alpha"] * 4

    def test_algorithm_options_reach_cells(self):
        spec = GridSpec(
            name="opts",
            algorithms=("hillclimb",),
            workloads=("custom:alpha",),
            cost_models=("hdd",),
            algorithm_options={"hillclimb": {"naive_costing": True}},
        )
        assert spec.cells()[0].options() == {"naive_costing": True}

    def test_unknown_ids_raise(self):
        with pytest.raises(GridError):
            resolve_workload("nope:whatever")
        with pytest.raises(GridError):
            resolve_cost_model("nope")
        with pytest.raises(GridError):
            builtin_grid("nope")

    def test_builtin_workload_ids_resolve(self):
        for grid_name in ("tiny", "small"):
            spec = builtin_grid(grid_name)
            for workload_id in spec.workloads:
                assert resolve_workload(workload_id).query_count > 0
            for cost_model_id in spec.cost_models:
                resolve_cost_model(cost_model_id)


class TestRunGrid:
    def test_uncached_run_completes(self):
        report = run_grid(SPEC, cache_dir=None)
        assert len(report.results) == 8
        assert report.cache_hits == 0 and report.computed == 8
        cell = report.cell("hillclimb", "custom:alpha", "hdd")
        assert cell.estimated_cost > 0
        assert sorted(sum(map(list, cell.layout), [])) == ["a", "b", "c", "d"]

    def test_second_run_is_fully_cached_and_identical(self, tmp_path):
        first = run_grid(SPEC, cache_dir=str(tmp_path))
        second = run_grid(SPEC, cache_dir=str(tmp_path))
        assert first.computed == 8 and first.cache_hits == 0
        assert second.computed == 0 and second.cache_hits == 8
        assert second.hit_rate == 1.0
        for a, b in zip(first.results, second.results):
            assert a.cell == b.cell
            # Cached cells are byte-identical to the fresh computation,
            # including the wall-clock timing the cache preserved.
            assert canonical_json(a.payload).encode() == canonical_json(b.payload).encode()
        # Aggregate tables are reproduced exactly from the cache.
        from repro.grid.aggregate import headline_tables

        assert headline_tables(first.results) == headline_tables(second.results)

    def test_corrupted_entry_is_recomputed_and_repaired(self, tmp_path):
        first = run_grid(SPEC, cache_dir=str(tmp_path))
        victim = first.results[0]
        path = first.cache.path_for(victim.key)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["payload"]["estimated_cost"] = -1.0
        path.write_text(json.dumps(entry), encoding="utf-8")

        second = run_grid(SPEC, cache_dir=str(tmp_path))
        assert second.computed == 1 and second.cache_hits == 7
        assert second.cache.corrupt == 1
        repaired = second.results[0]
        # The recomputation reproduces the deterministic result exactly (its
        # wall-clock timing section legitimately differs).
        assert deterministic_payload(repaired.payload) == deterministic_payload(
            victim.payload
        )
        # The entry on disk is valid again.
        third = run_grid(SPEC, cache_dir=str(tmp_path))
        assert third.cache_hits == 8

    def test_refresh_recomputes_despite_cache(self, tmp_path):
        run_grid(SPEC, cache_dir=str(tmp_path))
        refreshed = run_grid(SPEC, cache_dir=str(tmp_path), refresh=True)
        assert refreshed.computed == 8 and refreshed.cache_hits == 0

    def test_parallel_matches_serial_cell_for_cell(self, tmp_path):
        serial = run_grid(SPEC, cache_dir=None, workers=1)
        parallel = run_grid(SPEC, cache_dir=str(tmp_path / "par"), workers=3)
        assert parallel.computed == 8
        for s, p in zip(serial.results, parallel.results):
            assert s.cell == p.cell
            assert s.layout == p.layout
            assert s.estimated_cost == p.estimated_cost
            det_s = canonical_json(deterministic_payload(s.payload))
            det_p = canonical_json(deterministic_payload(p.payload))
            assert det_s.encode() == det_p.encode()

    def test_progress_callback_sees_every_cell(self, tmp_path):
        lines = []
        run_grid(SPEC, cache_dir=str(tmp_path), progress=lines.append)
        assert len(lines) == 8
        assert all(line.startswith("computed") for line in lines)
        lines.clear()
        run_grid(SPEC, cache_dir=str(tmp_path), progress=lines.append)
        assert all(line.startswith("cached") for line in lines)

    def test_serial_run_restores_cache_sharing_setting(self):
        assert not cache_sharing_enabled()
        run_grid(SPEC, cache_dir=None)
        assert not cache_sharing_enabled()

    def test_serial_run_restores_worker_memos(self):
        """Regression: the serial path primes the worker module's
        process-local workload/cost-model memos and used to leave its own
        entries behind, leaking one run's resolver results into the next."""
        from repro.grid import worker as grid_worker

        workloads_before = dict(grid_worker._workloads)
        cost_models_before = dict(grid_worker._cost_models)
        run_grid(SPEC, cache_dir=None)
        assert grid_worker._workloads == workloads_before
        assert grid_worker._cost_models == cost_models_before

    def test_cell_lookup_disambiguates_backends(self):
        """Regression: ``GridReport.cell()`` ignored the backend axis, so a
        mixed estimated+measured result list silently returned whichever
        backend sorted first."""
        from repro.grid.runner import CellResult, GridReport
        from repro.grid.spec import GridCell

        results = []
        for backend in ("estimated", "measured"):
            cell = GridCell(
                algorithm="hillclimb",
                workload="custom:alpha",
                cost_model="hdd",
                backend=backend,
            )
            results.append(
                CellResult(
                    cell=cell,
                    key=f"key-{backend}",
                    payload={"estimated_cost": 1.0, "backend": backend},
                    cached=False,
                )
            )
        report = GridReport(spec=SPEC, results=results)
        with pytest.raises(KeyError, match="ambiguous"):
            report.cell("hillclimb", "custom:alpha", "hdd")
        measured = report.cell("hillclimb", "custom:alpha", "hdd", backend="measured")
        assert measured.payload["backend"] == "measured"
        with pytest.raises(KeyError):
            report.cell("hillclimb", "custom:alpha", "hdd", backend="sampled")


class TestEvaluatorCacheSharing:
    def test_shared_caches_are_adopted_and_exact(self):
        workload = _tiny_workload("sharing")
        model = HDDCostModel()
        groups = [frozenset({0, 1}), frozenset({2}), frozenset({3})]
        baseline = CostEvaluator(workload, model).evaluate(groups)
        previous = enable_cache_sharing(True)
        try:
            first = CostEvaluator(workload, model)
            second = CostEvaluator(workload, model)
            assert first._signature_costs is second._signature_costs
            assert first.evaluate(groups) == baseline
            assert second.evaluate(groups) == baseline
        finally:
            enable_cache_sharing(previous)
        # With sharing off, evaluators return to private caches.
        third = CostEvaluator(workload, model)
        assert third._signature_costs is not first._signature_costs

    def test_sharing_distinguishes_buffer_sharing_policies(self):
        """Regression: the pool is keyed by describe(), which must spell out
        every behavioural knob — 'hdd' and 'hdd:equal' once collided on one
        cache and served each other's co-read costs."""
        from repro.core.partitioning import Partitioning

        workload = _tiny_workload("policies")
        groups = [frozenset({i}) for i in range(4)]
        proportional = HDDCostModel()
        equal = HDDCostModel(buffer_sharing="equal")
        layout = Partitioning(workload.schema, groups)
        expected_proportional = proportional.workload_cost(workload, layout)
        expected_equal = equal.workload_cost(workload, layout)
        assert expected_proportional != expected_equal
        previous = enable_cache_sharing(True)
        try:
            assert (
                CostEvaluator(workload, proportional).evaluate(groups)
                == expected_proportional
            )
            assert CostEvaluator(workload, equal).evaluate(groups) == expected_equal
        finally:
            enable_cache_sharing(previous)


class TestAdvisorCompare:
    def test_compare_builds_grid_from_advisor_config(self, tmp_path):
        advisor = LayoutAdvisor(algorithms=("hillclimb",))
        report = advisor.compare(
            workloads=("custom:alpha",),
            cost_models=("hdd",),
            cache_dir=str(tmp_path),
        )
        assert len(report.results) == 1
        assert report.results[0].cell.algorithm == "hillclimb"
        again = advisor.compare(
            workloads=("custom:alpha",),
            cost_models=("hdd",),
            cache_dir=str(tmp_path),
        )
        assert again.cache_hits == 1

    def test_compare_requires_workloads_or_grid(self):
        with pytest.raises(ValueError):
            LayoutAdvisor().compare()

    def test_compare_forwards_trace_and_returns_telemetry(self, tmp_path):
        """Regression: compare() used to drop the observability knobs on the
        floor — a trace path never reached run_grid, so tracing a comparison
        required bypassing the advisor API entirely."""
        from repro.obs.trace import read_trace

        trace_path = str(tmp_path / "compare.jsonl")
        advisor = LayoutAdvisor(algorithms=("hillclimb",))
        report = advisor.compare(
            workloads=("custom:alpha",),
            cost_models=("hdd",),
            cache_dir=str(tmp_path / "cache"),
            trace=trace_path,
        )
        header, records = read_trace(trace_path)
        names = {record.get("name") for record in records}
        assert "grid.execute" in names
        assert any(
            record.get("name") == "grid.cell" for record in records
        ), names
        # The telemetry summary rides along on the report, untouched.
        assert report.telemetry is not None
        assert report.telemetry.trace_path == trace_path
        assert report.telemetry.cells_computed == 1

    def test_compare_quiet_flag_controls_progress(self, tmp_path, capsys):
        advisor = LayoutAdvisor(algorithms=("hillclimb",))
        advisor.compare(
            workloads=("custom:alpha",), cost_models=("hdd",),
            cache_dir=str(tmp_path),
        )
        assert capsys.readouterr().out == ""  # quiet is the default
        advisor.compare(
            workloads=("custom:alpha",), cost_models=("hdd",),
            cache_dir=str(tmp_path), quiet=False,
        )
        assert "cached   hillclimb/custom:alpha/hdd" in capsys.readouterr().out
        lines = []
        advisor.compare(
            workloads=("custom:alpha",), cost_models=("hdd",),
            cache_dir=str(tmp_path), progress=lines.append,
        )
        assert lines == ["cached   hillclimb/custom:alpha/hdd"]


class TestCli:
    def test_cli_runs_and_reports_cache_hits(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cli-cache")
        args = [
            "--grid", "tiny",
            "--algorithms", "hillclimb,navathe",
            "--workloads", "custom:alpha",
            "--cost-models", "hdd",
            "--cache-dir", cache_dir,
        ]
        assert grid_main(args) == 0
        first = capsys.readouterr().out
        assert "2 cells" in first
        assert "2 computed" in first
        assert "Layout quality" in first

        assert grid_main(args) == 0
        second = capsys.readouterr().out
        assert "100.0% cache hits" in second
        # The tables themselves (not the trailing telemetry block, whose
        # timings differ run to run) are reproduced identically from the cache.
        assert (
            first.split("Layout quality")[1].split("\ntelemetry:")[0]
            == second.split("Layout quality")[1].split("\ntelemetry:")[0]
        )

    def test_cli_no_cache(self, capsys):
        args = [
            "--grid", "tiny",
            "--algorithms", "hillclimb",
            "--workloads", "custom:alpha",
            "--cost-models", "hdd",
            "--no-cache",
        ]
        assert grid_main(args) == 0
        out = capsys.readouterr().out
        assert "1 computed" in out

    def test_cli_rejects_unknown_grid(self, capsys):
        with pytest.raises(SystemExit):
            grid_main(["--grid", "nope", "--quiet"])


class TestRetryPolicy:
    def test_max_attempts(self):
        assert RetryPolicy().max_attempts == 1
        assert RetryPolicy(retries=2).max_attempts == 3

    def test_negative_budgets_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-0.1)

    def test_delay_is_deterministic(self):
        policy = RetryPolicy(retries=3, backoff_base=0.1)
        for attempt in (1, 2, 3):
            assert policy.delay("a/b/c", attempt) == policy.delay("a/b/c", attempt)

    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(retries=10, backoff_base=0.1, backoff_cap=0.4)
        # Jitter scales by [0.5, 1.0], so compare against the raw schedule.
        for attempt in range(1, 8):
            raw = min(0.4, 0.1 * 2 ** (attempt - 1))
            delay = policy.delay("cell", attempt)
            assert 0.5 * raw <= delay <= raw

    def test_jitter_decorrelates_cells(self):
        policy = RetryPolicy(retries=1, backoff_base=1.0, backoff_cap=10.0)
        delays = {policy.delay(f"cell-{i}/w/m", 1) for i in range(16)}
        # A batch of simultaneous failures must not retry in lockstep.
        assert len(delays) > 1

    def test_zero_base_means_no_delay(self):
        policy = RetryPolicy(retries=5, backoff_base=0.0)
        assert policy.delay("cell", 3) == 0.0
