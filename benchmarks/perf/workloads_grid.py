"""The grid workloads: ``grid-cold`` and ``grid-resume``.

Both call ``run_grid(workers=2)`` in this process on the seeded spec.  A
cold run starts from an empty result cache and computes every cell; a
resumed run finds every cell in a cache one untimed cold run filled, so it
does no algorithm work at all.  Every cell must be ok, and each cell's
deterministic payload (``repro.grid.cache.deterministic_payload``) must hash
the same in every run of the workload.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.grid import runner
from repro.grid.cache import canonical_json, deterministic_payload
from repro.obs import metrics as obs_metrics
from repro.obs.trace import read_trace

from . import inputs
from .common import (
    ROOT,
    RunResult,
    Sampler,
    WorkDir,
    child_env,
    end_to_end,
    median,
    op_log,
    safe_ratio,
    summarize,
)
from .layers import GridRunTrace, LayerInputs, Op, derive
from .probes import Recorder, installed

WORKERS = 2

#: A fresh interpreter's path to ready for a grid run: import the grid
#: package, then resolve every workload and cost model of the spec.
_SETUP_CODE = """\
import json, sys
import repro.grid
from repro.grid.spec import resolve_cost_model, resolve_workload
spec = json.loads(sys.argv[1])
for workload_id in spec["workloads"]:
    resolve_workload(workload_id)
for cost_model_id in spec["cost_models"]:
    resolve_cost_model(cost_model_id)
print("ready", flush=True)
"""


def _launch_setup(spec, work: WorkDir) -> float:
    """Seconds from spawning an interpreter until it is ready to run ``spec``."""
    argument = json.dumps({"workloads": list(spec.workloads), "cost_models": list(spec.cost_models)})
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-c", _SETUP_CODE, argument],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        line = process.stdout.readline().strip()
        elapsed = time.perf_counter() - started
        process.stdout.read()
    finally:
        process.wait(timeout=60)
    if line != "ready" or process.returncode != 0:
        raise RuntimeError(f"grid set-up launch failed (exit {process.returncode})")
    return elapsed


def _cell_hashes(report) -> List[Optional[str]]:
    return [
        hashlib.sha256(
            canonical_json(deterministic_payload(result.payload)).encode("utf-8")
        ).hexdigest()
        if result.payload is not None
        else None
        for result in report.results
    ]


def _cpu_seconds() -> float:
    """CPU of this process and its reaped children (the grid workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib * 1024 / 1e6


def _trace_of_run(path: str, execute: float) -> GridRunTrace:
    _, records = read_trace(path)
    spans = [record for record in records if record.get("type") == "span"]
    return GridRunTrace(
        execute=execute,
        cell_walls=[s["wall"] for s in spans if s.get("name") == "grid.cell"],
        compute_walls=[s["wall"] for s in spans if s.get("name") == "algorithm.compute"],
    )


class _Loop:
    """Runs one grid op after another and checks each report."""

    def __init__(self, spec, work: WorkDir, cold: bool, reference: Optional[List] = None) -> None:
        self.spec = spec
        self.work = work
        self.cold = cold
        self.reference = reference
        self.ops: List[Op] = []
        self.problems: List[str] = []
        self.traces: List[GridRunTrace] = []
        self.worker_algorithms: List[Tuple[str, float, int]] = []

    def run(self, count: int, cache_dir: Optional[str] = None, traced: bool = False) -> float:
        """``count`` ops; returns the loop's wall seconds."""
        started = time.perf_counter()
        for index in range(len(self.ops), len(self.ops) + count):
            directory = cache_dir or str(self.work.sub(f"cold-{index}"))
            trace_path = str(self.work.path / f"trace-{index}.jsonl") if traced and self.cold else None
            epoch = time.time()
            cpu = _cpu_seconds()
            op_started = time.perf_counter()
            report = runner.run_grid(
                self.spec, cache_dir=directory, workers=WORKERS, trace=trace_path
            )
            latency = time.perf_counter() - op_started
            self.ops.append(Op(
                kind="cold" if self.cold else "resume", latency=latency, started=epoch,
                cpu=_cpu_seconds() - cpu, ok=self._check(index, report),
            ))
            if trace_path is not None:
                self.traces.append(
                    _trace_of_run(trace_path, report.telemetry.phases["grid.execute"])
                )
            if traced and self.cold:
                self.worker_algorithms += [
                    (r.payload["algorithm"], r.payload["timing"]["optimization_time"],
                     r.payload["cost_evaluations"])
                    for r in report.results if r.payload is not None
                ]
            if cache_dir is None:
                shutil.rmtree(directory, ignore_errors=True)
        return time.perf_counter() - started

    def _check(self, index: int, report) -> bool:
        problems = []
        if not report.ok:
            problems.append(f"{report.failed} cell(s) failed")
        expected_cached = 0 if self.cold else len(report.results)
        if report.cache_hits != expected_cached:
            problems.append(f"{report.cache_hits} cached cells, expected {expected_cached}")
        hashes = _cell_hashes(report)
        if self.reference is None:
            self.reference = hashes
        elif hashes != self.reference:
            changed = sum(1 for a, b in zip(hashes, self.reference) if a != b)
            problems.append(f"{changed} cell payload(s) differ from the first run")
        self.problems += [f"run {index}: {problem}" for problem in problems]
        return not problems


def run(workload: str, seed: int, sizes: inputs.Sizes, trace: bool, work: WorkDir) -> RunResult:
    """One run of ``grid-cold`` or ``grid-resume``."""
    cold = workload == "grid-cold"
    spec = inputs.grid_spec(seed, sizes.grid_shape)
    count = sizes.cold_runs if cold else sizes.resume_runs
    cache_dir = None
    reference = None
    if not cold:
        # The resumed runs read the cache one untimed cold run fills.
        cache_dir = str(work.sub("cache"))
        filler = _Loop(spec, work, cold=True)
        filler.run(1, cache_dir=cache_dir)
        if filler.problems:
            return RunResult(1, 1, filler.problems, {}, {})
        reference = filler.reference
    details: Dict[str, object] = {"cells": spec.cell_count, "spec": spec.describe()}

    if not trace:
        setup = [_launch_setup(spec, work) for _ in range(sizes.setup_launches)]
        loop = _Loop(spec, work, cold, reference)
        with Sampler(os.getpid()) as sampler:
            cpu_before = _cpu_seconds()
            wall = loop.run(count, cache_dir=cache_dir)
            cpu = _cpu_seconds() - cpu_before
        peak = _peak_rss_mb()
        details.update(
            run_latency_ms=summarize((op.latency for op in loop.ops), 1e3),
            ops_per_s_whole_run=safe_ratio(len(loop.ops), wall),
            cpu_ms_per_op=safe_ratio(cpu, len(loop.ops)) * 1e3,
            op_log=op_log(loop.ops),
            setup_samples_s=setup,
            sampled_peak_rss_mb=sampler.max_rss_mb(),
            host_cpu_busy_share=sampler.cpu_busy_share(),
        )
        return RunResult(
            attempted=len(loop.ops),
            failed=sum(1 for op in loop.ops if not op.ok),
            problems=loop.problems,
            metrics=end_to_end(workload, loop.ops, setup, peak),
            details=details,
        )

    # Traced pass: the first third of the ops, untraced then traced.
    replay = sizes.replayed(count)
    untraced = _Loop(spec, work, cold, reference)
    untraced.run(replay, cache_dir=cache_dir)
    traced = _Loop(spec, work, cold, untraced.reference)
    recorder = Recorder()
    baseline = obs_metrics.registry().snapshot()
    loop_start = time.time()
    with Sampler(os.getpid()) as sampler, installed(recorder):
        traced.run(replay, cache_dir=cache_dir, traced=True)
    counters = obs_metrics.registry().delta(baseline)["counters"]
    overhead = safe_ratio(
        median([op.latency for op in traced.ops]), median([op.latency for op in untraced.ops])
    ) - 1.0
    metrics, layer_details = derive(
        LayerInputs(
            ops=traced.ops,
            rows=recorder.rows,
            counters=counters,
            overhead=overhead,
            cpu_busy=sampler.cpu_busy_share(),
            loop_start=loop_start,
            workers=WORKERS,
            grid_runs=traced.traces,
            worker_algorithms=traced.worker_algorithms,
        )
    )
    details.update(layer_details, untraced_latency_ms=[op.latency * 1e3 for op in untraced.ops])
    ops = untraced.ops + traced.ops
    return RunResult(
        attempted=len(ops),
        failed=sum(1 for op in ops if not op.ok),
        problems=untraced.problems + traced.problems,
        metrics=metrics,
        details=details,
    )
