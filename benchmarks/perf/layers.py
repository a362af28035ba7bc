"""Per-layer metrics of the traced pass, and what each should move.

:data:`CATALOG` lists every per-layer metric printed by ``--trace 1`` (the
``per_layer`` list of ``BENCHMARK.json``), with the module it measures and
the end-to-end metric and workload it should move.  Every workload prints
every metric: a layer that is off a workload's path reads 0, so metrics that
can be off a path are shares, ratios, counts or sizes, never times.  Times
in milliseconds are kept for the layers every workload crosses; the full
per-module breakdown in milliseconds goes to the run's ``details``.

Shares divide a layer's summed self time (or a wait) by the summed
end-to-end latency of the operations, so ``service.queue_wait_share`` of 0.4
means 40% of client-visible time was spent queued.  Busy shares can sum past
1 where layers run in parallel (two grid workers, two job threads).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .common import median, percentile, safe_ratio, summarize

# (name, unit, better, module, should move)
CATALOG: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("workload.resolve_ms_p50", "ms", "lower", "repro.workload via repro.grid.spec.resolve_workload",
     "latency_ms_p50 on grid-resume and service-hot; setup_s"),
    ("workload.resolves_per_op", "count", "lower", "repro.workload",
     "latency_ms_p50 on grid-resume and service-hot"),
    ("workload.busy_share", "ratio", "lower", "repro.workload",
     "latency_ms_p50 on grid-resume and service-hot"),
    ("grid.resolve_ms_p50", "ms", "lower", "repro.grid.runner",
     "latency_ms_p50 on grid-resume"),
    ("grid.cache_scan_ms_p50", "ms", "lower", "repro.grid.runner",
     "latency_ms_p50 on grid-resume"),
    ("grid.runner.busy_share", "ratio", "lower", "repro.grid.runner",
     "latency_ms_p50 on grid-resume; latency_ms_p90 on service-hot"),
    ("grid.worker_busy_share", "ratio", "higher", "repro.grid.runner",
     "latency_ms_p50 and ops_per_s on grid-cold"),
    ("grid.makespan_over_bound", "ratio", "lower", "repro.grid.runner",
     "latency_ms_p50 on grid-cold"),
    ("grid.cache.load_ms_p50", "ms", "lower", "repro.grid.cache",
     "latency_ms_p50 on grid-resume"),
    ("grid.cache.entry_kb_p50", "kB", "lower", "repro.grid.cache",
     "latency_ms_p50 on grid-resume and grid-cold"),
    ("grid.cache.hit_ratio", "ratio", "higher", "repro.grid.cache",
     "latency_ms_p50 on grid-resume and service-hot"),
    ("grid.cache.busy_share", "ratio", "lower", "repro.grid.cache",
     "latency_ms_p50 on grid-resume; latency_ms_p50 on grid-cold (store)"),
    ("grid.aggregate.busy_share", "ratio", "lower", "repro.grid.aggregate",
     "latency_ms_p90 on service-hot"),
    ("algorithms.busy_share", "ratio", "lower", "repro.core.algorithm, repro.algorithms",
     "latency_ms_p50 and ops_per_s on grid-cold; latency_ms_p90 on service-fresh"),
    ("algorithms.cost_evaluations_per_op", "count", "lower", "repro.core.algorithm, repro.algorithms",
     "latency_ms_p50 on grid-cold"),
    ("cost.memo_hit_ratio", "ratio", "higher", "repro.cost.evaluator",
     "latency_ms_p50 on grid-cold"),
    ("cost.profile_hit_ratio", "ratio", "higher", "repro.cost.evaluator",
     "latency_ms_p50 on grid-cold"),
    ("cost.candidates_per_s", "1/s", "higher", "repro.cost.evaluator",
     "latency_ms_p50 on grid-cold"),
    ("exec.busy_share", "ratio", "lower", "repro.exec",
     "latency_ms_p90 on service-fresh"),
    ("exec.scan_mb_per_s", "MB/s", "higher", "repro.exec",
     "latency_ms_p90 on service-fresh"),
    ("engine_x.busy_share", "ratio", "lower", "repro.engine_x",
     "latency_ms_p90 on service-fresh"),
    ("engine_x.scan_mb_per_s", "MB/s", "higher", "repro.engine_x",
     "latency_ms_p90 on service-fresh"),
    ("service.http.busy_share", "ratio", "lower", "repro.service.app",
     "latency_ms_p50 on service-hot"),
    ("service.http.transport_share", "ratio", "lower", "repro.service.app",
     "latency_ms_p50 on service-hot and service-fresh"),
    ("service.http.response_kb_p50", "kB", "lower", "repro.service.app",
     "latency_ms_p50 on service-hot"),
    ("service.submit.busy_share", "ratio", "lower", "repro.service.jobs",
     "latency_ms_p90 on service-hot"),
    ("service.job.busy_share", "ratio", "lower", "repro.service.jobs",
     "ops_per_s and latency_ms_p50 on service-fresh"),
    ("service.queue_wait_share", "ratio", "lower", "repro.service.jobs",
     "ops_per_s and latency_ms_p90 on service-fresh"),
    ("service.notify_share", "ratio", "lower", "repro.service.jobs",
     "latency_ms_p50 on service-fresh; latency_ms_p90 on service-hot"),
    ("service.polls_per_job", "count", "lower", "repro.service.jobs",
     "latency_ms_p50 on service-fresh"),
    ("service.journal.busy_share", "ratio", "lower", "repro.service.journal",
     "latency_ms_p90 on service-hot"),
    ("service.journal.bytes_per_job", "B", "lower", "repro.service.journal",
     "latency_ms_p90 and setup_s on service-hot"),
    ("service.journal.compactions", "count", "lower", "repro.service.journal",
     "latency_ms_p90 on service-hot"),
    ("loadgen.late_share", "ratio", "lower", "load generator",
     "none: checks the open loop sent on time"),
    ("obs.tracing_overhead_share", "ratio", "lower", "repro.obs and probes",
     "none: checks the traced pass is representative"),
    ("trace.accounted_share", "ratio", "higher", "probes",
     "none: checks the layers explain the end-to-end time"),
    ("host.cpu_busy_share", "ratio", "higher", "host",
     "none: checks the run was not starved"),
)


@dataclass
class Op:
    """One measured operation, as the client saw it."""

    kind: str
    latency: float  # seconds, from send (closed loop) or due time (open loop)
    started: float = 0.0  # epoch seconds the latency counts from
    cpu: Optional[float] = None  # CPU seconds of the op, where measurable
    ok: bool = True
    error: Optional[str] = None
    lateness: float = 0.0  # open loop: how late the generator sent
    t_send: Optional[float] = None  # epoch seconds
    t_seen: Optional[float] = None  # epoch seconds the terminal state was seen
    job: Optional[Dict[str, object]] = None  # final job document (job ops)
    polls: int = 0
    #: (bench request id, round trip seconds, response bytes) per request.
    requests: List[Tuple[Optional[str], float, int]] = field(default_factory=list)


@dataclass
class GridRunTrace:
    """What one traced parallel ``run_grid`` left in its trace file."""

    execute: float
    cell_walls: List[float]
    compute_walls: List[float]


@dataclass
class LayerInputs:
    """Everything the traced pass collected for one workload."""

    ops: List[Op]
    rows: Sequence[Sequence[object]]
    counters: Dict[str, int]
    overhead: float
    cpu_busy: float
    #: Epoch seconds the measured operations began; probe rows before it
    #: (service start-up: journal replay and compaction) are not op time.
    loop_start: float = 0.0
    workers: int = 1
    grid_runs: List[GridRunTrace] = field(default_factory=list)
    #: (algorithm, optimization seconds, cost evaluations) of algorithm runs
    #: that happened out of process (grid worker payloads).
    worker_algorithms: List[Tuple[str, float, int]] = field(default_factory=list)


def _by_layer(rows: Iterable[Sequence[object]]) -> Dict[str, List[Sequence[object]]]:
    grouped: Dict[str, List[Sequence[object]]] = defaultdict(list)
    for row in rows:
        grouped[row[0]].append(row)
    return grouped


def _walls(rows: Sequence[Sequence[object]]) -> List[float]:
    return [row[2] for row in rows]


def _self(rows: Sequence[Sequence[object]]) -> float:
    return sum(row[3] for row in rows)


def _p50_ms(values: Sequence[float]) -> float:
    return median(values) * 1e3 if values else 0.0


def derive(inputs: LayerInputs) -> Tuple[Dict[str, float], Dict[str, object]]:
    """The per-layer metrics (every :data:`CATALOG` name) and details.

    Failed ops are left out; the run reports them as failed.
    """
    ops = [op for op in inputs.ops if op.ok]
    startup = _by_layer(row for row in inputs.rows if row[1] < inputs.loop_start)
    layers = _by_layer(row for row in inputs.rows if row[1] >= inputs.loop_start)
    total = sum(op.latency for op in ops)

    def share(seconds: float) -> float:
        return safe_ratio(seconds, total)

    runner_rows = layers.get("grid.runner", [])
    phases = [row[4]["phases"] for row in runner_rows if row[4]]
    loads = layers.get("grid.cache.load", [])
    stores = layers.get("grid.cache.store", [])
    entry_kb = [row[4]["kb"] for row in loads + stores if row[4] and row[4].get("kb")]
    hits = sum(1 for row in loads if row[4] and row[4]["hit"])

    algorithms = [
        (row[4]["algorithm"], row[4]["optimization_time"], row[4]["cost_evaluations"])
        for row in layers.get("algorithms", [])
        if row[4] and "algorithm" in row[4]
    ] + list(inputs.worker_algorithms)
    optimization = sum(seconds for _, seconds, _ in algorithms)
    evaluations = sum(count for _, _, count in algorithms)
    in_worker_compute = sum(sum(run.compute_walls) for run in inputs.grid_runs)

    counters = inputs.counters
    memo = (counters.get("cost.evaluator.memo.hits", 0), counters.get("cost.evaluator.memo.misses", 0))
    profile = (
        counters.get("cost.evaluator.profile.hits", 0),
        counters.get("cost.evaluator.profile.misses", 0),
    )

    def scan_rate(layer: str) -> float:
        rows = layers.get(layer, [])
        scanned = sum(row[4]["bytes"] for row in rows if row[4])
        return safe_ratio(scanned / 1e6, sum(_walls(rows)))

    # HTTP: match each client round trip with its handler call.
    handler = {
        row[4]["request"]: row[2]
        for row in layers.get("service.http", [])
        if row[4] and row[4].get("request") is not None
    }
    transport = [
        rtt - handler[request]
        for op in ops
        for request, rtt, _ in op.requests
        if request in handler
    ]
    response_kb = [size / 1e3 for op in ops for _, _, size in op.requests]
    job_ops = [op for op in ops if op.job is not None]
    docs = [op.job for op in job_ops]
    queue_wait = [doc["started_at"] - doc["submitted_at"] for doc in docs]
    notify = [op.t_seen - op.job["finished_at"] for op in job_ops]
    appends = layers.get("service.journal.append", [])
    new_jobs = sum(1 for row in appends if row[4] and row[4]["event"] == "submitted")

    # Executor walls per job id, to account each job's run with a probe.
    executed = defaultdict(float)
    for row in layers.get("service.job", []):
        if row[4]:
            executed[row[4]["job"]] += row[2]

    if job_ops or any(op.requests for op in ops):
        accounted = 0.0
        for op in ops:
            if op.job is None:
                accounted += op.lateness + sum(rtt for _, rtt, _ in op.requests)
                continue
            doc = op.job
            accounted += (
                op.lateness
                + (doc["submitted_at"] - op.t_send)
                + (doc["started_at"] - doc["submitted_at"])
                + executed.get(doc["id"], 0.0)
                + (op.t_seen - doc["finished_at"])
            )
    else:
        accounted = sum(sum(p.values()) for p in phases)

    busy = {
        name: share(sum(_self(layers.get(layer, [])) for layer in members))
        for name, members in (
            ("workload.busy_share", ("workload.resolve",)),
            ("grid.runner.busy_share", ("grid.runner",)),
            ("grid.cache.busy_share", ("grid.cache.load", "grid.cache.store")),
            ("grid.aggregate.busy_share", ("grid.aggregate",)),
            ("exec.busy_share", ("exec",)),
            ("engine_x.busy_share", ("engine_x",)),
            ("service.http.busy_share", ("service.http",)),
            ("service.submit.busy_share", ("service.submit",)),
            ("service.job.busy_share", ("service.job",)),
            ("service.journal.busy_share", ("service.journal.append", "service.journal.compact")),
        )
    }
    busy["algorithms.busy_share"] = share(_self(layers.get("algorithms", [])) + in_worker_compute)

    worker_capacity = sum(run.execute * inputs.workers for run in inputs.grid_runs)
    bounds = [
        safe_ratio(run.execute, max(sum(run.cell_walls) / inputs.workers, max(run.cell_walls)))
        for run in inputs.grid_runs
        if run.cell_walls
    ]

    metrics: Dict[str, float] = {
        "workload.resolve_ms_p50": _p50_ms(_walls(layers.get("workload.resolve", []))),
        "workload.resolves_per_op": safe_ratio(len(layers.get("workload.resolve", [])), len(ops)),
        "grid.resolve_ms_p50": _p50_ms([p["grid.resolve"] for p in phases]),
        "grid.cache_scan_ms_p50": _p50_ms([p["grid.cache-scan"] for p in phases]),
        "grid.worker_busy_share": safe_ratio(
            sum(sum(run.cell_walls) for run in inputs.grid_runs), worker_capacity
        ),
        "grid.makespan_over_bound": median(bounds) if bounds else 0.0,
        "grid.cache.load_ms_p50": _p50_ms(_walls(loads)),
        "grid.cache.entry_kb_p50": median(entry_kb) if entry_kb else 0.0,
        "grid.cache.hit_ratio": safe_ratio(hits, len(loads)),
        "algorithms.cost_evaluations_per_op": safe_ratio(evaluations, len(ops)),
        "cost.memo_hit_ratio": safe_ratio(memo[0], sum(memo)),
        "cost.profile_hit_ratio": safe_ratio(profile[0], sum(profile)),
        "cost.candidates_per_s": safe_ratio(evaluations, optimization),
        "exec.scan_mb_per_s": scan_rate("exec"),
        "engine_x.scan_mb_per_s": scan_rate("engine_x"),
        "service.http.transport_share": share(sum(transport)),
        "service.http.response_kb_p50": median(response_kb) if response_kb else 0.0,
        "service.queue_wait_share": share(sum(queue_wait)),
        "service.notify_share": share(sum(notify)),
        "service.polls_per_job": safe_ratio(sum(op.polls for op in job_ops), len(job_ops)),
        "service.journal.bytes_per_job": safe_ratio(
            sum(row[4]["bytes"] for row in appends if row[4]), new_jobs
        ),
        "service.journal.compactions": float(len(layers.get("service.journal.compact", []))),
        "loadgen.late_share": share(sum(op.lateness for op in ops)),
        "obs.tracing_overhead_share": inputs.overhead,
        "trace.accounted_share": share(accounted),
        "host.cpu_busy_share": inputs.cpu_busy,
        **busy,
    }

    per_algorithm: Dict[str, float] = defaultdict(float)
    for name, seconds, _ in algorithms:
        per_algorithm[name] += seconds
    job_run = defaultdict(list)
    for doc in docs:
        job_run[doc["kind"]].append(doc["finished_at"] - doc["started_at"])
    details: Dict[str, object] = {
        "ops": len(ops),
        "op_latency_ms": summarize((op.latency for op in ops), 1e3),
        "service.http.server_ms": summarize(_walls(layers.get("service.http", [])), 1e3),
        "service.http.transport_ms": {
            **summarize(transport, 1e3),
            "p95": percentile(transport, 95.0) * 1e3 if transport else None,
        },
        "service.submit_ms": summarize(_walls(layers.get("service.submit", [])), 1e3),
        "service.queue_wait_ms": summarize(queue_wait, 1e3),
        "service.job_run_ms": {kind: summarize(runs, 1e3) for kind, runs in job_run.items()},
        "service.notify_ms": summarize(notify, 1e3),
        "service.journal.append_ms": summarize(_walls(appends), 1e3),
        "service.journal.compact_ms": summarize(
            _walls(layers.get("service.journal.compact", [])), 1e3
        ),
        "service.journal.replay_ms": summarize(
            _walls(startup.get("service.journal.replay", [])), 1e3
        ),
        "grid.execute_s": summarize(p["grid.execute"] for p in phases),
        "grid.cache.store_ms": summarize(_walls(stores), 1e3),
        "grid.aggregate_ms": summarize(_walls(layers.get("grid.aggregate", [])), 1e3),
        "algorithms.opt_s_per_op": {
            name: safe_ratio(seconds, len(ops)) for name, seconds in sorted(per_algorithm.items())
        },
        "exec.execute_ms": summarize(_walls(layers.get("exec", [])), 1e3),
        "engine_x.execute_ms": summarize(_walls(layers.get("engine_x", [])), 1e3),
        "loadgen.late_ms": {
            **summarize((op.lateness for op in ops), 1e3),
            "p99": percentile([op.lateness for op in ops], 99.0) * 1e3 if ops else None,
        },
        "self_ms_per_op": {
            layer: safe_ratio(_self(rows), len(ops)) * 1e3 for layer, rows in sorted(layers.items())
        },
    }
    return metrics, details
