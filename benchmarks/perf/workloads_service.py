"""The service workloads: ``service-fresh`` and ``service-hot``.

Both drive a real ``python -m repro.service --workers 2`` process over HTTP
from two client threads, each holding one persistent HTTP/1.1 connection.
The server advertises keep-alive and real clients reuse connections, so the
clients do too — which exposes a cost worth measuring: on a reused
connection a small response that follows another within ~40 ms can stall for
about as long (the server writes headers and body separately, and Nagle's
algorithm meets the client's delayed ACK).  The benchmark measures that
stall; it does not work around it.

``service-fresh`` is a closed loop: each client submits a job, polls it
every 10 ms until it is terminal, then submits the next.  ``service-hot`` is
an open loop of seeded arrivals against a service restarted over a warmed
cache and journal; each operation is timed from when it was due.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.service.jobs import Job, execute_job

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
    percentile,
    process_cpu_seconds,
    process_peak_rss_mb,
    safe_ratio,
    summarize,
)
from .layers import LayerInputs, Op, derive
from .probes import REQUEST_HEADER

TERMINAL = ("done", "failed", "cancelled")
POLL_SECONDS = 0.010
CLIENTS = 2
SERVICE_WORKERS = 2
_URL = re.compile(r"listening on http://([^:/\s]+):(\d+)")
_REQUEST_IDS = itertools.count()


class Service:
    """One advisor service process on an ephemeral port.

    ``probe_out`` starts it through the traced launcher
    (``python -m benchmarks.perf.serve``), which writes its probe rows there
    when the service exits.
    """

    def __init__(self, work: WorkDir, cache_dir: Path, probe_out: Optional[Path] = None) -> None:
        self.work = work
        self.cache_dir = cache_dir
        self.probe_out = probe_out
        self.process: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    @property
    def pid(self) -> int:
        return self.process.pid

    def start(self) -> float:
        """Spawn and wait for the first 200 from ``/health/ready``; seconds."""
        service_args = [
            "--port", "0", "--workers", str(SERVICE_WORKERS), "--cache-dir", str(self.cache_dir),
        ]
        if self.probe_out is None:
            command = [sys.executable, "-m", "repro.service", *service_args]
        else:
            command = [
                sys.executable, "-m", "benchmarks.perf.serve",
                "--probe-out", str(self.probe_out), *service_args,
            ]
        self._stderr = open(self.work.path / "service.stderr", "a", encoding="utf-8")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, stderr=self._stderr, text=True,
        )
        match = _URL.search(self.process.stdout.readline())
        if match is None:
            self.stop()
            raise RuntimeError(f"service did not start; see {self._stderr.name}")
        self.host, self.port = match.group(1), int(match.group(2))
        while True:
            connection = http.client.HTTPConnection(self.host, self.port, timeout=10)
            try:
                connection.request("GET", "/health/ready")
                if connection.getresponse().status == 200:
                    return time.perf_counter() - started
            except OSError:
                pass
            finally:
                connection.close()
            if time.perf_counter() - started > 60:
                self.stop()
                raise RuntimeError("service never became ready")
            time.sleep(0.002)

    def stop(self) -> None:
        """SIGTERM (the service drains its jobs), then wait for the exit."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        self._stderr.close()
        self.process = None

    def probe_dump(self) -> Dict[str, object]:
        with open(self.probe_out, encoding="utf-8") as handle:
            return json.load(handle)


class Client:
    """One persistent HTTP/1.1 connection; records every round trip."""

    def __init__(self, service: Service, traced: bool) -> None:
        self.service = service
        self.traced = traced
        self.connection = http.client.HTTPConnection(service.host, service.port, timeout=300)

    def call(self, op: Op, method: str, path: str, body=None) -> Tuple[int, Dict[str, object]]:
        headers = {}
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request_id = None
        if self.traced:
            request_id = str(next(_REQUEST_IDS))
            headers[REQUEST_HEADER] = request_id
        started = time.perf_counter()
        try:
            self.connection.request(method, path, body=data, headers=headers)
            response = self.connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            # Reconnect for the next request; this one failed.
            self.connection.close()
            self.connection = http.client.HTTPConnection(
                self.service.host, self.service.port, timeout=300
            )
            raise
        op.requests.append((request_id, time.perf_counter() - started, len(raw)))
        return response.status, json.loads(raw)

    def close(self) -> None:
        self.connection.close()


def run_job(client: Client, kind: str, body: Dict[str, object], op: Op) -> None:
    """Submit one job and poll it every 10 ms until terminal; fills ``op``."""
    op.t_send = time.time()
    status, document = client.call(op, "POST", f"/v1/{kind}", body)
    if status != 202:
        raise RuntimeError(f"submit answered {status}: {document.get('error')}")
    job = document["job"]
    while job["state"] not in TERMINAL:
        time.sleep(POLL_SECONDS)
        status, job = client.call(op, "GET", f"/v1/jobs/{job['id']}")
        op.polls += 1
        if status != 200:
            raise RuntimeError(f"poll answered {status}")
    op.t_seen = time.time()
    op.job = job
    if job["state"] != "done":
        raise RuntimeError(f"job {job['id']} ended {job['state']}: {job.get('error')}")


def _drive(
    service: Service,
    count: int,
    execute: Callable[[Client, int, Op], None],
    due: Optional[Callable[[int], float]],
    traced: bool,
) -> Tuple[List[Op], float]:
    """``count`` ops over ``CLIENTS`` connections, handed out in order.

    Closed loop (``due`` is None): a client takes the next op as soon as its
    previous one finished.  Open loop: a client sleeps until the op is due,
    and the op's latency counts from its due time.
    """
    ops: List[Optional[Op]] = [None] * count
    lock = threading.Lock()
    cursor = iter(range(count))
    start = time.time() + 0.05

    def client_thread() -> None:
        client = Client(service, traced)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                begin = time.time()
                op = Op(kind="", latency=0.0)
                if due is not None:
                    begin = start + due(index)
                    delay = begin - time.time()
                    if delay > 0:
                        time.sleep(delay)
                    op.lateness = max(0.0, time.time() - begin)
                try:
                    execute(client, index, op)
                except Exception as error:  # the op fails, the loop goes on
                    op.ok = False
                    op.error = f"{type(error).__name__}: {error}"
                op.started = begin
                op.latency = time.time() - begin
                ops[index] = op
        finally:
            client.close()

    threads = [
        threading.Thread(target=client_thread, name=f"perf-client-{n}") for n in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return ops, time.time() - start


# -- output checks -------------------------------------------------------------


def result_view(kind: str, result: Optional[Dict[str, object]]) -> Optional[str]:
    """The deterministic fields of a job result, as canonical JSON.

    Wall-clock fields (optimisation times, measured CPU, engine timings and
    everything derived from them, cache accounting) are dropped.
    """
    if result is None:
        return None
    if kind == "recommend":
        view = {
            **{key: result[key] for key in ("workload", "cost_model", "row_cost", "column_cost", "best")},
            "recommendations": [
                {k: v for k, v in row.items() if k != "optimization_time_s"}
                for row in result["recommendations"]
            ],
        }
    elif kind == "compare":
        view = {
            "spec": result["spec"],
            "cells": [
                {k: cell.get(k) for k in ("label", "key", "backend", "ok", "estimated_cost", "layout")}
                for cell in result["cells"]
            ],
        }
    elif result["backend"] == "measured":
        view = {
            **{
                key: result[key]
                for key in (
                    "workload", "backend", "rank_correlation",
                    "mean_absolute_relative_error", "max_absolute_relative_error",
                )
            },
            "rows": [{k: v for k, v in row.items() if k != "cpu (ms)"} for row in result["rows"]],
        }
    else:
        view = {
            "workload": result["workload"],
            "backend": result["backend"],
            "rows": sorted(
                ({k: v for k, v in row.items() if k != "sqlite (ms)"} for row in result["rows"]),
                key=lambda row: row["layout"],
            ),
        }
    return json.dumps(view, sort_keys=True)


def reexecute(ops: Sequence[Op], sample: int, seed: int) -> List[str]:
    """Re-run a seeded sample of finished jobs in this process, untimed, via
    ``repro.service.jobs.execute_job``; layouts and costs must match."""
    finished = [op for op in ops if op.ok and op.job is not None]
    chosen = random.Random(f"reexec-{seed}").sample(finished, min(sample, len(finished)))
    problems = []
    for op in chosen:
        doc = op.job
        job = Job(id=doc["id"], kind=doc["kind"], request=doc["request"])
        again = json.loads(json.dumps(execute_job(job, cache_dir=None)))
        if result_view(job.kind, again) != result_view(job.kind, doc["result"]):
            problems.append(f"job {job.id}: in-process re-execution differs from the service")
    return problems


def _failures(ops: Sequence[Op], label: str) -> List[str]:
    return [f"{label} op {index}: {op.error}" for index, op in enumerate(ops) if not op.ok]


# -- workloads -----------------------------------------------------------------


class _Measured:
    """CPU, memory and sampling around one timed loop of a service."""

    def __init__(self, service: Service) -> None:
        self.pid = service.pid
        self.sampler = Sampler(os.getpid(), self.pid)

    def __enter__(self) -> "_Measured":
        self.sampler.__enter__()
        self.cpu = process_cpu_seconds(self.pid)
        self.loop_start = time.time()
        return self

    def __exit__(self, *exc_info) -> None:
        self.cpu = process_cpu_seconds(self.pid) - self.cpu
        self.peak_rss_mb = process_peak_rss_mb(self.pid)
        self.sampler.__exit__(*exc_info)


def _timed_run(
    workload: str,
    work: WorkDir,
    cache_dir: Path,
    launches: int,
    drive: Callable[[Service, bool], Tuple[List[Op], float]],
) -> Tuple[List[Op], Dict[str, float], Dict[str, object]]:
    """Set-up launches, then the timed loop on the last one; its metrics."""
    setup = []
    for launch in range(launches):
        service = Service(work, cache_dir)
        setup.append(service.start())
        if launch < launches - 1:
            service.stop()
    try:
        with _Measured(service) as measured:
            ops, wall = drive(service, False)
    finally:
        service.stop()
    details = {
        "run_latency_ms": summarize((op.latency for op in ops), 1e3),
        "latency_ms_by_kind": {
            kind: summarize((op.latency for op in ops if op.kind == kind), 1e3)
            for kind in sorted({op.kind for op in ops})
        },
        "ops_per_s_whole_run": safe_ratio(len(ops), wall),
        "cpu_ms_per_op": safe_ratio(measured.cpu, len(ops)) * 1e3,
        "late_ms_p99": percentile([op.lateness for op in ops], 99.0) * 1e3,
        "op_log": op_log(ops),
        "setup_samples_s": setup,
        "sampled_peak_rss_mb": measured.sampler.max_rss_mb(),
        "host_cpu_busy_share": measured.sampler.cpu_busy_share(),
    }
    return ops, end_to_end(workload, ops, setup, measured.peak_rss_mb), details


def _traced_run(
    work: WorkDir,
    prepare: Callable[[str], Path],
    drive: Callable[[Service, bool], Tuple[List[Op], float]],
    check: Callable[[List[Op]], List[str]],
    details: Dict[str, object],
) -> RunResult:
    """The same ops untraced, then traced through the probe launcher.

    ``check`` re-verifies the untraced ops and returns wrong-output findings.
    """
    plain = Service(work, prepare("untraced"))
    plain.start()
    try:
        untraced, _ = drive(plain, False)
    finally:
        plain.stop()
    service = Service(work, prepare("traced"), probe_out=work.path / "probes.json")
    service.start()
    try:
        with _Measured(service) as measured:
            traced, _ = drive(service, True)
    finally:
        service.stop()
    dump = service.probe_dump()
    mismatches = check(untraced)
    overhead = safe_ratio(
        median([op.latency for op in traced]), median([op.latency for op in untraced])
    ) - 1.0
    metrics, layer_details = derive(
        LayerInputs(
            ops=traced,
            rows=dump["rows"],
            counters=dump["metrics"].get("counters", {}),
            overhead=overhead,
            cpu_busy=measured.sampler.cpu_busy_share(),
            loop_start=measured.loop_start,
        )
    )
    details.update(layer_details, untraced_latency_ms=[op.latency * 1e3 for op in untraced])
    ops = untraced + traced
    return RunResult(
        attempted=len(ops),
        # A re-executed job whose output differs is a wrong-output op.
        failed=sum(1 for op in ops if not op.ok) + len(mismatches),
        problems=mismatches + _failures(untraced, "untraced") + _failures(traced, "traced"),
        metrics=metrics,
        details=details,
    )


def run_fresh(seed: int, sizes: inputs.Sizes, trace: bool, work: WorkDir) -> RunResult:
    """``service-fresh``: distinct jobs in a closed loop on an empty cache."""
    jobs = inputs.fresh_jobs(seed, sizes)
    details: Dict[str, object] = {"jobs": len(jobs)}

    def execute(client: Client, index: int, op: Op) -> None:
        kind, body = jobs[index]
        op.kind = kind
        run_job(client, kind, body, op)

    def check(ops: List[Op]) -> List[str]:
        return reexecute(ops, sizes.sample_reexec, seed)

    if trace:
        replay = sizes.replayed(len(jobs))
        return _traced_run(
            work,
            lambda label: work.sub(f"fresh-{label}"),
            lambda service, traced: _drive(service, replay, execute, None, traced),
            check,
            details,
        )
    ops, metrics, loop_details = _timed_run(
        "service-fresh", work, work.sub("fresh-cache"), sizes.setup_launches,
        lambda service, traced: _drive(service, len(jobs), execute, None, traced),
    )
    details.update(loop_details)
    mismatches = check(ops)
    return RunResult(
        attempted=len(ops),
        failed=sum(1 for op in ops if not op.ok) + len(mismatches),
        problems=_failures(ops, "fresh") + mismatches,
        metrics=metrics,
        details=details,
    )


def _hot_executor(
    pool: Sequence[Tuple[str, Dict[str, object]]],
    reference: Sequence[Dict[str, object]],
    schedule: Sequence[inputs.HotOp],
) -> Callable[[Client, int, Op], None]:
    views = [result_view(kind, doc["result"]) for (kind, _), doc in zip(pool, reference)]

    def execute(client: Client, index: int, op: Op) -> None:
        scheduled = schedule[index]
        op.kind = scheduled.kind
        if scheduled.kind == "write":
            run_job(client, "compare", scheduled.body, op)
            warmed = {cell["label"]: cell for cell in reference[scheduled.pool_index]["result"]["cells"]}
            for cell in op.job["result"]["cells"]:
                expected = warmed.get(cell["label"], {})
                if not cell["cached"] or any(
                    cell.get(key) != expected.get(key) for key in ("key", "estimated_cost", "layout")
                ):
                    raise RuntimeError(f"cell {cell['label']} is not the warmed result")
            return
        if scheduled.kind == "list":
            status, document = client.call(op, "GET", "/v1/jobs?limit=50")
            if status != 200 or len(document["jobs"]) != min(50, document["total"]):
                raise RuntimeError(f"listing answered {status}")
            return
        kind, body = pool[scheduled.pool_index]
        if scheduled.kind == "resubmit":
            status, document = client.call(op, "POST", f"/v1/{kind}", body)
            job = document.get("job") or {}
            if status != 202 or not document.get("deduped"):
                raise RuntimeError(f"resubmission answered {status}, deduped={document.get('deduped')}")
        else:
            status, job = client.call(op, "GET", f"/v1/jobs/{reference[scheduled.pool_index]['id']}")
            if status != 200:
                raise RuntimeError(f"fetch answered {status}")
        if job.get("state") != "done" or result_view(kind, job.get("result")) != views[scheduled.pool_index]:
            raise RuntimeError(f"{scheduled.kind} body differs from the warm-up result")

    return execute


def run_hot(seed: int, sizes: inputs.Sizes, trace: bool, work: WorkDir) -> RunResult:
    """``service-hot``: seeded open-loop reads and writes on a warmed service."""
    pool = inputs.hot_pool(seed, sizes)
    schedule = inputs.hot_schedule(seed, sizes, pool)
    warm_dir = work.sub("hot-warm")
    warmer = Service(work, warm_dir)
    warmer.start()
    try:

        def warm(client: Client, index: int, op: Op) -> None:
            run_job(client, pool[index][0], pool[index][1], op)

        warmed, _ = _drive(warmer, len(pool), warm, None, False)
    finally:
        warmer.stop()
    problems = _failures(warmed, "warm-up")
    if problems:
        return RunResult(len(warmed), len(problems), problems, {}, {})
    reference = [op.job for op in warmed]
    execute = _hot_executor(pool, reference, schedule)
    details: Dict[str, object] = {"ops": len(schedule), "pool": len(pool)}

    def due(index: int) -> float:
        return schedule[index].due

    if trace:
        replay = sizes.replayed(len(schedule))

        def prepare(label: str) -> Path:
            copy = work.sub(f"hot-{label}")
            shutil.copytree(warm_dir, copy)
            return copy

        return _traced_run(
            work, prepare,
            lambda service, traced: _drive(service, replay, execute, due, traced),
            lambda ops: [],
            details,
        )
    # Set-up is the restart over the warmed cache and journal (replay counts).
    ops, metrics, loop_details = _timed_run(
        "service-hot", work, warm_dir, sizes.setup_launches,
        lambda service, traced: _drive(service, len(schedule), execute, due, traced),
    )
    details.update(loop_details)
    return RunResult(
        attempted=len(ops),
        failed=sum(1 for op in ops if not op.ok),
        problems=_failures(ops, "hot"),
        metrics=metrics,
        details=details,
    )
