"""Shared plumbing: checkout paths, child environments, statistics, sampling.

Everything the benchmark writes goes under ``.perfbench/`` in the checkout
root (one directory per run, removed when the run ends), and every child
process gets ``TMPDIR`` pointed there too, so no run touches files outside
its checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Checkout root (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parents[2]

#: Where the program's sources live inside the checkout.
SRC = ROOT / "src"

#: Work area for caches, journals, traces and temp files of a run.
WORK_ROOT = ROOT / ".perfbench"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (e.g. the sources are missing)."""


def require_program() -> None:
    """Fail fast when the checkout does not hold the program's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_benchmark_spec() -> Dict[str, object]:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


class WorkDir:
    """A per-run work directory under ``.perfbench/``, removed on exit."""

    def __init__(self, label: str) -> None:
        self.path = WORK_ROOT / f"{label}-{os.getpid()}"
        if self.path.exists():
            shutil.rmtree(self.path)
        self.tmp = self.path / "tmp"
        self.tmp.mkdir(parents=True)

    def sub(self, name: str) -> Path:
        """A fresh (empty, not yet created) path inside the run directory."""
        path = self.path / name
        if path.exists():
            shutil.rmtree(path)
        return path

    def __enter__(self) -> "WorkDir":
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def use_local_tmp(work: WorkDir) -> None:
    """Point this process's temp files, and its children's, at ``work``, and
    drop the program's fault and trace switches from the environment."""
    import tempfile

    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["TMPDIR"] = str(work.tmp)
    os.environ["REPRO_ENGINE_X_TMPDIR"] = str(work.tmp)
    tempfile.tempdir = str(work.tmp)


def child_env() -> Dict[str, str]:
    """Environment for program subprocesses (after :func:`use_local_tmp`)."""
    return {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": "1"}


# -- statistics ----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def safe_ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- environment fingerprint ---------------------------------------------------


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(seed: int) -> Dict[str, object]:
    """Python, numpy and SQLite versions, CPU, git commit and seed."""
    import platform
    import sqlite3

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# -- process resources ---------------------------------------------------------

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU of ``pid`` and its reaped children, from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields after the command name: utime, stime, cutime, cstime are the
    # 12th..15th (``man 5 proc``: fields 14..17 counting pid and comm).
    return sum(int(value) for value in fields[11:15]) / _CLOCK_TICKS


def process_rss_mb(pid: int) -> float:
    """Resident set size of ``pid`` now, from ``/proc/<pid>/statm``."""
    with open(f"/proc/{pid}/statm", encoding="ascii") as handle:
        resident = int(handle.read().split()[1])
    return resident * _PAGE_BYTES / 1e6


def process_peak_rss_mb(pid: int) -> float:
    """High-water resident set size (``VmHWM``) of ``pid``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise OSError(f"no VmHWM for pid {pid}")


class Sampler:
    """4 Hz sampler of CPU time and RSS of some processes, while it runs.

    It reads ``/proc/<pid>/stat`` and ``/proc/<pid>/statm`` (no ``psutil``),
    feeding ``host.cpu_busy_share`` and a cross-check of ``peak_rss_mb``.
    """

    def __init__(self, *pids: int, interval: float = 0.25) -> None:
        self.interval = interval
        self.peak_rss_mb: Dict[int, float] = {}
        self._cpu_first: Dict[int, float] = {}
        self._cpu_last: Dict[int, float] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._wall = 0.0
        for pid in pids:
            self._sample(pid)

    def _sample(self, pid: int) -> None:
        try:
            cpu = process_cpu_seconds(pid)
            rss = process_rss_mb(pid)
        except (OSError, ValueError, IndexError):
            return  # the process exited between samples
        self._cpu_first.setdefault(pid, cpu)
        self._cpu_last[pid] = cpu
        self.peak_rss_mb[pid] = max(self.peak_rss_mb.get(pid, 0.0), rss)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            for pid in list(self._cpu_first):
                self._sample(pid)

    def __enter__(self) -> "Sampler":
        self._wall = time.perf_counter()
        self._thread = threading.Thread(target=self._run, name="perf-sampler", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        for pid in list(self._cpu_first):
            self._sample(pid)
        self._wall = time.perf_counter() - self._wall

    def cpu_busy_share(self) -> float:
        """CPU seconds of the watched processes per second of wall per core."""
        cpu = sum(self._cpu_last[pid] - self._cpu_first[pid] for pid in self._cpu_first)
        return safe_ratio(cpu, self._wall * (os.cpu_count() or 1))

    def max_rss_mb(self) -> float:
        return max(self.peak_rss_mb.values(), default=0.0)


def op_log(ops) -> List[List[object]]:
    """(start offset s, latency ms, kind, ok) of every op, in start order."""
    first = min((op.started for op in ops), default=0.0)
    return [
        [round(op.started - first, 4), round(op.latency * 1e3, 3), op.kind, op.ok]
        for op in sorted(ops, key=lambda op: op.started)
    ]


def summarize(values: Iterable[float], scale: float = 1.0) -> Dict[str, float]:
    """Count, median, p90 and max of a sample (times ``scale``), for reports."""
    data = [value * scale for value in values]
    if not data:
        return {"n": 0}
    return {
        "n": len(data),
        "p50": median(data),
        "p90": percentile(data, 90.0),
        "max": max(data),
    }


@dataclass
class RunResult:
    """What one workload run reports: counts, failed checks and metrics."""

    attempted: int
    failed: int
    problems: List[str]
    metrics: Dict[str, float]
    details: Dict[str, object]


#: Consecutive parts a run's ops are cut into for the end-to-end timings.
#: The grid workloads are pure computation on a host that shares its cores
#: with other tenants; its speed drifts by up to a half over tens of
#: seconds, and CPU time inflates with it, so their timings are the best of
#: several parts of equal size and mix: a change to the program moves every
#: part, a passing slowdown of the host only some.  The service workloads'
#: latencies are set mostly by poll and delayed-ACK timers and by which jobs
#: overlap; a part holds too few of their slow jobs to pick from, so they
#: use the whole run.
SEGMENTS = {"grid-cold": 3, "grid-resume": 4, "service-fresh": 1, "service-hot": 1}


def end_to_end(
    workload: str,
    ops: Sequence,
    setup: Sequence[float],
    peak_rss_mb: float,
) -> Dict[str, float]:
    """The end-to-end metrics every workload reports.

    The ops are cut, in start order, into ``SEGMENTS[workload]`` parts and
    each timing is the best of the parts: the lowest median, the lowest
    p90, the highest throughput.
    """
    ordered = sorted(ops, key=lambda op: op.started)
    count = max(1, min(SEGMENTS[workload], len(ordered)))
    parts = [
        ordered[index * len(ordered) // count:(index + 1) * len(ordered) // count]
        for index in range(count)
    ]

    def throughput(part) -> float:
        span = max(op.started + op.latency for op in part) - min(op.started for op in part)
        return safe_ratio(len(part), span)

    return {
        "setup_s": median(setup),
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": max(throughput(part) for part in parts),
        "latency_ms_p50": min(median([op.latency for op in part]) for part in parts) * 1e3,
        "latency_ms_p90": min(percentile([op.latency for op in part], 90.0) for part in parts) * 1e3,
    }
