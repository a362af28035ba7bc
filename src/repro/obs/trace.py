"""Structured tracing: nestable spans with deterministic IDs over JSONL.

A *trace* is one JSON record per line.  The first record is a ``meta`` line
naming the run; every other line is a ``span`` (a timed region), an ``event``
(a point-in-time occurrence), or a ``metrics`` snapshot::

    {"type": "meta",    "format": 1, "run": ..., "root": ..., ...}
    {"type": "span",    "id": ..., "parent": ..., "name": ..., "t0": ...,
     "wall": ..., "cpu": ..., "status": "ok"|"error", "attrs": {...}}
    {"type": "event",   "name": ..., "t": ..., "parent": ..., "attrs": {...}}
    {"type": "metrics", "metrics": {...}}

Span IDs are **deterministic**: a span's ID hashes its parent's ID, its name,
and its birth order under that parent (``sha256(f"{parent}|{name}|{i}")``,
first 16 hex chars), with the root derived from the run seed.  Two runs of
the same grid therefore produce the same span tree with the same IDs — only
the timings differ — which makes traces diffable and lets tests assert on
structure.

The module keeps two pieces of process-global state: the active *sink*
(``None`` when tracing is off) and the span *stack* (``[span_id, children]``
frames).  ``span()`` returns a shared no-op object when no sink is active, so
a disabled call site costs one global load and one ``is None`` test.
``timed()`` is the variant for call sites whose measurement feeds results
(e.g. ``optimization_time``): it *always* measures wall time — exactly the
two ``perf_counter()`` calls the code it replaces already made — and emits a
span only when tracing is on.

Cross-process collection: grid workers cannot reach the supervisor's trace
file, so when the supervisor exports ``REPRO_OBS_COLLECT=1`` (inherited by
both ``fork`` and ``spawn`` children, like the fault plans in
:mod:`repro.faults`) each worker buffers its spans in a
:class:`SpanBuffer` under a per-task root seeded ``"{cell}#{attempt}"`` and
ships them back with the answer.  The supervisor re-parents each task's
top-level spans onto its own current span via :func:`adopt_spans`; the worker
IDs are already globally unique because the task seed is.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: Trace file format version (the ``meta`` record's ``format`` field).
TRACE_FORMAT = 1

#: Environment variable telling worker processes to buffer and ship spans.
COLLECT_ENV_VAR = "REPRO_OBS_COLLECT"


def span_id(parent: str, name: str, index: int) -> str:
    """Deterministic ID of the ``index``-th child named ``name`` under ``parent``."""
    digest = hashlib.sha256(f"{parent}|{name}|{index}".encode("utf-8"))
    return digest.hexdigest()[:16]


def root_id(seed: str) -> str:
    """Deterministic root span ID for a run (or worker task) seed."""
    digest = hashlib.sha256(f"root|{seed}".encode("utf-8"))
    return digest.hexdigest()[:16]


def task_seed(label: str, attempt: int) -> str:
    """The per-task root seed a worker traces under: ``"{cell}#{attempt}"``."""
    return f"{label}#{attempt}"


class TraceWriter:
    """Append-only JSONL sink backed by a file.

    I/O failures degrade rather than abort: the first failure warns on stderr
    and subsequent records are dropped (mirroring the result cache's
    warn-once policy — observability must never take the run down).
    """

    def __init__(self, path: str, run: str, meta: Optional[Dict] = None) -> None:
        self.path = Path(path)
        self.dropped = 0
        self._warned = False
        if self.path.parent and str(self.path.parent) not in ("", "."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w", encoding="utf-8")
        record = {
            "type": "meta",
            "format": TRACE_FORMAT,
            "run": run,
            "root": root_id(run),
        }
        record.update(meta or {})
        self.write(record)

    def write(self, record: Dict) -> None:
        """Append one record; drops (with a single warning) on I/O failure."""
        try:
            self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        except (OSError, ValueError):
            self.dropped += 1
            if not self._warned:
                self._warned = True
                print(
                    f"warning: trace write to {self.path} failed; "
                    "dropping further records",
                    file=sys.stderr,
                )

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:
            pass


class SpanBuffer:
    """In-memory sink used by worker processes to ship spans over the pipe."""

    def __init__(self) -> None:
        self.records: List[Dict] = []

    def write(self, record: Dict) -> None:
        self.records.append(record)


# Process-global tracing state.  ``_SINK`` is None when tracing is off;
# ``_STACK`` holds ``[span_id, child_count]`` frames, bottom frame = root.
_SINK = None
_STACK: List[List] = []


def enabled() -> bool:
    """Whether a trace sink is currently active in this process."""
    return _SINK is not None


def current_id() -> Optional[str]:
    """The innermost active span's ID (the root's when no span is open)."""
    return _STACK[-1][0] if _STACK else None


def _push(name: str) -> str:
    frame = _STACK[-1]
    new_id = span_id(frame[0], name, frame[1])
    frame[1] += 1
    _STACK.append([new_id, 0])
    return new_id


def _pop(expected_id: str) -> None:
    # Tolerate sinks deactivating mid-span: only pop our own frame.
    if _STACK and _STACK[-1][0] == expected_id:
        _STACK.pop()


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NOOP = _NoopSpan()


class _Span:
    """A live span: measures wall+CPU and writes one record on exit."""

    __slots__ = ("name", "attrs", "id", "wall", "cpu", "_t0", "_c0", "_epoch")

    def __init__(self, name: str, attrs: Dict) -> None:
        self.name = name
        self.attrs = attrs
        self.id: Optional[str] = None
        self.wall = 0.0
        self.cpu = 0.0

    def set(self, **attrs) -> None:
        """Attach further key=value attributes before the span closes."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        self.id = _push(self.name)
        self._epoch = time.time()
        self._c0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall = time.perf_counter() - self._t0
        self.cpu = time.process_time() - self._c0
        parent = _STACK[-2][0] if len(_STACK) >= 2 else None
        _pop(self.id)
        sink = _SINK
        if sink is not None:
            record = {
                "type": "span",
                "id": self.id,
                "parent": parent,
                "name": self.name,
                "t0": self._epoch,
                "wall": self.wall,
                "cpu": self.cpu,
                "status": "error" if exc_type is not None else "ok",
                "attrs": self.attrs,
            }
            if exc_type is not None:
                record["error"] = f"{exc_type.__name__}: {exc}"
            sink.write(record)
        return False


def span(name: str, **attrs):
    """A traced region: ``with span("grid.cell", cell=label): ...``.

    Returns a shared no-op object when tracing is off — safe (and nearly
    free) to leave in hot paths.
    """
    if _SINK is None:
        return _NOOP
    return _Span(name, attrs)


class Timer:
    """Like :func:`span`, but *always* measures wall time.

    For call sites whose timing feeds results (``optimization_time``,
    executor ``cpu_seconds``): ``timer.wall`` is valid after the ``with``
    block whether or not tracing is on.  CPU time and the span record are
    only produced while a sink is active.
    """

    __slots__ = ("name", "attrs", "id", "wall", "cpu", "_t0", "_c0", "_epoch")

    def __init__(self, name: str, attrs: Dict) -> None:
        self.name = name
        self.attrs = attrs
        self.id: Optional[str] = None
        self.wall = 0.0
        self.cpu = 0.0

    def set(self, **attrs) -> None:
        """Attach further key=value attributes before the region closes."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Timer":
        if _SINK is not None:
            self.id = _push(self.name)
            self._epoch = time.time()
            self._c0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall = time.perf_counter() - self._t0
        if self.id is None:
            return False
        self.cpu = time.process_time() - self._c0
        parent = _STACK[-2][0] if len(_STACK) >= 2 else None
        _pop(self.id)
        sink = _SINK
        if sink is not None:
            record = {
                "type": "span",
                "id": self.id,
                "parent": parent,
                "name": self.name,
                "t0": self._epoch,
                "wall": self.wall,
                "cpu": self.cpu,
                "status": "error" if exc_type is not None else "ok",
                "attrs": self.attrs,
            }
            if exc_type is not None:
                record["error"] = f"{exc_type.__name__}: {exc}"
            sink.write(record)
        return False


def timed(name: str, **attrs) -> Timer:
    """An always-measuring timer that doubles as a span when tracing is on."""
    return Timer(name, attrs)


def event(name: str, **attrs) -> None:
    """Record a point-in-time occurrence under the current span (no-op when off)."""
    sink = _SINK
    if sink is None:
        return
    sink.write(
        {
            "type": "event",
            "name": name,
            "t": time.time(),
            "parent": current_id(),
            "attrs": attrs,
        }
    )


def emit_span(
    name: str,
    wall: float,
    status: str = "ok",
    error: Optional[str] = None,
    **attrs,
) -> Optional[str]:
    """Synthesize a completed span under the current span.

    The supervisor uses this to attribute work whose real span records were
    lost with the process that made them — crashed workers, SIGKILLed
    timeouts.  Returns the synthesized span's ID (None when tracing is off).
    """
    sink = _SINK
    if sink is None:
        return None
    frame = _STACK[-1]
    new_id = span_id(frame[0], name, frame[1])
    frame[1] += 1
    record = {
        "type": "span",
        "id": new_id,
        "parent": frame[0],
        "name": name,
        "t0": time.time() - wall,
        "wall": wall,
        "cpu": None,
        "status": status,
        "attrs": attrs,
    }
    if error is not None:
        record["error"] = error
    sink.write(record)
    return new_id


def emit_metrics(snapshot: Dict) -> None:
    """Append a metrics snapshot record to the trace (no-op when off)."""
    sink = _SINK
    if sink is not None:
        sink.write({"type": "metrics", "metrics": snapshot})


def adopt_spans(records: Iterable[Dict], worker_seed: str) -> int:
    """Merge a worker's shipped span records into the active trace.

    Records parented at the worker's task root are re-parented onto the
    supervisor's current span; deeper records keep their (globally unique,
    seed-derived) parent links.  Returns the number of records written.
    """
    sink = _SINK
    if sink is None:
        return 0
    worker_root = root_id(worker_seed)
    parent = current_id()
    written = 0
    for record in records:
        if record.get("parent") == worker_root:
            record = dict(record)
            record["parent"] = parent
        sink.write(record)
        written += 1
    return written


@contextmanager
def activated(sink, seed: str):
    """Route spans to ``sink`` (rooted at ``root_id(seed)``) for the block.

    The previous sink/stack are restored on exit, so traces nest safely
    (e.g. a worker task inside a process that is itself being traced).
    """
    global _SINK, _STACK
    previous = (_SINK, _STACK)
    _SINK = sink
    _STACK = [[root_id(seed), 0]]
    try:
        yield sink
    finally:
        _SINK, _STACK = previous


@contextmanager
def tracing(path: str, run: str, meta: Optional[Dict] = None):
    """Write a trace file for the block: the supervisor-side entry point."""
    writer = TraceWriter(path, run, meta)
    try:
        with activated(writer, run):
            yield writer
    finally:
        writer.close()


@contextmanager
def collecting(seed: str):
    """Buffer spans in a :class:`SpanBuffer` for the block (worker-side).

    Yields the buffer; its ``.records`` are valid even if the block raises —
    the worker ships whatever was captured before the failure.
    """
    buffer = SpanBuffer()
    with activated(buffer, seed):
        yield buffer


def collection_requested() -> bool:
    """Whether the supervisor asked worker processes to ship spans."""
    return os.environ.get(COLLECT_ENV_VAR) == "1"


@contextmanager
def collection_env():
    """Export :data:`COLLECT_ENV_VAR` so child processes buffer and ship spans.

    Environment travels to both ``fork`` and ``spawn`` children, the same
    channel :mod:`repro.faults` uses for fault plans.
    """
    previous = os.environ.get(COLLECT_ENV_VAR)
    os.environ[COLLECT_ENV_VAR] = "1"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(COLLECT_ENV_VAR, None)
        else:
            os.environ[COLLECT_ENV_VAR] = previous


def read_trace(path: str) -> Tuple[Dict, List[Dict]]:
    """Parse a trace file into ``(meta, records)``; skips malformed lines.

    Raises ``ValueError`` if the file has no leading ``meta`` record of a
    supported format.
    """
    meta: Optional[Dict] = None
    records: List[Dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(record, dict):
                continue
            if record.get("type") == "meta" and meta is None:
                meta = record
            else:
                records.append(record)
    if meta is None:
        raise ValueError(f"{path}: not a trace file (no meta record)")
    if meta.get("format") != TRACE_FORMAT:
        raise ValueError(
            f"{path}: unsupported trace format {meta.get('format')!r} "
            f"(expected {TRACE_FORMAT})"
        )
    return meta, records
