"""Process-local metrics: counters, gauges and histograms.

The repository's hot seams — evaluator memo lookups, result-cache I/O, retry
machinery, the vectorized executor's scan walk, the online controller's
decisions — increment metrics unconditionally.  That only works because an
increment is made as cheap as Python allows: every instrument is a tiny
``__slots__`` object held by module-level reference at the instrumented call
site, and the hot-path form is a bare attribute increment
(``counter.value += 1``), not a registry lookup or a method call.  There is no
"enabled" flag to test; the instruments *are* the storage.

The registry is process-local by design.  Grid workers and service job
processes accumulate into their own registries and ship **deltas** back over
the answer pipe (see :mod:`repro.supervised`): a worker snapshots its
registry before each task and sends ``registry().delta(baseline)`` with the
answer; the parent folds each delta into its own registry with
:meth:`MetricsRegistry.merge`.  Deltas make the scheme safe under both
``fork`` (inherited counter values cancel out) and ``spawn`` (the child
starts from zero), with no shared memory or locks.

Snapshots are plain JSON-serialisable dicts::

    {"counters":   {name: int},
     "gauges":     {name: float},
     "histograms": {name: {"count": int, "total": float,
                           "min": float|None, "max": float|None}}}

Canonical metric names used by the built-in instrumentation are documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import Dict, Optional

#: Snapshot dict shape version (bumped on incompatible change).
SNAPSHOT_FORMAT = 1


class Counter:
    """A monotonically increasing integer.

    Hot paths increment ``counter.value`` directly; :meth:`inc` is the
    readable form for cold paths.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1)."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A last-value-wins instantaneous measurement."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Count / total / min / max of an observed distribution.

    Deliberately bucket-free: the consumers (the run summary, the trace's
    final metrics record) need totals and extremes, and four scalars merge
    losslessly across process boundaries where bucket layouts would not.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Fold one observation in."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Average observation (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, n={self.count}, total={self.total})"


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create, so instrumented
    modules can grab their instruments once at import time and the registry
    still sees them.  :meth:`reset` therefore zeroes instruments *in place*
    rather than discarding them — module-held references stay live.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument access ----------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter registered as ``name`` (created on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = Counter(name)
            self._counters[name] = instrument
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge registered as ``name`` (created on first use)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = Gauge(name)
            self._gauges[name] = instrument
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram registered as ``name`` (created on first use)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = Histogram(name)
            self._histograms[name] = instrument
        return instrument

    # -- snapshots ------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The registry's current state as a plain JSON-serialisable dict."""
        return {
            "format": SNAPSHOT_FORMAT,
            "counters": {
                name: c.value for name, c in self._counters.items() if c.value
            },
            "gauges": {name: g.value for name, g in self._gauges.items()},
            "histograms": {
                name: {
                    "count": h.count,
                    "total": h.total,
                    "min": h.min,
                    "max": h.max,
                }
                for name, h in self._histograms.items()
                if h.count
            },
        }

    def delta(self, baseline: Dict[str, object]) -> Dict[str, object]:
        """What changed since ``baseline`` (an earlier :meth:`snapshot`).

        Counter and histogram count/total deltas are exact.  A histogram's
        min/max cannot be differenced, so the delta carries the *current*
        extremes — an over-approximation that only widens the merged range,
        never invents observations.  Gauges carry their current value
        (last-value-wins has no meaningful difference).
        """
        base_counters = baseline.get("counters", {})
        base_histograms = baseline.get("histograms", {})
        counters = {}
        for name, instrument in self._counters.items():
            changed = instrument.value - base_counters.get(name, 0)
            if changed:
                counters[name] = changed
        histograms = {}
        for name, instrument in self._histograms.items():
            previous = base_histograms.get(
                name, {"count": 0, "total": 0.0}
            )
            count = instrument.count - previous["count"]
            if count:
                histograms[name] = {
                    "count": count,
                    "total": instrument.total - previous["total"],
                    "min": instrument.min,
                    "max": instrument.max,
                }
        return {
            "format": SNAPSHOT_FORMAT,
            "counters": counters,
            "gauges": {name: g.value for name, g in self._gauges.items()},
            "histograms": histograms,
        }

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Fold a snapshot (typically a worker's delta) into this registry."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).value += int(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, state in snapshot.get("histograms", {}).items():
            instrument = self.histogram(name)
            instrument.count += int(state.get("count", 0))
            instrument.total += float(state.get("total", 0.0))
            for bound, pick in (("min", min), ("max", max)):
                incoming = state.get(bound)
                if incoming is None:
                    continue
                current = getattr(instrument, bound)
                setattr(
                    instrument,
                    bound,
                    incoming if current is None else pick(current, incoming),
                )

    def reset(self) -> None:
        """Zero every instrument in place (module-held references stay valid)."""
        for instrument in self._counters.values():
            instrument.value = 0
        for instrument in self._gauges.values():
            instrument.value = 0.0
        for histogram in self._histograms.values():
            histogram.count = 0
            histogram.total = 0.0
            histogram.min = None
            histogram.max = None


#: The process-global registry every built-in instrumentation point uses.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global registry."""
    return _REGISTRY


def counter(name: str) -> Counter:
    """Get-or-create a counter on the process-global registry."""
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """Get-or-create a gauge on the process-global registry."""
    return _REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    """Get-or-create a histogram on the process-global registry."""
    return _REGISTRY.histogram(name)
