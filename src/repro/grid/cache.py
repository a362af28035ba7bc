"""Persistent, content-addressed result cache for grid cells.

Every cell result is stored as one JSON file whose name is the SHA-256 hash of
the cell's *resolved inputs*: the algorithm name and options, the cost model's
id and parameter fingerprint, and the workload's id plus its full content
(schema columns, row count, every query's footprint, weight and selectivity).
Executing cells (measured, sqlite) additionally hash their backend's
execution fingerprint — e.g. the measured row count, the synthetic data seed
and the executor's disk characteristics — so a change to any of them is a
cache miss, never a stale hit (see
:meth:`repro.exec.backends.ExecutionBackend.fingerprint`).
Hashing resolved content — not just ids — means the cache invalidates itself
when anything that could change a result changes: a generator producing
different queries, a rescaled table, a retuned cost model.  The ids stay in
the key on top of the content as a safety margin: a model's ``describe()``
string need not spell out every behavioural knob (e.g. the HDD model's buffer
sharing policy), so two ids are never allowed to collide on one entry even
when their parameter descriptions coincide.  Entries remain valid across
runs, processes and machines for identical inputs.

Layout on disk::

    <root>/<first two hash hex chars>/<full hash>.json

Each entry carries the inputs it was computed from and a checksum of its
payload::

    {"format": 1, "key": "<hash>", "inputs": {...},
     "payload": {...}, "payload_sha256": "<hash of canonical payload JSON>"}

``load`` trusts an entry only if all of the following hold; anything else is
treated as a miss and the cell is recomputed (and the entry overwritten):

* the file parses as JSON with the current format version, carries the
  expected shape, and its stored ``key`` matches its filename (a file copied
  to the wrong name fails here and counts as *corrupt*),
* re-hashing the stored ``inputs`` reproduces the key (a *stale* entry —
  hand-edited inputs whose result no longer belongs to this key — fails
  this),
* re-hashing the stored ``payload`` matches ``payload_sha256`` (a *corrupt*
  entry — truncated write, bit rot, tampering — fails this).

Writes are atomic (temp file + ``os.replace``) so an interrupted run never
leaves a half-written entry that a resume would then have to distrust.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Dict, Mapping, Optional

from repro.cost.base import CostModel
from repro.grid.spec import execution_backend
from repro.obs.metrics import counter as _obs_counter
from repro.workload.workload import Workload

#: Bump when the payload schema changes incompatibly; old entries then miss.
FORMAT_VERSION = 1

# Process-global mirrors of the per-instance counters below, so cache
# effectiveness shows up in run telemetry and traces (docs/OBSERVABILITY.md).
_CACHE_HITS = _obs_counter("grid.cache.hits")
_CACHE_MISSES = _obs_counter("grid.cache.misses")
_CACHE_CORRUPT = _obs_counter("grid.cache.corrupt")
_CACHE_STALE = _obs_counter("grid.cache.stale")
_CACHE_STORES = _obs_counter("grid.cache.stores")
_CACHE_STORE_FAILURES = _obs_counter("grid.cache.store_failures")
_CACHE_LOAD_FAILURES = _obs_counter("grid.cache.load_failures")


def canonical_json(value: object) -> str:
    """Deterministic JSON used for hashing: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def content_key(inputs: Mapping[str, object]) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``inputs``."""
    return hashlib.sha256(canonical_json(inputs).encode("utf-8")).hexdigest()


def workload_fingerprint(workload: Workload) -> Dict[str, object]:
    """Everything about a workload that can influence a cell's result."""
    schema = workload.schema
    return {
        "name": workload.name,
        "schema": {
            "name": schema.name,
            "row_count": schema.row_count,
            "columns": [[column.name, column.width] for column in schema.columns],
        },
        "queries": [
            [
                query.name,
                list(query.attribute_indices),
                query.weight,
                query.selectivity,
            ]
            for query in workload
        ],
    }


def cost_model_fingerprint(cost_model_id: str, cost_model: CostModel) -> Dict[str, object]:
    """The cost model's identity: its id plus its full parameter description.

    ``describe()`` includes every tunable parameter for the built-in models,
    so re-registering an id with different parameters invalidates old entries.
    """
    return {"id": cost_model_id, "parameters": cost_model.describe()}


def cell_inputs(
    algorithm: str,
    algorithm_options: Mapping[str, object],
    workload_id: str,
    workload: Workload,
    cost_model_id: str,
    cost_model: CostModel,
    backend: str = "estimated",
    measurement: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """The complete, hashable input description of one grid cell.

    Estimated cells hash exactly the same inputs as before the measured
    backend existed, and measured cells exactly the same as before the sqlite
    backend existed, so pre-existing cache entries stay valid.  Executing
    cells add the backend marker and their backend's execution fingerprint
    over the resolved settings — a result computed from one data seed, row
    count, disk, engine or page size must never be served for another.
    """
    inputs = {
        "format": FORMAT_VERSION,
        "algorithm": algorithm,
        "algorithm_options": dict(algorithm_options),
        "workload_id": workload_id,
        "workload": workload_fingerprint(workload),
        "cost_model": cost_model_fingerprint(cost_model_id, cost_model),
    }
    executing = execution_backend(backend)
    if executing is not None:
        inputs["backend"] = backend
        inputs["execution"] = executing.fingerprint(
            executing.resolve(measurement), cost_model, workload
        )
    return inputs


def deterministic_payload(payload: Mapping[str, object]) -> Dict[str, object]:
    """The payload minus its wall-clock ``timing`` section.

    Everything left is a pure function of the cell inputs, so two computations
    of the same cell — serial or parallel, cached or fresh — agree byte for
    byte on this view's canonical JSON.
    """
    return {key: value for key, value in payload.items() if key != "timing"}


class ResultCache:
    """On-disk JSON cache of grid cell results, keyed by input content hash.

    I/O failures degrade instead of killing the run: a ``store`` that cannot
    write (read-only root, disk full, root path occupied by a file) and a
    ``load`` that cannot read (permissions, I/O error) are *counted*, warned
    about once per cache instance, and otherwise ignored — the grid simply
    runs cache-less for the affected entries.  A cache is an accelerator; it
    must never be the reason a multi-hour grid dies.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        #: Entries served from disk.
        self.hits = 0
        #: Lookups with no entry on disk.
        self.misses = 0
        #: Entries rejected because they did not parse or failed a checksum.
        self.corrupt = 0
        #: Entries rejected because their stored inputs no longer hash to
        #: their key.
        self.stale = 0
        #: Entries written (fresh computations stored).
        self.stores = 0
        #: Writes that failed with an ``OSError`` (results kept in memory,
        #: run continued cache-less).
        self.store_failures = 0
        #: Reads that failed with an ``OSError`` other than the entry being
        #: absent (treated as misses, recomputed).
        self.load_failures = 0
        self._io_warned = False

    def _warn_io_failure(self, action: str, error: OSError) -> None:
        """Warn on the first I/O failure only; later ones just count."""
        if self._io_warned:
            return
        self._io_warned = True
        warnings.warn(
            f"result cache {self.root} cannot {action} entries "
            f"({type(error).__name__}: {error}); continuing without the "
            f"cache for affected cells — further failures are counted "
            f"silently (see ResultCache.describe())",
            RuntimeWarning,
            stacklevel=3,
        )

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (two-level fan-out)."""
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> Optional[Dict[str, object]]:
        """The cached payload for ``key``, or ``None`` if absent or untrusted."""
        path = self.path_for(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except (FileNotFoundError, NotADirectoryError):
            self.misses += 1
            _CACHE_MISSES.value += 1
            return None
        except OSError as error:
            self.load_failures += 1
            _CACHE_LOAD_FAILURES.value += 1
            self._warn_io_failure("read", error)
            return None
        try:
            entry = json.loads(raw)
        except json.JSONDecodeError:
            self.corrupt += 1
            _CACHE_CORRUPT.value += 1
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("format") != FORMAT_VERSION
            or entry.get("key") != key
            or not isinstance(entry.get("payload"), dict)
        ):
            self.corrupt += 1
            _CACHE_CORRUPT.value += 1
            return None
        if content_key(entry.get("inputs", {})) != key:
            self.stale += 1
            _CACHE_STALE.value += 1
            return None
        payload = entry["payload"]
        if (
            hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
            != entry.get("payload_sha256")
        ):
            self.corrupt += 1
            _CACHE_CORRUPT.value += 1
            return None
        self.hits += 1
        _CACHE_HITS.value += 1
        return payload

    def store(
        self, key: str, inputs: Mapping[str, object], payload: Mapping[str, object]
    ) -> None:
        """Atomically persist one entry (overwrites any distrusted leftover).

        A write that fails with ``OSError`` (read-only root, disk full, root
        occupied by a file) is counted in :attr:`store_failures`, warned
        about once, and swallowed — the result stays usable in memory and the
        run continues cache-less for this entry.
        """
        entry = {
            "format": FORMAT_VERSION,
            "key": key,
            "inputs": inputs,
            "payload": payload,
            "payload_sha256": hashlib.sha256(
                canonical_json(payload).encode("utf-8")
            ).hexdigest(),
        }
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle, temp_path = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp"
            )
            try:
                with os.fdopen(handle, "w", encoding="utf-8") as stream:
                    json.dump(entry, stream, sort_keys=True, indent=1)
                os.replace(temp_path, path)
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        except OSError as error:
            self.store_failures += 1
            _CACHE_STORE_FAILURES.value += 1
            self._warn_io_failure("write", error)
            return
        self.stores += 1
        _CACHE_STORES.value += 1

    @property
    def lookups(self) -> int:
        """Total lookups answered (hits + all flavours of miss)."""
        return self.hits + self.misses + self.corrupt + self.stale + self.load_failures

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 with no lookups)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        """One-line statistics summary."""
        rejected = ""
        if self.corrupt or self.stale:
            rejected = f", {self.corrupt} corrupt, {self.stale} stale (recomputed)"
        degraded = ""
        if self.store_failures or self.load_failures:
            degraded = (
                f", degraded: {self.store_failures} store / "
                f"{self.load_failures} load I/O failures"
            )
        return (
            f"cache {self.root}: {self.hits} hits, {self.misses} misses "
            f"({self.hit_rate * 100:.1f}% hit rate{rejected}{degraded})"
        )
