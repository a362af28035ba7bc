"""Deterministic fault injection for the grid and the advisor service.

The grid's retries, timeouts, crash recovery and quarantine
(``docs/ROBUSTNESS.md``) and the service's journal degradation and worker
respawn (``docs/SERVICE.md``) only earn trust if every one of their paths can
be exercised *reproducibly*.  This module is that harness: a
:class:`FaultPlan` maps *sites* to :class:`Fault` descriptions, and
:func:`trigger` fires the described fault when execution reaches a site.

A site is either a grid cell label
(:attr:`repro.grid.spec.GridCell.label`: ``algorithm/workload/cost_model``,
plus `` [backend]`` for executing cells), fired at the top of every cell
attempt, or one of the service's :data:`NAMED_SITES`:

``journal.append``
    Inside :meth:`repro.service.journal.JobJournal.append`, before the write.
``job.start``
    On a registry worker thread immediately before a job executes.

Fault kinds (``kind``):

=========  ===================================================================
``raise``  raise :class:`InjectedFaultError` — an :class:`OSError`, so a cell
           is retried or quarantined and the journal degrades exactly as on a
           real disk error
``slow``   sleep ``seconds`` at the site (hung cells, slow jobs)
``die``    a grid worker process exits with :data:`DIE_EXIT_CODE`; anywhere
           else (``in_process``) raise :class:`WorkerThreadDeath`
=========  ===================================================================

Every fault fires on the first ``times`` occurrences of its site
(``times: null``, the default, fires on every occurrence).  For a cell the
occurrence is the attempt number the supervisor passes; for a named site it
is counted in this process from zero, so runs are deterministic.

Plans travel through the :data:`ENV_VAR` environment variable as canonical
JSON.  Grid cells run in worker *processes* and both ``fork`` and ``spawn``
children inherit the environment, so a plan installed before ``run_grid``
starts its workers (``run_grid(faults=...)``), before ``python -m
repro.service`` boots, or by :func:`injected` in a test reaches every site
without extra plumbing.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Tuple

#: Environment variable carrying the installed plan as canonical JSON.
ENV_VAR = "REPRO_FAULTS"

#: Valid fault kinds.
KINDS = ("raise", "slow", "die")

#: The service's instrumentation sites; every other site is a cell label.
NAMED_SITES = ("journal.append", "job.start")

#: Exit status of a grid worker killed by a ``die`` fault — distinctive
#: enough to recognise in the supervisor's ``WorkerCrash`` message.
DIE_EXIT_CODE = 86

#: ``algorithm/workload/cost_model`` (registered ids may contain ``/`` too).
_CELL_LABEL = re.compile(r".+/.+/.+")


class FaultPlanError(ValueError):
    """Raised when a fault plan (mapping or JSON) does not validate."""


class InjectedFaultError(OSError):
    """The error a ``raise`` fault throws."""


class WorkerThreadDeath(BaseException):
    """The in-process ``die`` fault: a non-``Exception`` escaping the site.

    Deliberately a :class:`BaseException` subclass — the service registry's
    finalisation must survive exactly this shape (a ``KeyboardInterrupt``
    delivered to a worker thread is the real-world equivalent), and a serial
    grid run quarantines the cell instead of letting it unwind the caller.
    """


@dataclass(frozen=True)
class Fault:
    """One injected fault: what goes wrong at a site and how often.

    ``times`` bounds how many occurrences fire (``None``: every one);
    ``seconds`` is read by ``slow`` faults; ``message`` is the raised error
    text so tests can assert on it.
    """

    kind: str
    times: Optional[int] = None
    seconds: float = 0.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; valid: {list(KINDS)}"
            )
        if self.times is not None and self.times < 1:
            raise FaultPlanError("times must be >= 1 (or null for always)")
        if self.kind == "slow" and self.seconds <= 0:
            raise FaultPlanError("slow faults need seconds > 0")

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "Fault":
        """Build a fault from a plain mapping, validating every field."""
        if not isinstance(raw, Mapping) or "kind" not in raw:
            raise FaultPlanError(f"a fault must be a mapping with a kind, got {raw!r}")
        unknown = set(raw) - {field.name for field in dataclasses.fields(cls)}
        if unknown:
            raise FaultPlanError(f"unknown fault fields {sorted(unknown)}")
        times = raw.get("times")
        try:
            fields = {
                "times": None if times is None else int(times),
                "seconds": float(raw.get("seconds", 0.0)),
                "message": str(raw.get("message", cls.message)),
            }
        except (TypeError, ValueError) as error:
            raise FaultPlanError(f"invalid fault {dict(raw)!r}: {error}") from None
        return cls(kind=str(raw["kind"]), **fields)


class FaultPlan:
    """An immutable mapping from site to the fault injected there."""

    def __init__(self, faults: Mapping[str, Fault]) -> None:
        for site, fault in faults.items():
            if site not in NAMED_SITES and not _CELL_LABEL.fullmatch(site):
                raise FaultPlanError(
                    f"unknown fault site {site!r}: not a cell label "
                    f"(algorithm/workload/cost_model) or one of {list(NAMED_SITES)}"
                )
            if not isinstance(fault, Fault):
                raise FaultPlanError(f"plan entry {site!r} is not a Fault: {fault!r}")
        self._faults: Dict[str, Fault] = dict(faults)

    @classmethod
    def from_mapping(cls, raw: Mapping[str, object]) -> "FaultPlan":
        """Build a plan from ``{site: {"kind": ..., ...}}`` plain dicts."""
        if not isinstance(raw, Mapping):
            raise FaultPlanError(f"a fault plan must be a mapping, got {raw!r}")
        return cls(
            {
                str(site): fault if isinstance(fault, Fault) else Fault.from_dict(fault)
                for site, fault in raw.items()
            }
        )

    @classmethod
    def from_json(cls, raw: str) -> "FaultPlan":
        """Parse a plan from its JSON form, validating it."""
        try:
            decoded = json.loads(raw)
        except json.JSONDecodeError as error:
            raise FaultPlanError(f"fault plan is not valid JSON: {error}") from None
        return cls.from_mapping(decoded)

    def to_json(self) -> str:
        """Canonical JSON form (what :func:`injected` puts in the environment)."""
        return json.dumps(
            {site: dataclasses.asdict(fault) for site, fault in self._faults.items()},
            sort_keys=True,
            separators=(",", ":"),
        )

    def get(self, site: str) -> Optional[Fault]:
        """The fault injected at ``site``, or ``None``."""
        return self._faults.get(site)

    def sites(self) -> Tuple[str, ...]:
        """The sites the plan injects at, sorted."""
        return tuple(sorted(self._faults))

    def __len__(self) -> int:
        return len(self._faults)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultPlan) and self._faults == other._faults


# -- installation, occurrence accounting, triggering ---------------------------

#: Parse cache: the last seen raw environment value and its parsed plan, so
#: every trigger does not re-parse identical JSON.
_parsed: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)

#: Occurrences counted per site in this process (``times`` windows).
_occurrences: Dict[str, int] = {}
_occurrences_lock = threading.Lock()


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, parsed from the environment (or ``None``).

    A malformed plan raises :class:`FaultPlanError` loudly — a fault harness
    that silently ignored a typo would make its tests pass vacuously.
    """
    global _parsed
    raw = os.environ.get(ENV_VAR)
    if raw is None or not raw.strip():
        return None
    cached_raw, cached_plan = _parsed
    if raw == cached_raw:
        return cached_plan
    plan = FaultPlan.from_json(raw)
    _parsed = (raw, plan)
    return plan


@contextmanager
def injected(
    faults: "FaultPlan | Mapping[str, object] | None",
) -> Iterator[Optional[FaultPlan]]:
    """Install a plan for a ``with`` block, then restore the previous one.

    ``faults`` is a plan, a plain ``{site: {...}}`` mapping, or ``None`` (no
    plan inside the block).  Occurrence counters are reset on entry and exit
    so each block starts a fresh deterministic ``times`` window.
    """
    plan = faults
    if faults is not None and not isinstance(faults, FaultPlan):
        plan = FaultPlan.from_mapping(faults)
    previous = os.environ.get(ENV_VAR)
    if plan:
        os.environ[ENV_VAR] = plan.to_json()
    else:
        os.environ.pop(ENV_VAR, None)
    _reset_occurrences()
    try:
        yield plan
    finally:
        if previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous
        _reset_occurrences()


def _reset_occurrences() -> None:
    with _occurrences_lock:
        _occurrences.clear()


def trigger(
    site: str, occurrence: Optional[int] = None, in_process: bool = True
) -> None:
    """Fire the installed fault for ``site``, if one applies to this occurrence.

    ``occurrence`` is 1-based; ``None`` counts occurrences of ``site`` in
    this process, incremented only while a fault is installed there, so a
    ``times`` window is independent of activity before the plan.  Returns
    normally when no fault applies or its effect is a delay (``slow``).
    ``in_process=False`` marks a disposable grid worker process, which a
    ``die`` fault exits; everywhere else ``die`` raises
    :class:`WorkerThreadDeath` instead of killing the caller's interpreter.
    """
    plan = active_plan()
    fault = plan.get(site) if plan is not None else None
    if fault is None:
        return
    if occurrence is None:
        with _occurrences_lock:
            occurrence = _occurrences[site] = _occurrences.get(site, 0) + 1
    if fault.times is not None and occurrence > fault.times:
        return
    if fault.kind == "slow":
        time.sleep(fault.seconds)
    elif fault.kind == "raise":
        raise InjectedFaultError(fault.message)
    elif in_process:
        raise WorkerThreadDeath(fault.message)
    else:
        os._exit(DIE_EXIT_CODE)
