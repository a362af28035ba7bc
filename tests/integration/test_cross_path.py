"""Cross-path equality: one question, three entry points, one answer.

The same comparison or validation can reach the library through the advisor
service's job executor (:func:`repro.service.jobs.execute_job`), the
:class:`~repro.core.advisor.LayoutAdvisor`, or :func:`repro.grid.run_grid`
directly.  All of them must give the same answer: equal cache keys and
content-hash-equal deterministic cell payloads for a compare, and equal
validation rows (wall clock aside) for a validate on every backend.
"""

import hashlib
import json

import pytest

from repro.core.advisor import LayoutAdvisor
from repro.exec.backends import available_backends
from repro.grid.cache import ResultCache, canonical_json, deterministic_payload
from repro.grid.runner import run_grid
from repro.grid.spec import GridSpec, resolve_cost_model, resolve_workload
from repro.service.jobs import Job, execute_job, job_id_for, normalize_request

WORKLOAD = "tpch:partsupp@0.01"

#: A tiny measured-backend compare: an executable and an unsupported model.
COMPARE = {
    "algorithms": ["hillclimb", "navathe"],
    "workloads": [WORKLOAD],
    "cost_models": ["hdd", "mainmemory"],
    "backend": "measured",
    "measurement": {"rows": 500, "data_seed": 2},
}

#: The wall-clock column of each backend's validation rows.
WALL_CLOCK_COLUMN = {"measured": "cpu (ms)", "sqlite": "sqlite (ms)"}


def _job(kind, body):
    normalized = normalize_request(kind, body)
    return Job(id=job_id_for(kind, normalized), kind=kind, request=normalized)


def _content_hash(payload):
    deterministic = canonical_json(deterministic_payload(payload))
    return hashlib.sha256(deterministic.encode("utf-8")).hexdigest()


def _json(value):
    return json.loads(json.dumps(value))


def test_compare_paths_agree(tmp_path):
    spec = GridSpec(
        name="cross-path",
        algorithms=COMPARE["algorithms"],
        workloads=COMPARE["workloads"],
        cost_models=COMPARE["cost_models"],
        backend=COMPARE["backend"],
        measurement=COMPARE["measurement"],
    )
    cache_dir = tmp_path / "service-cache"
    result = execute_job(_job("compare", COMPARE), cache_dir=str(cache_dir))
    cache = ResultCache(cache_dir)
    via_service = {
        cell["key"]: _content_hash(cache.load(cell["key"]))
        for cell in result["cells"]
    }
    via_advisor = {
        cell.key: _content_hash(cell.payload)
        for cell in LayoutAdvisor().compare(grid=spec).results
    }
    via_grid = {
        cell.key: _content_hash(cell.payload) for cell in run_grid(spec).results
    }
    assert len(via_service) == 4
    assert via_service == via_advisor == via_grid


@pytest.mark.parametrize("backend", available_backends())
def test_validate_paths_agree(backend):
    request = {
        "workload": WORKLOAD,
        "backend": backend,
        "rows": 500,
        "algorithms": ["hillclimb", "navathe"],
    }
    via_service = execute_job(_job("validate", request))
    report = LayoutAdvisor(cost_model=resolve_cost_model("hdd")).validate_costs(
        resolve_workload(WORKLOAD),
        rows=500,
        algorithms=("hillclimb", "navathe"),
        backend=backend,
    )

    def _rows(rows):
        column = WALL_CLOCK_COLUMN[backend]
        return sorted(
            ({key: value for key, value in row.items() if key != column}
             for row in _json(rows)),
            key=lambda row: row["layout"],
        )

    assert via_service["backend"] == backend
    assert _rows(via_service["rows"]) == _rows(report.to_rows())
    assert len(via_service["rows"]) == 4  # two algorithms + row and column
