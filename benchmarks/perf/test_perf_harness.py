"""Self-test of the benchmark harness: ``pytest benchmarks/perf``.

Runs every workload at ``--quick`` size, untraced and traced, and checks the
output contract — metric names and units, output checks, one metric per
probed module, and ``--compare`` verdicts.  No wall-clock assertions.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(workload, trace) -> (completed process, full result document)."""
    directory = tmp_path_factory.mktemp("perf")

    def one(plan):
        workload, trace = plan
        out = directory / f"{workload}-{trace}.json"
        completed = _bench(
            "--workload", workload, "--seed", "3", "--quick", "--trace", str(trace), "--out", str(out)
        )
        document = json.loads(out.read_text(encoding="utf-8")) if out.exists() else None
        return plan, (completed, document)

    plans = [(workload, trace) for workload in WORKLOADS for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(pool.map(one, plans))


def _last_line(completed: subprocess.CompletedProcess) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed_with_its_unit(runs, workload, trace):
    completed, _ = runs[(workload, trace)]
    result = _last_line(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    assert all(isinstance(metric["value"], float) for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_output_checks_pass(runs, workload, trace):
    completed, document = runs[(workload, trace)]
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = _last_line(completed)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert document["problems"] == []
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_every_probed_module_yields_a_metric(runs):
    measured = {}
    for workload in WORKLOADS:
        document = runs[(workload, 1)][1]
        for name, metric in document["metrics"].items():
            module = document["layers"][name]["module"]
            measured[module] = measured.get(module, False) or metric["value"] != 0
    assert measured and all(measured.values()), measured


def test_traced_layers_account_for_the_end_to_end_time(runs):
    for workload in WORKLOADS:
        metrics = runs[(workload, 1)][1]["metrics"]
        assert 0.9 <= metrics["trace.accounted_share"]["value"] <= 1.1, workload


def test_compare_passes_identical_files_and_flags_a_regression(runs, tmp_path):
    document = runs[("grid-resume", 0)][1]
    same = _bench("--compare", *[str(_write(tmp_path / name, document)) for name in ("a.json", "b.json")])
    assert same.returncode == 0, same.stdout
    assert "worse" not in same.stdout

    regressed = copy.deepcopy(document)
    for metric in SPEC["end_to_end"]:
        factor = 1.2 if metric["better"] == "lower" else 0.8
        regressed["metrics"][metric["name"]]["value"] *= factor
    flagged = _bench("--compare", str(tmp_path / "a.json"), str(_write(tmp_path / "c.json", regressed)))
    assert flagged.returncode == 1
    lines = {line.split()[1]: line for line in flagged.stdout.splitlines()[1:]}
    for metric in SPEC["end_to_end"]:
        expected = "worse" if metric["bound"] < 0.2 else "within bound"
        assert lines[metric["name"]].endswith(expected), lines[metric["name"]]


def _write(path: Path, document: dict) -> Path:
    path.write_text(json.dumps(document), encoding="utf-8")
    return path
