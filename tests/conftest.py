"""Shared fixtures for the test suite.

Fixtures deliberately use small scale factors and narrow tables so the whole
suite stays fast; the full-scale reproduction numbers are produced by the
benchmark harnesses in ``benchmarks/`` instead.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading

import pytest

from repro.cost.disk import DiskCharacteristics, MB
from repro.cost.evaluator import cache_sharing_enabled, enable_cache_sharing
from repro.cost.hdd import HDDCostModel
from repro.cost.mainmemory import MainMemoryCostModel
from repro.faults import ENV_VAR as FAULTS_ENV_VAR
from repro.workload import tpch
from repro.workload.query import Query
from repro.workload.schema import Column, TableSchema
from repro.workload.workload import Workload

#: Set to any seed to run the suite in a seeded random order: modules
#: shuffled, then the tests within each module (module-scoped fixtures are
#: still built once).  Unset, tests run in file order.
SHUFFLE_ENV_VAR = "REPRO_TEST_SHUFFLE"


def pytest_report_header(config):
    seed = os.environ.get(SHUFFLE_ENV_VAR)
    if seed:
        return f"test order shuffled: {SHUFFLE_ENV_VAR}={seed}"
    return None


def pytest_collection_modifyitems(config, items):
    seed = os.environ.get(SHUFFLE_ENV_VAR)
    if not seed:
        return
    rng = random.Random(seed)
    modules = {}
    for item in items:
        modules.setdefault(item.nodeid.split("::")[0], []).append(item)
    groups = list(modules.values())
    rng.shuffle(groups)
    for group in groups:
        rng.shuffle(group)
    items[:] = [item for group in groups for item in group]


@pytest.fixture(autouse=True)
def no_leaked_state():
    """Fail any test that leaves process-global state behind for the next one:
    a changed fault plan or evaluator cache-sharing switch (both restored
    here), or a new live child process or non-daemon thread."""
    threads_before = set(threading.enumerate())
    children_before = set(multiprocessing.active_children())
    plan_before = os.environ.get(FAULTS_ENV_VAR)
    sharing_before = cache_sharing_enabled()
    yield
    leaks = []
    if os.environ.get(FAULTS_ENV_VAR) != plan_before:
        leaks.append(f"{FAULTS_ENV_VAR} changed")
        os.environ.pop(FAULTS_ENV_VAR, None)
        if plan_before is not None:
            os.environ[FAULTS_ENV_VAR] = plan_before
    if enable_cache_sharing(sharing_before) != sharing_before:
        state = "off" if sharing_before else "on"
        leaks.append(f"evaluator cache sharing left {state}")
    children = [
        child for child in multiprocessing.active_children()
        if child not in children_before
    ]
    if children:
        leaks.append(f"live child processes {children}")
    threads = [
        thread for thread in threading.enumerate()
        if thread not in threads_before and thread.is_alive() and not thread.daemon
    ]
    if threads:
        leaks.append(f"live non-daemon threads {threads}")
    if leaks:
        pytest.fail("test leaked state: " + "; ".join(leaks))


@pytest.fixture
def small_schema() -> TableSchema:
    """A five-attribute table mirroring the paper's PartSupp example."""
    return TableSchema(
        name="partsupp_small",
        columns=[
            Column("partkey", 4, "int"),
            Column("suppkey", 4, "int"),
            Column("availqty", 4, "int"),
            Column("supplycost", 8, "decimal"),
            Column("comment", 199, "varchar(199)"),
        ],
        row_count=100_000,
    )


@pytest.fixture
def intro_workload(small_schema: TableSchema) -> Workload:
    """The two-query workload from the paper's introduction (Q1 and Q2)."""
    return Workload(
        schema=small_schema,
        queries=[
            Query("Q1", ["partkey", "suppkey", "availqty", "supplycost"]),
            Query("Q2", ["availqty", "supplycost", "comment"]),
        ],
        name="intro",
    )


@pytest.fixture
def tiny_disk() -> DiskCharacteristics:
    """Disk characteristics with a small buffer so seek effects are visible."""
    return DiskCharacteristics(buffer_size=1 * MB)


@pytest.fixture
def hdd_model() -> HDDCostModel:
    """The paper's default HDD cost model."""
    return HDDCostModel()


@pytest.fixture
def mm_model() -> MainMemoryCostModel:
    """The main-memory (cache miss) cost model."""
    return MainMemoryCostModel()


@pytest.fixture
def partsupp_workload() -> Workload:
    """The real TPC-H PartSupp workload at a small scale factor."""
    return tpch.tpch_workload("partsupp", scale_factor=0.1)


@pytest.fixture
def customer_workload() -> Workload:
    """The real TPC-H Customer workload at a small scale factor."""
    return tpch.tpch_workload("customer", scale_factor=0.1)


@pytest.fixture
def lineitem_workload() -> Workload:
    """The real TPC-H Lineitem workload at a small scale factor."""
    return tpch.tpch_workload("lineitem", scale_factor=0.1)
