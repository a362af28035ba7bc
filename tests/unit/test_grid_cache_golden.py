"""Golden fixture: grid cache identity and deterministic backend sections.

Every literal below was recorded from the grid as it stood before execution
backends moved into one registry (:mod:`repro.exec.backends`).  A result
cache written by any earlier build must keep being served as hits, so the
content keys of estimated, measured and sqlite cells — under every builtin
disk and memory model, with default, explicitly-defaulted and non-default
execution settings — and the deterministic payload sections a cell stores
must never drift.  A failure here means existing caches would silently
recompute (or, worse, a changed section would be cached under an old key).
"""

import pytest

from repro.grid.cache import canonical_json, cell_inputs, content_key
from repro.grid.spec import GridCell, resolve_cost_model, resolve_workload
from repro.grid.worker import execute_cell

WORKLOAD = "tpch:partsupp@0.01"

#: Execution settings per backend and variant (``None``: all defaults).
SETTINGS = {
    "estimated": {"default": None},
    "measured": {
        "default": None,
        "explicit-defaults": {"rows": 20_000, "data_seed": 0},
        "non-default": {"rows": 1_000, "data_seed": 7},
    },
    "sqlite": {
        "default": None,
        "explicit-defaults": {"rows": 20_000, "data_seed": 0, "page_size": 4096},
        "non-default": {"rows": 1_000, "data_seed": 7, "page_size": 8192},
    },
}

GOLDEN_KEYS = {
    ("estimated", "hdd", "default"): "9fe3667c99832653041f95d6cd11f9e15683b12358c003e7bc77db61b230d468",
    ("estimated", "hdd:equal", "default"): "946c7d23eea6db4ce745f35914876ad571ea1671ae86addd125de631bdca30fd",
    ("estimated", "mainmemory", "default"): "d86bae57e9117d6ec8a261f2311deb4dcc340a09aa4b9ab1c01541603db2566f",
    ("measured", "hdd", "default"): "bc2e62391b6e280f7ca611971454cc4fbe61d39fd700f5f7b88b7b5abecf7f40",
    ("measured", "hdd", "explicit-defaults"): "bc2e62391b6e280f7ca611971454cc4fbe61d39fd700f5f7b88b7b5abecf7f40",
    ("measured", "hdd", "non-default"): "d79e78b50478f1803675101d2a1acb58bc402637815b5f389c5569480b287e51",
    ("measured", "hdd:equal", "default"): "9f8cea1eb32bf55c1f8196d7d337e40c6a4d3b4bc42af43692023b01a56c1c72",
    ("measured", "hdd:equal", "explicit-defaults"): "9f8cea1eb32bf55c1f8196d7d337e40c6a4d3b4bc42af43692023b01a56c1c72",
    ("measured", "hdd:equal", "non-default"): "4b4a06a703a757d702238686efc270f7b531b0cbedaa16c4d5c2afd5ffdc7d84",
    ("measured", "mainmemory", "default"): "3f64df4f1c0a89c76bbc37af4900b5b43938391fcc3a54aa5b7eec4ab8149c33",
    ("measured", "mainmemory", "explicit-defaults"): "3f64df4f1c0a89c76bbc37af4900b5b43938391fcc3a54aa5b7eec4ab8149c33",
    ("measured", "mainmemory", "non-default"): "15f198a9336bf9fe832a154b1316290fbf425c1f9ed5ecb3422d94550dcfad72",
    ("sqlite", "hdd", "default"): "8de45c0af42b2e1c9800f1c30d634ca8e62910a90b7847b423f5e5f16e10a06f",
    ("sqlite", "hdd", "explicit-defaults"): "8de45c0af42b2e1c9800f1c30d634ca8e62910a90b7847b423f5e5f16e10a06f",
    ("sqlite", "hdd", "non-default"): "f005b8c116539824b14386c55f8711f698ee6a329849839c447f376e31b73863",
    ("sqlite", "hdd:equal", "default"): "67aa66940aa02acac4350b7c13f08377ab2b60c7a6a6c3758608fa4c48fc47cc",
    ("sqlite", "hdd:equal", "explicit-defaults"): "67aa66940aa02acac4350b7c13f08377ab2b60c7a6a6c3758608fa4c48fc47cc",
    ("sqlite", "hdd:equal", "non-default"): "8acd41e728f0990d28149ba2d20dec72ea1f8452281dc8334bd9a207506c02e0",
    ("sqlite", "mainmemory", "default"): "2009387e94aa5942c8b2d974e3da2635d77b1d57108c790c3ac947926d1a5d79",
    ("sqlite", "mainmemory", "explicit-defaults"): "2009387e94aa5942c8b2d974e3da2635d77b1d57108c790c3ac947926d1a5d79",
    ("sqlite", "mainmemory", "non-default"): "98d5978f3e240064fba95a7f0808eb23c3b8a9a946682906bb737fd5fad856f4",
}

#: Deterministic sections of one tiny cell (hillclimb, 500 rows, seed 3).
GOLDEN_SECTIONS = {
    ("measured", "hdd"): {
        "supported": True,
        "rows": 500,
        "data_seed": 3,
        "predicted_seconds": 0.025067380925946486,
        "measured_io_seconds": 0.025067380925946486,
        "relative_error": 0.0,
        "blocks_read": 10,
        "seeks": 5,
        "data_checksum": 4970617702966474429,
    },
    ("measured", "mainmemory"): {
        "supported": False,
        "reason": (
            "cost model main-memory(line=64B, miss=100ns, penalty=1000ns) "
            "has no disk to execute against"
        ),
    },
    ("sqlite", "hdd"): {
        "supported": True,
        "engine": "sqlite",
        "rows": 500,
        "data_seed": 3,
        "page_size": 4096,
        "group_tables": 2,
        "predicted_seconds": 0.025067380925946486,
        "rows_scanned": 2500,
        "bytes_scanned": 50000,
    },
    ("sqlite", "mainmemory"): {
        "supported": True,
        "engine": "sqlite",
        "rows": 500,
        "data_seed": 3,
        "page_size": 4096,
        "group_tables": 4,
        "predicted_seconds": 6.68e-05,
        "rows_scanned": 5000,
        "bytes_scanned": 36000,
    },
}

#: Wall-clock ``timing`` entries each cell kind records.
GOLDEN_TIMING_KEYS = {
    ("measured", "hdd"): ["measured_cpu_seconds", "optimization_time"],
    ("measured", "mainmemory"): ["optimization_time"],
    ("sqlite", "hdd"): ["optimization_time", "sqlite_query_seconds", "sqlite_seconds"],
    ("sqlite", "mainmemory"): [
        "optimization_time", "sqlite_query_seconds", "sqlite_seconds",
    ],
}


@pytest.mark.parametrize("backend, model_id, variant", sorted(GOLDEN_KEYS))
def test_cache_key_is_unchanged(backend, model_id, variant):
    inputs = cell_inputs(
        "hillclimb", {}, WORKLOAD, resolve_workload(WORKLOAD),
        model_id, resolve_cost_model(model_id),
        backend=backend, measurement=SETTINGS[backend][variant],
    )
    assert content_key(inputs) == GOLDEN_KEYS[(backend, model_id, variant)]


@pytest.mark.parametrize("backend, model_id", sorted(GOLDEN_SECTIONS))
def test_deterministic_section_is_unchanged(backend, model_id):
    cell = GridCell(
        "hillclimb", WORKLOAD, model_id, backend=backend,
        measurement=(("rows", 500), ("data_seed", 3)),
    )
    payload = execute_cell(cell)
    expected = GOLDEN_SECTIONS[(backend, model_id)]
    assert canonical_json(payload[backend]) == canonical_json(expected)
    assert sorted(payload["timing"]) == GOLDEN_TIMING_KEYS[(backend, model_id)]
